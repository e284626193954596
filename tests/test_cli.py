import gc
import json
import math
import subprocess
import sys
import time

import pytest

from polyfock import toeplitz, verify
from polyfock.cli import dumps_fixed, format_float, main, parse_complex
from polyfock.quadrature import QuadratureConvergenceError

from oracles import run_verify_with_b21_corrupted


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "polyfock.cli", *args],
                          capture_output=True, text=True)


def test_commands_do_not_import_scipy():
    # numpy is the only runtime dependency
    script = ("import sys\n"
              "from polyfock.cli import main\n"
              "codes = [main(['verify', '--suite', 'all', '--quick']),\n"
              "         main(['toeplitz', '--n', '1', '--symbol', 'indicator:1',\n"
              "               '--pmax', '5'])]\n"
              "print(codes, 'scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0] False"


class TestHelpers:
    def test_parse_complex(self):
        assert parse_complex("2+0i") == 2.0
        assert parse_complex("1.5-2i") == 1.5 - 2j
        assert parse_complex("3i") == 3j
        assert parse_complex("-0.5") == -0.5
        with pytest.raises(ValueError):
            parse_complex("two")

    @pytest.mark.parametrize("text", ["nan", "NaN", "1e400", "-1e400",
                                      "1+nani", "0+1e400i"])
    def test_parse_complex_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match="--z must be finite"):
            parse_complex(text, "--z")

    def test_format_float_17_digits(self):
        assert format_float(1 / 3) == "0.33333333333333331"
        assert format_float(1.0) == "1"

    def test_dumps_fixed_shapes(self):
        text = dumps_fixed({"a": [1, 2.5, "x"], "b": None, "c": True})
        assert text == '{"a":[1,2.5,"x"],"b":null,"c":true}'
        assert json.loads(text) == {"a": [1, 2.5, "x"], "b": None, "c": True}


class TestBasisCommand:
    def test_eval_value(self):
        proc = run_cli("basis", "--p", "1", "--q", "1", "--eval", "2+0i")
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["value_re"] == pytest.approx(3.0)
        assert record["value_im"] == 0.0

    def test_eval_high_index(self, capsys):
        assert main(["basis", "--p", "200", "--q", "0", "--eval", "1+0i"]) == 0
        record = json.loads(capsys.readouterr().out)
        want = math.exp(-0.5 * math.lgamma(201))  # 1/sqrt(200!)
        assert record["value_re"] == pytest.approx(want, rel=1e-12)

    def test_constant_coefficients(self):
        proc = run_cli("basis", "--p", "0", "--q", "0", "--coeffs")
        record = json.loads(proc.stdout)
        assert record["coeffs"] == [[0, 0, "1", "0"]]
        assert record["scale_sq"] == "1"

    def test_quartic_layout(self):
        proc = run_cli("basis", "--p", "2", "--q", "2", "--coeffs")
        record = json.loads(proc.stdout)
        assert record["scale_sq"] == "1/4"
        assert [0, 0, "2", "0"] in record["coeffs"]
        # represented constant term is 1: value at the origin
        proc2 = run_cli("basis", "--p", "2", "--q", "2", "--eval", "0+0i")
        assert json.loads(proc2.stdout)["value_re"] == pytest.approx(1.0)


class TestKernelCommand:
    def test_origin(self):
        proc = run_cli("kernel", "--n", "1", "--kind", "poly", "--z", "0+0i",
                       "--w", "0+0i")
        record = json.loads(proc.stdout)
        assert record["value_re"] == pytest.approx(1.0)

    def test_diagonal_order_three(self):
        proc = run_cli("kernel", "--n", "3", "--kind", "poly", "--z", "1+0i",
                       "--w", "1+0i")
        record = json.loads(proc.stdout)
        assert record["value_re"] == pytest.approx(3 * math.e, rel=1e-12)

    def test_true_kernel_zero(self):
        proc = run_cli("kernel", "--n", "2", "--kind", "true", "--z", "0+0i",
                       "--w", "1+0i")
        record = json.loads(proc.stdout)
        assert record["value_re"] == pytest.approx(0.0, abs=1e-14)

    def test_order_one_far_point(self, capsys):
        # L_0 = 1: the order-1 kernel needs no finite |w-z|^2; from order 2
        # on the Laguerre factor does, and its error is named
        argv = ["kernel", "--kind", "true", "--z", "1e200+0i", "--w", "0+0i"]
        assert main(argv + ["--n", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["value_re"] == 1
        assert main(argv + ["--n", "2"]) == 1
        assert "|w-z|^2 = inf is not finite" in capsys.readouterr().err

    def test_unbounded_phase_exit_one(self, capsys):
        # zbar w = 1e400 i: its phase leaves the float range
        assert main(["kernel", "--n", "1", "--kind", "true", "--z", "1e200+0i",
                     "--w", "0+1e200i"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: kernel phase Im(zbar w) = inf is not finite\n"

    def test_value_near_the_float_maximum(self, capsys):
        # Re(zbar w) = 702.25: the value 2 e^702.25 fits in a float
        assert main(["kernel", "--n", "2", "--kind", "poly", "--z", "26.5+0i",
                     "--w", "26.5+0i"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["value_re"] == 2 * math.exp(702.25)

    def test_series_residual_reported(self):
        # values starting with a minus sign need the --flag=value form
        proc = run_cli("kernel", "--n", "2", "--kind", "poly", "--z", "0.5+0.5i",
                       "--w=-0.25+1i", "--series", "80")
        record = json.loads(proc.stdout)
        assert record["series_residual"] < 1e-8


class TestToeplitzCommand:
    def test_constant_symbol_csv(self):
        proc = run_cli("toeplitz", "--n", "2", "--symbol", "const:1",
                       "--pmax", "4")
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "p,re,im"
        for line in lines[1:]:
            _, re, im = line.split(",")
            assert float(re) == pytest.approx(1.0, abs=1e-10)
            assert float(im) == pytest.approx(0.0, abs=1e-12)

    def test_indicator_incomplete_gamma_column(self):
        proc = run_cli("toeplitz", "--n", "1", "--symbol", "indicator:1",
                       "--pmax", "5")
        rows = [line.split(",") for line in proc.stdout.strip().split("\n")[1:]]
        got = [float(re) for _, re, _ in rows]
        # oracle: P(p+1, 1) = 1 - e^{-1} sum_{k<=p} 1/k!
        want = [1 - math.exp(-1) * sum(1 / math.factorial(k) for k in range(p + 1))
                for p in range(6)]
        assert got == pytest.approx(want, abs=1e-9)

    def test_blocks_json_norms_decreasing(self):
        proc = run_cli("toeplitz", "--n", "2", "--symbol", "indicator:1",
                       "--blocks", "--dmax", "30")
        record = json.loads(proc.stdout)
        assert record["d_min"] == -1
        import numpy as np
        norms = [np.linalg.norm(np.array([[complex(re, im) for re, im in row]
                                          for row in block]), 2)
                 for block in record["blocks"]]
        assert norms[-1] < norms[5] < norms[1]
        assert norms[-1] < 1e-4

    def test_smallest_truncations(self, capsys):
        assert main(["toeplitz", "--n", "1", "--symbol", "const:1",
                     "--pmax", "0"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "p,re,im" and len(lines) == 2
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-10)
        assert main(["toeplitz", "--n", "2", "--symbol", "const:1", "--blocks",
                     "--dmax", "0"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["d_min"], record["d_max"]) == (-1, 0)
        assert [len(block) for block in record["blocks"]] == [1, 2]

    def test_json_format(self):
        proc = run_cli("toeplitz", "--n", "1", "--symbol", "gauss:1",
                       "--pmax", "3", "--format", "json")
        record = json.loads(proc.stdout)
        assert len(record["values"]) == 4


def old_blocks_record(symbol, n, d_max):
    """The `toeplitz --blocks` record as nested lists, the layout written by
    `dumps_fixed` before blocks were written from their arrays."""
    blocks = [[[[v.real, v.imag] for v in row] for row in block]
              for block in toeplitz.toeplitz_blocks(symbol, n, d_max)]
    return dumps_fixed({"n": n, "symbol": symbol.name, "d_min": -n + 1,
                        "d_max": d_max, "blocks": blocks}) + "\n"


class TestBlockWriter:
    """`toeplitz --blocks` writes the same bytes as `dumps_fixed` of the
    nested-list record."""

    @pytest.mark.parametrize("n", [1, 4, 8])
    @pytest.mark.parametrize("d_max", [1, 20, 100])
    @pytest.mark.parametrize("spec", ["indicator:1.4109", "rational"])
    def test_matches_nested_list_record(self, spec, n, d_max, capsys):
        code = main(["toeplitz", "--n", str(n), "--symbol", spec, "--blocks",
                     "--dmax", str(d_max)])
        assert code == 0
        want = old_blocks_record(toeplitz.symbol_from_spec(spec), n, d_max)
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("value", [1 + 2j, complex(-0.0, 1.0)])
    def test_complex_and_negative_zero_entries(self, value, capsys,
                                               monkeypatch):
        symbol = toeplitz.const_symbol(value)
        monkeypatch.setattr(toeplitz, "symbol_from_spec", lambda text: symbol)
        code = main(["toeplitz", "--n", "4", "--symbol", "const:1",
                     "--blocks", "--dmax", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == old_blocks_record(symbol, 4, 20)
        blocks = json.loads(out)["blocks"]
        assert blocks[0][0][0][1] == pytest.approx(value.imag)
        if value.real == 0:
            assert "[-0," in out

    def test_out_path(self, tmp_path, capsys):
        path = tmp_path / "blocks.json"
        code = main(["toeplitz", "--n", "3", "--symbol", "rational", "--blocks",
                     "--dmax", "20", "--out", str(path)])
        assert code == 0 and capsys.readouterr().out == ""
        want = old_blocks_record(toeplitz.inverse_quadratic_symbol(), 3, 20)
        assert path.read_bytes() == want.encode("utf-8")


#: every `verify` line, in the order `run_suites(SUITE_NAMES)` reports them,
#: full and quick alike
VERIFY_LINES = [
    "laguerre/orthogonality",
    "laguerre/function_normalization",
    "laguerre/recurrence_vs_explicit_sum",
    "laguerre/order_decay_monotone",
    "laguerre/order_decay_small_at_120",
    "laguerre/rodrigues_identity_exact",
    "basis/operator_vs_closed_coefficients",
    "basis/exact_orthonormality",
    "basis/monomial_pairing_closed_form",
    "basis/numeric_orthonormality",
    "basis/polar_profile_is_polynomial",
    "basis/rotation_eigenrelation",
    "kernels/series_vs_closed_form",
    "kernels/recursion_exact",
    "kernels/rotation_invariance",
    "kernels/hermitian_symmetry",
    "kernels/telescoping_sum",
    "kernels/diagonal_and_sharp_bound",
    "kernels/berezin_identity_is_one",
    "kernels/berezin_blind_spot_vanishes",
    "kernels/berezin_blind_spot_operator_nonzero",
    "radial/radialization_fixed_point_on_radial",
    "radial/radial_report_on_assembled",
    "radial/blind_spot_witness_nonradial",
    "radial/numeric_radialization_matches_exact",
    "radial/aliasing_witness_below_nyquist",
    "radial/block_sizes_1_to_n_then_n",
    "radial/phi_assemble_round_trip_exact",
    "radial/assembled_norm_is_max_block_norm",
    "radial/block_map_multiplicative",
    "radial/toeplitz_rotation_covariance",
    "radial/finite_rank_constructor",
    "radial/berezin_of_radial_is_rotation_invariant",
    "toeplitz/beta_of_one_is_delta",
    "toeplitz/beta_indicator_closed_form",
    "toeplitz/indicator_eigenvalues_vs_gamma",
    "toeplitz/indicator_monotone_positive",
    "toeplitz/true_layer_diagonality",
    "toeplitz/eigenvalues_match_matrix_diagonal",
    "toeplitz/eigenvalue_contractivity",
    "toeplitz/eigenvalue_limit_at_infinity",
    "toeplitz/slow_symbol_limit_monotone",
    "toeplitz/block_limit_toward_scalar",
    "toeplitz/indicator_separation_witnesses",
]


class TestVerifyCommand:
    @pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
    def test_line_names_and_order(self, quick):
        results = verify.run_suites(list(verify.SUITE_NAMES), quick=quick)
        assert [f"{r.suite}/{r.name}" for r in results] == VERIFY_LINES

    def test_quick_suite_passes_fast(self):
        start = time.monotonic()
        proc = run_cli("verify", "--suite", "laguerre", "--quick")
        elapsed = time.monotonic() - start
        assert proc.returncode == 0
        assert "FAIL" not in proc.stdout
        assert proc.stdout.strip().endswith("checks passed")
        assert elapsed < 5.0

    def test_corruption_is_caught_by_name(self):
        proc = run_verify_with_b21_corrupted("--suite", "basis", "--quick")
        assert proc.returncode == 1
        assert "FAIL  basis/operator_vs_closed_coefficients" in proc.stdout


class TestExitCodes:
    def test_bad_arguments_exit_two(self):
        proc = run_cli("basis", "--q", "1")
        assert proc.returncode == 2

    def test_unknown_symbol_exit_one(self):
        proc = run_cli("toeplitz", "--n", "1", "--symbol", "bogus:1",
                       "--pmax", "2")
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("argv, value", [
        (["--pmax", "-1"], "-1"),
        (["--blocks", "--dmax", "-1"], "-1"),
    ])
    def test_out_of_range_option_exit_one(self, argv, value, capsys):
        code = main(["toeplitz", "--n", "1", "--symbol", "const:1"] + argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.rstrip().endswith(f"got {value}")

    def test_overflowing_kernel_exit_one(self):
        proc = run_cli("kernel", "--n", "1", "--kind", "poly", "--z", "30+0i",
                       "--w", "30+0i")
        assert proc.returncode == 1

    def test_main_callable_directly(self):
        assert main(["basis", "--p", "0", "--q", "1", "--eval", "1+1i"]) == 0

    @pytest.mark.parametrize("spec", ["indicator:nan", "indicator:inf",
                                      "const:nan", "gauss:nan"])
    def test_non_finite_symbol_parameter_exit_one(self, spec, capsys):
        code = main(["toeplitz", "--n", "1", "--symbol", spec, "--pmax", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and spec in err

    @pytest.mark.parametrize("spec", ["rational:5", "rational:abc",
                                      "rational:nan", "const", "gauss:",
                                      "const:1+2j"])
    def test_ignored_or_unparsable_symbol_parameter_exit_one(self, spec, capsys):
        code = main(["toeplitz", "--n", "1", "--symbol", spec, "--pmax", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and repr(spec) in captured.err

    @pytest.mark.parametrize("spec, reason", [
        ("indicator:-1", "indicator radius must be positive"),
        ("gauss:0", "scale must be positive")])
    def test_non_positive_symbol_parameter_exit_one(self, spec, reason, capsys):
        code = main(["toeplitz", "--n", "1", "--symbol", spec, "--pmax", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: symbol spec {spec!r}: {reason}\n"

    def test_non_positive_symbol_parameter_has_no_traceback(self):
        proc = run_cli("toeplitz", "--n", "1", "--symbol", "indicator:-1",
                       "--pmax", "1")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("error: symbol spec 'indicator:-1': indicator "
                               "radius must be positive\n")

    @pytest.mark.parametrize("argv, flag", [
        (["kernel", "--n", "2", "--kind", "poly", "--z=nan", "--w", "0"], "--z"),
        (["kernel", "--n", "2", "--kind", "true", "--z", "0", "--w=-1e999"], "--w"),
        (["basis", "--p", "1", "--q", "1", "--eval=nan"], "--eval"),
        (["basis", "--p", "1", "--q", "1", "--eval=1e400"], "--eval"),
    ])
    def test_non_finite_point_exit_one(self, argv, flag, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {flag} must be finite")

    @pytest.mark.parametrize("argv, message", [
        (["basis", "--p", "128", "--q", "3", "--eval", "100000+0i"],
         "error: b_128,3 at z=(100000+0j) does not fit in a float"),
        (["kernel", "--n", "1", "--kind", "poly", "--z", "30+0i", "--w", "0+30i",
          "--series", "500"], "error: kernel series term b_"),
    ])
    def test_overflowing_point_value_exit_one(self, argv, message, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(message)

    def test_overflowing_laguerre_factor_exit_one(self, capsys):
        code = main(["kernel", "--n", "8", "--kind", "poly", "--z", "0",
                     "--w", "1e100"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: kernel factor")

    @pytest.mark.parametrize("argv", [
        ["basis", "--p", "1", "--q", "0"],
        ["kernel", "--n", "1", "--kind", "poly", "--z", "0", "--w", "0"],
        ["toeplitz", "--n", "1", "--symbol", "const:1", "--pmax", "3"],
        ["verify", "--suite", "laguerre", "--quick"]],
        ids=["basis", "kernel", "toeplitz", "verify"])
    def test_unwritable_out_path_exit_one(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        code = main(argv + ["--out", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and str(path) in captured.err

    def test_tiny_gauss_scale_gives_zeros(self, capsys):
        code = main(["toeplitz", "--n", "2", "--symbol", "gauss:1e-300",
                     "--pmax", "3"])
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert code == 0
        assert [line.split(",")[1:] for line in rows] == [["0", "0"]] * 4

    def test_convergence_error_exit_one(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureConvergenceError("beta did not converge")
        monkeypatch.setattr(toeplitz, "lambda_seq", fail)
        code = main(["toeplitz", "--n", "1", "--symbol", "const:1",
                     "--pmax", "2"])
        assert code == 1
        assert capsys.readouterr().err == "error: beta did not converge\n"

    def test_memory_error_exit_one(self, capsys, monkeypatch):
        # what numpy raises for a block stack past the memory, as for
        # `toeplitz --n 3000 --blocks`, without allocating one
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 402. GiB")
        monkeypatch.setattr(toeplitz, "toeplitz_blocks", fail)
        code = main(["toeplitz", "--n", "3000", "--symbol", "const:1",
                     "--blocks", "--dmax", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: Unable to allocate 402. GiB\n"


class TestProgramEntry:
    """`python -m polyfock.cli` runs `run()`: main's output, with the
    collector off and the heap frozen for the process's exit.  Its exit
    codes are in TestExitCodes."""

    @pytest.mark.parametrize("args", [
        ("toeplitz", "--n", "3", "--symbol", "gauss:2", "--pmax", "30"),
        ("kernel", "--n", "3", "--kind", "true", "--z", "0.5+1i", "--w", "2-1i",
         "--series", "40"),
        ("toeplitz", "--n", "4", "--symbol", "rational", "--blocks",
         "--dmax", "12"),
    ], ids=["toeplitz", "kernel", "blocks"])
    def test_stdout_matches_in_process_main(self, args, capsys):
        assert main(list(args)) == 0
        proc = run_cli(*args)
        assert proc.returncode == 0
        assert proc.stdout == capsys.readouterr().out

    def test_run_disables_and_freezes_the_collector(self):
        script = ("import atexit, gc, sys\n"
                  "from polyfock.cli import run\n"
                  "atexit.register(lambda: print(gc.isenabled(), "
                  "gc.get_freeze_count() > 0))\n"
                  "sys.argv = ['polyfock', 'basis', '--p', '1', '--q', '0']\n"
                  "run()\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False True"

    def test_main_leaves_the_collector_alone(self, capsys):
        assert gc.isenabled() and gc.get_freeze_count() == 0
        assert main(["toeplitz", "--n", "2", "--symbol", "const:1",
                     "--pmax", "3"]) == 0
        assert main(["toeplitz", "--n", "1", "--symbol", "nope:1"]) == 1
        with pytest.raises(SystemExit):
            main(["toeplitz", "--n", "0"])
        assert gc.isenabled() and gc.get_freeze_count() == 0


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("basis", "--p", "1", "--q", "1", "--eval", "2+0i"),
        ("basis", "--p", "2", "--q", "2", "--coeffs"),
        ("kernel", "--n", "3", "--kind", "poly", "--z", "1+0i", "--w", "1+0i"),
        ("kernel", "--n", "2", "--kind", "true", "--z", "0+0i", "--w", "1+0i"),
        ("toeplitz", "--n", "1", "--symbol", "indicator:1", "--pmax", "5"),
        ("toeplitz", "--n", "2", "--symbol", "const:1", "--pmax", "3",
         "--blocks", "--dmax", "4"),
    ])
    def test_commands_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_output_file_lf_endings(self, tmp_path):
        out = tmp_path / "seq.csv"
        run_cli("toeplitz", "--n", "1", "--symbol", "const:1", "--pmax", "2",
                "--out", str(out))
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8").startswith("p,re,im\n")
