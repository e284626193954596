"""Tests of the benchmark itself: the references, the checks (including
negative controls: a perturbed output must be rejected), the seeded
generator, the import-time parser and the tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import tracing
import workloads
from reference import CheckFailed

SRC = Path(__file__).resolve().parents[1] / "src"


def gammp_float(s: int, x: float) -> float:
    """P(s, x) for integer s from the float series, as a cross-check."""
    term = total = math.exp(-x) * x ** s / math.factorial(s)
    i = s
    while term > 1e-18 * total:
        i += 1
        term *= x / i
        total += term
    return total


def csv_of(values) -> str:
    return "p,re,im\n" + "".join(f"{p},{v!r},0\n" for p, v in enumerate(values))


def test_gompertz_matches_series_for_e_e1():
    euler_gamma = 0.57721566490153286
    e1 = -euler_gamma - sum((-1) ** k / (k * math.factorial(k)) for k in range(1, 30))
    assert abs(float(ref.gompertz()) - math.e * e1) < 1e-15


def test_closed_forms_at_n1():
    for p in range(0, 60, 7):
        assert ref.eigenvalue_ref("const:1.25", 1, p) == 1.25
        assert ref.eigenvalue_ref("gauss:1.5", 1, p) == pytest.approx(
            (1 + 1 / 1.5 ** 2) ** -(p + 1), rel=1e-14)
        assert ref.eigenvalue_ref("indicator:1.3", 1, p) == pytest.approx(
            gammp_float(p + 1, 1.69), rel=1e-12, abs=1e-300)


def test_const_blocks_are_scalar():
    for d in (-2, 0, 5, 40):
        for j in range(max(0, -d), 3):
            for k in range(max(0, -d), 3):
                want = 0.7 if j == k else 0.0
                assert abs(ref.beta_ref("const:0.7", d, j, k) - want) < 1e-15


def test_rational_eigenvalues_decrease_within_bounds():
    vals = [ref.eigenvalue_ref("rational", 1, p) for p in range(50)]
    assert all(0 < b < a < 1 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1 / 50, rel=0.05)


def test_eigenvalue_check_rejects_perturbed_csv():
    argv = ["toeplitz", "--n", "1", "--symbol", "indicator:1.3", "--pmax", "20"]
    values = [ref.eigenvalue_ref("indicator:1.3", 1, p) for p in range(21)]
    ref.check_cli(argv, csv_of(values))
    bad = list(values)
    bad[10] += 1e-7
    with pytest.raises(CheckFailed):
        ref.check_cli(argv, csv_of(bad))
    assert run.cli_negative_control(argv, csv_of(values))


def test_block_check_rejects_asymmetry_and_norm():
    good = np.array([[ref.beta_ref("rational", 3, j, k) for k in range(3)]
                     for j in range(3)])
    ref.check_block("rational", 3, 3, good)
    skewed = good.copy()
    skewed[0, 1] += 1e-6
    with pytest.raises(CheckFailed):
        ref.check_block("rational", 3, 3, skewed)
    with pytest.raises(CheckFailed):
        ref.check_block("rational", 3, 3, good * (1 + 1e-6))


def test_basis_coeff_check_rejects_sign_flip_and_scale():
    body, scale = ref.basis_coeffs_ref(2, 3)
    record = {"coeffs": [[j, k, str(c), "0"] for (j, k), c in body.items()],
              "scale_sq": str(scale)}
    ref.check_basis_coeffs(2, 3, record)
    # the same function written with a doubled body and a quartered scale
    doubled = {"coeffs": [[j, k, str(2 * c), "0"] for (j, k), c in body.items()],
               "scale_sq": str(scale / 4)}
    ref.check_basis_coeffs(2, 3, doubled)
    flipped = {"coeffs": [[j, k, str(-c if (j, k) == (2, 3) else c), "0"]
                          for (j, k), c in body.items()],
               "scale_sq": str(scale)}
    with pytest.raises(CheckFailed):
        ref.check_basis_coeffs(2, 3, flipped)
    with pytest.raises(CheckFailed):
        ref.check_basis_coeffs(2, 3, dict(record, scale_sq=str(scale * 2)))


def test_kernel_and_identity_checks_reject_perturbations():
    z, w = 0.3 + 0.1j, -0.5 + 0.2j
    k = ref.kernel_ref(3, "true", z, w)
    ref.check_kernel(3, "true", z, w, k, k + 1e-10)
    with pytest.raises(CheckFailed):
        ref.check_kernel(3, "true", z, w, k * (1 + 1e-9), None)
    with pytest.raises(CheckFailed):
        ref.check_kernel(3, "true", z, w, None, k + 1e-7)
    eye = np.eye(6, dtype=complex)
    ref.check_identity(eye)
    eye[2, 3] = 1e-6
    with pytest.raises(CheckFailed):
        ref.check_identity(eye)


def test_basis_eval_reference_matches_known_value():
    # b_{1,1}(z) = |z|^2 - 1, so b_{1,1}(2) = 3
    assert ref.basis_eval_ref(1, 1, 2 + 0j)[0] == pytest.approx(3.0)
    with pytest.raises(CheckFailed):
        ref.check_basis_eval(1, 1, 2 + 0j, 3.0 + 1e-8)


def test_workloads_are_seeded_and_fixed_in_size():
    for make in (workloads.cli_light, workloads.cli_spectra, workloads.session):
        assert make(3) == make(3)
        assert make(3) != make(4)
        assert len(make(3)) == len(make(4))
    assert len(workloads.cli_light(1)) == 40
    sizes = [[tok for tok in argv if tok.isdigit()] for argv in workloads.cli_spectra(1)]
    assert sizes == [[tok for tok in argv if tok.isdigit()]
                     for argv in workloads.cli_spectra(2)]


def test_session_plan_times_each_block_call_and_orders_dependencies():
    plan = workloads.session(5)
    blocks = [op for op in plan if op["kind"] == "block"]
    assert len(blocks) == 3 * 102 + 63
    assert len({op["name"] for op in plan}) == len(plan)
    names = [op["name"] for op in plan]
    # every call that reads a stored result comes after the call storing it
    for i, op in enumerate(plan):
        for key in ("matrix", "diag_against"):
            if key in op:
                assert names.index(op[key]) < i


def test_op_latencies_pair_partial_passes_by_operation():
    full = run.Pass(records=[{"index": i, "seconds": s, "error": None}
                             for i, s in enumerate((1.0, 2.0, 3.0))],
                    rss_mb=[60.0, 61.0, 150.0])
    again = run.Pass(records=[{"index": i, "seconds": s, "error": None}
                              for i, s in enumerate((1.2, 2.2, 3.2))],
                     rss_mb=[60.0, 61.0, 120.0])
    partial = run.Pass(records=[{"index": 2, "seconds": 3.6, "error": None}],
                       rss_mb=[130.0])
    assert run.op_latencies([full, again, partial]) == pytest.approx(
        [1.1, 2.1, 3.2])
    metrics, _ = run.end_to_end([full, again, partial], [0.5])
    assert metrics["wall_s"] == pytest.approx(6.4)
    assert metrics["peak_rss_mb"] == 61.0
    assert metrics["pass_rate"] == 1.0


def test_run_child_reports_its_own_peak_rss_and_kills_at_timeout(tmp_path):
    grow = "b = bytearray(160 << 20); print('x' * 200000)"
    child = run.run_child([sys.executable, "-c", grow], tmp_path, {}, 60)
    assert child.rc == 0 and len(child.stdout) == 200001
    assert child.rss_mb > 160
    # a child starts from this process's own peak RSS (Linux carries it
    # over fork and exec), so the small child reads as that floor
    small = run.run_child([sys.executable, "-c", "pass"], tmp_path, {}, 60)
    assert small.rss_mb < child.rss_mb - 100
    slow = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                         tmp_path, {}, 0.5)
    assert slow.rc is None and slow.seconds < 10


def test_parse_importtime_attributes_subtrees():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |         numpy.linalg",
        "import time:        30 |         30 |         json",
        "import time:        20 |        100 |       scipy",
        "import time:        10 |        110 |     scipy.linalg",
        "import time:         5 |        415 |   polyfock.quadrature",
        "import time:         7 |          7 | site",
    ])
    out = run.parse_importtime(text)
    assert out["numpy"] == pytest.approx(300e-6)
    assert out["scipy"] == pytest.approx(110e-6)  # numpy.linalg under scipy
    assert out["polyfock"] == pytest.approx(5e-6)
    assert out["total"] == pytest.approx(422e-6)


def test_self_time_subtracts_children():
    spans = [(1, 0, 0, "toeplitz.lambda_seq", 0.0, 10.0),
             (2, 1, 0, "toeplitz.beta", 1.0, 4.0),
             (3, 2, 0, "quadrature.gauss_laguerre", 2.0, 3.0),
             (4, 1, 0, "toeplitz.beta", 5.0, 6.0)]
    s = tracing.summarize({"spans": spans, "counters": {"symbol_evals": 7},
                           "distinct_rules": 1})
    assert s["toeplitz.lambda_seq.self_s"] == pytest.approx(6.0)
    assert s["toeplitz.beta.self_s"] == pytest.approx(3.0)
    assert s["toeplitz.self_s"] == pytest.approx(9.0)
    assert s["toeplitz.beta.rule_requests"] == 1
    assert s["symbol_evals"] == 7


def test_tracer_rebinds_imported_references():
    sys.path.insert(0, str(SRC))
    import polyfock
    from polyfock import quadrature, toeplitz, verify
    original = quadrature.gauss_laguerre
    tracer = tracing.Tracer().install()
    assert toeplitz.gauss_laguerre is quadrature.gauss_laguerre
    assert toeplitz.gauss_laguerre.__wrapped__ is original
    assert verify._SUITES["basis"] is verify.suite_basis
    assert hasattr(verify.suite_basis, "__wrapped__")
    a = polyfock.symbol_from_spec("gauss:2")
    polyfock.lambda_seq(a, 1, 3)
    names = {s[3] for s in tracer.spans}
    assert {"toeplitz.lambda_seq", "toeplitz.beta", "quadrature.gauss_laguerre",
            "toeplitz.symbol_from_spec"} <= names
    assert tracer.counters["symbol_evals"] > 0
    assert tracer.counters["nodes_requested"] == tracer.counters["symbol_evals"]
