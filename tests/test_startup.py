"""Start-up loads only what is used: `import polyfock` is lazy, the CLI
commands that do exact or point work (`basis`, `kernel`) never load numpy,
nor `dataclasses` and the `inspect` it imports, the point evaluations load
no exact layer either, `toeplitz` loads only the radial route, none of the
plane or exact layers, and no command loads `numpy.polynomial`.

Each check runs in a fresh interpreter, so `sys.modules` starts clean.
"""

import subprocess
import sys

import pytest

#: every name `polyfock/__init__.py` imported eagerly before it became lazy
#: and still exports
OLD_EXPORTS = {
    "exact_poly": [
        "BiPolynomial", "RationalComplex", "ScaledPolynomial",
        "creation_adagger", "creation_adagger_bar", "factorial",
        "gaussian_inner"],
    "fock_spaces": [
        "SpaceId", "berezin", "evaluation_bound", "kernel_partial_sum",
        "kernel_poly", "kernel_recursion_check", "kernel_true"],
    "hermite_basis": [
        "HermiteIndex", "b_coeffs", "b_eval", "b_eval_polar", "b_exact",
        "monomial_b_inner"],
    "laguerre": [
        "laguerre_eval", "laguerre_exact", "laguerre_function_sup",
        "rodrigues_identity_residual"],
    "quadrature": [
        "CircleRule", "QuadratureConvergenceError", "QuadratureRule",
        "gauss_laguerre", "plane_inner"],
    "radial_ops": [
        "BasisMatrix", "RadialityError", "RadialityReport",
        "RadialOperatorRep", "assemble_blocks", "finite_rank_radial",
        "is_radial", "phi_n", "radialize_matrix", "radialize_numeric",
        "vanishing_berezin_witness"],
    "toeplitz": [
        "EigenvalueSequence", "NonFiniteIntegrandError", "RadialSymbol",
        "beta", "const_symbol", "exp_decay_symbol", "gaussian_symbol",
        "indicator_symbol", "inverse_quadratic_symbol", "lambda_seq",
        "symbol_from_spec", "toeplitz_block", "toeplitz_blocks",
        "toeplitz_matrix"],
}


def python(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


#: modules of the plane and exact layers, which the radial route never uses
NOT_RADIAL = ("polyfock.fock_spaces", "polyfock.hermite_basis",
              "polyfock.radial_ops", "polyfock.exact_poly", "fractions")


def imported_modules(cli_args: list[str]) -> set[str]:
    """Full names of the modules that `python -m polyfock.cli ARGS` imports."""
    proc = python("-X", "importtime", "-m", "polyfock.cli", *cli_args)
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "[us]" not in line:
            names.add(line.rsplit("|", 1)[1].strip())
    return names


@pytest.mark.parametrize("module", ["polyfock", "polyfock.cli"])
def test_import_leaves_numpy_unloaded(module):
    proc = python("-c", f"import sys, {module}; print('numpy' in sys.modules)")
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("cli_args", [
    ["basis", "--p", "2", "--q", "2", "--coeffs"],
    ["basis", "--p", "3", "--q", "1"],
    ["kernel", "--n", "3", "--kind", "poly", "--z", "1+0i", "--w", "1+0i"],
    ["kernel", "--n", "2", "--kind", "true", "--z", "0+0i", "--w", "1+0i"],
    ["basis", "--p", "1", "--q", "1", "--eval", "2+0i"],
    ["kernel", "--n", "2", "--kind", "poly", "--z", "0", "--w", "1",
     "--series", "5"],
])
def test_exact_and_scalar_commands_leave_numpy_unloaded(cli_args):
    modules = imported_modules(cli_args)
    assert "polyfock" in modules
    assert "numpy" not in modules


@pytest.mark.parametrize("cli_args", [
    ["basis", "--p", "3", "--q", "1", "--eval", "0.5+1i"],
    ["basis", "--p", "2", "--q", "2", "--coeffs"],
    ["kernel", "--n", "3", "--kind", "poly", "--z", "1+0i", "--w", "1+0i"],
    ["kernel", "--n", "4", "--kind", "true", "--z", "0.5+0i", "--w", "0+1i",
     "--series", "200"],
])
def test_numpy_free_commands_load_no_dataclasses(cli_args):
    # the value classes of these layers are plain slotted classes
    modules = imported_modules(cli_args)
    assert "polyfock.defaults" in modules
    assert not modules & {"dataclasses", "inspect"}


#: the exact layer, which a point evaluation never uses
EXACT = {"polyfock.exact_poly", "fractions"}


@pytest.mark.parametrize("cli_args", [
    ["basis", "--p", "3", "--q", "9", "--eval", "0.1+1.3i"],
    ["kernel", "--n", "4", "--kind", "true", "--z", "0.5+0i", "--w", "0+1i",
     "--series", "200"],
    ["kernel", "--n", "3", "--kind", "poly", "--z", "1+0i", "--w", "1+0i"],
])
def test_point_commands_load_no_exact_layer(cli_args):
    modules = imported_modules(cli_args)
    assert "polyfock.hermite_basis" in modules or "polyfock.fock_spaces" in modules
    assert not modules & (EXACT | {"numpy"})


def test_exact_command_loads_the_exact_layer():
    assert EXACT <= imported_modules(["basis", "--p", "2", "--q", "2", "--coeffs"])


@pytest.mark.parametrize("cli_args", [
    ["toeplitz", "--n", "1", "--symbol", "indicator:1", "--pmax", "3"],
    ["toeplitz", "--n", "3", "--symbol", "rational", "--blocks", "--dmax", "4"],
    ["verify", "--quick"],
])
def test_float_array_commands_load_numpy(cli_args):
    modules = imported_modules(cli_args)
    assert "numpy" in modules
    assert "numpy.polynomial" not in modules


def test_every_old_export_resolves_to_its_module():
    script = ("import importlib, sys, polyfock\n"
              f"table = {OLD_EXPORTS!r}\n"
              "for module, names in table.items():\n"
              "    mod = importlib.import_module('polyfock.' + module)\n"
              "    for name in names:\n"
              "        assert getattr(polyfock, name) is getattr(mod, name), name\n"
              "        assert name in polyfock.__all__ and name in dir(polyfock)\n"
              "print(len(polyfock.__all__))\n")
    proc = python("-c", script)
    assert int(proc.stdout) == sum(len(v) for v in OLD_EXPORTS.values())


def test_star_import_and_unknown_name():
    script = ("from polyfock import *\n"
              "import polyfock\n"
              "assert lambda_seq is polyfock.toeplitz.lambda_seq\n"
              "assert b_exact is polyfock.hermite_basis.b_exact\n"
              "try:\n"
              "    polyfock.no_such_name\n"
              "except AttributeError as exc:\n"
              "    print(exc)\n")
    proc = python("-c", script)
    assert proc.stdout == "module 'polyfock' has no attribute 'no_such_name'\n"


def test_first_access_of_an_exact_name_leaves_numpy_unloaded():
    proc = python("-c", "import sys, polyfock\n"
                        "polyfock.b_exact(polyfock.HermiteIndex(3, 2))\n"
                        "polyfock.kernel_poly(2, 1j, 0.5)\n"
                        "print('numpy' in sys.modules)")
    assert proc.stdout == "False\n"


def test_submodules_stay_reachable_as_attributes():
    proc = python("-c", "import polyfock\n"
                        "print(polyfock.verify.SUITE_NAMES[0], "
                        "polyfock.defaults.DEFAULT_P_MAX)")
    assert proc.stdout == "laguerre 200\n"


@pytest.mark.parametrize("cli_args", [
    ["toeplitz", "--n", "2", "--symbol", "gauss:2", "--pmax", "5"],
    ["toeplitz", "--n", "2", "--symbol", "rational", "--blocks", "--dmax", "5"],
])
def test_toeplitz_command_loads_only_the_radial_route(cli_args):
    names = imported_modules(cli_args)
    assert "polyfock.toeplitz" in names
    assert not names & set(NOT_RADIAL)


def test_toeplitz_matrix_after_a_bare_toeplitz_import():
    script = ("import sys, polyfock.toeplitz as t\n"
              f"print(sorted(set({NOT_RADIAL!r}) & set(sys.modules)))\n"
              "import numpy as np\n"
              "from polyfock.fock_spaces import SpaceId\n"
              "for g in (t.const_symbol(2.0), lambda z: 2.0):\n"
              "    m = t.toeplitz_matrix(g, SpaceId('poly', 2), 6)\n"
              "    print(type(m).__name__, m.entries.shape,\n"
              "          np.abs(m.entries - 2 * np.eye(12)).max() < 1e-9)\n")
    proc = python("-c", script)
    assert proc.stdout == ("[]\n" + "BasisMatrix (12, 12) True\n" * 2)


def test_exact_laguerre_after_a_bare_laguerre_import():
    script = ("import sys, polyfock.laguerre as la\n"
              "print(sorted({'polyfock.exact_poly', 'fractions'} "
              "& set(sys.modules)))\n"
              "print(la.laguerre_exact(2, 1))\n"
              "print(la.rodrigues_identity_residual(3, 2))\n")
    proc = python("-c", script)
    assert proc.stdout == ("[]\n[Fraction(3, 1), Fraction(-3, 1), "
                           "Fraction(1, 2)]\nTrue\n")


def test_radial_toeplitz_matrix_loads_no_basis_layer():
    # a radial symbol's matrix is its blocks: no basis profiles, no exact layer
    script = ("import sys\n"
              "import numpy as np\n"
              "from polyfock import SpaceId, const_symbol, toeplitz_matrix\n"
              "m = toeplitz_matrix(const_symbol(1.0), SpaceId('poly', 2), 40)\n"
              "print(m.entries.shape, np.abs(m.entries - np.eye(80)).max() < 1e-12)\n"
              "print(sorted({'polyfock.hermite_basis', 'polyfock.exact_poly'} "
              "& set(sys.modules)))\n")
    proc = python("-c", script)
    assert proc.stdout == "(80, 80) True\n[]\n"
