"""Polyanalytic Fock space numerics.

Exact complex Hermite polynomials, Laguerre functions, Gaussian-plane
quadrature, reproducing kernels, radial operator block decompositions, and
radial Toeplitz eigenvalue sequences, with an exact rational layer
cross-checking the floating-point layer throughout.

The namespace is lazy: `import polyfock` loads no submodule, and each name
below imports its submodule on first access (PEP 562).  So a caller that
needs only the exact layer never loads numpy.
"""

import importlib

_EXPORTS = {
    "exact_poly": (
        "BiPolynomial", "RationalComplex", "ScaledPolynomial",
        "creation_adagger", "creation_adagger_bar", "factorial",
        "gaussian_inner"),
    "fock_spaces": (
        "SpaceId", "berezin", "evaluation_bound", "kernel_partial_sum",
        "kernel_poly", "kernel_recursion_check", "kernel_true"),
    "hermite_basis": (
        "HermiteIndex", "b_coeffs", "b_eval", "b_eval_polar", "b_exact",
        "monomial_b_inner"),
    "laguerre": (
        "laguerre_eval", "laguerre_exact", "laguerre_function_sup",
        "rodrigues_identity_residual"),
    "quadrature": (
        "CircleRule", "QuadratureConvergenceError", "QuadratureRule",
        "gauss_laguerre", "plane_inner"),
    "radial_ops": (
        "BasisMatrix", "RadialityError", "RadialityReport",
        "RadialOperatorRep", "assemble_blocks", "finite_rank_radial",
        "is_radial", "phi_n", "radialize_matrix", "radialize_numeric",
        "vanishing_berezin_witness"),
    "toeplitz": (
        "EigenvalueSequence", "NonFiniteIntegrandError", "RadialSymbol",
        "beta", "const_symbol", "exp_decay_symbol", "gaussian_symbol",
        "indicator_symbol", "inverse_quadratic_symbol", "lambda_seq",
        "symbol_from_spec", "toeplitz_block", "toeplitz_blocks",
        "toeplitz_matrix"),
}

#: exported name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in names}

_MODULES = ("cli", "defaults", "verify") + tuple(_EXPORTS)

__all__ = list(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SUBMODULE[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
