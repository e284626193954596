"""Polyanalytic Fock space numerics.

Exact complex Hermite polynomials, Laguerre functions, Gaussian-plane
quadrature, reproducing kernels, radial operator block decompositions, and
radial Toeplitz eigenvalue sequences, with an exact rational layer
cross-checking the floating-point layer throughout.
"""

from .exact_poly import (BiPolynomial, RationalComplex, ScaledPolynomial,
                         creation_adagger, creation_adagger_bar, factorial,
                         gaussian_inner, wirtinger_dz, wirtinger_dzbar)
from .fock_spaces import (FockVector, SpaceId, berezin, creation_apply,
                          evaluation_bound, evaluation_bound_log, kernel_partial_sum,
                          kernel_poly, kernel_poly_log, kernel_recursion_check,
                          kernel_true, kernel_true_log)
from .hermite_basis import (DiagonalSpec, HermiteIndex, b_coeffs, b_eval,
                            b_eval_polar, b_exact, monomial_b_inner,
                            truncated_diagonal)
from .laguerre import (LaguerreParams, laguerre_eval, laguerre_exact,
                       laguerre_function, laguerre_function_sup,
                       rodrigues_identity_residual)
from .quadrature import (CircleRule, QuadratureConvergenceError, QuadratureRule,
                         gauss_laguerre, plane_inner)
from .radial_ops import (BasisMatrix, DiagonalRep, RadialityError,
                         RadialityReport, RadialOperatorRep, assemble_blocks,
                         commutator_csv, commutator_norms, finite_rank_radial,
                         is_radial, off_block_mass, phi_n, phi_true,
                         radialize_matrix, radialize_numeric, rotate_vector,
                         vanishing_berezin_witness)
from .toeplitz import (EigenvalueSequence, LimitRecord, NonFiniteIntegrandError,
                       RadialSymbol, beta, const_symbol, exp_decay_symbol,
                       gaussian_symbol, indicator_symbol, inverse_linear_symbol,
                       inverse_quadratic_symbol, lambda_indicator, lambda_seq,
                       limit_diagnostic, separation_check, squared_radius_symbol,
                       symbol_from_spec, toeplitz_block, toeplitz_blocks,
                       toeplitz_matrix)

__version__ = "0.1.0"
