"""Associated Laguerre polynomials and normalized Laguerre functions.

Numeric evaluation goes through the stable three-term recurrence; the exact
rational coefficient list is kept alongside as an oracle.  The normalized
functions are computed in log space so that large orders (several hundred)
neither overflow nor underflow prematurely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact_poly import BiPolynomial, creation_adagger


@dataclass(frozen=True)
class LaguerreParams:
    """Degree n >= 0 and integer order alpha >= 0."""

    n: int
    alpha: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"degree must be nonnegative, got {self.n}")
        if self.alpha < 0:
            raise ValueError(f"order must be nonnegative, got {self.alpha}")


def _recurrence_scalar(n: int, alpha: int, x: float) -> float:
    # n L_n = (2n-1+alpha-x) L_{n-1} - (n-1+alpha) L_{n-2}
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + alpha - x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1 + alpha - x) * cur - (k - 1 + alpha) * prev) / k
    return cur


def _recurrence_array(n: int, alpha: int, x: np.ndarray) -> np.ndarray:
    if n == 0:
        return np.ones_like(x)
    prev = np.ones_like(x)
    cur = 1.0 + alpha - x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1 + alpha - x) * cur - (k - 1 + alpha) * prev) / k
    return cur


def laguerre_eval(params: LaguerreParams, x: float) -> float:
    """Value of L_n^(alpha)(x) for x >= 0."""
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    return _recurrence_scalar(params.n, params.alpha, float(x))


def laguerre_exact(params: LaguerreParams) -> list[Fraction]:
    """Exact coefficients of L_n^(alpha), ascending powers.

    Coefficient of x^k is (-1)^k * binom(n+alpha, n-k) / k!.
    """
    n, alpha = params.n, params.alpha
    return [Fraction((-1) ** k * math.comb(n + alpha, n - k), math.factorial(k))
            for k in range(n + 1)]


def laguerre_function(m: int, alpha: int, t: float) -> float:
    """Normalized Laguerre function: L2([0,inf), dt) unit norm for each (m, alpha).

    Equals sqrt(m!/(m+alpha)!) t^(alpha/2) e^(-t/2) L_m^(alpha)(t), with the
    scalar prefactor assembled in log space.
    """
    sign, logmag = laguerre_function_log(m, alpha, t)
    if sign == 0:
        return 0.0
    return sign * math.exp(logmag)


def laguerre_function_log(m: int, alpha: int, t: float) -> tuple[int, float]:
    """(sign, log magnitude) of the normalized Laguerre function."""
    if t < 0:
        raise ValueError(f"argument must be nonnegative, got {t}")
    if m < 0 or alpha < 0:
        raise ValueError("indices must be nonnegative")
    if t == 0.0:
        # value is binom(m+alpha, m) * sqrt(m!/(m+alpha)!) * 0^(alpha/2)
        if alpha > 0:
            return (0, -math.inf)
        return (1, 0.0)
    lval = _recurrence_scalar(m, alpha, t)
    if lval == 0.0:
        return (0, -math.inf)
    logpre = (0.5 * (math.lgamma(m + 1) - math.lgamma(m + alpha + 1))
              + 0.5 * alpha * math.log(t) - 0.5 * t)
    sign = 1 if lval > 0 else -1
    return (sign, logpre + math.log(abs(lval)))


def laguerre_function_values(m: int, alpha: int, t: np.ndarray) -> np.ndarray:
    """Vectorized normalized Laguerre function over an array of t >= 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("arguments must be nonnegative")
    lval = _recurrence_array(m, alpha, t)
    logpre = 0.5 * (math.lgamma(m + 1) - math.lgamma(m + alpha + 1)) - 0.5 * t
    with np.errstate(divide="ignore", invalid="ignore"):
        if alpha > 0:
            logpre = logpre + 0.5 * alpha * np.where(t > 0, np.log(t), -np.inf)
        vals = np.exp(logpre) * lval
    return np.where(t > 0, vals, 1.0 if alpha == 0 else 0.0)


def laguerre_function_sup(m: int, alpha: int, x: float, grid: int = 4096) -> float:
    """Max of |laguerre_function| over a uniform grid on [0, x].

    Grid-based diagnostic only; used to witness the decay of the functions
    in the order parameter on compact intervals.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    t = np.linspace(0.0, x, grid)
    return float(np.max(np.abs(laguerre_function_values(m, alpha, t))))


def rodrigues_identity_residual(n: int, alpha: int, max_degree_check: int = 10) -> bool:
    """Exact check of the Rodrigues-type identity
    e^{xy} d^n/dx^n (e^{-xy} x^{n+alpha}) = n! x^alpha L_n^(alpha)(xy).

    Both sides are expanded as exact polynomials in the two formal variables
    (x plays the role of z, y of zbar); d/dx applied to e^{-xy} g keeps the
    exponential factor and maps g to dg/dx - y g.
    """
    if n < 0 or alpha < 0:
        raise ValueError("indices must be nonnegative")
    if n > max_degree_check or alpha > max_degree_check:
        raise ValueError(f"indices limited to {max_degree_check} for the exact check")
    # n applications of (d/dx - y) to x^(n+alpha), i.e. (-1)^n (y - d/dx)^n
    lhs = BiPolynomial.monomial(n + alpha, 0)
    for _ in range(n):
        lhs = -creation_adagger(lhs)
    coeffs = laguerre_exact(LaguerreParams(n, alpha))
    rhs = BiPolynomial({(alpha + k, k): c * math.factorial(n)
                        for k, c in enumerate(coeffs)})
    return lhs == rhs
