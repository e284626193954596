"""Integration rules: generalized Gauss-Laguerre, Gauss-Legendre on intervals,
both from the eigenvalues of their Jacobi matrices (Golub-Welsch),
equispaced circle samples, and the one self-checked polar tensor route on
the Gaussian plane, which `plane_inner` and the matrix of a plain callable
symbol (`toeplitz.toeplitz_matrix`) share: one sampler of callables on
arrays, and one loop doubling the radial nodes and the angles together.
The self-checked rules double from 64 to 512 nodes, here and on the window
rule of `toeplitz`; that policy is defined once, as _N_START and _N_MAX.

All rules are immutable once built; integration itself is pure, so rules can
be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .defaults import integers
from .laguerre import orthonormal_scaled


class QuadratureConvergenceError(RuntimeError):
    """Raised when a self-checked integral fails to converge under refinement."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for the weight t^alpha e^(-t) on [0, inf).

    `weights` are the true weights (summing to alpha!); `log_weights` carries
    their logarithms so that rules with very large alpha, whose weights
    overflow a double, remain usable through log-space accumulation.
    """

    nodes: np.ndarray
    weights: np.ndarray
    alpha: int
    log_weights: np.ndarray = field(repr=False)


def _christoffel_log_weights(nodes: np.ndarray, alpha: int,
                             n_nodes: int) -> np.ndarray:
    """Log weights via the inverse Christoffel function w = mu0 / sum psi_k^2.

    psi_k are the orthonormal polynomials of `orthonormal_scaled` (alone:
    the sum takes none of the basis prefactor of `profile_scaled`), which
    carries a floating log scale per node so that rules with large node ranges
    neither overflow nor lose their far-tail weights.  Unlike the squared
    first eigenvector component, this is relatively accurate even for
    weights far below machine epsilon.
    """
    v, s = orthonormal_scaled(range(n_nodes), alpha, nodes)
    with np.errstate(divide="ignore"):
        logs = 2.0 * (np.log(np.abs(v)) + s)
    top = logs.max(axis=0)
    log_sum = top + np.log(np.sum(np.exp(logs - top[None, :]), axis=0))
    return math.lgamma(alpha + 1) - log_sum


def _jacobi_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal Jacobi matrix with
    this diagonal and off-diagonal: the nodes of its Gauss rule."""
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    # eigvalsh raises LinAlgError when it fails to converge; that is a hard
    # error here
    return np.linalg.eigvalsh(jacobi)


@lru_cache(maxsize=None)
def gauss_laguerre(alpha: int, n_nodes: int) -> QuadratureRule:
    """N-point generalized Gauss-Laguerre rule via the Jacobi matrix.

    Recurrence coefficients for the weight t^alpha e^(-t): diagonal
    a_k = 2k + alpha + 1, off-diagonal b_k = sqrt(k (k + alpha)).  Nodes are
    the eigenvalues of the dense symmetric Jacobi matrix (`np.linalg.eigvalsh`,
    ascending); weights come from the Christoffel sum at each node.
    """
    [alpha] = integers(0, alpha=alpha)
    [n_nodes] = integers(1, n_nodes=n_nodes)
    k = np.arange(n_nodes, dtype=float)
    nodes = _jacobi_eigenvalues(2.0 * k + alpha + 1.0,
                                np.sqrt(k[1:] * (k[1:] + alpha)))
    log_w = _christoffel_log_weights(nodes, alpha, n_nodes)
    with np.errstate(over="ignore"):
        weights = np.exp(log_w)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    log_w.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, alpha=alpha,
                          log_weights=log_w)


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1, by the recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}."""
    prev, cur = np.ones_like(x), x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, n * (prev - x * cur) / (1.0 - x * x)


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """N-point Gauss-Legendre rule on [-1, 1] (Golub-Welsch).

    Nodes are the eigenvalues of the Legendre Jacobi matrix (zero diagonal,
    off-diagonal k / sqrt(4k^2 - 1)), polished by one Newton step on P_n;
    the weights are 2 / ((1 - x^2) P_n'(x)^2) at the polished nodes, and
    both are symmetrized about 0.
    """
    k = np.arange(1.0, n)
    x = _jacobi_eigenvalues(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0))
    p, slope = _legendre(n, x)
    x = x - p / slope
    _, slope = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def legendre_rule(a, b, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on a finite interval [a, b].

    Endpoint arrays of shape (..., 1) give one rule per interval, with the
    nodes along the last axis.
    """
    x, w = _leggauss(n_nodes)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


@dataclass(frozen=True)
class CircleRule:
    """Equispaced sampling of the unit circle: exact for powers tau^k, |k| < M."""

    m_angles: int

    def __post_init__(self):
        [m_angles] = integers(1, m_angles=self.m_angles)
        object.__setattr__(self, "m_angles", m_angles)

    @property
    def taus(self) -> np.ndarray:
        angles = 2.0 * np.pi * np.arange(self.m_angles) / self.m_angles
        return np.exp(1j * angles)


_N_START = 64
_N_MAX = 512
DEFAULT_ANGLES = 64
_SELF_CHECK_TOL = 1e-9


def _sampler(fn: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Values of `fn` on arrays of points, one call per array, broadcast to
    the points' shape (an array of that shape comes back as it is).  The
    first time that raises or returns what is not numeric or does not
    broadcast to the points (a scalar-only callable), the pass switches to one
    call per point for good; those calls raise the callable's own errors."""
    scalar = False

    def values(x: np.ndarray) -> np.ndarray:
        nonlocal scalar
        if not scalar:
            try:
                out = np.asarray(fn(x))
                if out.dtype.kind in "biufc":
                    return (out if out.shape == x.shape
                            else np.broadcast_to(out, x.shape))
            except Exception:  # any failure on an array marks it scalar-only
                pass
            scalar = True
        return np.array([fn(v) for v in x.ravel().tolist()],
                        dtype=complex).reshape(x.shape)
    return values


def _polar_samples(values, rr: QuadratureRule, cr: CircleRule) -> np.ndarray:
    """Samples at z = sqrt(t_i) tau_j, shape (radial nodes, angles); a
    non-finite sample raises ValueError naming z."""
    z = np.sqrt(rr.nodes)[:, None] * cr.taus[None, :]
    out = values(z)
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise ValueError(f"non-finite sample at z={complex(z[i, j])}")
    return out


def _polar_checked(once: Callable, m_angles: int = DEFAULT_ANGLES):
    """`once` on _N_START Gauss-Laguerre nodes in t = r^2 times `m_angles`
    angles, both doubled together, up to _N_MAX nodes, until two consecutive
    results agree entry by entry to 1e-9 max(1, |x|); returns the last."""
    n, m = _N_START, m_angles
    prev = once(gauss_laguerre(0, n), CircleRule(m))
    while n < _N_MAX:
        n, m = 2 * n, 2 * m
        cur = once(gauss_laguerre(0, n), CircleRule(m))
        if np.all(np.abs(cur - prev)
                  <= _SELF_CHECK_TOL * np.maximum(1.0, np.abs(cur))):
            return cur
        prev = cur
    raise QuadratureConvergenceError(
        f"polar tensor rule did not stabilize up to {n} radial nodes")


def plane_inner(f: Callable[[complex], complex],
                g: Callable[[complex], complex]) -> complex:
    """Inner product on L2 of the plane with Gaussian weight.

    Polar factorization: with t = r^2 the Gaussian measure splits into
    e^(-t) dt on the half-line times the normalized angle average: the
    integral is sum_i w_i mean_j f(z_ij) conj(g(z_ij)), one grid evaluation
    per rule size, which `_polar_checked` refines from the 64x64 rule.
    """
    fv, gv = _sampler(f), _sampler(g)

    def once(rr: QuadratureRule, cr: CircleRule) -> complex:
        # root weights on each factor: no overflow where a weight underflows
        root_w = np.exp(0.5 * rr.log_weights)[:, None]
        return complex(np.sum(root_w * _polar_samples(fv, rr, cr) * (
            root_w * _polar_samples(gv, rr, cr)).conj()) / cr.m_angles)

    return _polar_checked(once)
