"""Independent oracles shared by the test modules.

These deliberately avoid every code path they are used to check: the
regularized incomplete gamma goes through the classic series / continued
fraction pair, not through any quadrature of this package.  The exact
references build the creation operators from the general polynomial
product, the Gaussian inner product from `RationalComplex` sums over every
pair of terms, and each basis body by a fresh fold of creation steps on 1.
The kernel series is summed from whole arrays of basis values on the
numpy route, which the point route of `kernel_partial_sum` does not use.
The radial pass's self-check is kept in its one-size-per-evaluation form,
each rule size on a window built afresh, as the reference for the fused
evaluation of its first two sizes.
"""

import math
from fractions import Fraction

import numpy as np

from polyfock.exact_poly import (BiPolynomial, RationalComplex, factorial,
                                 wirtinger_dz, wirtinger_dzbar)
from polyfock.hermite_basis import _radial_values
from polyfock.laguerre import orthonormal_scaled
from polyfock.quadrature import (QuadratureConvergenceError, gauss_laguerre,
                                 legendre_rule)
from polyfock.toeplitz import (_N_MAX, _N_START, _STIRLING_FROM, BETA_ABS_TOL,
                               BETA_REL_TOL, ROUNDING_FLOOR,
                               NonFiniteIntegrandError, _stirling_constant)


def gammp(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x).

    Both expansions run to convergence.  Near the transition x ~ s they need
    a few times sqrt(s) terms, so the cap grows with the order; reaching it
    raises instead of returning a truncated value.  Accurate to about 1e-14
    for small s and 1e-11 at s ~ 1e4, where the rounding of the prefactor
    exp(-x + s log x - lgamma(s)) dominates.
    """
    if x < 0 or s <= 0:
        raise ValueError("invalid arguments")
    if x == 0:
        return 0.0
    cap = 500 + int(s)
    if x < s + 1:
        # power series for P
        ap, term, total = s, 1.0 / s, 1.0 / s
        for _ in range(cap):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        else:
            raise ArithmeticError(f"gammp series: no convergence at {(s, x)}")
        return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    # Lentz continued fraction for the complement Q
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, cap):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise ArithmeticError(f"gammp fraction: no convergence at {(s, x)}")
    q = math.exp(-x + s * math.log(x) - math.lgamma(s)) * h
    return 1.0 - q


_ZBAR = BiPolynomial.monomial(0, 1)
_Z = BiPolynomial.monomial(1, 0)


def creation_adagger(f: BiPolynomial) -> BiPolynomial:
    """zbar*f - df/dz through the polynomial product and difference."""
    return _ZBAR * f - wirtinger_dz(f)


def creation_adagger_bar(f: BiPolynomial) -> BiPolynomial:
    """z*f - df/dzbar through the polynomial product and difference."""
    return _Z * f - wirtinger_dzbar(f)


def gaussian_inner(f: BiPolynomial, g: BiPolynomial) -> RationalComplex:
    """<f, g> as a RationalComplex sum over every pair of terms."""
    total = RationalComplex()
    for (p, q), cf in f.terms():
        for (j, k), cg in g.terms():
            if p + k == q + j:
                total = total + cf * cg.conjugate() * factorial(p + k)
    return total


def b_exact_fold(p: int, q: int) -> tuple[BiPolynomial, Fraction]:
    """Body and squared scale of b_{p,q}: p conjugate-creation steps on 1,
    then q creation steps, every one of them taken afresh."""
    body = BiPolynomial.one()
    for _ in range(p):
        body = creation_adagger_bar(body)
    for _ in range(q):
        body = creation_adagger(body)
    return body, Fraction(1, factorial(p) * factorial(q))


def kernel_partial_sum_array(space, z: complex, w: complex,
                             truncation: int) -> complex:
    """Sum of conj(b(z)) b(w) over the space's basis, each factor a whole
    array of basis values from `_radial_values` times its phases."""
    indices = space.basis_indices(truncation)
    d = np.array([p - q for p, q in indices])

    def values(x: complex) -> np.ndarray:
        phase = x / abs(x) if x != 0 else 1.0
        return _radial_values(indices, abs(x)) * phase ** d
    return complex(np.sum(values(z).conjugate() * values(w)))


def block_once_one_size(a, values, ds, ms, n_nodes):
    """The radial pass's block evaluation before its sizes were fused: the
    whole window rule of every diagonal in ds built afresh for one rule size
    n_nodes, and its blocks Phi diag(a) Phi^T with their rounding scales
    |Phi| diag|a| |Phi|^T.  Kept as the reference that the fused evaluation
    of `toeplitz._block_once` reproduces bit for bit."""
    alpha = np.abs(ds).astype(float)
    c, m = alpha + 1.0, max(ms)
    nu = 4 * m + 2 * c
    t_hi = 0.5 * (nu + np.sqrt(nu * nu - 4.0 * alpha * alpha))
    margin = 12 * np.sqrt(c)
    lo = np.sqrt(np.maximum(0.0, alpha * alpha / t_hi - margin))
    mid = np.sqrt(c)
    pieces = 1 + m // 8
    steps = np.arange(pieces + 1.0)
    ends = np.stack([lo, mid, np.sqrt(t_hi + margin)], axis=1)
    spaced = (steps * ((ends[:, 1:] - ends[:, :-1]) / pieces)[:, :, None]
              + ends[:, :-1, None])
    spaced[:, :, -1] = ends[:, 1:]
    reach = np.sqrt(t_hi + margin + 40 * np.maximum(np.sqrt(c), np.cbrt(t_hi)))
    edges = np.sort(np.concatenate(
        [spaced[:, 0], spaced[:, 1, 1:],
         np.clip(np.array(a.breakpoints)[None, :], lo[:, None], reach[:, None])],
        axis=1), axis=1)
    u, v = legendre_rule(edges[:, :-1, None], edges[:, 1:, None], n_nodes)
    tail = gauss_laguerre(0, n_nodes)
    rows = len(ds)
    r = np.concatenate([u.reshape(rows, -1),
                        np.sqrt(edges[:, -1:] ** 2 + tail.nodes)], axis=1)
    with np.errstate(divide="ignore"):
        log_w = np.concatenate(
            [np.log(2.0 * u * v).reshape(rows, -1),
             np.broadcast_to(tail.log_weights + tail.nodes, (rows, n_nodes))],
            axis=1)
    t = r * r
    log_c = np.array([[math.log(x)] for x in c.tolist()])
    lgam = np.array([[math.lgamma(x + 1)] for x in alpha.tolist()])
    alpha, c = alpha[:, None], c[:, None]
    big = c >= _STIRLING_FROM
    head = np.where(big, _stirling_constant(c, log_c), alpha * log_c)
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(alpha > 0, alpha * np.log1p((t - c) / c), 0.0)
    log_root_w = 0.5 * (log_w + power - (t - c)
                        + head - np.where(big, 0.0, c) - np.where(big, 0.0, lgam))
    v, s = orthonormal_scaled(ms, alpha, t)
    avals = values(r)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = v * np.exp(s + log_root_w)
        weighted = phi * avals
    if not np.isfinite(weighted).all():
        k, i, j = np.argwhere(~np.isfinite(weighted))[0]
        raise NonFiniteIntegrandError(
            f"integrand not finite at t={t[i, j]} (d={ds[i]}, m={ms[k]}): "
            f"symbol {a.name} is {complex(avals[i, j])}, Laguerre function "
            f"value {phi[k, i, j]}")
    block = weighted.transpose(1, 0, 2) @ phi.transpose(1, 2, 0)
    if not np.isfinite(block).all():
        i = np.argwhere(~np.isfinite(block))[0][0]
        raise NonFiniteIntegrandError(
            f"block sums overflow (d={ds[i]}, {a.name})")
    size = np.abs(phi)
    scale = (size * np.abs(avals)).transpose(1, 0, 2) @ size.transpose(1, 2, 0)
    return block, scale


def block_checked_by_doubling(a, values, ds, ms):
    """`block_once_one_size` at 64 nodes, then at each doubled size for the
    rows that have not yet agreed with the previous size, up to 512 nodes:
    the self-check of `toeplitz._block_checked` one size per evaluation."""
    n = _N_START
    prev, _ = block_once_one_size(a, values, ds, ms, n)
    blocks = np.empty(prev.shape, dtype=complex)
    nodes = np.zeros(len(ds), dtype=int)
    todo = np.arange(len(ds))
    while n < _N_MAX:
        n *= 2
        cur, scale = block_once_one_size(a, values, ds[todo], ms, n)
        atol = np.maximum(BETA_ABS_TOL, ROUNDING_FLOOR * scale)
        ok = np.all(np.abs(cur - prev) <= atol + BETA_REL_TOL * np.abs(cur),
                    axis=(1, 2))
        blocks[todo[ok]] = cur[ok]
        nodes[todo[ok]] = n
        todo, prev = todo[~ok], cur[~ok]
        if not len(todo):
            return blocks, nodes
    raise QuadratureConvergenceError(
        f"block on diagonal d={ds[todo[0]]} for degrees {list(ms)} did not "
        f"converge up to {_N_MAX} nodes for symbol {a.name}")
