"""Independent oracles shared by the test modules.

These deliberately avoid every code path they are used to check: the
regularized incomplete gamma goes through the classic series / continued
fraction pair, not through any quadrature of this package.  The exact
references build the creation operators from the general polynomial
product and the Wirtinger derivatives, the Gaussian inner product from `RationalComplex` sums over every
pair of terms, and each basis body by a fresh fold of creation steps on 1.
The kernel series is summed from whole arrays of basis values on the
numpy route, which the point route of `kernel_partial_sum` does not use,
and term by term as that point route summed it before it ran one Laguerre
recurrence per order, which is kept as the bit-for-bit reference.
The radial pass's self-check is kept in its one-size-per-evaluation form,
each rule size on a window built afresh, as the reference for the fused
evaluation of its first two sizes; it runs the Laguerre recurrence as it was
before it ran in place, which is kept as the reference for that recurrence.
The plain Laguerre recurrence without rescaling, as `laguerre_eval` and the
kernels ran it before one rescaled recurrence served both, is kept as the
bit-for-bit reference wherever its value is a normal float.
Two analytic radial symbols serve as test cases: 1/(1+r), with a slow
limit, and the unbounded r^2, with closed-form blocks.  numpy's
companion-matrix Gauss-Legendre rule is the reference for the package's
Jacobi-matrix rule.  The window rule's log constant is checked against a
40-digit `decimal` evaluation from the exact integer factorial, or from
Stirling's series with exact Bernoulli numbers for large orders.  The
negative control of `verify` runs the program in a fresh process with the
closed-form coefficients of b_{2,1} off by 1.
"""

import math
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from polyfock.defaults import _finite_point
from polyfock.exact_poly import BiPolynomial, RationalComplex, factorial
from polyfock.hermite_basis import _radial_values
from polyfock.laguerre import _times_exp, profile_point
from polyfock.quadrature import (QuadratureConvergenceError, gauss_laguerre,
                                 legendre_rule)
from polyfock.toeplitz import (_N_MAX, _N_START, _STIRLING_FROM, BETA_ABS_TOL,
                               BETA_REL_TOL, ROUNDING_FLOOR,
                               NonFiniteIntegrandError, RadialSymbol,
                               _stirling_constant)


def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's n-point Gauss-Legendre rule on [-1, 1], from the eigenvalues
    of the Legendre companion matrix."""
    return np.polynomial.legendre.leggauss(n)


#: B_2, B_4, ..., B_20
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
              Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
              Fraction(-174611, 330)]
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097")


def log_weight_constant(c: int, series: bool | None = None) -> Decimal:
    """alpha ln c - c - ln alpha! for alpha = c - 1, to 40 digits: the log of
    t^alpha e^-t / alpha! at its peak t = c.

    ln alpha! comes from the leading 256 bits of the exact integer alpha! for
    c <= 10^4, and from Stirling's series to the term in B_20 past that,
    where the first omitted term is below 1e-80; `series` forces either."""
    if series is None:
        series = c > 10**4
    with localcontext() as ctx:
        ctx.prec = 60
        if series:
            x = Decimal(c)
            log_fact = (x - Decimal("0.5")) * x.ln() - x + (2 * _PI).ln() / 2
            for k, b in enumerate(_BERNOULLI, 1):
                log_fact += (Decimal(b.numerator) / (Decimal(b.denominator)
                             * (2 * k) * (2 * k - 1) * x ** (2 * k - 1)))
        else:
            n = math.factorial(c - 1)
            drop = max(0, n.bit_length() - 256)
            log_fact = Decimal(n >> drop).ln() + drop * Decimal(2).ln()
        value = (c - 1) * Decimal(c).ln() - c - log_fact
    with localcontext() as ctx:
        ctx.prec = 40
        return +value


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


def wirtinger_dz(f: BiPolynomial) -> BiPolynomial:
    """Formal d/dz, treating z and zbar as independent variables."""
    return BiPolynomial({(j - 1, k): c * j for (j, k), c in f.terms() if j > 0})


def wirtinger_dzbar(f: BiPolynomial) -> BiPolynomial:
    """Formal d/dzbar."""
    return BiPolynomial({(j, k - 1): c * k for (j, k), c in f.terms() if k > 0})


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


def inverse_linear_symbol() -> RadialSymbol:
    """a(r) = 1 / (1 + r)."""
    return RadialSymbol(lambda r: 1.0 / (1.0 + r), limit_at_infinity=0.0,
                        bound=1.0, name="inverse_linear")


def squared_radius_symbol() -> RadialSymbol:
    """a(r) = r^2; unbounded."""
    return RadialSymbol(lambda r: r * r, limit_at_infinity=None,
                        bound=math.inf, name="squared_radius")


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


def kernel_partial_sum_per_term(space, z: complex, w: complex,
                                truncation: int) -> complex:
    """`fock_spaces.kernel_partial_sum` as it was before it ran one Laguerre
    recurrence per order: two `profile_point` runs and one power of the
    phase for every term, summed in the basis order."""
    z, w = _finite_point(z), _finite_point(w, "w")
    rz, rw = math.hypot(z.real, z.imag), math.hypot(w.real, w.imag)
    tz = z / rz if 0 < rz < math.inf else 1.0
    tw = w / rw if 0 < rw < math.inf else 1.0
    rho = tz.conjugate() * tw
    total = 0j
    for p, q in space.basis_indices(truncation):
        m, alpha = min(p, q), abs(p - q)
        vz, sz = profile_point(m, alpha, rz)
        vw, sw = profile_point(m, alpha, rw)
        if not vz * vw:
            continue
        term = _times_exp(vz * vw, sz + sw)
        if not math.isfinite(term):
            raise OverflowError(f"kernel series term b_{p},{q} at z={z}, w={w} "
                                "does not fit in a float")
        total += term * rho ** (p - q)
    return total


def laguerre_unscaled(n: int, alpha: int, x: float) -> float:
    """Plain L_n^(alpha)(x) by the three-term recurrence with no rescaling:
    inf, nan or a lost value where a step leaves the float range."""
    # n L_n = (2n-1+alpha-x) L_{n-1} - (n-1+alpha) L_{n-2}
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + alpha - x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1 + alpha - x) * cur - (k - 1 + alpha) * prev) / k
    return cur


def orthonormal_scaled_out_of_place(ms, alpha, t):
    """`laguerre.orthonormal_scaled` as it was before it ran in place: psi_m(t)
    as (v, s) with psi_m(t) = v e^s, for each degree m in ms, from psi_0 = 1
    and psi_-1 = 0, each step a fresh array, the wanted degrees copied out at
    the end.  Kept as the reference that the in-place recurrence reproduces
    bit for bit.

    psi_m is the orthonormal polynomial for the probability weight
    t^alpha e^(-t) / alpha! on [0, inf), psi_0 = 1, with positive leading
    coefficient: psi_m = (-1)^m sqrt(m! alpha! / (m+alpha)!) L_m^(alpha).
    The integer order alpha >= 0 broadcasts against t; both outputs have
    shape (len(ms),) + that broadcast shape.  The recurrence divides an entry
    by its magnitude whenever it leaves [1e-100, 1e100] and adds the log to
    s, so no degree overflows or underflows; where that never happens, s = 0
    and v is the plain value.  A caller adds its log prefactor to s.
    """
    a = np.asarray(alpha, dtype=float)
    x = np.asarray(t, dtype=float)
    shape = np.broadcast(a, x).shape
    m_prev = np.zeros(shape)
    m_cur = np.ones(shape)
    scale = np.zeros(shape)
    wanted = set(ms)
    kept = {0: (m_cur, scale)}
    top = max(wanted, default=0) if m_cur.size else 0
    # Jacobi coefficients: diagonal 2k + alpha + 1, off-diagonal sqrt(k (k + alpha))
    ks = np.arange(top + 1).reshape((-1,) + (1,) * a.ndim)
    diag = 2 * ks + a + 1
    off = np.sqrt(ks * (ks + a))
    for k in range(top):
        m_next = ((x - diag[k]) * m_cur - off[k] * m_prev) / off[k + 1]
        m_prev, m_cur = m_cur, m_next
        # |m_prev| <= 1e100 already, so only |m_cur| can put an entry out of
        # range (a NaN also takes the full check)
        size = np.abs(m_cur)
        if not (size.max() <= 1e100 and size.min() >= 1e-100):
            mag = np.maximum(size, np.abs(m_prev))
            off_range = (mag > 1e100) | ((mag > 0) & (mag < 1e-100))
            c = np.where(off_range, mag, 1.0)
            m_prev = m_prev / c
            m_cur = m_cur / c
            scale = scale + np.log(c)
        if k + 1 in wanted:
            kept[k + 1] = (m_cur, scale)
    out = (len(ms),) + shape
    return (np.array([kept[m][0] for m in ms]).reshape(out),
            np.array([kept[m][1] for m in ms]).reshape(out))


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
    const = np.where(c >= _STIRLING_FROM, _stirling_constant(c, log_c),
                     alpha * log_c - c - lgam)
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(alpha > 0, alpha * np.log1p((t - c) / c), 0.0)
    log_root_w = 0.5 * (log_w + power - (t - c) + const)
    v, s = orthonormal_scaled_out_of_place(ms, alpha, t)
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


def block_checked_by_doubling(a, values, ds, ms, scratch):
    """`block_once_one_size` at 64 nodes, then at each doubled size for the
    rows that have not yet agreed with the previous size, up to 512 nodes:
    the self-check of `toeplitz._block_checked` one size per evaluation.
    The pass's scratch buffer is accepted and not used: every array here is
    fresh."""
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


_CORRUPTED_B21 = """
import sys
from polyfock import cli, verify
from polyfock.exact_poly import BiPolynomial, ScaledPolynomial

closed = verify.b_coeffs

def b_coeffs(idx):
    right = closed(idx)
    if (idx.p, idx.q) != (2, 1):
        return right
    return ScaledPolynomial(right.body + BiPolynomial.monomial(0, 0, 1),
                            right.scale_sq)

verify.b_coeffs = b_coeffs
sys.argv = ["polyfock", "verify", *sys.argv[1:]]
cli.run()
"""


def run_verify_with_b21_corrupted(*argv: str) -> subprocess.CompletedProcess:
    """`polyfock verify *argv` through `cli.run()` in a fresh process, with
    `verify.b_coeffs` replaced by one that adds 1 to b_{2,1}."""
    return subprocess.run([sys.executable, "-c", _CORRUPTED_B21, *argv],
                          capture_output=True, text=True)
