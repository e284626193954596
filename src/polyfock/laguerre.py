"""Associated Laguerre polynomials and normalized Laguerre functions.

The plain polynomial L_n^(alpha) is evaluated by its three-term recurrence,
rescaled only near the float range, beside the exact rational coefficient
list as an oracle; `laguerre_eval` names a value past the float range.  Every
normalized radial profile goes through one recurrence: the orthonormal
recurrence with a per-entry log scale, which neither overflows nor
underflows at any degree (`orthonormal_scaled` on arrays).  The basis
profile psi_m(r^2) r^alpha / sqrt(alpha!) adds its prefactor to that scale
in one array and one point evaluator, `profile_scaled` and the numpy-free
`profile_point`, which reads the first degrees of one point run,
`_profile_points`, as the kernel series reads all of them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .defaults import integers

# numpy is imported inside the array functions, so the exact and point paths
# (the CLI's `basis` and `kernel`) never load it; the exact layer is imported
# inside the exact functions, so the float paths (the CLI's `toeplitz`,
# `basis --eval` and `kernel`) never load it
if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np


def _recurrence_binary(n: int, alpha: int, x: float) -> tuple[float, int]:
    """Plain L_n^(alpha)(x) = v 2^e at any finite x >= 0, also past the float
    range, by n L_n = (2n-1+alpha-x) L_{n-1} - (n-1+alpha) L_{n-2}.  No step
    overflows: its products are at most 3n + 2 alpha + x times its larger
    term, and a term past hi = 2^1000 over that factor scales both to at
    most 1 by a power of two, exactly short of the subnormal range.  So
    v 2^e is the unscaled value wherever that is a normal float, e = 0 where
    no term passes hi."""
    if n == 0:
        return 1.0, 0
    hi = 2.0 ** 1000 / (3 * n + 2 * alpha + x)
    prev, cur, e = 1.0, 1.0 + alpha - x, 0
    a, b = 1.0 + alpha, float(alpha)  # 2k-1+alpha and k-1+alpha, exact below 2^53
    for k in range(2, n + 1):
        if abs(cur) > hi:
            shift = math.frexp(max(abs(prev), abs(cur)))[1]
            prev, cur, e = math.ldexp(prev, -shift), math.ldexp(cur, -shift), e + shift
        a, b = a + 2.0, b + 1.0
        prev, cur = cur, ((a - x) * cur - b * prev) / k
    return cur, e


def orthonormal_scaled(ms: Sequence[int], alpha, t) -> tuple[np.ndarray, np.ndarray]:
    """psi_m(t) as (v, s) with psi_m(t) = v e^s, for each degree m in ms.

    psi_m is the orthonormal polynomial for the probability weight
    t^alpha e^(-t) / alpha! on [0, inf), psi_0 = 1, with positive leading
    coefficient: psi_m = (-1)^m sqrt(m! alpha! / (m+alpha)!) L_m^(alpha).
    The integer order alpha >= 0 broadcasts against t; both outputs have
    shape (len(ms),) + that broadcast shape, which may be empty.  The
    recurrence divides an entry by its magnitude whenever it leaves
    [1e-100, 1e100] and adds the log to s, so no degree overflows or
    underflows; where that never happens, s = 0 and v is the plain value.  A
    caller adds its log prefactor to s.
    It starts at psi_1 = (t - alpha - 1) / sqrt(alpha + 1), runs in place in
    two arrays and one work array that also holds |psi_m|, and writes each
    wanted degree straight into its rows of v and s.
    """
    import numpy as np
    a = np.asarray(alpha, dtype=float)
    x = np.asarray(t, dtype=float)
    shape = np.broadcast(a, x).shape
    v = np.empty((len(ms),) + shape)
    s = np.zeros(v.shape)
    rows_of: dict[int, list[int]] = {}
    for i, m in enumerate(ms):
        rows_of.setdefault(m, []).append(i)
    for i in rows_of.pop(0, ()):
        v[i] = 1.0
    if not rows_of or not v.size:
        return v, s
    top = max(rows_of)
    # Jacobi coefficients: diagonal 2k + alpha + 1, off-diagonal sqrt(k (k + alpha))
    ks = np.arange(top + 1).reshape((-1,) + (1,) * a.ndim)
    diag = 2 * ks + a + 1
    off = np.sqrt(ks * (ks + a))
    cur, work = np.empty(shape), np.empty(shape)
    # psi_0 = 1, as an array only where a step takes it into its sum
    prev = np.ones(shape) if top > 1 else 1.0
    scale = None
    # psi_{k+1} = ((t - diag_k) psi_k - off_k psi_{k-1}) / off_{k+1}; at
    # k = 0 the term (t - diag_0) 1 - 0 0 is t - diag_0 exactly
    np.subtract(x, diag[0], out=cur)
    cur /= off[1]
    for k in range(top):
        if k:
            np.subtract(x, diag[k], out=work)
            work *= cur
            prev *= off[k]
            np.subtract(work, prev, out=prev)
            prev /= off[k + 1]
            prev, cur = cur, prev
        # |prev| <= 1e100 already, so only |cur| can put an entry out of
        # range (a NaN also takes the full check)
        size = np.abs(cur, out=work)
        if not (size.max() <= 1e100 and size.min() >= 1e-100):
            mag = np.maximum(size, np.abs(prev))
            off_range = (mag > 1e100) | ((mag > 0) & (mag < 1e-100))
            c = np.where(off_range, mag, 1.0)
            prev /= c
            cur /= c
            scale = np.log(c) if scale is None else scale + np.log(c)
        for i in rows_of.get(k + 1, ()):
            v[i] = cur
            if scale is not None:
                s[i] = scale
    return v, s


def profile_scaled(ms: Sequence[int], alpha, r) -> tuple[np.ndarray, np.ndarray]:
    """psi_m(r^2) r^alpha / sqrt(alpha!) = v e^s at radii r >= 0, for each
    degree m in ms, with the shapes of `orthonormal_scaled`.

    b_{p,q}(r tau) is tau^(p-q) times this profile, m = min(p, q) and
    alpha = |p - q|.  s = -inf where r = 0 and alpha > 0, so the value is
    exactly 0 there.  It takes r, not r^2, which underflows for tiny r.
    """
    import numpy as np
    a = np.asarray(alpha, dtype=float)
    r = np.asarray(r, dtype=float)
    v, s = orthonormal_scaled(ms, a, r * r)
    log_norm = np.reshape([0.5 * math.lgamma(x + 1) for x in a.ravel().tolist()],
                          a.shape)
    with np.errstate(divide="ignore"):
        return v, s + (a * np.log(np.where(a > 0, r, 1.0)) - log_norm)


def profile_point(m: int, alpha: int, r: float) -> tuple[float, float]:
    """psi_m(r^2) r^alpha / sqrt(alpha!) = v e^s at one radius r >= 0, the
    numpy-free twin of `profile_scaled`; (0, 0) where r = 0 and alpha > 0.

    The last entry of `_profile_points(m + 1, alpha, r)`.
    """
    return _profile_points(m + 1, alpha, r)[m]


def _profile_points(n: int, alpha: int, r: float) -> list[tuple[float, float]]:
    """`profile_point` (v, s) of every degree m < n at one order alpha and
    radius r, from one run of the recurrence: entry m is its first m steps.

    The recurrence of `orthonormal_scaled` on plain floats, with the same
    rescaling, started from the prefactor's log as its scale.
    """
    if alpha and not r:
        return [(0.0, 0.0)] * n
    t, prev, cur, off = r * r, 0.0, 1.0, 0.0
    scale = alpha * math.log(r) - 0.5 * math.lgamma(alpha + 1) if alpha else 0.0
    out = [(cur, scale)]
    for k in range(n - 1):
        off_next = math.sqrt((k + 1) * (k + 1 + alpha))
        prev, cur = cur, ((t - (2 * k + alpha + 1)) * cur - off * prev) / off_next
        off = off_next
        size = abs(cur)
        if not 1e-100 <= size <= 1e100:
            mag = max(size, abs(prev))
            if mag > 1e100 or 0 < mag < 1e-100:
                prev, cur = prev / mag, cur / mag
                scale += math.log(mag)
        out.append((cur, scale))
    return out


def _times_exp(v: float, s: float) -> float:
    """v e^s, or inf where e^s alone leaves the float range."""
    try:
        return v * math.exp(s)
    except OverflowError:
        return math.inf


def laguerre_eval(n: int, alpha: int, x: float) -> float:
    """Value of L_n^(alpha)(x), integers n, alpha >= 0, for finite x >= 0;
    an OverflowError where it leaves the float range, never nan or inf."""
    n, alpha = integers(0, n=n, alpha=alpha)
    if not 0 <= x < math.inf:
        raise ValueError(f"argument x must be finite and nonnegative, got {x}")
    v, e = _recurrence_binary(n, alpha, float(x))
    if e and math.frexp(v)[1] + e > 1024:
        raise OverflowError(f"L_{n}^({alpha})({x}) does not fit in a float")
    return math.ldexp(v, e)


def laguerre_exact(n: int, alpha: int) -> list[Fraction]:
    """Exact coefficients of L_n^(alpha), ascending powers.

    Coefficient of x^k is (-1)^k * binom(n+alpha, n-k) / k!.
    """
    from fractions import Fraction
    n, alpha = integers(0, n=n, alpha=alpha)
    return [Fraction((-1) ** k * math.comb(n + alpha, n - k), math.factorial(k))
            for k in range(n + 1)]


def _turning_point(m: int, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Outer turning point t_hi of the Laguerre function of degree m, order
    alpha (int or float array): t_lo + t_hi = 4m + 2 alpha + 2, t_lo t_hi ~
    alpha^2; and its decay length max(sqrt(alpha+1), t_hi^(1/3))."""
    import numpy as np
    nu = 4 * m + 2 * alpha + 2
    t_hi = 0.5 * (nu + np.sqrt(nu * nu - 4.0 * alpha * alpha))
    return t_hi, np.maximum(np.sqrt(alpha + 1), np.cbrt(t_hi))


def laguerre_function_sup(m: int, alpha: int, x: float) -> float:
    """Max over 4096 evenly spaced points of [0, x] of
    |e^(-t/2) psi_m(t) t^(alpha/2)| / sqrt(alpha!), the normalized Laguerre
    function of unit L2(dt) norm.

    The points stop at T, 40 decay lengths past the turning point t_hi
    (`_turning_point`), beyond which the function stays below 1e-11, so the
    result is the same for every x >= T.
    Grid-based diagnostic only; used to witness the decay of the functions
    in the order parameter on compact intervals.
    """
    import numpy as np
    m, alpha = integers(0, m=m, alpha=alpha)
    if not 0 <= x < math.inf:
        raise ValueError(f"interval end x must be finite and nonnegative, got {x}")
    t_hi, decay = _turning_point(m, alpha)
    t = np.linspace(0.0, min(x, t_hi + 40 * decay), 4096)
    v, s = profile_scaled([m], alpha, np.sqrt(t))
    return float(np.max(np.abs(v[0] * np.exp(s[0] - 0.5 * t))))


def rodrigues_identity_residual(n: int, alpha: int) -> bool:
    """Exact check of the Rodrigues-type identity
    e^{xy} d^n/dx^n (e^{-xy} x^{n+alpha}) = n! x^alpha L_n^(alpha)(xy).

    Both sides are expanded as exact polynomials in the two formal variables
    (x plays the role of z, y of zbar); d/dx applied to e^{-xy} g keeps the
    exponential factor and maps g to dg/dx - y g.
    """
    from .exact_poly import BiPolynomial, creation_adagger
    n, alpha = integers(0, n=n, alpha=alpha)
    if n > 10 or alpha > 10:
        raise ValueError("indices limited to 10 for the exact check")
    # n applications of (d/dx - y) to x^(n+alpha), i.e. (-1)^n (y - d/dx)^n
    lhs = BiPolynomial.monomial(n + alpha, 0)
    for _ in range(n):
        lhs = -creation_adagger(lhs)
    coeffs = laguerre_exact(n, alpha)
    rhs = BiPolynomial({(alpha + k, k): c * math.factorial(n)
                        for k, c in enumerate(coeffs)})
    return lhs == rhs
