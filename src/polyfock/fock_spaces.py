"""Polyanalytic and true-polyanalytic Fock spaces: reproducing kernels,
series and recursion cross-checks, evaluation bounds, and the Berezin
transform.

The kernel of the order-n polyanalytic space is e^(zbar w) L_{n-1}^(1)(|w-z|^2);
its true-polyanalytic sibling replaces L^(1) by the plain Laguerre polynomial.
One range rule holds here: a value that fits in a float is returned, and one
past the float range raises a named OverflowError.  Where a kernel factor
leaves the float range, or e^(zbar w) is subnormal, the product is formed in
the log domain, log|L| + Re(zbar w), with the sign of L and the phase kept
apart.  A phase Im(zbar w) past the float range raises, unless
Re(zbar w) = -inf, where the value is 0.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import TYPE_CHECKING, Literal

from .defaults import Value, _finite_point, integers
from .laguerre import _profile_points, _recurrence_binary, _times_exp

# numpy is imported inside the array function (`berezin`) and the exact layer
# inside `kernel_recursion_check`, so the kernels and their series (the CLI's
# `kernel`) load neither
if TYPE_CHECKING:
    import numpy as np

Kind = Literal["poly", "true_poly"]

#: e^x is a normal float for x >= _EXP_NORMAL
_EXP_NORMAL = -708.0

#: ln 2 = _LN2_HI + _LN2_LO, with e * _LN2_HI exact for |e| < 2^21
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


class SpaceId(Value):
    """Either the order-n polyanalytic space or its true-polyanalytic layer."""

    __slots__ = ("kind", "n")
    kind: Kind
    n: int

    def __init__(self, kind: Kind, n: int):
        if kind not in ("poly", "true_poly"):
            raise ValueError(f"unknown space kind {kind!r}")
        super().__init__(kind, *integers(1, n=n))

    def basis_indices(self, truncation: int) -> list[tuple[int, int]]:
        """Basis enumeration up to the truncation: p ranges over 0..P-1.

        For the full space the order is lexicographic in (q, p); the true
        layer is the single column q = n-1 ordered by p.
        """
        [truncation] = integers(1, truncation=truncation)
        if self.kind == "poly":
            return [(p, q) for q in range(self.n) for p in range(truncation)]
        return [(p, self.n - 1) for p in range(truncation)]

    def diagonal_rows(self, truncation: int) -> dict[int, list[int]]:
        """The basis-to-block layout: for each diagonal d = p - q, the
        positions in `basis_indices(truncation)` of its elements b_{d+k,k},
        ascending in k = q and so in the Laguerre degree min(p, q).

        Diagonals come in order of first appearance in the enumeration.
        """
        rows: dict[int, list[int]] = {}
        for i, (p, q) in enumerate(self.basis_indices(truncation)):
            rows.setdefault(p - q, []).append(i)
        return rows


def _log_factor(k: int, z: complex, w: complex, t: float, v: float,
                e: int) -> tuple[float, float, int]:
    """L_k^(alpha)(|w-z|^2) = v 2^e as (sign, log|m|, e + s), v = m 2^s with
    1/2 <= |m| < 1.  Past the float range of t = |w-z|^2, its leading term
    (-1)^k t^k / k!, the next being a relative k (k + alpha) / t < 1e-290,
    with log t = 2 log|w-z|, |w-z| = 4h, h the distance of the points' quarters."""
    if math.isfinite(t):
        m, s = math.frexp(v)
        return math.copysign(1.0, v), math.log(abs(m)) if v else -math.inf, e + s
    h, e = math.frexp(math.hypot(w.real / 4 - z.real / 4, w.imag / 4 - z.imag / 4))
    return (-1.0) ** k, 2 * k * math.log(h) - math.lgamma(k + 1), k * (2 * e + 4)


def _product_from_logs(arg: complex, sign: float, log_v: float, e: int) -> complex:
    """sign e^arg |v| 2^e from log|v|: the modulus is e to the sum
    Re(arg) + log|v| + e log 2, rounded once (`math.fsum`, with e log 2 in
    two exact parts), the sign and the phase e^(i Im arg) kept apart; inf
    where the value leaves the float range."""
    log_mod = math.fsum((arg.real, log_v, e * _LN2_HI, e * _LN2_LO))
    try:
        return cmath.exp(complex(log_mod, arg.imag)) * sign
    except OverflowError:
        return complex(math.inf)


def _kernel_plain(n: int, z: complex, w: complex, alpha: int) -> complex:
    """e^(zbar w) L_{n-1}^(alpha)(|w-z|^2), L = v 2^e from one recurrence run:
    the float product where both factors are floats and e^(zbar w) is normal
    or |L| <= 1, else summed logs of v 2^e.  A value past the float range
    raises an OverflowError naming what left it.  L_0 = 1 at any distance."""
    [n] = integers(1, n=n)
    z, w = _finite_point(z), _finite_point(w, "w")
    arg = z.conjugate() * w
    if not math.isfinite(arg.imag) and arg.real != -math.inf:
        raise OverflowError(f"kernel phase Im(zbar w) = {arg.imag} is not finite")
    t, v, e = 0.0, 1.0, 0
    if n > 1:
        try:
            t = abs(w - z) ** 2
        except OverflowError:
            t = math.inf
        if math.isfinite(t):
            v, e = _recurrence_binary(n - 1, alpha, t)
    value = None
    try:
        lag = math.ldexp(v, e)
        if math.isfinite(t) and (arg.real >= _EXP_NORMAL or abs(lag) <= 1):
            value = cmath.exp(arg) * lag
    except OverflowError:  # L or e^(zbar w) past the float range
        pass
    if value is None:
        value = _product_from_logs(arg, *_log_factor(n - 1, z, w, t, v, e))
    if cmath.isfinite(value):
        return value
    if not math.isfinite(t):
        raise OverflowError(f"kernel argument |w-z|^2 = {t} is not finite")
    if math.frexp(v)[1] + e > 1024:
        raise OverflowError(f"kernel factor L_{n - 1}^({alpha})(|w-z|^2) is not "
                            f"finite at |w-z|^2 = {t:.3g}")
    raise OverflowError("kernel value overflows the float range at "
                        f"Re(zbar w) = {arg.real:.6g}")


def kernel_true(n: int, z: complex, w: complex) -> complex:
    """Reproducing kernel of the true-polyanalytic layer of order n."""
    return _kernel_plain(n, z, w, 0)


def kernel_poly(n: int, z: complex, w: complex) -> complex:
    """Reproducing kernel of the order-n polyanalytic space."""
    return _kernel_plain(n, z, w, 1)


def kernel_partial_sum(space: SpaceId, z: complex, w: complex,
                       truncation: int) -> complex:
    """Truncated basis series sum of conj(b(z)) b(w) over the space's basis.

    With z = r_z tau_z, w = r_w tau_w and the basis profiles
    `profile_point` = v e^s at r_z and r_w, each term is
    v_z v_w (conj(tau_z) tau_w)^(p-q) times one exponential of s_z + s_w; a
    zero product v_z v_w is an exact 0 term.  Every degree m = min(p, q) is
    below the order n, so the profiles of one order alpha = |p - q| come
    from one recurrence run of n degrees per radius (`_profile_points`), and
    each power of the phase is taken once.  A non-finite point raises
    ValueError, and a term past the float range OverflowError.
    """
    z, w = _finite_point(z), _finite_point(w, "w")
    rz, rw = math.hypot(z.real, z.imag), math.hypot(w.real, w.imag)
    tz = z / rz if 0 < rz < math.inf else 1.0
    tw = w / rw if 0 < rw < math.inf else 1.0
    rho = tz.conjugate() * tw
    n, indices = space.n, space.basis_indices(truncation)
    # 0 <= alpha = |p - q| < truncation + n and 0 < d + n, d = p - q
    size = len(indices) + n
    runs: list = [None] * size  # alpha -> profiles of degrees < n at z, w
    powers: list = [None] * size  # d + n -> rho ** d
    total = 0j
    for p, q in indices:
        alpha, m = (p - q, q) if p >= q else (q - p, p)  # m < n
        run = runs[alpha]
        if run is None:
            run = runs[alpha] = (_profile_points(n, alpha, rz),
                                 _profile_points(n, alpha, rw))
        vz, sz = run[0][m]
        vw, sw = run[1][m]
        if not vz * vw:
            continue
        term = _times_exp(vz * vw, sz + sw)
        if not math.isfinite(term):
            raise OverflowError(f"kernel series term b_{p},{q} at z={z}, w={w} "
                                "does not fit in a float")
        d = p - q
        power = powers[d + n]
        if power is None:
            power = powers[d + n] = rho ** d
        total += term * power
    return total


def kernel_recursion_check(n: int) -> bool:
    """Exact one-step check of the kernel recursion between consecutive layers.

    Writing the kernel as e^(zbar w) P(u, ubar) in the offset variable
    u = w - z, the two first-order factors of the recursion act on P as the
    creation operators of the exact layer, so the whole step reduces to exact
    polynomial arithmetic:  P_{n+1} = -(1/n) (u - d/du_bar)(ubar - d/du) P_n.
    """
    [n] = integers(1, n=n)
    if n > 8:
        raise ValueError("exact recursion check capped at order 8")
    from fractions import Fraction

    from .exact_poly import BiPolynomial, creation_adagger, creation_adagger_bar
    from .laguerre import laguerre_exact

    def layer_poly(order: int) -> BiPolynomial:
        coeffs = laguerre_exact(order - 1, 0)
        return BiPolynomial({(k, k): c for k, c in enumerate(coeffs)})

    stepped = creation_adagger_bar(creation_adagger(layer_poly(n)))
    stepped = stepped.scale(Fraction(-1, n))
    return stepped == layer_poly(n + 1)


def evaluation_bound(n: int, z: complex) -> float:
    """Sharp bound sqrt(n) e^(|z|^2 / 2) on point evaluation at z."""
    [n] = integers(1, n=n)
    r = abs(_finite_point(z))
    half = 0.5 * (r * r)
    bound = _times_exp(math.sqrt(n), half)
    if bound == math.inf:
        raise OverflowError(f"bound sqrt(n) e^(|z|^2 / 2) at |z|^2 / 2 = {half:.1f} "
                            "overflows the float range")
    return bound


_TAIL_FRACTION = 10  # last 1/10 of the enumerated diagonal feeds the tail estimate


def berezin(space: SpaceId, operator_matrix: np.ndarray, z: complex,
            truncation: int) -> complex:
    """Berezin transform (S K_z)(z) / K_z(z) at a point, from a basis matrix.

    The matrix is indexed by the space enumeration at the given truncation,
    entry [out, in] = <S b_in, b_out>.  A tail estimate on the kernel series
    warns when the truncation has not converged at this z.  A squared basis
    value or their sum K(z, z) past the float range raises OverflowError.
    """
    import numpy as np

    from .hermite_basis import _radial_values
    z = _finite_point(z)
    indices = space.basis_indices(truncation)
    k = len(indices)
    if operator_matrix.shape != (k, k):
        raise ValueError(f"matrix shape {operator_matrix.shape} does not match "
                         f"enumeration of size {k}")
    phase = z / abs(z) if z != 0 else 1.0
    d = np.array([p - q for p, q in indices])
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        values = _radial_values(indices, abs(z)) * phase ** d
        den_terms = np.abs(values) ** 2
    den = float(np.sum(den_terms))
    if not math.isfinite(den):
        bad = [pq for pq, s in zip(indices, den_terms.tolist()) if not math.isfinite(s)]
        what = "|b_{},{}|^2".format(*bad[0]) if bad else "K(z, z)"
        raise OverflowError(f"{what} at z={z} does not fit in a float")
    tail_start = truncation - max(1, truncation // _TAIL_FRACTION)
    tail_mask = np.array([p >= tail_start for p, _ in indices])
    tail = float(np.sum(den_terms[tail_mask]))
    if tail > 1e-8 * den:
        warnings.warn(f"kernel series tail at z={z} is {tail/den:.2e} of the "
                      "diagonal mass; increase the truncation", stacklevel=2)
    num = values @ operator_matrix @ values.conjugate()
    return complex(num / den)
