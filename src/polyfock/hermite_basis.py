"""The complex Hermite basis of the Gaussian L2 space of the plane.

Each basis element carries three representations that are kept permanently
as a self-test pair: the exact polynomial built by repeated creation
operators, the exact closed-form coefficient expansion, and a floating-point
evaluator routed through the scaled Laguerre profile of degree min(p, q)
(the monomial expansion cancels catastrophically for large min(p, q) and is
never used numerically): `laguerre.profile_point` at one point,
`laguerre.profile_scaled` on arrays of radii.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .defaults import Value, _finite_point, integers
from .laguerre import _times_exp, profile_point, profile_scaled

# numpy is imported inside the array function and the exact layer inside the
# exact functions, so a point evaluation (the CLI's `basis --eval`) loads
# neither, and the exact coefficients (`basis --coeffs`) load no numpy
if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

    from .exact_poly import BiPolynomial, ScaledPolynomial

MAX_EXACT_INDEX = 32


class HermiteIndex(Value):
    """Index pair (p, q): p powers of z, q powers of zbar."""

    __slots__ = ("p", "q")
    p: int
    q: int

    def __init__(self, p: int, q: int):
        super().__init__(*integers(0, p=p, q=q))

    @property
    def d(self) -> int:
        """Diagonal index p - q."""
        return self.p - self.q


@lru_cache(maxsize=(MAX_EXACT_INDEX + 1) ** 2)
def _body(p: int, q: int) -> BiPolynomial:
    """(a^dagger)^q (a-bar^dagger)^p 1: one creation step on the cached body
    of (p, q-1), or of (p-1, 0) when q = 0."""
    from .exact_poly import BiPolynomial, creation_adagger, creation_adagger_bar
    if q:
        return creation_adagger(_body(p, q - 1))
    if p:
        return creation_adagger_bar(_body(p - 1, 0))
    return BiPolynomial.one()


def b_exact(idx: HermiteIndex) -> ScaledPolynomial:
    """Basis element from q creation and p conjugate-creation steps on 1."""
    from fractions import Fraction

    from .exact_poly import ScaledPolynomial, factorial
    if idx.p > MAX_EXACT_INDEX or idx.q > MAX_EXACT_INDEX:
        raise ValueError(f"exact layer capped at index {MAX_EXACT_INDEX}")
    return ScaledPolynomial(_body(idx.p, idx.q),
                            Fraction(1, factorial(idx.p) * factorial(idx.q)))


@lru_cache(maxsize=None)
def _b_coeffs(p: int, q: int) -> ScaledPolynomial:
    from fractions import Fraction

    from .exact_poly import BiPolynomial, ScaledPolynomial, factorial
    lo, hi = min(p, q), max(p, q)
    terms = {}
    for s in range(lo + 1):
        coeff = Fraction((-1) ** s * math.comb(hi, s), factorial(lo - s))
        terms[(p - s, q - s)] = coeff
    return ScaledPolynomial(BiPolynomial(terms), Fraction(factorial(lo), factorial(hi)))


def b_coeffs(idx: HermiteIndex) -> ScaledPolynomial:
    """Closed-form coefficient expansion over monomials m_{p-s, q-s}."""
    if idx.p > MAX_EXACT_INDEX or idx.q > MAX_EXACT_INDEX:
        raise ValueError(f"exact layer capped at index {MAX_EXACT_INDEX}")
    return _b_coeffs(idx.p, idx.q)


def _radial_values(pairs: Sequence[tuple[int, int]], r,
                   log_weight=0.0) -> np.ndarray:
    """b_{p,q}(r) e^log_weight at real radii r >= 0: shape (len(pairs),) +
    shape of r, with `log_weight` broadcast against r.

    The rows of `profile_scaled`, with `log_weight` joining its log scale.
    """
    import numpy as np
    m = [min(p, q) for p, q in pairs]
    degrees = sorted(set(m))
    row = {k: i for i, k in enumerate(degrees)}
    r = np.asarray(r, dtype=float)
    alpha = np.array([abs(p - q) for p, q in pairs], dtype=float)
    v, s = profile_scaled(degrees, alpha.reshape((-1,) + (1,) * r.ndim), r)
    pick = [row[k] for k in m], range(len(m))
    return v[pick] * np.exp(s[pick] + log_weight)


def _radial_point(p: int, q: int, r: float, z: complex) -> float:
    """b_{p,q}(r) at one radius r = |z|, the scalar twin of `_radial_values`;
    an OverflowError naming (p, q) and z where it leaves the float range."""
    value = _times_exp(*profile_point(min(p, q), abs(p - q), r))
    if not math.isfinite(value):
        raise OverflowError(f"b_{p},{q} at z={z} does not fit in a float")
    return value


def b_eval(idx: HermiteIndex, z: complex) -> complex:
    """Floating-point value via the Laguerre form of degree min(p, q).

    A non-finite z raises ValueError, and a value past the float range
    raises OverflowError.
    """
    p, q = idx.p, idx.q
    z = _finite_point(z)
    r = math.hypot(z.real, z.imag)
    tau = z / r if 0 < r < math.inf else 1.0
    return _radial_point(p, q, r, z) * tau ** (p - q)


def b_eval_polar(idx: HermiteIndex, r: float, tau: complex) -> complex:
    """Value at z = r tau, |tau| = 1 to 1e-12, bypassing the cartesian form."""
    if not abs(abs(tau) - 1.0) <= 1e-12:
        raise ValueError(f"tau must lie on the unit circle, got tau={tau}")
    if not 0 <= r < math.inf:
        raise ValueError(f"radius must be finite and nonnegative, got {r}")
    tau = complex(tau)
    return _radial_point(idx.p, idx.q, float(r), r * tau) * tau ** idx.d


class SignedSquare(NamedTuple):
    """Exact representation of a real value v as (sign(v), v^2)."""

    sign: int
    square: Fraction


def monomial_b_inner(d: int, k: int, q: int) -> SignedSquare:
    """Exact <m_{d+k,k}, b_{d+q,q}> as a signed square.

    Requires k <= q and all exponents nonnegative.  The value is
    sqrt(q! (d+q)!) for k = q and 0 for k < q.
    """
    d, k, q = integers(d=d, k=k, q=q)
    if k > q:
        raise ValueError("requires k <= q")
    if min(d + k, d + q, k, q) < 0:
        raise ValueError("all exponents must be nonnegative")
    from fractions import Fraction

    from .exact_poly import BiPolynomial, ScaledPolynomial
    mono = ScaledPolynomial(BiPolynomial.monomial(d + k, k), Fraction(1))
    basis = b_coeffs(HermiteIndex(d + q, q))
    sign, square = mono.inner_sign_square(basis)
    return SignedSquare(sign, square)


def basis_json_dict(idx: HermiteIndex) -> dict:
    """CLI-facing serialization: exact body coefficients plus squared scale."""
    sp = b_exact(idx)
    coeffs = [[j, k, str(c.re), str(c.im)]
              for (j, k), c in sorted(sp.body.terms())]
    return {"p": idx.p, "q": idx.q, "coeffs": coeffs, "scale_sq": str(sp.scale_sq)}
