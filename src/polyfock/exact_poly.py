"""Exact rational arithmetic for polynomials in z and z-bar.

Coefficients are complex numbers whose real and imaginary parts are
arbitrary-precision rationals, each an int or a Fraction and never a float,
so every identity established here holds without rounding.  Integer
coefficients (every basis body has them) stay ints, whose arithmetic is far
cheaper than Fraction's.  This layer is the ground truth that the
floating-point layers are checked against; it never touches a float except
in `evaluate`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

from .defaults import Value, integers

MAX_FACTORIAL = 256

Scalar = Union[int, Fraction, "RationalComplex"]


@lru_cache(maxsize=None)
def factorial(n: int) -> int:
    """Memoized arbitrary-precision factorial, capped at MAX_FACTORIAL."""
    [n] = integers(0, n=n)
    if n > MAX_FACTORIAL:
        raise ValueError(f"factorial cap exceeded: {n} > {MAX_FACTORIAL}")
    return math.factorial(n)


def sqrt_fraction(value: Fraction) -> Fraction | None:
    """Exact rational square root of a nonnegative Fraction, or None."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class RationalComplex(Value):
    """Complex number with exact rational real and imaginary parts.

    Each part is an int or a Fraction, never a float, so integer arithmetic
    stays in ints and division is exact.
    """

    __slots__ = ("re", "im")
    re: int | Fraction
    im: int | Fraction

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        super().__init__(re, im)

    @staticmethod
    def coerce(value: Scalar) -> "RationalComplex":
        if isinstance(value, RationalComplex):
            return value
        if isinstance(value, int):
            return RationalComplex(int(value))  # a bool becomes an int
        if isinstance(value, Fraction):
            return RationalComplex(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to RationalComplex")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, RationalComplex)):
            o = RationalComplex.coerce(other)
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other: Scalar) -> "RationalComplex":
        o = RationalComplex.coerce(other)
        return RationalComplex(self.re + o.re, self.im + o.im)

    def __sub__(self, other: Scalar) -> "RationalComplex":
        o = RationalComplex.coerce(other)
        return RationalComplex(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "RationalComplex":
        return RationalComplex(-self.re, -self.im)

    def __mul__(self, other: Scalar) -> "RationalComplex":
        o = RationalComplex.coerce(other)
        return RationalComplex(self.re * o.re - self.im * o.im,
                               self.re * o.im + self.im * o.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "RationalComplex":
        o = RationalComplex.coerce(other)
        d = o.abs_sq()
        if d == 0:
            raise ZeroDivisionError("division by zero RationalComplex")
        num = self * o.conjugate()
        return RationalComplex(Fraction(num.re, d), Fraction(num.im, d))

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def abs_sq(self) -> int | Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


RC_ZERO = RationalComplex()
RC_ONE = RationalComplex(1)


class BiPolynomial:
    """Sparse polynomial in the two formal variables z and z-bar.

    Terms map exponent pairs (j, k), meaning z^j zbar^k, to nonzero
    RationalComplex coefficients.  Instances are immutable by convention:
    every operation returns a fresh polynomial in canonical form (no stored
    zero coefficient).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        canon: dict[tuple[int, int], RationalComplex] = {}
        if terms:
            for (j, k), c in terms.items():
                if j < 0 or k < 0:
                    raise ValueError(f"negative exponent in ({j}, {k})")
                rc = RationalComplex.coerce(c)
                if not rc.is_zero:
                    canon[(j, k)] = rc
        self._terms = canon

    @classmethod
    def zero(cls) -> "BiPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "BiPolynomial":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, j: int, k: int, coeff: Scalar = 1) -> "BiPolynomial":
        return cls({(j, k): coeff})

    def terms(self) -> Iterable[tuple[tuple[int, int], RationalComplex]]:
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "BiPolynomial") -> "BiPolynomial":
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, RC_ZERO) + c
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        result = BiPolynomial()
        result._terms = out
        return result

    def __sub__(self, other: "BiPolynomial") -> "BiPolynomial":
        return self + (-other)

    def __neg__(self) -> "BiPolynomial":
        result = BiPolynomial()
        result._terms = {key: -c for key, c in self._terms.items()}
        return result

    def __mul__(self, other: Union["BiPolynomial", Scalar]) -> "BiPolynomial":
        if not isinstance(other, BiPolynomial):
            return self.scale(other)
        out: dict[tuple[int, int], RationalComplex] = {}
        for (j1, k1), c1 in self._terms.items():
            for (j2, k2), c2 in other._terms.items():
                key = (j1 + j2, k1 + k2)
                s = out.get(key, RC_ZERO) + c1 * c2
                if s.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        result = BiPolynomial()
        result._terms = out
        return result

    def __rmul__(self, other: Scalar) -> "BiPolynomial":
        return self.scale(other)

    def scale(self, c: Scalar) -> "BiPolynomial":
        rc = RationalComplex.coerce(c)
        if rc.is_zero:
            return BiPolynomial()
        result = BiPolynomial()
        result._terms = {key: v * rc for key, v in self._terms.items()}
        return result

    def evaluate(self, z: complex) -> complex:
        """Floating-point value at a concrete point.

        Term-by-term float summation; cancellation-free only through
        evaluate_exact, which this calls when given an exact binary point.
        """
        return complex(self.evaluate_exact(Fraction(z.real), Fraction(z.imag)))

    def evaluate_exact(self, re: Fraction, im: Fraction) -> RationalComplex:
        """Exact value at a rational point, free of rounding and cancellation."""
        z = RationalComplex(re, im)
        zb = z.conjugate()
        powers_z: dict[int, RationalComplex] = {0: RC_ONE}
        powers_zb: dict[int, RationalComplex] = {0: RC_ONE}

        def power(table, base, k):
            if k not in table:
                table[k] = power(table, base, k - 1) * base
            return table[k]

        total = RC_ZERO
        for (j, k), c in self._terms.items():
            total = total + c * power(powers_z, z, j) * power(powers_zb, zb, k)
        return total

    def __repr__(self) -> str:
        if not self._terms:
            return "BiPolynomial(0)"
        parts = [f"{c!r}*z^{j}*zb^{k}" for (j, k), c in sorted(self._terms.items())]
        return "BiPolynomial(" + " + ".join(parts) + ")"


def _raise_minus_derivative(f: BiPolynomial, wrt_z: bool) -> BiPolynomial:
    """zbar*f - df/dz (wrt_z) or z*f - df/dzbar, in one pass over the terms.

    Real and imaginary parts add up as plain rationals in one dict, ints
    staying ints; the coefficients that cancel to zero are dropped at the
    end.
    """
    acc: dict[tuple[int, int], list] = {}
    for (j, k), c in f.terms():
        if wrt_z:
            up, n, down = (j, k + 1), j, (j - 1, k)
        else:
            up, n, down = (j + 1, k), k, (j, k - 1)
        slot = acc.setdefault(up, [0, 0])
        slot[0] += c.re
        slot[1] += c.im
        if n:
            slot = acc.setdefault(down, [0, 0])
            slot[0] -= n * c.re
            slot[1] -= n * c.im
    out = BiPolynomial()
    out._terms = {key: RationalComplex(re, im)
                  for key, (re, im) in acc.items() if re or im}
    return out


def creation_adagger(f: BiPolynomial) -> BiPolynomial:
    """Creation operator zbar*f - df/dz."""
    return _raise_minus_derivative(f, wrt_z=True)


def creation_adagger_bar(f: BiPolynomial) -> BiPolynomial:
    """Creation operator z*f - df/dzbar."""
    return _raise_minus_derivative(f, wrt_z=False)


def gaussian_inner(f: BiPolynomial, g: BiPolynomial) -> RationalComplex:
    """Exact <f, g> in L2 of the plane with standard Gaussian weight.

    Reduces to the monomial rule <z^p zbar^q, z^j zbar^k> =
    delta_{p+k, q+j} * (p+k)!, extended sesquilinearly (conjugate-linear in
    the second argument).  Only terms on the same diagonal p - q = j - k
    pair up; their real and imaginary parts add up as plain rationals, in
    ints while the coefficients are ints, and the parts returned are
    Fractions.
    """
    by_diagonal: dict[int, list] = {}
    for (j, k), c in g.terms():
        by_diagonal.setdefault(j - k, []).append((k, c.re, c.im))
    re = im = 0
    for (p, q), cf in f.terms():
        a, b = cf.re, cf.im
        for k, c, d in by_diagonal.get(p - q, ()):
            w = factorial(p + k)
            if b or d:
                # (a + ib)(c - id)
                re += (a * c + b * d) * w
                im += (b * c - a * d) * w
            else:
                re += a * c * w
    return RationalComplex(Fraction(re), Fraction(im))


class ScaledPolynomial(Value):
    """A polynomial together with the square of a positive scalar prefactor.

    Represents sqrt(scale_sq) * body.  Tracking the squared scale keeps all
    bookkeeping rational: products of two scales are compared through their
    squares, and square roots are only extracted when exact.
    """

    __slots__ = ("body", "scale_sq")
    body: BiPolynomial
    scale_sq: Fraction

    def __init__(self, body: BiPolynomial, scale_sq: Fraction):
        if scale_sq <= 0:
            raise ValueError("scale_sq must be positive")
        super().__init__(body, scale_sq)

    def same_polynomial(self, other: "ScaledPolynomial") -> bool:
        """Exact equality of the represented polynomials."""
        if self.body.is_zero or other.body.is_zero:
            return self.body.is_zero and other.body.is_zero
        ratio_sq = other.scale_sq / self.scale_sq
        rho = sqrt_fraction(ratio_sq)
        if rho is None:
            return False
        # represented equal iff body == rho * other.body with rho = sqrt ratio
        return self.body == other.body.scale(rho)

    def inner_sign_square(self, other: "ScaledPolynomial") -> tuple[int, Fraction]:
        """(sign, value^2) of a real-valued inner product, both exact."""
        raw = gaussian_inner(self.body, other.body)
        if raw.is_zero:
            return (0, Fraction(0))
        if not raw.is_real:
            raise ValueError("inner product is not real")
        sign = 1 if raw.re > 0 else -1
        return (sign, raw.re * raw.re * self.scale_sq * other.scale_sq)

    def evaluate(self, z: complex) -> complex:
        return math.sqrt(float(self.scale_sq)) * self.body.evaluate(z)
