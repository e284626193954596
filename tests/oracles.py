"""Independent oracles shared by the test modules.

These deliberately avoid every code path they are used to check: the
regularized incomplete gamma goes through the classic series / continued
fraction pair, not through any quadrature of this package.  The exact
references build the creation operators from the general polynomial
product, the Gaussian inner product from `RationalComplex` sums over every
pair of terms, and each basis body by a fresh fold of creation steps on 1.
The kernel series is summed from whole arrays of basis values on the
numpy route, which the point route of `kernel_partial_sum` does not use.
"""

import math
from fractions import Fraction

import numpy as np

from polyfock.exact_poly import (BiPolynomial, RationalComplex, factorial,
                                 wirtinger_dz, wirtinger_dzbar)
from polyfock.hermite_basis import _radial_values


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
