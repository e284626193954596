import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import wirtinger_dz, wirtinger_dzbar
from polyfock.defaults import Value
from polyfock.exact_poly import (BiPolynomial, RationalComplex, ScaledPolynomial,
                                 creation_adagger, creation_adagger_bar, factorial,
                                 gaussian_inner, sqrt_fraction)
from polyfock.fock_spaces import SpaceId
from polyfock.hermite_basis import HermiteIndex, b_exact


def mono(j, k, c=1):
    return BiPolynomial.monomial(j, k, c)


# polynomials of low degree, so that shifted and differentiated terms
# collide, with rational coefficients whose imaginary parts are nonzero
complex_polys = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-6, 6),
              st.integers(-6, 6).filter(bool), st.integers(1, 5)),
    max_size=6).map(lambda terms: sum(
        (mono(j, k, RationalComplex(Fraction(a, e), Fraction(b, e)))
         for j, k, a, b, e in terms), BiPolynomial.zero()))


# parts that are ints or Fractions, and polynomials built from them
rationals = st.one_of(st.integers(-6, 6),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))
mixed_polys = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), rationals, rationals),
    max_size=6).map(lambda terms: BiPolynomial(
        {(j, k): RationalComplex(a, b) for j, k, a, b in terms}))
int_polys = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-6, 6),
              st.integers(-6, 6)),
    max_size=6).map(lambda terms: BiPolynomial(
        {(j, k): RationalComplex(a, b) for j, k, a, b in terms}))


def all_fraction(x):
    """The same value with every part a Fraction."""
    if isinstance(x, BiPolynomial):
        return BiPolynomial({key: all_fraction(c) for key, c in x.terms()})
    return RationalComplex(Fraction(x.re), Fraction(x.im))


def parts(x) -> list:
    if isinstance(x, BiPolynomial):
        return [part for _, c in x.terms() for part in (c.re, c.im)]
    return [x.re, x.im]


class TestWirtinger:
    def test_dz_of_z_zbar(self):
        assert wirtinger_dz(mono(1, 1)) == mono(0, 1)

    def test_dz_kills_antiholomorphic(self):
        assert wirtinger_dz(mono(0, 3)).is_zero

    def test_power_rule_with_coefficient(self):
        assert wirtinger_dz(mono(3, 1, 2)) == mono(2, 1, 6)

    def test_dzbar_mirror(self):
        assert wirtinger_dzbar(mono(1, 3)) == mono(1, 2, 3)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                              st.integers(-5, 5)), max_size=4),
           st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                              st.integers(-5, 5)), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_leibniz_product_rule(self, terms_f, terms_g):
        f = sum((mono(j, k, c) for j, k, c in terms_f), BiPolynomial.zero())
        g = sum((mono(j, k, c) for j, k, c in terms_g), BiPolynomial.zero())
        lhs = wirtinger_dz(f * g)
        rhs = wirtinger_dz(f) * g + f * wirtinger_dz(g)
        assert lhs == rhs


class TestCreationOperators:
    def test_on_constant(self):
        assert creation_adagger(BiPolynomial.one()) == mono(0, 1)
        assert creation_adagger_bar(BiPolynomial.one()) == mono(1, 0)

    def test_unnormalized_b11(self):
        assert creation_adagger(mono(1, 0)) == mono(1, 1) - mono(0, 0)
        assert creation_adagger_bar(mono(0, 1)) == mono(1, 1) - mono(0, 0)

    def test_pure_powers(self):
        assert creation_adagger(mono(0, 1)) == mono(0, 2)
        assert creation_adagger_bar(mono(2, 0)) == mono(3, 0)

    def test_operators_commute_on_monomials(self):
        for p in range(9):
            for q in range(9):
                m = mono(p, q)
                assert creation_adagger(creation_adagger_bar(m)) == \
                    creation_adagger_bar(creation_adagger(m))

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(-6, 6)), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_operators_commute_on_random_polynomials(self, terms):
        f = sum((mono(j, k, c) for j, k, c in terms), BiPolynomial.zero())
        assert creation_adagger(creation_adagger_bar(f)) == \
            creation_adagger_bar(creation_adagger(f))

    def test_cancelled_terms_are_dropped(self):
        # zbar (1 + z zbar) - d/dz (1 + z zbar) = z zbar^2: the zbar cancels,
        # and equality would fail on a stored zero coefficient
        assert creation_adagger(mono(0, 0) + mono(1, 1)) == mono(1, 2)
        assert creation_adagger_bar(mono(0, 0) + mono(1, 1)) == mono(2, 1)

    @given(complex_polys)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_operators_match_product_construction(self, f):
        assert creation_adagger(f) == oracles.creation_adagger(f)
        assert creation_adagger_bar(f) == oracles.creation_adagger_bar(f)


class TestGaussianInner:
    def test_monomial_rule_examples(self):
        # oracle: <m_pq, m_jk> = delta_{p+k, q+j} (p+k)!
        assert gaussian_inner(mono(1, 0), mono(1, 0)) == 1
        assert gaussian_inner(mono(2, 0), mono(1, 1)) == 0
        assert gaussian_inner(mono(2, 2), mono(2, 2)) == math.factorial(4)

    def test_monomial_rule_exhaustive(self):
        for p in range(4):
            for q in range(4):
                for j in range(4):
                    for k in range(4):
                        got = gaussian_inner(mono(p, q), mono(j, k))
                        want = math.factorial(p + k) if p + k == q + j else 0
                        assert got == want

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(-4, 4), st.integers(-4, 4)),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry_and_positivity(self, terms):
        f = sum((mono(j, k, RationalComplex(Fraction(a), Fraction(b)))
                 for j, k, a, b in terms), BiPolynomial.zero())
        assert gaussian_inner(f, f).im == 0
        assert gaussian_inner(f, f).re >= 0
        if not f.is_zero:
            assert gaussian_inner(f, f).re > 0
        g = mono(1, 2) - mono(0, 1, 3)
        assert gaussian_inner(f, g) == gaussian_inner(g, f).conjugate()

    @given(complex_polys, complex_polys)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_rational_complex_sum(self, f, g):
        got = gaussian_inner(f, g)
        want = oracles.gaussian_inner(f, g)
        assert (got.re, got.im) == (want.re, want.im)
        assert type(got.re) is type(got.im) is Fraction
        # real pairs, and a real coefficient against a complex one
        fr, gr = (BiPolynomial({key: c.re for key, c in x.terms()})
                  for x in (f, g))
        for left, right in ((fr, gr), (fr, g), (f, gr)):
            assert gaussian_inner(left, right) == \
                oracles.gaussian_inner(left, right)


class TestRationalComplex:
    def test_arithmetic(self):
        a = RationalComplex(Fraction(1, 2), Fraction(3))
        b = RationalComplex(Fraction(2), Fraction(-1))
        assert a * b == RationalComplex(Fraction(4), Fraction(11, 2))
        assert (a / b) * b == a
        assert a - a == 0
        assert a.conjugate().im == -3

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RationalComplex(Fraction(1)) / RationalComplex()


class TestIntegerParts:
    """Integer parts stay ints; every result equals the one computed with
    all parts Fractions, and no part is ever a float or a bool."""

    @given(mixed_polys, mixed_polys, rationals, rationals)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_mixed_parts_match_all_fraction_reference(self, f, g, a, b):
        ff, gf, c = all_fraction(f), all_fraction(g), RationalComplex(a, b)
        results = [
            (f + g, ff + gf), (f - g, ff - gf), (f * g, ff * gf),
            (f.scale(c), ff.scale(all_fraction(c))),
            (creation_adagger(f), oracles.creation_adagger(ff)),
            (creation_adagger_bar(f), oracles.creation_adagger_bar(ff)),
            (gaussian_inner(f, g), oracles.gaussian_inner(ff, gf)),
            (f.evaluate_exact(a, b), ff.evaluate_exact(Fraction(a), Fraction(b))),
        ]
        if not c.is_zero:
            results.append((RationalComplex(b, a) / c,
                            all_fraction(RationalComplex(b, a)) / all_fraction(c)))
        for got, want in results:
            assert got == want
            assert all(type(part) in (int, Fraction) for part in parts(got))

    @given(int_polys, int_polys, st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_integer_parts_stay_ints(self, f, g, a, b):
        for got in (f + g, f - g, f * g, f.scale(RationalComplex(a, b)),
                    creation_adagger(f), creation_adagger_bar(f),
                    f.evaluate_exact(a, b)):
            assert all(type(part) is int for part in parts(got))
        inner = gaussian_inner(f, g)
        assert type(inner.re) is type(inner.im) is Fraction

    def test_basis_bodies_have_int_parts(self):
        for p in range(6):
            for q in range(6):
                assert all(type(part) is int
                           for part in parts(b_exact(HermiteIndex(p, q)).body))

    def test_coercion(self):
        # an int part equals the Fraction of the same value, and so do scalars
        assert RationalComplex(3) == 3 == RationalComplex(Fraction(3))
        assert hash(RationalComplex(3)) == hash(RationalComplex(Fraction(3)))
        assert type(RationalComplex.coerce(True).re) is int
        assert RationalComplex.coerce(True) == 1
        assert type(RationalComplex.coerce(Fraction(1, 2)).re) is Fraction
        with pytest.raises(TypeError):
            RationalComplex.coerce(0.5)


class _Lookalike(Value):
    __slots__ = ("p", "q")


VALUES = [
    (HermiteIndex(2, 2), HermiteIndex(2, 2), "HermiteIndex(p=2, q=2)", "p"),
    (SpaceId("poly", 2), SpaceId("poly", 2), "SpaceId(kind='poly', n=2)", "n"),
    (RationalComplex(Fraction(1, 2), 3), RationalComplex(Fraction(1, 2), Fraction(3)),
     "(1/2+3i)", "re"),
    (ScaledPolynomial(mono(1, 1) - mono(0, 0), Fraction(1, 2)),
     ScaledPolynomial(mono(1, 1) - mono(0, 0), Fraction(1, 2)),
     "ScaledPolynomial(body=BiPolynomial((-1+0i)*z^0*zb^0 + (1+0i)*z^1*zb^1), "
     "scale_sq=Fraction(1, 2))", "scale_sq"),
]


@pytest.mark.parametrize("value, same, text, field", VALUES,
                         ids=[type(row[0]).__name__ for row in VALUES])
def test_value_class(value, same, text, field):
    assert repr(value) == text
    assert value == same and not value != same
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    fields = tuple(getattr(value, name) for name in type(value).__slots__)
    assert value != fields and value != _Lookalike(*fields[:2])
    if isinstance(value, ScaledPolynomial):
        # as for the frozen dataclass: its body is not hashable
        with pytest.raises(TypeError, match="unhashable type: 'BiPolynomial'"):
            hash(value)
    else:
        assert hash(value) == hash(same)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.other = 1


class TestScaledPolynomial:
    def test_same_polynomial_under_rescaling(self):
        a = ScaledPolynomial(mono(1, 1, 2) - mono(0, 0, 2), Fraction(1, 4))
        b = ScaledPolynomial(mono(1, 1) - mono(0, 0), Fraction(1))
        assert a.same_polynomial(b)
        assert b.same_polynomial(a)

    def test_different_polynomials(self):
        a = ScaledPolynomial(mono(1, 1), Fraction(1))
        b = ScaledPolynomial(mono(1, 1) - mono(0, 0), Fraction(1))
        c = ScaledPolynomial(mono(1, 1), Fraction(2))
        assert not a.same_polynomial(b)
        assert not a.same_polynomial(c)

    def test_inner_sign_square_without_square_scale_product(self):
        # sqrt(1/2) is irrational, yet the sign and the square are exact
        a = ScaledPolynomial(mono(1, 0), Fraction(1, 2))
        sign, square = a.inner_sign_square(ScaledPolynomial(mono(1, 0), Fraction(1)))
        assert (sign, square) == (1, Fraction(1, 2))

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            ScaledPolynomial(mono(0, 0), Fraction(-1))


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(2)) is None
    assert sqrt_fraction(Fraction(-1)) is None


def test_factorial_cap_and_values():
    assert factorial(10) == math.factorial(10)
    with pytest.raises(ValueError):
        factorial(300)
    with pytest.raises(ValueError):
        factorial(-1)


def test_evaluate_matches_hand_value():
    f = mono(2, 1) - mono(0, 0, 3)
    z = 1.0 + 2.0j
    assert f.evaluate(z) == pytest.approx(z * z * z.conjugate() - 3.0)
