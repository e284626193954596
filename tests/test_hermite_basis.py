import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polyfock import hermite_basis
from polyfock.exact_poly import BiPolynomial, ScaledPolynomial, gaussian_inner
from polyfock.fock_spaces import SpaceId
from polyfock.hermite_basis import (HermiteIndex, b_coeffs, b_eval, b_eval_polar,
                                    b_exact, basis_json_dict, monomial_b_inner)


def scaled(terms, scale_sq):
    return ScaledPolynomial(BiPolynomial(terms), Fraction(*scale_sq))


# closed forms of the first table of basis functions
TABLE = {
    (0, 0): scaled({(0, 0): 1}, (1, 1)),
    (0, 1): scaled({(0, 1): 1}, (1, 1)),
    (1, 0): scaled({(1, 0): 1}, (1, 1)),
    (1, 1): scaled({(1, 1): 1, (0, 0): -1}, (1, 1)),
    (0, 2): scaled({(0, 2): 1}, (1, 2)),
    (2, 0): scaled({(2, 0): 1}, (1, 2)),
    (1, 2): scaled({(1, 2): 1, (0, 1): -2}, (1, 2)),
    (2, 1): scaled({(2, 1): 1, (1, 0): -2}, (1, 2)),
    # quartic leading term: the Laguerre form forces |z|^4, not |z|^2
    (2, 2): scaled({(2, 2): 1, (1, 1): -4, (0, 0): 2}, (1, 4)),
}


class TestExactConstructions:
    def test_table_values(self):
        for (p, q), expected in TABLE.items():
            assert b_exact(HermiteIndex(p, q)).same_polynomial(expected)
            assert b_coeffs(HermiteIndex(p, q)).same_polynomial(expected)

    def test_operator_matches_closed_coefficients(self):
        for p in range(7):
            for q in range(7):
                idx = HermiteIndex(p, q)
                assert b_exact(idx).same_polynomial(b_coeffs(idx))

    def test_recurrence_matches_fold_in_any_fill_order(self):
        indices = [(p, q) for p in range(17) for q in range(17)]
        want = {(p, q): oracles.b_exact_fold(p, q) for p, q in indices}
        for order in (indices, indices[::-1]):
            hermite_basis._body.cache_clear()
            for p, q in order:
                got = b_exact(HermiteIndex(p, q))
                assert (got.body, got.scale_sq) == want[(p, q)], (p, q)
            assert hermite_basis._body.cache_info().currsize == len(indices)

    def test_index_cap(self):
        with pytest.raises(ValueError):
            b_exact(HermiteIndex(33, 0))
        with pytest.raises(ValueError):
            HermiteIndex(-1, 0)

    def test_exact_orthonormality_small(self):
        elems = {(p, q): b_exact(HermiteIndex(p, q))
                 for p in range(5) for q in range(5)}
        for (p, q), f in elems.items():
            for (j, k), g in elems.items():
                raw = gaussian_inner(f.body, g.body)
                if (p, q) == (j, k):
                    assert raw * f.scale_sq == 1
                else:
                    assert raw == 0


class TestNumericEvaluation:
    def test_point_values(self):
        assert b_eval(HermiteIndex(1, 1), 2 + 0j) == pytest.approx(3.0)
        got = b_eval(HermiteIndex(2, 0), 1 + 1j)
        assert got == pytest.approx((1 + 1j) ** 2 / math.sqrt(2))
        assert got == pytest.approx(math.sqrt(2) * 1j)
        for z in (0j, 1.7 - 0.3j, -2j):
            assert b_eval(HermiteIndex(0, 0), z) == 1.0

    def test_matches_exact_polynomial(self):
        zs = [0.5 + 0.5j, -3 + 2j, 6j, 5.5 - 1.5j, 0.01 + 0j]
        for p in (0, 1, 3, 9, 16):
            for q in (0, 2, 7, 16):
                idx = HermiteIndex(p, q)
                exact = b_exact(idx)
                for z in zs:
                    want = exact.evaluate(z)
                    got = b_eval(idx, z)
                    assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))

    def test_polar_form(self):
        assert b_eval_polar(HermiteIndex(0, 0), 3.0, 1.0) == 1.0
        assert b_eval_polar(HermiteIndex(1, 0), 2.0, 1j) == pytest.approx(2j)
        for theta in (0.0, 0.9, 2.4):
            val = b_eval_polar(HermiteIndex(1, 1), 1.0, cmath.exp(1j * theta))
            assert val == pytest.approx(0.0, abs=1e-15)

    def test_polar_matches_cartesian(self):
        for p, q in ((0, 3), (4, 4), (7, 2), (2, 7)):
            idx = HermiteIndex(p, q)
            for r in (0.0, 0.7, 3.0, math.sqrt(50.0)):
                for theta in (0.2, 1.9):
                    tau = cmath.exp(1j * theta)
                    got = b_eval_polar(idx, r, tau)
                    want = b_eval(idx, r * tau)
                    assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))

    def test_matches_array_route(self):
        # the point route against `_radial_values` times the phase, z = 0 too
        rng = np.random.default_rng(7)
        radii, angles = 25 * np.sqrt(rng.uniform(0, 1, 12)), rng.uniform(0, 7, 12)
        zs = [0j, 1e-3 + 0j, -2.5j] + list(radii * np.exp(1j * angles))
        for p, q in ((0, 0), (5, 0), (0, 7), (3, 9), (40, 40), (128, 3), (17, 128)):
            for z in zs:
                z = complex(z)
                r = abs(z)
                want = complex(hermite_basis._radial_values([(p, q)], r)[0]
                               * (z / r if r else 1.0) ** (p - q))
                if not np.isfinite(want):
                    continue
                got = b_eval(HermiteIndex(p, q), z)
                assert abs(got - want) <= 1e-12 * abs(want), (p, q, z)

    def test_high_indices_have_no_cap(self):
        # b_{200,0}(1) = 1/sqrt(200!)
        got = b_eval(HermiteIndex(200, 0), 1.0)
        assert got == pytest.approx(math.exp(-0.5 * math.lgamma(201)), rel=1e-12)
        for z in (1.0 + 0j, 3 - 4j, 20j, 30 * cmath.exp(0.7j)):
            r = abs(z)
            want = complex(hermite_basis._radial_values([(300, 250)], r)[0]
                           * (z / r) ** 50)
            assert np.isfinite(want) and want != 0
            got = b_eval(HermiteIndex(300, 250), z)
            assert abs(got - want) <= 1e-12 * abs(want), z

    def test_non_finite_point_rejected(self):
        for z in (complex(math.nan, 0), complex(0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                b_eval(HermiteIndex(1, 3), z)
        with pytest.raises(ValueError, match="finite"):
            b_eval_polar(HermiteIndex(1, 3), math.nan, 1.0)

    def test_overflow_names_index_and_point(self):
        with pytest.raises(OverflowError, match=r"b_128,3 at z=\(100000\+0j\)"):
            b_eval(HermiteIndex(128, 3), 100000 + 0j)
        with pytest.raises(OverflowError, match="b_2,2"):
            b_eval_polar(HermiteIndex(2, 2), 1e200, 1.0)

    def test_polar_rejects_off_circle(self):
        with pytest.raises(ValueError):
            b_eval_polar(HermiteIndex(1, 0), 1.0, 1.1)

    @pytest.mark.parametrize("tau", [math.nan, complex(math.nan, 1), math.inf])
    def test_polar_rejects_non_finite_phase(self, tau):
        with pytest.raises(ValueError, match="tau"):
            b_eval_polar(HermiteIndex(1, 0), 1.0, tau)

    @given(st.integers(0, 6), st.integers(0, 6),
           st.floats(0.0, 2 * math.pi), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_rotation_eigenrelation(self, p, q, theta, x, y):
        idx = HermiteIndex(p, q)
        tau = cmath.exp(1j * theta)
        z = complex(x, y)
        lhs = b_eval(idx, z / tau)
        rhs = tau ** (q - p) * b_eval(idx, z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestMonomialPairing:
    def test_examples(self):
        assert monomial_b_inner(0, 0, 0) == (1, Fraction(1))
        sign, square = monomial_b_inner(2, 1, 1)
        assert sign == 1 and square == 6  # value sqrt(1! * 3!)
        assert monomial_b_inner(1, 0, 1) == (0, Fraction(0))

    def test_closed_form_range(self):
        for d in range(5):
            for q in range(5):
                for k in range(q + 1):
                    sign, square = monomial_b_inner(d, k, q)
                    if k == q:
                        assert sign == 1
                        assert square == math.factorial(q) * math.factorial(d + q)
                    else:
                        assert (sign, square) == (0, 0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            monomial_b_inner(0, 2, 1)
        with pytest.raises(ValueError):
            monomial_b_inner(-3, 1, 2)


class TestDiagonals:
    def test_examples(self):
        def run(n, d):
            space = SpaceId("poly", n)
            indices = space.basis_indices(8)
            return [indices[i] for i in space.diagonal_rows(8)[d]]
        assert run(4, -1) == [(0, 1), (1, 2), (2, 3)]
        assert run(2, 2) == [(2, 0), (3, 1)]
        assert run(1, 0) == [(0, 0)]

    def test_polar_profile_is_polynomial_in_r_squared(self):
        rng = np.random.default_rng(7)
        tau = cmath.exp(0.31j)
        for d, m in ((0, 4), (3, 3), (-2, 5)):
            start = max(0, -d)
            coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            radii = np.linspace(0.5, 2.2, m + 2)

            def f(r):
                return sum(c * b_eval_polar(HermiteIndex(d + k, k), r, tau)
                           for c, k in zip(coeffs, range(start, start + m)))

            profile = np.array([f(r) * tau ** (-d) / r ** abs(d) for r in radii])
            vander = np.vander(radii[:m] ** 2, m, increasing=True)
            poly = np.linalg.solve(vander, profile[:m])
            predicted = np.vander(radii[m:] ** 2, m, increasing=True) @ poly
            assert predicted == pytest.approx(profile[m:], abs=1e-10)


def test_json_serialization_layout():
    record = basis_json_dict(HermiteIndex(2, 2))
    assert record["p"] == 2 and record["q"] == 2
    assert record["scale_sq"] == "1/4"
    assert record["coeffs"] == [[0, 0, "2", "0"], [1, 1, "-4", "0"],
                                [2, 2, "1", "0"]]
    # represented constant term is 2 * sqrt(1/4) = 1
    assert b_exact(HermiteIndex(2, 2)).evaluate(0j) == pytest.approx(1.0)
