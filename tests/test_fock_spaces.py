import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from polyfock.fock_spaces import (SpaceId, berezin, evaluation_bound,
                                  kernel_partial_sum, kernel_poly,
                                  kernel_recursion_check, kernel_true)
from polyfock.hermite_basis import HermiteIndex, b_eval
from polyfock.quadrature import plane_inner
from polyfock.radial_ops import vanishing_berezin_witness

SAMPLES = [(0.3 + 0.4j, -1.2 + 0.5j), (1.0 + 0j, 1.0 + 0j), (0j, 1.0 + 0j),
           (-0.7 - 0.7j, 0.2 + 1.1j), (1.4 - 0.2j, -0.5 - 0.9j)]


def assert_same_as_per_term_sum(space, z, w, truncation):
    """kernel_partial_sum == the per-term oracle, or the same OverflowError."""
    try:
        want = oracles.kernel_partial_sum_per_term(space, z, w, truncation)
    except OverflowError as exc:
        with pytest.raises(OverflowError, match=f"^{re.escape(str(exc))}$"):
            kernel_partial_sum(space, z, w, truncation)
    else:
        assert kernel_partial_sum(space, z, w, truncation) == want


class TestClosedForms:
    def test_order_one_is_classical(self):
        for z, w in SAMPLES:
            assert kernel_true(1, z, w) == pytest.approx(cmath.exp(z.conjugate() * w))
            assert kernel_poly(1, z, w) == pytest.approx(cmath.exp(z.conjugate() * w))

    def test_diagonal_values(self):
        for z, _ in SAMPLES:
            for n in (1, 2, 5):
                assert kernel_true(n, z, z) == pytest.approx(math.exp(abs(z) ** 2))
                assert kernel_poly(n, z, z) == pytest.approx(
                    n * math.exp(abs(z) ** 2))

    def test_zero_of_true_kernel(self):
        # the order-2 profile is 1 - |w - z|^2
        assert kernel_true(2, 0j, 1 + 0j) == pytest.approx(0.0, abs=1e-15)

    def test_layer_difference(self):
        for z, w in SAMPLES:
            for n in (2, 3, 4):
                diff = kernel_poly(n, z, w) - kernel_poly(n - 1, z, w)
                assert diff == pytest.approx(kernel_true(n, z, w), abs=1e-12)

    def test_telescoping(self):
        for z, w in SAMPLES:
            total = sum(kernel_true(m, z, w) for m in range(1, 5))
            assert total == pytest.approx(kernel_poly(4, z, w), abs=1e-12)

    def test_hermitian_symmetry_and_rotation_invariance(self):
        tau = cmath.exp(1j * math.sqrt(2))
        for z, w in SAMPLES:
            for n in (1, 3):
                assert kernel_poly(n, z, w) == pytest.approx(
                    kernel_poly(n, w, z).conjugate(), abs=1e-12)
                assert kernel_true(n, tau * z, tau * w) == pytest.approx(
                    kernel_true(n, z, w), abs=1e-12)

    def test_overflow_signaled(self):
        with pytest.raises(OverflowError):
            kernel_true(1, 30 + 0j, 30 + 0j)
        with pytest.raises(OverflowError):
            kernel_poly(2, 30 + 0j, 30 + 0j)

    @pytest.mark.parametrize("kernel, n, z, w, match", [
        (kernel_poly, 8, 0j, 1e100 + 0j, "kernel factor"),
        (kernel_true, 8, 0j, 1e60 + 0j, "kernel factor"),
        (kernel_poly, 2, 1e200 + 0j, 0j, r"\|w-z\|\^2 = inf is not finite"),
        (kernel_true, 1, 30 + 0j, 30 + 0j, r"Re\(zbar w\) = 900$"),
        (kernel_poly, 8, 1e3 + 0j, 0.7 + 0j,
         "kernel value overflows the float range"),
        # zbar w = 1e320 i: the phase leaves the float range at every order
        (kernel_true, 1, 1e160 + 0j, 1e160j,
         r"^kernel phase Im\(zbar w\) = inf is not finite$"),
        (kernel_poly, 1, 1e160 + 0j, 1e160j,
         r"^kernel phase Im\(zbar w\) = inf is not finite$"),
        (kernel_true, 2, 1e160 + 0j, 1e160j,
         r"^kernel phase Im\(zbar w\) = inf is not finite$"),
        (kernel_poly, 2, 1e160 + 0j, 1e160j,
         r"^kernel phase Im\(zbar w\) = inf is not finite$"),
    ])
    def test_overflow_named(self, kernel, n, z, w, match):
        # a non-finite |w-z|^2, Laguerre factor, phase or product never
        # comes back as nan or inf
        with pytest.raises(OverflowError, match=match):
            kernel(n, z, w)

    def test_values_near_the_float_maximum(self):
        # past Re(zbar w) = 700 a value that fits in a float is returned
        assert kernel_poly(2, 26.5 + 0j, 26.5 + 0j) == 2 * math.exp(702.25)
        assert kernel_true(1, 26.6 + 0j, 26.6 + 0j) == math.exp(26.6 ** 2)
        # e^(zbar w) overflows at Re(zbar w) = 712.89, and the factor
        # 1 - |w-z|^2 = 0.0199 brings the value back: a 50-digit mpmath value
        assert kernel_true(2, 26.7 + 0j, 26.7 + 0.99j) == pytest.approx(
            2.1377806748574968e+307 + 7.708243211345055e+307j, rel=1e-13, abs=0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from([(kernel_true, 0), (kernel_poly, 1)]),
           st.integers(1, 40), st.complex_numbers(max_magnitude=30.0),
           st.complex_numbers(max_magnitude=30.0))
    def test_float_product_matches_unscaled_recurrence(self, kernel_alpha, n,
                                                       z, w):
        # where e^(zbar w), the unscaled Laguerre factor and their product are
        # floats, and e^(zbar w) is normal or |L| <= 1, the kernel is that
        # product bit for bit
        kernel, alpha = kernel_alpha
        arg = z.conjugate() * w
        lag = oracles.laguerre_unscaled(n - 1, alpha, abs(w - z) ** 2)
        assume(math.isfinite(lag) and (arg.real >= -708 or abs(lag) <= 1)
               and arg.real < 709)
        want = cmath.exp(arg) * lag
        assume(cmath.isfinite(want))
        assert kernel(n, z, w) == want

    @pytest.mark.parametrize("kernel", [kernel_poly, kernel_true])
    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_modulus_with_unbounded_phase(self, kernel, n):
        # zbar w = -inf + nan i: e^(zbar w) is 0 whatever its phase
        assert kernel(n, 1e200 + 1e200j, -1e200 - 1e200j) == 0

    @pytest.mark.parametrize("kernel, n, z, w, want", [
        # 50-digit mpmath values, where the Laguerre factor or |w-z|^2
        # leaves the float range and e^(zbar w) underflows; kernel_poly
        # agrees to 17 digits there
        (kernel_true, 3, 1e150 + 0j, -8e-148 + 0j, 1.8339372920889658e+252),
        (kernel_poly, 3, 1e150 + 0j, -8e-148 + 0j, 1.8339372920889658e+252),
        (kernel_true, 2, 1e200 + 0j, -1e-197 + 0j, -5.0759588975496774e-35),
        (kernel_poly, 2, 1e200 + 0j, -1e-197 + 0j, -5.0759588975496774e-35),
        # e^(zbar w) subnormal, the value a normal float
        (kernel_true, 3, 19 + 0j, -38 + 0j, 1.4498349510890641e-307),
        (kernel_poly, 3, 19 + 0j, -38 + 0j, 1.448941920460101e-307),
        # about -2.9e-4342944819..., -2.4e-434294481903... and
        # -4e616 e^(-1e616), which underflow
        (kernel_true, 2, 1e200 + 0j, -1e200 + 0j, 0.0),
        (kernel_true, 8, 1e60 + 0j, -1e60 + 0j, 0.0),
        (kernel_true, 2, 1e308 + 0j, -1e308 + 0j, 0.0),
    ])
    def test_far_apart_values(self, kernel, n, z, w, want):
        assert kernel(n, z, w) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kernel", [kernel_poly, kernel_true])
    def test_order_one_far_apart(self, kernel):
        # L_0 = 1, so the order-1 kernel is e^{zbar w} even where |w-z|^2
        # leaves the float range
        assert kernel(1, 1e200 + 0j, 0j) == 1.0
        assert kernel(1, 1e308 + 0j, -1e308 + 0j) == 0.0
        assert kernel(1, 0j, 1e300j) == 1.0

    @pytest.mark.parametrize("kernel", [kernel_poly, kernel_true])
    @pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.inf),
                                     complex(-math.inf, 1)])
    def test_non_finite_point_named(self, kernel, bad):
        with pytest.raises(ValueError, match=re.escape(f"got z={bad}")):
            kernel(2, bad, 0j)
        with pytest.raises(ValueError, match=re.escape(f"got w={bad}")):
            kernel(2, 0j, bad)


class TestSeries:
    def test_true_layer_at_origin(self):
        for trunc in (1, 3, 50):
            assert kernel_partial_sum(SpaceId("true_poly", 1), 0j, 0j,
                                      trunc) == pytest.approx(1.0)

    def test_true_layer_converges(self):
        got = kernel_partial_sum(SpaceId("true_poly", 2), 1 + 0j, 1 + 0j, 200)
        assert got == pytest.approx(math.e, abs=1e-8)

    def test_poly_converges(self):
        got = kernel_partial_sum(SpaceId("poly", 3), 1j, 1j, 200)
        assert got == pytest.approx(3 * math.e, abs=1e-8)

    def test_series_matches_closed_form_generally(self):
        for z, w in SAMPLES:
            for n in (1, 2, 4):
                for kind, closed in (("poly", kernel_poly), ("true_poly", kernel_true)):
                    got = kernel_partial_sum(SpaceId(kind, n), z, w, 120)
                    assert got == pytest.approx(closed(n, z, w), abs=1e-8)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(["poly", "true_poly"]), st.integers(1, 5),
           st.integers(1, 300), st.complex_numbers(max_magnitude=2.0),
           st.complex_numbers(max_magnitude=2.0))
    def test_matches_array_route(self, kind, n, truncation, z, w):
        space = SpaceId(kind, n)
        want = oracles.kernel_partial_sum_array(space, z, w, truncation)
        got = kernel_partial_sum(space, z, w, truncation)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(["poly", "true_poly"]), st.integers(1, 8),
           st.integers(1, 300),
           st.one_of(st.just(0j), st.complex_numbers(max_magnitude=40.0)),
           st.one_of(st.just(0j), st.complex_numbers(max_magnitude=40.0)))
    def test_matches_per_term_sum_bit_for_bit(self, kind, n, truncation, z, w):
        # one recurrence run per order reads the same prefixes as one run per
        # term, and the terms are summed in the same order
        assert_same_as_per_term_sum(SpaceId(kind, n), z, w, truncation)

    @pytest.mark.parametrize("kind, n, z, w, truncation", [
        # high degrees at large radii, where the recurrence rescales, and a
        # series whose terms leave the float range
        ("poly", 60, 40 + 0j, 0j, 100), ("true_poly", 150, 40j, 0j, 200),
        ("poly", 100, 25 + 0j, 0j, 50), ("poly", 3, 40 + 0j, 40 + 0j, 300),
    ])
    def test_rescaled_runs_match_per_term_sum(self, kind, n, z, w, truncation):
        assert_same_as_per_term_sum(SpaceId(kind, n), z, w, truncation)

    def test_overflowing_term_names_points(self):
        with pytest.raises(OverflowError, match=r"z=\(40\+0j\), w=\(40\+0j\)"):
            kernel_partial_sum(SpaceId("poly", 2), 40 + 0j, 40 + 0j, 3000)

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            kernel_partial_sum(SpaceId("poly", 2), complex(math.nan, 0), 1j, 10)

    def test_zero_terms_at_origin_stay_zero(self):
        # every term with p != q is 0 at z = 0, although e^(s_z + s_w) alone
        # overflows for some of them; K(0, 40) = L_1^1(1600) = -1598
        got = kernel_partial_sum(SpaceId("poly", 2), 0j, 40 + 0j, 3000)
        assert got == pytest.approx(-1598, rel=1e-12)


class TestRecursion:
    def test_exact_steps(self):
        for n in range(1, 6):
            assert kernel_recursion_check(n)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            kernel_recursion_check(0)

    def test_cap(self):
        with pytest.raises(ValueError):
            kernel_recursion_check(9)


class TestEvaluationBound:
    def test_values(self):
        assert evaluation_bound(1, 0j) == 1.0
        assert evaluation_bound(4, 0j) == 2.0

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(0, math.inf)])
    def test_non_finite_point_rejected(self, z):
        with pytest.raises(ValueError, match="z="):
            evaluation_bound(2, z)

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one_rejected(self, n):
        # as for the kernels: the order-n space exists for n >= 1 only
        with pytest.raises(ValueError, match="n must be >= 1, got "):
            evaluation_bound(n, 0.5 + 0j)

    def test_overflow_names_the_limit(self):
        with pytest.raises(OverflowError,
                           match=r"\|z\|\^2 / 2 = 800\.0 overflows the float range"):
            evaluation_bound(1, 40 + 0j)

    def test_value_near_the_float_maximum(self):
        # |z|^2 / 2 = 706.88: past the old cap of 700, inside the float range
        assert evaluation_bound(1, 37.6 + 0j) == math.exp(37.6 ** 2 / 2)
        with pytest.raises(OverflowError, match="overflows the float range"):
            evaluation_bound(10 ** 6, 37.6 + 0j)
        with pytest.raises(OverflowError, match="overflows the float range"):
            evaluation_bound(1, 1e200 + 0j)

    def test_equality_witness(self):
        # the bound is attained by the kernel itself: sqrt(K(z,z)) = bound
        for z in (0.5 + 0.5j, 1.5j, -1.0 + 0.2j):
            for n in (1, 2, 4):
                attained = math.sqrt(abs(kernel_poly(n, z, z)))
                assert attained == pytest.approx(evaluation_bound(n, z), rel=1e-12)


class TestReproducingProperty:
    def test_inner_against_kernel_reproduces_value(self):
        # self-refining plane rule: fixed-size rules alias the kernel's high
        # angular frequencies once |z| approaches 3
        for n in (1, 2):
            for p, q in ((0, 0), (2, 0), (1, 1), (3, 1))[: 2 * n]:
                if q >= n:
                    continue
                idx = HermiteIndex(p, q)
                for z in (0.4 + 0.3j, -1.0 + 0.8j, 3.0 + 0j):
                    got = plane_inner(lambda w: b_eval(idx, w),
                                      lambda w: kernel_poly(n, z, w))
                    assert got == pytest.approx(b_eval(idx, z), abs=1e-8)


class TestBerezin:
    def test_identity(self):
        space = SpaceId("poly", 2)
        k = len(space.basis_indices(40))
        for z in (0.1 + 0.2j, -0.8j, 1.2 - 0.1j):
            val = berezin(space, np.eye(k, dtype=complex), z, 40)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_rank_two_blind_spot(self):
        space = SpaceId("poly", 2)
        witness = vanishing_berezin_witness(space, 40)
        assert np.max(np.abs(witness.entries)) == 1.0  # nonzero operator
        for z in (0.3 + 0.1j, -0.9 + 0.4j, 1.1j, 0.2 - 1.0j):
            assert berezin(space, witness.entries, z, 40) == pytest.approx(
                0.0, abs=1e-8)

    def test_scalar_diagonal(self):
        space = SpaceId("true_poly", 1)
        c = 2.5 - 0.5j
        k = len(space.basis_indices(40))
        val = berezin(space, c * np.eye(k, dtype=complex), 0.7 + 0.3j, 40)
        assert val == pytest.approx(c, abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            berezin(SpaceId("poly", 2), np.eye(3, dtype=complex), 0j, 4)

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(math.inf, 1)])
    def test_non_finite_point_rejected(self, z):
        space = SpaceId("poly", 2)
        k = len(space.basis_indices(10))
        with pytest.raises(ValueError, match="z="):
            berezin(space, np.eye(k, dtype=complex), z, 10)

    def test_truncation_warning(self):
        space = SpaceId("poly", 1)
        with pytest.warns(UserWarning):
            berezin(space, np.eye(4, dtype=complex), 2.0 + 0j, 4)

    @pytest.mark.parametrize("z, what", [
        # b_8,0 ~ z^8 / sqrt(8!) fits, its square does not
        (1e20 + 0j, r"\|b_8,0\|\^2"),
        (1e20j, r"\|b_8,0\|\^2"),
        (1e160 + 0j, r"\|b_1,0\|\^2"),
    ])
    def test_overflow_named(self, z, what):
        space = SpaceId("poly", 2)
        k = len(space.basis_indices(10))
        with pytest.raises(OverflowError,
                           match=f"^{what} at z={re.escape(str(z))} does not fit"
                                 " in a float$"):
            berezin(space, np.eye(k, dtype=complex), z, 10)


class TestMeanValueFixture:
    """The small exactly-rational moment system behind the crude evaluation
    bound: the degree < n polynomial whose products with x^j integrate on
    [0, 1] to the indicator of j = 0."""

    @staticmethod
    def solve_moment_polynomial(n):
        # Hilbert system: sum_k c_k / (j + k + 1) = delta_{j0}
        rows = [[Fraction(1, j + k + 1) for k in range(n)] for j in range(n)]
        rhs = [Fraction(1) if j == 0 else Fraction(0) for j in range(n)]
        # exact Gaussian elimination
        for col in range(n):
            pivot = next(r for r in range(col, n) if rows[r][col] != 0)
            rows[col], rows[pivot] = rows[pivot], rows[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
            inv = 1 / rows[col][col]
            rows[col] = [v * inv for v in rows[col]]
            rhs[col] *= inv
            for r in range(n):
                if r != col and rows[r][col] != 0:
                    factor = rows[r][col]
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
                    rhs[r] -= factor * rhs[col]
        return rhs

    def test_orthogonal_to_positive_powers_exactly(self):
        for n in range(1, 7):
            coeffs = self.solve_moment_polynomial(n)
            for j in range(n):
                moment = sum(c / (j + k + 1) for k, c in enumerate(coeffs))
                assert moment == (1 if j == 0 else 0)


def test_space_validation():
    with pytest.raises(ValueError):
        SpaceId("poly", 0)
    with pytest.raises(ValueError):
        SpaceId("weird", 1)
    with pytest.raises(ValueError):
        SpaceId("poly", 2).basis_indices(0)


def test_enumeration_order():
    assert SpaceId("poly", 2).basis_indices(3) == [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    assert SpaceId("true_poly", 3).basis_indices(2) == [(0, 2), (1, 2)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["poly", "true_poly"]), st.integers(1, 5),
       st.integers(1, 15))
def test_diagonal_rows_group_the_enumeration(kind, n, truncation):
    space = SpaceId(kind, n)
    indices = space.basis_indices(truncation)
    want: dict[int, list[int]] = {}
    for i, (p, q) in sorted(enumerate(indices), key=lambda e: e[1][1]):
        want.setdefault(p - q, []).append(i)
    rows = space.diagonal_rows(truncation)
    assert rows == want
    if kind == "poly":
        for d in range(-n + 1, truncation - n + 1):
            assert len(rows[d]) == min(n, n + d)
