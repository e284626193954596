import math
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyfock.laguerre import (laguerre_eval, laguerre_exact,
                               laguerre_function_sup, orthonormal_scaled,
                               profile_point, profile_scaled,
                               rodrigues_identity_residual)
from polyfock.hermite_basis import _radial_values
from polyfock.quadrature import gauss_laguerre

from oracles import laguerre_unscaled, orthonormal_scaled_out_of_place


def explicit_sum(n, alpha, x):
    """Independent oracle: the explicit alternating sum, in exact rationals."""
    xf = Fraction(x)
    total = Fraction(0)
    for k in range(n + 1):
        total += Fraction((-1) ** k * math.comb(n + alpha, n - k),
                          math.factorial(k)) * xf ** k
    return float(total)


class TestLaguerreEval:
    def test_degree_zero_is_one(self):
        assert laguerre_eval(0, 5, 7.3) == 1.0

    def test_degree_one(self):
        assert laguerre_eval(1, 0, 2.0) == -1.0

    def test_degree_two(self):
        # oracle: (x^2 - 4x + 2)/2 at x = 3
        assert laguerre_eval(2, 0, 3.0) == pytest.approx(-0.5, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            laguerre_eval(2, 0, -1.0)
        with pytest.raises(ValueError):
            laguerre_eval(-1, 0, 1.0)
        with pytest.raises(ValueError):
            laguerre_eval(0, -2, 1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_argument_rejected(self, x):
        with pytest.raises(ValueError, match="argument x"):
            laguerre_eval(2, 0, x)

    def test_recurrence_matches_explicit_sum(self):
        for n in range(31):
            for alpha in (0, 1, 4, 10):
                for x in (0.1, 1.0, 10.0, 50.0):
                    exact = explicit_sum(n, alpha, x)
                    got = laguerre_eval(n, alpha, x)
                    scale = abs(exact) if exact != 0 else 1.0
                    assert abs(got - exact) <= 1e-12 * scale

    @pytest.mark.parametrize("n, alpha, x", [
        (60, 0, 1e10), (5, 0, 1e300), (3, 0, 1e200)])
    def test_overflow_named(self, n, alpha, x):
        # the unscaled recurrence returns nan, nan and -inf here
        with pytest.raises(OverflowError, match=re.escape(
                f"L_{n}^({alpha})({x}) does not fit in a float")):
            laguerre_eval(n, alpha, x)

    def test_value_near_the_float_maximum(self):
        # the unscaled recurrence overflows to -inf at its last step, whose
        # product 1e6 L_66 passes the float range before the division by 67
        exact = explicit_sum(67, 0, 1e6)
        assert -1.8e308 < exact < -1e307
        assert laguerre_eval(67, 0, 1e6) == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 300), alpha=st.integers(0, 300),
           x=st.floats(1e-5, 1e6))
    @example(n=66, alpha=0, x=1e6)  # rescaled once, its value a normal float
    @example(n=300, alpha=300, x=1e-5)
    def test_matches_unscaled_recurrence(self, n, alpha, x):
        want = laguerre_unscaled(n, alpha, x)
        if math.isfinite(want) and abs(want) >= sys.float_info.min:
            assert laguerre_eval(n, alpha, x) == want
            return
        # past the float range: a named error, or a value that fits
        try:
            got = laguerre_eval(n, alpha, x)
        except OverflowError as exc:
            assert str(exc).endswith("does not fit in a float")
        else:
            assert math.isfinite(got)


class TestLaguerreExact:
    def test_examples(self):
        assert laguerre_exact(2, 0) == [1, -2, Fraction(1, 2)]
        assert laguerre_exact(1, 2) == [3, -1]
        assert laguerre_exact(0, 9) == [1]


def decayed_profile(m, alpha, t):
    """|profile_point| at r = sqrt(t) times e^(-t/2), the modulus of the
    normalized Laguerre function, with log|v| in the exponent: e^(s - t/2)
    alone may be subnormal."""
    v, s = profile_point(m, alpha, math.sqrt(t))
    return math.exp(math.log(abs(v)) + s - 0.5 * t) if v else 0.0


class TestLaguerreFunction:
    # the normalized Laguerre function is (-1)^m e^(-t/2) times the basis
    # profile psi_m(t) t^(alpha/2) / sqrt(alpha!) at r = sqrt(t)
    def test_base_case(self):
        assert profile_point(0, 0, math.sqrt(2.0)) == (1.0, 0.0)
        assert decayed_profile(0, 0, 2.0) == pytest.approx(math.exp(-1.0),
                                                           rel=1e-15)

    def test_with_order(self):
        v, s = profile_point(0, 2, 1.0)
        assert v * math.exp(s) == pytest.approx(1 / math.sqrt(2.0), rel=1e-14)

    def test_zero_of_polynomial(self):
        assert profile_point(1, 0, 1.0)[0] == pytest.approx(0.0, abs=1e-16)

    def test_at_origin(self):
        assert profile_point(0, 0, 0.0) == (1.0, 0.0)
        assert profile_point(3, 2, 0.0) == (0.0, 0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            laguerre_function_sup(0, 0, -0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_argument_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            laguerre_function_sup(2, 1, t)

    def test_log_form_consistent(self):
        # (v, s) against the closed form (-1)^m sqrt(m!/(m+alpha)!)
        # t^(alpha/2) L_m^(alpha)(t)
        for m, alpha, t in ((0, 0, 2.0), (2, 5, 7.5), (4, 60, 40.0)):
            v, s = profile_point(m, alpha, math.sqrt(t))
            log_norm = 0.5 * (math.lgamma(m + 1) - math.lgamma(m + alpha + 1)
                              + alpha * math.log(t))
            want = ((-1) ** m * math.exp(log_norm)
                    * laguerre_eval(m, alpha, t))
            assert v * math.exp(s) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("m, t", [(40, 1500.0), (50, 1600.0)])
    def test_deep_tail_keeps_relative_precision(self, m, t):
        # e^(-t/2) is below the float range (e^-750, e^-800) and the profile's
        # v is about 1e80-1e95, yet the value is a normal float near 1e-250
        from decimal import Decimal, localcontext
        big_t = Fraction(t)
        poly = sum(c * big_t ** k
                   for k, c in enumerate(laguerre_exact(m, 0)))
        with localcontext() as ctx:
            ctx.prec = 60
            want = float((Decimal(-t) / 2).exp()
                         * (Decimal(poly.numerator) / poly.denominator))
        assert 1e-300 < abs(want) < 1e-200
        # psi_m = (-1)^m L_m at alpha = 0
        assert (-1) ** m * profile_point(m, 0, math.sqrt(t))[0] * want > 0
        assert decayed_profile(m, 0, t) == pytest.approx(abs(want), rel=1e-12)

    def test_vectorized_matches_scalar(self):
        # each x is below the grid's reach, so its 4096 points span [0, x]
        for m, alpha, x in ((3, 4, 11.0), (0, 40, 4.0), (5, 0, 30.0)):
            t = np.linspace(0.0, x, 4096)
            want = max(decayed_profile(m, alpha, float(ti)) for ti in t)
            got = laguerre_function_sup(m, alpha, x)
            assert abs(got - want) <= 1e-15

    def test_normalization(self):
        # unit L2 norm on the half-line, against the alpha-absorbed rule
        for alpha in range(9):
            rule = gauss_laguerre(alpha, 16)
            for m in range(13):
                norm = math.factorial(m) / math.factorial(m + alpha)
                lm = np.array([laguerre_eval(m, alpha, float(t))
                               for t in rule.nodes])
                val = norm * float(np.sum(rule.weights * lm * lm))
                assert val == pytest.approx(1.0, abs=1e-10)


class TestOrthonormalScaled:
    def test_matches_explicit_sum(self):
        # psi_m = (-1)^m sqrt(m! alpha! / (m+alpha)!) L_m^alpha; errors are
        # measured against the Christoffel sum, which has no zeros
        for alpha in (0, 3, 20):
            for t in (0.0, 0.5, 7.0, 60.0):
                v, s = orthonormal_scaled(range(31), alpha, t)
                want = np.array([
                    (-1) ** m * math.sqrt(math.factorial(m) * math.factorial(alpha)
                                          / math.factorial(m + alpha))
                    * explicit_sum(m, alpha, t) for m in range(31)])
                envelope = np.sqrt(np.cumsum(want * want))
                assert np.all(np.abs(v * np.exp(s) - want) <= 1e-12 * envelope)

    def test_log_scale_past_double_range(self):
        # psi_300(1500) = L_300(1500) is about e^700, beyond a double
        v, s = orthonormal_scaled([300], 0, 1500.0)
        lag = sum(Fraction((-1) ** k * math.comb(300, k), math.factorial(k))
                  * 1500 ** k for k in range(301))
        assert v[0] > 0
        assert math.log(v[0]) + s[0] == pytest.approx(
            math.log(lag.numerator) - math.log(lag.denominator), rel=1e-13)

    def test_broadcast_and_repeated_degrees(self):
        alpha = np.array([[0], [7]])
        t = np.array([0.5, 3.0, 40.0])
        v, s = orthonormal_scaled([4, 0, 4], alpha, t)
        assert v.shape == s.shape == (3, 2, 3)
        assert np.array_equal(v[0], v[2]) and np.all(v[1] == 1.0)
        for i, a in enumerate((0, 7)):
            for j, x in enumerate(t):
                vi, si = orthonormal_scaled([4], a, x)
                assert (v[0, i, j], s[0, i, j]) == (vi[0], si[0])


    def test_empty_points(self):
        for ms in ([1], [0, 3, 1], [0], []):
            v, s = orthonormal_scaled(ms, 0, np.array([]))
            assert v.shape == s.shape == (len(ms), 0)
        v, s = orthonormal_scaled([2], np.array([[1], [4]]), np.array([]))
        assert v.shape == s.shape == (1, 2, 0)
        v, s = profile_scaled([2, 0], 1, np.array([]))
        assert v.shape == s.shape == (2, 0)
        assert _radial_values([(1, 0), (2, 2)], np.array([])).shape == (2, 0)


_POINTS = st.one_of(st.floats(0.0, 2000.0), st.sampled_from([math.nan, math.inf]))


@st.composite
def _recurrence_cases(draw):
    """Degrees (unsorted, repeated), an order alpha as a number or one per
    row as a (rows, 1) column, and (rows, nodes) points t."""
    ms = draw(st.lists(st.integers(0, 300), min_size=1, max_size=6))
    rows, nodes = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    t = np.reshape(draw(st.lists(_POINTS, min_size=rows * nodes,
                                 max_size=rows * nodes)), (rows, nodes))
    if draw(st.booleans()):
        return ms, draw(st.integers(0, 60)), t
    alpha = draw(st.lists(st.integers(0, 60), min_size=rows, max_size=rows))
    return ms, np.reshape(alpha, (rows, 1)), t


class TestRecurrenceAgainstOracle:
    """The in-place recurrence is the out-of-place one of the oracles, bit
    for bit, NaN and inf included."""

    @settings(max_examples=200, deadline=None)
    @given(_recurrence_cases())
    @example(([0], 3, np.array([[2.0, math.nan]])))
    @example(([0, 0, 0], np.array([[0], [9]]), np.array([[1.0], [math.inf]])))
    @example(([300, 2, 300, 0], 0, np.array([[1500.0, 0.1, 2000.0, 1e-3]])))
    @example(([1], np.array([[5]]), np.array([[math.inf, math.nan, 0.0]])))
    def test_matches_out_of_place_recurrence(self, case):
        ms, alpha, t = case
        # inf / inf where an infinite point is rescaled
        with np.errstate(invalid="ignore"):
            got = orthonormal_scaled(ms, alpha, t)
            want = orthonormal_scaled_out_of_place(ms, alpha, t)
        for x, y in zip(got, want):
            assert x.shape == y.shape and x.dtype == y.dtype
            assert np.array_equal(x, y, equal_nan=True)

    def test_rescaling_is_covered(self):
        # psi_300(1500) is about e^700, so the oracle cases above rescale
        _, s = orthonormal_scaled_out_of_place([300], 0, np.array([1500.0]))
        assert s[0, 0] > 600


class TestOrthonormalPoint:
    """The numpy-free point recurrence, which `profile_point` runs."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 300), st.integers(0, 300), st.floats(0.0, 2000.0))
    @example(300, 0, 1500.0)  # rescaled, past the double range
    def test_matches_array_recurrence(self, m, alpha, t):
        # the point profile against the array recurrence plus the prefactor,
        # both at the point r^2 that the point route squares back (not t:
        # at a zero of psi_m, such as psi_1^(1)(2), the two differ in sign)
        r = math.sqrt(t)
        assume(r > 0 or alpha == 0)
        v, s = profile_point(m, alpha, r)
        want_v, want_s = (float(x[0])
                          for x in orthonormal_scaled([m], alpha, r * r))
        if alpha:
            want_s += alpha * math.log(r) - 0.5 * math.lgamma(alpha + 1)
        assert (v > 0, v < 0) == (want_v > 0, want_v < 0)
        if v:
            got_log = math.log(abs(v)) + s
            want_log = math.log(abs(want_v)) + want_s
            assert abs(got_log - want_log) <= 1e-13 * max(1.0, abs(want_log))

    @given(st.integers(0, 300), st.integers(0, 300),
           st.floats(0.0, 45.0) | st.floats(1e-300, 1e-100))
    @example(0, 1, 1e-170)  # r^2 underflows to 0
    def test_profile_point_matches_array(self, m, alpha, r):
        assume(r > 0 or alpha == 0)  # 0 there, as both write it differently
        v, s = profile_point(m, alpha, r)
        want_v, want_s = (float(x[0]) for x in profile_scaled([m], alpha, r))
        assert (v > 0, v < 0) == (want_v > 0, want_v < 0)
        if v:
            got_log = math.log(abs(v)) + s
            want_log = math.log(abs(want_v)) + want_s
            assert abs(got_log - want_log) <= 1e-13 * max(1.0, abs(want_log))

    def test_profile_at_tiny_radius(self):
        # b_{1,0}(r) = r although r^2 underflows
        assert math.exp(profile_point(0, 1, 1e-170)[1]) == pytest.approx(1e-170)
        v, s = profile_scaled([0], 1, 1e-170)
        assert float(v[0] * np.exp(s[0])) == pytest.approx(1e-170)

    def test_profile_exactly_zero_at_origin(self):
        assert profile_point(3, 2, 0.0) == (0.0, 0.0)
        v, s = profile_scaled([3], 2, 0.0)
        assert float(v[0] * np.exp(s[0])) == 0.0
        assert profile_point(3, 0, 0.0) == tuple(
            float(x[0]) for x in orthonormal_scaled([3], 0, 0.0))

    def test_rescale_branch_runs(self):
        assert profile_point(300, 0, math.sqrt(1500.0))[1] > 0

    def test_imports_no_numpy(self):
        script = ("import sys\n"
                  "from polyfock.laguerre import profile_point\n"
                  "profile_point(40, 3, 3.0)\n"
                  "print('numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True)
        assert proc.stdout == "False\n", proc.stderr


class TestOrthogonality:
    def test_weighted_orthogonality(self):
        for alpha in range(9):
            rule = gauss_laguerre(alpha, 14)
            for n in range(13):
                for m in range(n, 13):
                    ln = np.array([laguerre_eval(n, alpha, float(t))
                                   for t in rule.nodes])
                    lm = np.array([laguerre_eval(m, alpha, float(t))
                                   for t in rule.nodes])
                    val = float(np.sum(rule.weights * ln * lm))
                    want = math.factorial(n + alpha) / math.factorial(n) if n == m else 0.0
                    scale = math.sqrt(
                        math.factorial(n + alpha) / math.factorial(n)
                        * math.factorial(m + alpha) / math.factorial(m))
                    assert abs(val - want) <= 1e-10 * scale


class TestRodrigues:
    def test_stated_examples(self):
        assert rodrigues_identity_residual(1, 0)
        assert rodrigues_identity_residual(2, 1)
        assert rodrigues_identity_residual(3, 2)

    def test_full_range(self):
        for n in range(0, 6):
            for alpha in range(0, 6):
                assert rodrigues_identity_residual(n, alpha)

    def test_cap(self):
        with pytest.raises(ValueError):
            rodrigues_identity_residual(11, 0)


class TestSup:
    def test_monotone_base(self):
        assert laguerre_function_sup(0, 0, 1.0) == 1.0

    def test_large_order_tiny(self):
        assert laguerre_function_sup(0, 40, 4.0) < 1e-6

    def test_grid_convergence(self):
        # the grid's reach T: 40 decay lengths past the turning point t_hi
        for m, alpha in ((2, 1), (0, 40), (5, 0), (0, 0)):
            nu = 4 * m + 2 * alpha + 2
            t_hi = 0.5 * (nu + math.sqrt(nu * nu - 4 * alpha * alpha))
            reach = t_hi + 40 * max(math.sqrt(alpha + 1), t_hi ** (1 / 3))
            assert reach < 1e3
            # past T the result no longer depends on x
            got = {laguerre_function_sup(m, alpha, x) for x in (1e3, 1e5, 1e308)}
            assert len(got) == 1
            # against 10^6 points on [0, T]
            t = np.linspace(0.0, reach, 10 ** 6)
            v, s = profile_scaled([m], alpha, np.sqrt(t))
            want = float(np.max(np.abs(v[0]) * np.exp(s[0] - 0.5 * t)))
            assert got.pop() == pytest.approx(want, rel=1e-3)
        # 4096 points on all of [0, 1e5] are 24 apart and miss the peak
        # 0.4345 near t = 0.14
        assert laguerre_function_sup(30, 3, 1e5) >= 0.4

    def test_decay_in_order(self):
        for m in range(4):
            for x in (1.0, 4.0):
                assert laguerre_function_sup(m, 80, x) < laguerre_function_sup(m, 40, x)
                assert laguerre_function_sup(m, 120, x) < 1e-4

    @pytest.mark.parametrize("x", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_end_rejected(self, x):
        with pytest.raises(ValueError, match="interval end x"):
            laguerre_function_sup(0, 0, x)
