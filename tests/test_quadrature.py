import math

import numpy as np
import pytest

from polyfock.exact_poly import BiPolynomial, gaussian_inner
from polyfock.quadrature import (CircleRule, QuadratureRule, circle_average,
                                 gauss_laguerre, integrate_halfline,
                                 integrate_piecewise, piecewise_halfline_rule,
                                 plane_inner)


class TestGaussLaguerre:
    def test_one_point_rule(self):
        rule = gauss_laguerre(0, 1)
        assert rule.nodes == pytest.approx([1.0])
        assert rule.weights == pytest.approx([1.0])

    def test_two_point_rule_hand_solved(self):
        # 2x2 Jacobi matrix has eigenvalues 2 -+ sqrt2; weights follow from
        # matching moments 1 and 1
        rule = gauss_laguerre(0, 2)
        assert rule.nodes == pytest.approx([2 - math.sqrt(2), 2 + math.sqrt(2)])
        assert rule.weights == pytest.approx([(2 + math.sqrt(2)) / 4,
                                              (2 - math.sqrt(2)) / 4])

    def test_weighted_one_point(self):
        rule = gauss_laguerre(1, 1)
        assert rule.nodes == pytest.approx([2.0])
        assert rule.weights == pytest.approx([1.0])

    def test_invariants_nodes_weights(self):
        for alpha in (0, 2, 5):
            rule = gauss_laguerre(alpha, 24)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)
            assert float(np.sum(rule.weights)) == pytest.approx(
                math.factorial(alpha), rel=1e-12)

    def test_moment_exactness(self):
        for alpha in (0, 2, 5):
            rule = gauss_laguerre(alpha, 24)
            for k in range(11):
                got = float(np.sum(rule.weights * rule.nodes ** k))
                want = math.factorial(k + alpha)
                assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n_nodes", [64, 128, 256, 512])
    def test_node_sum_is_jacobi_trace(self, n_nodes):
        # the eigenvalues sum to the trace sum(2k + alpha + 1) = N (N + alpha)
        for alpha in (0, 12):
            nodes = gauss_laguerre(alpha, n_nodes).nodes
            assert math.fsum(nodes) == pytest.approx(n_nodes * (n_nodes + alpha),
                                                     rel=1e-13)

    @pytest.mark.parametrize("n_nodes", [64, 128, 256])
    def test_nodes_match_numpy_laggauss(self, n_nodes):
        # numpy's independent companion-matrix rule; its weights overflow
        # from N = 256 and its nodes are NaN at N = 512
        with np.errstate(all="ignore"):
            want, _ = np.polynomial.laguerre.laggauss(n_nodes)
        np.testing.assert_allclose(gauss_laguerre(0, n_nodes).nodes, want,
                                   rtol=1e-12, atol=0)

    def test_large_alpha_log_weights_finite(self):
        rule = gauss_laguerre(200, 64)
        assert np.all(np.isfinite(rule.log_weights))
        total = float(np.sum(np.exp(rule.log_weights - math.lgamma(201))))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_laguerre(0, 0)
        with pytest.raises(ValueError):
            gauss_laguerre(-1, 4)


class TestHalfline:
    def test_constant(self):
        rule = gauss_laguerre(0, 8)
        assert integrate_halfline(lambda t: 1.0, rule) == pytest.approx(1.0)

    def test_linear_and_quadratic(self):
        rule = gauss_laguerre(0, 8)
        assert integrate_halfline(lambda t: t, rule) == pytest.approx(1.0)
        assert integrate_halfline(lambda t: t * t, rule) == pytest.approx(2.0)

    def test_nonfinite_sample_raises(self):
        rule = gauss_laguerre(0, 4)
        with pytest.raises(ValueError):
            integrate_halfline(lambda t: float("nan"), rule)


class TestPiecewise:
    def test_total_mass_with_breakpoint(self):
        assert integrate_piecewise(lambda t: 1.0, 0, [1.0]) == pytest.approx(1.0)

    def test_indicator_closed_form(self):
        val = integrate_piecewise(lambda t: 1.0 if t < 1.0 else 0.0, 0, [1.0])
        assert val == pytest.approx(1 - math.exp(-1), abs=1e-13)

    def test_indicator_mass_limit(self):
        val = integrate_piecewise(lambda t: 1.0 if t < 40.0 else 0.0, 0, [40.0])
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_empty_breakpoints_matches_plain_rule(self):
        rule = gauss_laguerre(0, 96)
        for f in (lambda t: math.exp(-t / 2), lambda t: math.cos(t)):
            plain = integrate_halfline(f, rule)
            split = integrate_piecewise(f, 0, [], n_per_piece=96)
            assert abs(split - plain) < 1e-10

    def test_explicit_weight_power(self):
        # int t * t e^{-t} = 2
        assert integrate_piecewise(lambda t: t, 1, []) == pytest.approx(2.0)

    def test_rule_invariants(self):
        rule = piecewise_halfline_rule((1.0, 4.0), 32, 32)
        assert isinstance(rule, QuadratureRule)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert float(np.sum(rule.weights)) == pytest.approx(1.0, rel=1e-12)

    def test_nonfinite_breakpoint_rejected(self):
        with pytest.raises(ValueError):
            piecewise_halfline_rule((math.inf,), 8, 8)


class TestCircle:
    def test_constant(self):
        assert circle_average(lambda t: 1.0, CircleRule(8)) == pytest.approx(1.0)

    def test_character_orthogonality(self):
        val = circle_average(lambda t: t ** 3, CircleRule(8))
        assert abs(val) < 1e-15

    def test_aliasing_witness(self):
        # tau^M samples to 1 at every angle: the rule's documented limit
        val = circle_average(lambda t: t ** 8, CircleRule(8))
        assert val == pytest.approx(1.0, abs=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircleRule(0)


class TestPlaneInner:
    def test_total_mass(self):
        assert plane_inner(lambda z: 1.0, lambda z: 1.0) == pytest.approx(1.0)

    def test_first_moment(self):
        assert plane_inner(lambda z: z, lambda z: z) == pytest.approx(1.0)

    def test_angular_orthogonality(self):
        val = plane_inner(lambda z: z, lambda z: z.conjugate())
        assert abs(val) < 1e-14

    def test_against_exact_oracle_on_monomials(self):
        rule = gauss_laguerre(0, 64)
        circ = CircleRule(64)
        for p, q, j, k in ((2, 1, 3, 2), (4, 0, 0, 4), (3, 3, 3, 3), (5, 2, 2, 5)):
            def f(z, p=p, q=q):
                return z ** p * z.conjugate() ** q

            def g(z, j=j, k=k):
                return z ** j * z.conjugate() ** k

            got = plane_inner(f, g, rule, circ)
            want = complex(gaussian_inner(BiPolynomial.monomial(p, q),
                                          BiPolynomial.monomial(j, k)))
            assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            plane_inner(lambda z: float("inf") if abs(z) > 0 else 1.0,
                        lambda z: 1.0, gauss_laguerre(0, 4), CircleRule(4))
