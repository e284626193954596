import math

import numpy as np
import pytest

from polyfock.exact_poly import BiPolynomial, gaussian_inner
from polyfock.quadrature import (CircleRule, QuadratureConvergenceError,
                                 _leggauss, _polar_checked, gauss_laguerre,
                                 legendre_rule, plane_inner)

from oracles import leggauss


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


#: the sizes the window rule uses (64 to 512), and the smallest
LEGENDRE_SIZES = [1, 2, 3, 64, 128, 256, 512]


class TestGaussLegendre:
    @pytest.mark.parametrize("n", LEGENDRE_SIZES)
    def test_integrates_legendre_polynomials_exactly(self, n):
        # sum w P_k(x) = 2 delta_k0 for every k < 2n, with P_k from
        # (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}
        x, w = _leggauss(n)
        prev, cur = np.zeros(n), np.ones(n)
        for k in range(2 * n):
            assert abs(w @ cur - (2.0 if k == 0 else 0.0)) <= 1e-14, k
            prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)

    @pytest.mark.parametrize("n", LEGENDRE_SIZES)
    def test_symmetric_and_normalized(self, n):
        x, w = _leggauss(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        assert abs(math.fsum(w) - 2.0) <= 4e-15

    @pytest.mark.parametrize("n", LEGENDRE_SIZES)
    def test_nodes_match_numpy_leggauss(self, n):
        assert np.max(np.abs(_leggauss(n)[0] - leggauss(n)[0])) <= 2.3e-16

    def test_closed_forms(self):
        x, w = _leggauss(1)
        assert x.tolist() == [0.0] and w.tolist() == [2.0]
        x, w = _leggauss(2)
        assert x == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)],
                                  rel=1e-15)
        assert w == pytest.approx([1.0, 1.0], rel=1e-15)

    def test_rules_are_read_only(self):
        for part in _leggauss(8):
            with pytest.raises(ValueError):
                part[0] = 1.0

    def test_interval_map(self):
        # exact for u^7 on [1, 3] with 4 nodes
        u, v = legendre_rule(1.0, 3.0, 4)
        assert v @ u**7 == pytest.approx((3.0**8 - 1.0) / 8, rel=1e-14)


class TestHalfline:
    def test_constant(self):
        rule = gauss_laguerre(0, 8)
        assert np.sum(rule.weights) == pytest.approx(1.0)

    def test_linear_and_quadratic(self):
        rule = gauss_laguerre(0, 8)
        assert rule.weights @ rule.nodes == pytest.approx(1.0)
        assert rule.weights @ rule.nodes**2 == pytest.approx(2.0)


class TestCircle:
    def test_constant(self):
        assert np.mean(CircleRule(8).taus ** 0) == pytest.approx(1.0)

    def test_character_orthogonality(self):
        val = np.mean(CircleRule(8).taus ** 3)
        assert abs(val) < 1e-15

    def test_aliasing_witness(self):
        # tau^M samples to 1 at every angle: the rule's documented limit
        val = np.mean(CircleRule(8).taus ** 8)
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
        for p, q, j, k in ((2, 1, 3, 2), (4, 0, 0, 4), (3, 3, 3, 3), (5, 2, 2, 5)):
            def f(z, p=p, q=q):
                return z ** p * z.conjugate() ** q

            def g(z, j=j, k=k):
                return z ** j * z.conjugate() ** k

            got = plane_inner(f, g)
            want = complex(gaussian_inner(BiPolynomial.monomial(p, q),
                                          BiPolynomial.monomial(j, k)))
            assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite sample at z="):
            plane_inner(lambda z: float("inf") if abs(z) > 0 else 1.0,
                        lambda z: 1.0)

    def test_array_callables_sampled_once_per_rule_size(self):
        shapes = []

        def f(z):
            shapes.append(np.shape(z))
            return z * np.conj(z)
        assert plane_inner(f, lambda z: 1.0) == pytest.approx(1.0, abs=1e-12)
        assert shapes == [(64, 64), (128, 128)]

    def test_polar_rule_stops_at_512_radial_nodes(self):
        # results that never agree: the rule doubles from 64 radial nodes,
        # with the angles, and names the last size it tried
        sizes = []

        def once(rr, cr):
            sizes.append((len(rr.nodes), cr.m_angles))
            return np.array([float(len(rr.nodes))])
        with pytest.raises(QuadratureConvergenceError, match=r"^polar tensor "
                           r"rule did not stabilize up to 512 radial nodes$"):
            _polar_checked(once, 10)
        assert sizes == [(64, 10), (128, 20), (256, 40), (512, 80)]
