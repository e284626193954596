import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyfock.exact_poly import BiPolynomial, gaussian_inner
from polyfock.fock_spaces import SpaceId
from polyfock.hermite_basis import HermiteIndex, b_coeffs, b_exact
from polyfock.quadrature import QuadratureConvergenceError
from polyfock.radial_ops import (is_radial, off_block_mass, phi_n, phi_true,
                                 radialize_matrix)
from polyfock import hermite_basis, toeplitz
from polyfock.toeplitz import (EigenvalueSequence, NonFiniteIntegrandError,
                               RadialSymbol, beta, const_symbol,
                               exp_decay_symbol, gaussian_symbol,
                               indicator_symbol, inverse_linear_symbol,
                               inverse_quadratic_symbol, lambda_seq,
                               limit_diagnostic, separation_check,
                               squared_radius_symbol, symbol_from_spec,
                               toeplitz_block, toeplitz_blocks, toeplitz_matrix)
from polyfock.verify import _indicator_eigenvalue

from oracles import block_checked_by_doubling, gammp


def test_gammp_oracle_self_check():
    # closed forms: P(1, x) = 1 - e^-x; P(2, x) = 1 - (1+x) e^-x
    for x in (0.25, 1.0, 2.0, 9.0):
        assert gammp(1, x) == pytest.approx(1 - math.exp(-x), rel=1e-13)
        assert gammp(2, x) == pytest.approx(1 - (1 + x) * math.exp(-x), rel=1e-13)
    # large order at the transition x ~ s, where both expansions need more
    # than a few hundred terms: P(s, x) = 1 - sum_{k<s} x^k e^-x / k!
    s, x = 10001, 1e4
    poisson = 1 - math.fsum(math.exp(k * math.log(x) - x - math.lgamma(k + 1))
                            for k in range(s))
    assert gammp(s, x) == pytest.approx(poisson, abs=1e-10)


class TestSymbols:
    def test_factories_metadata(self):
        assert const_symbol(2.0)(5.0) == 2.0
        ind = indicator_symbol(1.5)
        assert ind(1.0) == 1.0 and ind(2.0) == 0.0 and ind.breakpoints == (1.5,)
        assert gaussian_symbol(2.0)(2.0) == pytest.approx(math.exp(-1.0))
        assert inverse_quadratic_symbol()(3.0) == pytest.approx(0.1)
        assert inverse_linear_symbol()(1.0) == 0.5
        assert exp_decay_symbol()(1.0) == pytest.approx(math.exp(-1))
        assert squared_radius_symbol().unbounded
        assert not indicator_symbol(1.0).unbounded

    def test_spec_parser(self):
        assert symbol_from_spec("const:1.5").name == "const:1.5"
        assert symbol_from_spec("indicator:2").breakpoints == (2.0,)
        assert symbol_from_spec("gauss:1")(0.0) == 1.0
        assert symbol_from_spec("rational").limit_at_infinity == 0.0
        with pytest.raises(ValueError):
            symbol_from_spec("nope:1")

    @pytest.mark.parametrize("spec", ["rational:5", "rational:abc",
                                      "rational:nan", "const", "gauss:",
                                      "const:1+2j", "indicator:x"])
    def test_spec_rejects_ignored_or_unparsable_parameters(self, spec):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            symbol_from_spec(spec)

    @pytest.mark.parametrize("spec, reason", [
        ("indicator:-1", "indicator radius must be positive"),
        ("indicator:0", "indicator radius must be positive"),
        ("gauss:0", "scale must be positive"),
        ("gauss:-2", "scale must be positive")])
    def test_spec_names_itself_in_parameter_errors(self, spec, reason):
        with pytest.raises(ValueError) as info:
            symbol_from_spec(spec)
        assert str(info.value) == f"symbol spec {spec!r}: {reason}"
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_breakpoints_must_be_sorted(self):
        with pytest.raises(ValueError):
            RadialSymbol(lambda r: r, breakpoints=(2.0, 1.0))

    def test_indicator_validation(self):
        with pytest.raises(ValueError):
            indicator_symbol(0.0)

    @pytest.mark.parametrize("spec", ["indicator:nan", "indicator:inf",
                                      "const:nan", "const:-inf", "gauss:nan",
                                      "gauss:inf"])
    def test_spec_rejects_non_finite_parameters(self, spec):
        with pytest.raises(ValueError, match=spec):
            symbol_from_spec(spec)

    def test_breakpoints_must_be_finite_positive_radii(self):
        for bad in ((math.nan,), (math.inf,), (0.0, 1.0)):
            with pytest.raises(ValueError, match="breakpoints"):
                RadialSymbol(lambda r: r, breakpoints=bad)
        with pytest.raises(ValueError, match="indicator:nan"):
            indicator_symbol(math.nan)

    def test_gauss_tiny_scale_underflows_to_zero(self):
        a = symbol_from_spec("gauss:1e-300")
        assert a(0.0) == 1.0
        assert a(1.0) == 0.0 and a(1e300) == 0.0


class TestBeta:
    def test_unit_symbol_gives_delta(self):
        for d in (-2, 0, 1, 7, 30, 200):
            for j in range(3):
                for k in range(3):
                    if min(j + d, k + d) < 0:
                        continue
                    want = 1.0 if j == k else 0.0
                    assert beta(const_symbol(1.0), d, j, k) == pytest.approx(
                        want, abs=1e-10)

    def test_squared_radius_diagonal(self):
        # oracle: int t * t^p e^{-t} / p! dt = (p+1)!/p! = p+1, reached at
        # (d, j, k) = (p, 0, 0)
        a = squared_radius_symbol()
        for p in range(7):
            assert beta(a, p, 0, 0) == pytest.approx(p + 1, rel=1e-11)

    def test_indicator_closed_form(self):
        val = beta(indicator_symbol(1.0), 0, 0, 0)
        assert val == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_matrix_element_sign(self):
        # odd min-index sum flips the sign relative to the bare integral:
        # beta(ind, 3, 0, 1) = -e^{-1}/12 as a matrix element
        val = beta(indicator_symbol(1.0), 3, 0, 1)
        assert val == pytest.approx(-math.exp(-1) / 12, abs=1e-13)

    def test_symmetric_in_jk(self):
        a = exp_decay_symbol()
        assert beta(a, 2, 0, 1) == pytest.approx(beta(a, 2, 1, 0), abs=1e-13)

    def test_negative_order_large_magnitude(self):
        # negative d: the block indices are shifted by |d|
        assert beta(const_symbol(1.0), -20, 25, 25) == pytest.approx(1.0,
                                                                     abs=1e-11)
        assert abs(beta(const_symbol(1.0), -20, 25, 24)) < 1e-11

    def test_precondition(self):
        with pytest.raises(ValueError):
            beta(const_symbol(1.0), -3, 1, 1)

    def test_unit_symbol_at_high_degree(self):
        for d, j in ((0, 250), (30, 220), (300, 150), (0, 300), (0, 600),
                     (100, 600), (10**4, 0), (10**5, 0), (10**6, 0)):
            assert beta(const_symbol(1.0), d, j, j) == pytest.approx(1.0,
                                                                     abs=1e-10)

    def test_non_finite_symbol_is_named(self):
        a = RadialSymbol(lambda r: math.nan if r > 2.0 else 1.0, name="spiky")
        with pytest.raises(NonFiniteIntegrandError,
                           match=r"t=4\.\d+ \(d=3, m=0\): symbol spiky is \(nan"):
            beta(a, 3, 0, 0)
        assert issubclass(NonFiniteIntegrandError, QuadratureConvergenceError)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.data())
    def test_unit_symbol_is_delta(self, data):
        # every index j, k, j + d, k + d in [0, 400]
        j, k = data.draw(st.integers(0, 400)), data.draw(st.integers(0, 400))
        d = data.draw(st.integers(-min(j, k), 400 - max(j, k)))
        target = 1.0 if j == k else 0.0
        assert beta(const_symbol(1.0), d, j, k) == pytest.approx(target,
                                                                 abs=1e-10)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_indicator_is_incomplete_gamma(self, data):
        # on F_(1), beta(indicator:u, p, 0, 0) = P(p + 1, u^2)
        p = data.draw(st.integers(0, 10_000))
        c = p + 1
        if data.draw(st.integers(0, 3)) < 3:
            # mostly u^2 in the transition window c +- 8 sqrt(c)
            u = math.sqrt(data.draw(st.floats(max(c - 8 * math.sqrt(c), 0.0025),
                                              c + 8 * math.sqrt(c))))
        else:
            u = data.draw(st.floats(0.05, 150.0))
        assert beta(indicator_symbol(u), p, 0, 0) == pytest.approx(
            gammp(c, u * u), abs=1e-9)


class TestLambdaSequences:
    def test_constant_symbol(self):
        seq = lambda_seq(const_symbol(2.5), 3, 12)
        assert isinstance(seq, EigenvalueSequence)
        assert np.allclose(seq.values, 2.5, atol=1e-10)
        assert seq.quadrature_meta["rel_tol"] == 1e-9

    def test_indicator_against_incomplete_gamma(self):
        for u in (0.5, 1.0, 2.0):
            seq = lambda_seq(indicator_symbol(u), 1, 30)
            for p in range(31):
                assert seq.values[p].real == pytest.approx(
                    gammp(p + 1, u * u), abs=1e-9)
                assert abs(seq.values[p].imag) < 1e-14

    def test_frozen_examples(self):
        seq = lambda_seq(indicator_symbol(1.0), 1, 1)
        assert seq.values[0].real == pytest.approx(0.6321205588285577, abs=1e-12)
        assert seq.values[1].real == pytest.approx(0.26424111765711533, abs=1e-12)

    def test_unbounded_symbol_linear_growth(self):
        seq = lambda_seq(squared_radius_symbol(), 1, 8)
        assert np.allclose(seq.values.real, np.arange(1, 10), atol=1e-9)

    def test_indicator_contractivity(self):
        seq = lambda_seq(indicator_symbol(2.0), 2, 25)
        assert np.all(np.abs(seq.values) <= 1.0 + 1e-12)
        assert np.all(seq.values.real > 0)

    def test_range_validation(self):
        assert len(lambda_seq(const_symbol(1.0), 1, 0).values) == 1
        with pytest.raises(ValueError, match="p_max must be nonnegative, got -3"):
            lambda_seq(const_symbol(1.0), 2, -3)


class TestLambdaIndicator:
    """The indicator eigenvalues lambda(p) of `lambda_seq`, and the exact
    oracle `verify._indicator_eigenvalue` they are checked against."""

    def test_full_mass_limit(self):
        assert lambda_seq(indicator_symbol(7.0), 1, 0).values[0] == \
            pytest.approx(1.0, abs=1e-10)
        assert _indicator_eigenvalue(7.0, 1, 0) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form(self):
        # n = 1: P(p+1, u^2); n = 2, p = 1: phi = (1 - t) e^(-t/2), so
        # lambda = P(1, U) - 2 P(2, U) + 2 P(3, U)
        for u in (0.5, 1.0, 2.0):
            big_u = u * u
            for p in (0, 1, 7, 40):
                assert _indicator_eigenvalue(u, 1, p) == pytest.approx(
                    gammp(p + 1, big_u), abs=1e-14)
            want = gammp(1, big_u) - 2 * gammp(2, big_u) + 2 * gammp(3, big_u)
            assert _indicator_eigenvalue(u, 2, 1) == pytest.approx(want, abs=1e-14)
        assert lambda_seq(indicator_symbol(1.0), 1, 0).values[0] == \
            pytest.approx(1 - math.exp(-1), abs=1e-13)

    def test_monotone_in_radius(self):
        for n, p in ((1, 0), (2, 3), (4, 1)):
            small = lambda_seq(indicator_symbol(1.0), n, p).values[p].real
            large = lambda_seq(indicator_symbol(2.0), n, p).values[p].real
            assert 0 < small < large

    def test_agrees_with_beta_route(self):
        for n, p in ((1, 4), (3, 0), (2, 6)):
            via_beta = beta(indicator_symbol(1.5), p - n + 1, n - 1, n - 1)
            assert _indicator_eigenvalue(1.5, n, p) == pytest.approx(
                via_beta.real, abs=1e-11)

    def test_validation(self):
        with pytest.raises(ValueError):
            indicator_symbol(-1.0)
        with pytest.raises(ValueError):
            lambda_seq(indicator_symbol(1.0), 0, 3)

    @pytest.mark.parametrize("u", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, u):
        with pytest.raises(ValueError, match="finite"):
            indicator_symbol(u)
        with pytest.raises(ValueError, match="finite"):
            separation_check(1, 0, 1, (u,))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.sampled_from([0.5, 1.0, 2.0]), st.integers(0, 1000))
@example(8, 2.0, 1000)
def test_indicator_eigenvalues_match_exact_oracle(n, u, p_max):
    values = lambda_seq(indicator_symbol(u), n, p_max).values
    for p in sorted({0, min(n, p_max), p_max // 2, p_max}):
        assert abs(values[p] - _indicator_eigenvalue(u, n, p)) <= 1e-10, p


class TestBlocks:
    def test_unit_symbol_identity_blocks(self):
        for n, d in ((2, -1), (2, 0), (3, 4), (4, -3)):
            block = toeplitz_block(const_symbol(1.0), n, d)
            size = min(n, n + d)
            assert block.shape == (size, size)
            assert np.allclose(block, np.eye(size), atol=1e-10)

    def test_small_negative_diagonal_is_one_by_one(self):
        assert toeplitz_block(indicator_symbol(1.0), 2, -1).shape == (1, 1)

    def test_hermitian_for_real_symbol(self):
        block = toeplitz_block(indicator_symbol(2.0), 3, 0)
        assert np.linalg.norm(block - block.conj().T) <= 1e-10

    def test_empty_diagonal_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_block(const_symbol(1.0), 2, -2)
        with pytest.raises(ValueError, match="order"):
            toeplitz_block(const_symbol(1.0), 0, 1)
        with pytest.raises(ValueError, match="got -5"):
            toeplitz_blocks(const_symbol(1.0), 2, -5)
        assert [b.shape for b in toeplitz_blocks(const_symbol(1.0), 2, -1)] == [(1, 1)]

    def test_block_limit_toward_scalar(self):
        a = indicator_symbol(1.0)
        norms = [np.linalg.norm(toeplitz_block(a, 2, d), 2) for d in (10, 50, 200)]
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 1e-6


def _radius_squared_block(n: int, d: int) -> np.ndarray:
    """Exact block of r^2 = t: the Jacobi matrix of the Laguerre weight."""
    alpha, size = abs(d), min(n, n + d)
    m = np.arange(size)
    off = np.sqrt((m[:-1] + 1.0) * (m[:-1] + 1 + alpha))
    return np.diag(2.0 * m + alpha + 1) + np.diag(off, 1) + np.diag(off, -1)


#: block entries of the weight-absorbed and split routes that the window
#: rule replaced, (symbol, n, d, row, column) -> value; both agree to 1e-14
FROZEN_BLOCK_ENTRIES = [
    (("rational", 8, -7, 0, 0), 0.12289755012652319),
    (("rational", 8, 0, 0, 0), 0.5963473623231903),
    (("rational", 8, 0, 7, 7), 0.18033817984887052),
    (("rational", 8, 0, 0, 7), -0.00694233533278046),
    (("rational", 8, 11, 3, 4), -0.03747963909588814),
    (("rational", 8, 12, 7, 7), 0.0708539762280063),
    (("rational", 8, 13, 0, 1), -0.017544609323673625),
    (("rational", 8, 100, 5, 6), -0.0023295463021797817),
    (("rational", 8, 100, 0, 0), 0.0099000100979091),
    (("exp_decay", 3, 0, 0, 0), 0.4543586392349501),
    (("exp_decay", 3, 0, 1, 2), -0.1473483507317619),
    (("exp_decay", 3, 1, 2, 2), 0.1859727468337071),
    (("inverse_linear", 2, -1, 0, 0), 0.4484134713515826),
    (("inverse_linear", 2, 0, 0, 1), -0.11377307454724084),
    (("inverse_linear", 2, 5, 1, 1), 0.2866757293191504),
]

_NAMED = {"rational": inverse_quadratic_symbol, "exp_decay": exp_decay_symbol,
          "inverse_linear": inverse_linear_symbol}


class TestWindowRule:
    @pytest.mark.parametrize("key,value", FROZEN_BLOCK_ENTRIES)
    def test_frozen_previous_route_values(self, key, value):
        name, n, d, i, j = key
        block = toeplitz_block(_NAMED[name](), n, d)
        assert block[i, j].real == pytest.approx(value, abs=1e-10)
        assert block[i, j].imag == 0.0

    def test_block_matches_beta_and_is_symmetric(self):
        for a in (inverse_quadratic_symbol(), indicator_symbol(1.5),
                  exp_decay_symbol()):
            for n, d in ((4, -3), (5, -2), (5, 0), (5, 3), (5, 40), (3, 300)):
                block = toeplitz_block(a, n, d)
                lo = max(0, -d)
                for jj in range(lo, n):
                    for kk in range(lo, n):
                        assert block[jj - lo, kk - lo] == pytest.approx(
                            beta(a, d, jj, kk), abs=1e-12)
                assert np.max(np.abs(block - block.T)) <= 1e-13

    def test_radius_squared_blocks_exact(self):
        a = squared_radius_symbol()
        for n in (1, 3, 8):
            for d in (-n + 1, 0, 1, 11, 40, 150, 300):
                exact = _radius_squared_block(n, d)
                got = toeplitz_block(a, n, d)
                assert np.max(np.abs(got - exact)) <= 1e-10 * np.max(exact)

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0, 40.0])
    def test_gauss_closed_form_to_p_1000(self, s):
        values = lambda_seq(gaussian_symbol(s), 1, 1000).values
        p = np.arange(1001)
        assert np.max(np.abs(values - (1 + 1 / s**2) ** -(p + 1.0))) < 1e-11

    @pytest.mark.parametrize("u", [0.5, 2.0, 10.0, 19.0])
    def test_indicator_incomplete_gamma_to_p_400(self, u):
        values = lambda_seq(indicator_symbol(u), 1, 400).values
        want = [gammp(p + 1, u * u) for p in range(401)]
        assert np.max(np.abs(values.real - want)) < 1e-11
        assert np.all(values.imag == 0.0)


_REAL_SPECS = ["gauss:2", "rational", "const:2.5", "indicator:1.3"]


class TestBatchedPass:
    """Sequences and block sweeps come from one pass over all their rows."""

    @pytest.mark.parametrize("spec", _REAL_SPECS)
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_sequence_is_one_row_beta(self, spec, n):
        a = symbol_from_spec(spec)
        values = lambda_seq(a, n, 60).values
        for p in range(61):
            assert abs(values[p] - beta(a, p - n + 1, n - 1, n - 1)) <= 1e-14

    def test_sweep_is_one_block_per_diagonal(self):
        for spec, n in (("rational", 8), ("indicator:1.3", 4), ("gauss:2", 1)):
            a = symbol_from_spec(spec)
            blocks = toeplitz_blocks(a, n, 40)
            assert len(blocks) == 40 + n
            for d, block in zip(range(-n + 1, 41), blocks):
                assert np.array_equal(block, toeplitz_block(a, n, d))

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_boundaries_do_not_matter(self, monkeypatch, chunk):
        cases = [(symbol_from_spec(spec), n) for spec in _REAL_SPECS
                 for n in (1, 3)]
        seqs = [lambda_seq(a, n, 150) for a, n in cases]
        sweeps = [toeplitz_blocks(a, n, 70) for a, n in cases]
        monkeypatch.setattr(toeplitz, "_CHUNK", chunk)
        for (a, n), seq, sweep in zip(cases, seqs, sweeps):
            other = lambda_seq(a, n, 150)
            assert np.array_equal(other.values, seq.values)
            assert other.quadrature_meta["nodes"] == seq.quadrature_meta["nodes"]
            for got, want in zip(toeplitz_blocks(a, n, 70), sweep):
                assert np.array_equal(got, want)

    def test_breakpoint_at_the_split(self):
        # u = 1 is also the split sqrt(c) of the d = 0 window
        assert beta(indicator_symbol(1.0), 0, 0, 0) == pytest.approx(
            gammp(1, 1.0), abs=1e-9)
        assert lambda_seq(indicator_symbol(1.0), 1, 0).values[0] == \
            pytest.approx(gammp(1, 1.0), abs=1e-9)

    @pytest.mark.parametrize("u,p_max", [(30.0, 50), (0.5, 400)])
    def test_breakpoint_beyond_or_below_the_window(self, u, p_max):
        # u = 30 lies past every window for p <= 50 and extends it; u = 0.5
        # lies below the windows of p >~ 170, where its piece is empty
        values = lambda_seq(indicator_symbol(u), 1, p_max).values
        want = [gammp(p + 1, u * u) for p in range(p_max + 1)]
        assert np.max(np.abs(values - want)) <= 1e-9

    @pytest.mark.parametrize("n", [1, 3])
    def test_breakpoint_far_beyond_the_window(self, n):
        # past a row's reach the breakpoint is moved down to it: the mass
        # just past the window is not lost, and u^2 never overflows
        for u in (4.0, 6.0, 8.0, 30.0, 1e3, 1e4, 1e6, 1e50, 1e200):
            got = lambda_seq(indicator_symbol(u), n, 30).values
            want = [_indicator_eigenvalue(u, n, p) for p in range(31)]
            assert np.max(np.abs(got - want)) <= 1e-10
        for u in (1e3, 1e6, 1e200):
            for d in (-1, 0, 3, 1000):
                block = toeplitz_block(indicator_symbol(u), 2, d)
                assert np.max(np.abs(block - np.eye(len(block)))) <= 1e-10

    @pytest.mark.parametrize("u", [1e-7, 1e-9, 1e-150, 1e-300])
    def test_breakpoint_far_below_the_window(self, u):
        # on the piece (0, u), t < eps rounds log1p((t - c) / c) to -inf,
        # and at alpha = 0 the power t^0 = 1 must not turn that into NaN
        for n in (1, 2, 3):
            got = lambda_seq(indicator_symbol(u), n, 5).values
            want = [_indicator_eigenvalue(u, n, p) for p in range(6)]
            assert np.max(np.abs(got - want)) <= 1e-28

    def test_memory_is_flat_in_p(self):
        # the pass holds arrays only, no Python object per row: its peak
        # grows by the few arrays of 8 or 16 bytes per p it returns or uses
        a = gaussian_symbol(2.0)
        lambda_seq(a, 2, 10)
        peaks = []
        for p_max in (1000, 5000):
            tracemalloc.start()
            try:
                lambda_seq(a, 2, p_max)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 4000 <= 120

    def test_scalar_only_callable_falls_back_once(self):
        calls = []

        def exp_decay(r):
            calls.append(isinstance(r, np.ndarray))
            return math.exp(-r)

        scalar = RadialSymbol(exp_decay, limit_at_infinity=0.0, bound=1.0)
        got = lambda_seq(scalar, 2, 100).values
        want = lambda_seq(exp_decay_symbol(), 2, 100).values
        assert np.max(np.abs(got - want)) <= 1e-14
        # one array call, then one call per node for the rest of the pass
        assert calls[0] and not any(calls[1:]) and len(calls) > 1000
        blocks = toeplitz_blocks(scalar, 3, 20)
        for got, want in zip(blocks, toeplitz_blocks(exp_decay_symbol(), 3, 20)):
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_unconverged_row_is_named(self):
        # an undeclared jump at r = 10 defeats the self-check on the
        # diagonals whose window reaches t = 100; the pass names the first
        jump = RadialSymbol(lambda r: 1.0 * (r < 10.0), name="jump")
        with pytest.raises(QuadratureConvergenceError,
                           match=r"d=(\d+) .*symbol jump") as info:
            lambda_seq(jump, 1, 300)
        d = int(re.search(r"d=(\d+)", str(info.value)).group(1))
        assert d > 0
        beta(jump, d - 1, 0, 0)
        with pytest.raises(QuadratureConvergenceError, match=f"d={d} "):
            beta(jump, d, 0, 0)

    def test_non_finite_node_is_named_with_its_row(self):
        # p = 0 on F_(3) is the row d = -2, the first one computed
        spiky = RadialSymbol(lambda r: np.where(r > 2.0, np.nan, 1.0),
                             name="spiky")
        with pytest.raises(NonFiniteIntegrandError,
                           match=r"t=4\.\d+ \(d=-2, m=0\): symbol spiky is "
                                 r"\(nan"):
            lambda_seq(spiky, 3, 30)

    @pytest.mark.parametrize("make", [
        *(lambda spec=spec: symbol_from_spec(spec) for spec in _REAL_SPECS),
        exp_decay_symbol, inverse_linear_symbol, squared_radius_symbol])
    def test_real_symbol_values_are_real(self, make):
        a = make()
        assert np.all(lambda_seq(a, 2, 200).values.imag == 0.0)
        assert all(np.all(b.imag == 0.0) for b in toeplitz_blocks(a, 3, 50))

    def test_nodes_record_where_each_row_converged(self):
        seq = lambda_seq(indicator_symbol(2.0), 2, 300)
        nodes = seq.quadrature_meta["nodes"]
        assert len(nodes) == 301 and set(nodes) <= {128, 256, 512}
        assert seq.quadrature_meta["n_start"] == 64

    def test_complex_symbol(self):
        a = const_symbol(0.5 - 2j)
        assert np.max(np.abs(lambda_seq(a, 3, 40).values - (0.5 - 2j))) < 1e-12


_CROSS_SYMBOLS = {"const": const_symbol(1.0), "gauss": gaussian_symbol(2.0),
                  "rational": inverse_quadratic_symbol(),
                  "indicator": indicator_symbol(1.3),
                  "complex": const_symbol(0.5 - 2j)}


def _fused_and_doubling(monkeypatch, call):
    """call() on the pass as it is and on the one-size-per-evaluation
    self-check of the oracles; an error comes back as (type, message)."""
    def outcome():
        try:
            return call()
        except QuadratureConvergenceError as exc:
            return type(exc), str(exc)
    fused = outcome()
    with monkeypatch.context() as patch:
        patch.setattr(toeplitz, "_block_checked", block_checked_by_doubling)
        return fused, outcome()


class TestFusedSelfCheck:
    """The self-check's first step evaluates 64 and 128 nodes on one window
    in one pass; blocks, node counts and errors are those of one evaluation
    per size, bit for bit."""

    @pytest.mark.parametrize("name", sorted(_CROSS_SYMBOLS))
    @pytest.mark.parametrize("n", [1, 3])
    def test_one_row_calls(self, monkeypatch, name, n):
        # d = 99 and 100 lie either side of the Stirling switch; the
        # indicator's breakpoint gives zero-length pieces at large d
        a = _CROSS_SYMBOLS[name]
        for d in (-n + 1, 0, 99, 100, 10**4, 10**6):
            fused, old = _fused_and_doubling(
                monkeypatch, lambda: toeplitz_block(a, n, d))
            assert np.array_equal(fused, old)
            fused, old = _fused_and_doubling(
                monkeypatch, lambda: beta(a, d, n - 1, max(0, -d)))
            assert fused == old

    @pytest.mark.parametrize("n, p, q", [(1, 0, 1), (2, 5, 40), (3, 99, 100),
                                         (2, 3, math.inf)])
    def test_two_row_calls(self, monkeypatch, n, p, q):
        fused, old = _fused_and_doubling(monkeypatch,
                                         lambda: separation_check(n, p, q))
        assert fused == old
        if q != math.inf:
            for u in (0.5, 2.0):
                fused, old = _fused_and_doubling(
                    monkeypatch, lambda: toeplitz._true_layer(
                        indicator_symbol(u), n, (p, q)))
                assert all(np.array_equal(x, y) for x, y in zip(fused, old))

    @pytest.mark.parametrize("name", sorted(_CROSS_SYMBOLS))
    def test_batched_calls(self, monkeypatch, name):
        a = _CROSS_SYMBOLS[name]
        for n in (1, 3):
            fused, old = _fused_and_doubling(monkeypatch,
                                             lambda: lambda_seq(a, n, 120))
            assert np.array_equal(fused.values, old.values)
            assert fused.quadrature_meta == old.quadrature_meta
            fused, old = _fused_and_doubling(
                monkeypatch, lambda: toeplitz_blocks(a, n, 110))
            assert len(fused) == len(old) == 110 + n
            assert all(np.array_equal(x, y) for x, y in zip(fused, old))
        fused, old = _fused_and_doubling(
            monkeypatch, lambda: toeplitz_matrix(a, SpaceId("poly", 2), 40))
        assert np.array_equal(fused.entries, old.entries)

    @pytest.mark.parametrize("fn, sizes", [
        (lambda r: np.sin(3 * r * r), {128, 256, 512}),
        (lambda r: np.cos(20 * r), {128, 256})], ids=["sin 3r^2", "cos 20r"])
    def test_rows_converging_after_the_first_step(self, monkeypatch, fn, sizes):
        a = RadialSymbol(fn, name="oscillating")
        fused, old = _fused_and_doubling(monkeypatch, lambda: lambda_seq(a, 1, 300))
        nodes = fused.quadrature_meta["nodes"]
        assert set(nodes) == sizes
        assert np.array_equal(fused.values, old.values)
        assert fused.quadrature_meta == old.quadrature_meta
        for size in sizes:
            p = nodes.index(size)
            one, old_one = _fused_and_doubling(monkeypatch, lambda: beta(a, p, 0, 0))
            assert one == old_one
            one, old_one = _fused_and_doubling(
                monkeypatch, lambda: toeplitz_block(a, 2, p))
            assert np.array_equal(one, old_one)

    def test_non_finite_band_is_named(self, monkeypatch):
        band = RadialSymbol(
            lambda r: np.where((r > 1.5) & (r < 2.5), np.inf, 1.0), name="band")
        for call in (lambda: beta(band, 0, 0, 0),
                     lambda: toeplitz_block(band, 3, 2),
                     lambda: lambda_seq(band, 2, 30)):
            fused, old = _fused_and_doubling(monkeypatch, call)
            assert fused == old
            assert fused[0] is NonFiniteIntegrandError
        message = _fused_and_doubling(monkeypatch,
                                      lambda: beta(band, 0, 0, 0))[0][1]
        t = float(re.fullmatch(r"integrand not finite at t=(\S+) \(d=0, m=0\): "
                               r"symbol band is \(inf\+0j\), Laguerre function "
                               r"value \S+", message).group(1))
        assert 1.5**2 < t < 2.5**2

    def test_non_finite_only_at_the_second_size_is_named(self, monkeypatch):
        # the window of d = 0, degree 0 has the pieces [0, 1] and
        # [1, sqrt 14] in r before its tail; r0 is a 128-node of the second
        # that no 64-node comes near
        x64, _ = np.polynomial.legendre.leggauss(64)
        x128, _ = np.polynomial.legendre.leggauss(128)
        half = 0.5 * (math.sqrt(14.0) - 1.0)
        r0 = 1.0 + half * (x128[64] + 1.0)
        assert np.min(np.abs(1.0 + half * (x64 + 1.0) - r0)) > 1e-3
        spike = RadialSymbol(lambda r: np.where(np.abs(r - r0) < 1e-9, np.inf, 1.0),
                             name="spike")
        fused, old = _fused_and_doubling(monkeypatch, lambda: beta(spike, 0, 0, 0))
        assert fused == old
        assert fused[0] is NonFiniteIntegrandError and "(d=0, m=0)" in fused[1]
        t = float(re.search(r"t=(\S+) ", fused[1]).group(1))
        assert t == pytest.approx(r0 * r0, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    def test_block_sum_overflow_is_named(self, monkeypatch):
        # every integrand value is finite, but sums of the largest float
        # times weights adding up to 1 leave the float range in rounding
        huge = const_symbol(np.finfo(float).max)
        fused, old = _fused_and_doubling(monkeypatch,
                                         lambda: toeplitz_block(huge, 8, 0))
        assert fused == old == (NonFiniteIntegrandError,
                                f"block sums overflow (d=0, {huge.name})")

    def test_unconverged_after_512_nodes_is_named(self, monkeypatch):
        # an undeclared kink at r = 2 defeats every rule size
        kink = RadialSymbol(lambda r: np.abs(r - 2.0), name="kink")
        fused, old = _fused_and_doubling(monkeypatch, lambda: beta(kink, 0, 0, 0))
        assert fused == old == (
            QuadratureConvergenceError,
            "block on diagonal d=0 for degrees [0] did not converge up to "
            "512 nodes for symbol kink")


class TestToeplitzMatrix:
    def test_unit_symbol_is_identity(self):
        m = toeplitz_matrix(const_symbol(1.0), SpaceId("poly", 2), 10)
        assert np.max(np.abs(m.entries - np.eye(20))) < 1e-12

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.sampled_from(["poly", "true_poly"]), st.integers(1, 4),
           st.integers(1, 300))
    @example("poly", 2, 200)
    def test_unit_symbol_is_identity_to_p_300(self, kind, n, truncation):
        m = toeplitz_matrix(const_symbol(1.0), SpaceId(kind, n), truncation)
        assert np.max(np.abs(m.entries - np.eye(len(m.entries)))) < 1e-10

    @pytest.mark.parametrize("kind", ["poly", "true_poly"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
    def test_polar_route_on_radial_callable_matches_blocks(self, s, n, kind):
        # the polar tensor rule never sees the blocks: this is an independent
        # witness that a radial operator is its block sequence
        space = SpaceId(kind, n)
        dense = toeplitz_matrix(lambda z: math.exp(-abs(z) ** 2 / s**2),
                                space, 40)
        blocks = toeplitz_matrix(gaussian_symbol(s), space, 40)
        assert np.max(np.abs(dense.entries - blocks.entries)) < 1e-12
        off, total = off_block_mass(dense)
        assert off <= 1e-12 * total

    def test_non_finite_symbol_is_named(self):
        a = RadialSymbol(lambda r: math.nan if r > 1.0 else 1.0, name="spiky")
        with pytest.raises(NonFiniteIntegrandError, match=r"symbol spiky is \(nan"):
            toeplitz_matrix(a, SpaceId("poly", 2), 10)

    def test_radial_matches_block_assembly(self):
        a = indicator_symbol(1.0)
        m = toeplitz_matrix(a, SpaceId("poly", 2), 12)
        rep = phi_n(m, d_max=10, tol=1e-8)
        for d in (-1, 0, 2, 7):
            assert np.max(np.abs(rep.block(d) - toeplitz_block(a, 2, d))) < 1e-8

    def test_real_part_symbol_entry(self):
        # oracle in the exact layer: Re z = (m10 + m01)/2 against b00, b10
        half = BiPolynomial({(1, 0): 1, (0, 1): 1})
        num = gaussian_inner(half, b_coeffs(HermiteIndex(1, 0)).body)
        assert num == 1  # times the 1/2 prefactor: entry 1/2
        m = toeplitz_matrix(lambda z: z.real, SpaceId("poly", 1), 6)
        entry = m.entries[m.index_of[(1, 0)], m.index_of[(0, 0)]]
        assert entry == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("g, poly", [
        (lambda z: z, BiPolynomial.monomial(1, 0)),
        (lambda z: np.conj(z), BiPolynomial.monomial(0, 1)),
        (lambda z: np.abs(z) ** 2, BiPolynomial.monomial(1, 1))],
        ids=["z", "zbar", "abs_sq"])
    @pytest.mark.parametrize("n, truncation", [(1, 8), (2, 5), (3, 8)])
    def test_polynomial_symbol_matches_exact_layer(self, g, poly, n,
                                                    truncation):
        # <g b_in, b_out> in rationals on the exact bodies; b = sqrt(scale) body
        m = toeplitz_matrix(g, SpaceId("poly", n), truncation)
        exact = {key: b_exact(HermiteIndex(*key)) for key in m.index_of}
        worst = 0.0
        for key_in, i in m.index_of.items():
            for key_out, o in m.index_of.items():
                b_in, b_out = exact[key_in], exact[key_out]
                want = complex(gaussian_inner(poly * b_in.body, b_out.body)) \
                    * math.sqrt(b_in.scale_sq * b_out.scale_sq)
                worst = max(worst, abs(m.entries[o, i] - want))
        assert worst < 1e-12

    @pytest.mark.parametrize("space", [SpaceId("poly", 1), SpaceId("poly", 3),
                                       SpaceId("true_poly", 2)],
                             ids=["poly1", "poly3", "true_poly2"])
    def test_radialization_commutes_with_quantization(self, space):
        # the angle average of g is g0: radializing T_g (polar route) gives
        # T_g0 (block route)
        def g(z):
            return np.exp(-np.abs(z) ** 2 / 4) + z.real + 0.3j * z.imag ** 2
        g0 = RadialSymbol(lambda r: np.exp(-r * r / 4) + 0.15j * r * r)
        rad = radialize_matrix(toeplitz_matrix(g, space, 30))
        want = toeplitz_matrix(g0, space, 30)
        assert np.max(np.abs(rad.entries - want.entries)) < 1e-12

    def test_unit_callable_is_identity_at_p_200(self):
        m = toeplitz_matrix(lambda z: 1.0, SpaceId("poly", 2), 200)
        assert np.max(np.abs(m.entries - np.eye(400))) < 1e-10

    def test_unit_callable_is_identity_at_p_800(self):
        # at the outer nodes of the 512-node rule the profiles alone pass the
        # float range; they meet their root weights in one log scale
        m = toeplitz_matrix(lambda z: 1.0, SpaceId("poly", 1), 800)
        assert np.max(np.abs(m.entries - np.eye(800))) < 1e-10

    def test_non_finite_profile_is_named(self, monkeypatch):
        def overflowing(pairs, r, log_weight=0.0):
            out = np.ones((len(pairs),) + np.shape(r))
            out[1, 2] = np.inf
            return out
        monkeypatch.setattr(hermite_basis, "_radial_values", overflowing)
        with pytest.raises(NonFiniteIntegrandError,
                           match=r"b_1,0 is not finite at radial node 2 of 64"):
            toeplitz_matrix(lambda z: 1.0, SpaceId("poly", 1), 4)

    def test_non_finite_callable_names_z(self):
        with pytest.raises(ValueError, match=r"non-finite sample at z="):
            toeplitz_matrix(lambda z: np.where(np.abs(z) > 2, np.nan, 1.0),
                            SpaceId("poly", 2), 6)

    def test_undeclared_radial_jump_fails_self_check(self):
        with pytest.raises(QuadratureConvergenceError):
            toeplitz_matrix(lambda z: 1.0 * (np.abs(z) < 1),
                            SpaceId("poly", 1), 6)

    def test_nonradial_symbol_flagged(self):
        m = toeplitz_matrix(lambda z: z.real, SpaceId("poly", 1), 6)
        assert not is_radial(m).radial

    def test_true_layer_diagonal_matches_lambda(self):
        for a in (indicator_symbol(1.0), exp_decay_symbol()):
            for n in (1, 3):
                space = SpaceId("true_poly", n)
                m = toeplitz_matrix(a, space, 16)
                rep = phi_true(m, p_max=15, tol=1e-7)
                seq = lambda_seq(a, n, 15)
                assert np.max(np.abs(rep.eigenvalues - seq.values)) < 1e-8


class TestLimitDiagnostic:
    def test_constant_residuals_vanish(self):
        recs = limit_diagnostic(const_symbol(2.0), 1, 1, [5, 50])
        assert all(r.residual < 1e-10 for r in recs)

    def test_indicator_residual_small_and_decreasing(self):
        recs = limit_diagnostic(indicator_symbol(1.0), 0, 0, [10, 200])
        assert recs[-1].residual < 1e-6
        assert recs[-1].residual <= recs[0].residual

    def test_off_diagonal_slow_symbol_decreasing(self):
        recs = limit_diagnostic(inverse_linear_symbol(), 0, 1, [10, 50, 200])
        residuals = [r.residual for r in recs]
        assert residuals[0] > residuals[1] > residuals[2]

    def test_empty_request(self):
        assert limit_diagnostic(const_symbol(1.0), 0, 0, []) == []
        assert limit_diagnostic(const_symbol(1.0), 0, 1, []) == []

    def test_requires_declared_limit(self):
        with pytest.raises(ValueError):
            limit_diagnostic(squared_radius_symbol(), 0, 0, [10])

    def test_json_record_layout(self):
        rec = limit_diagnostic(const_symbol(1.0), 0, 0, [5])[0]
        assert rec.to_json_dict() == {"d": 5, "beta_re": pytest.approx(1.0),
                                      "beta_im": 0.0,
                                      "residual": pytest.approx(0.0, abs=1e-10)}


class TestSeparation:
    def test_adjacent_positions_gap(self):
        result = separation_check(1, 0, 1, (1.0,))
        assert result.found
        assert result.gap == pytest.approx(math.exp(-1), abs=1e-12)

    def test_distant_positions(self):
        result = separation_check(2, 0, 5)
        assert result.found and result.witness_u is not None

    def test_infinity_comparison(self):
        result = separation_check(3, 2, math.inf)
        assert result.found and result.witness_u == 1.0 and result.gap > 1e-6

    def test_equal_positions_rejected(self):
        with pytest.raises(ValueError):
            separation_check(1, 3, 3)

    def test_large_position_against_exact_oracle(self):
        # u^2 = 3025 sits in the bulk of lambda(3000), so its value is not
        # negligible: the gap checks both positions
        result = separation_check(3, 0, 3000, (55.0,))
        want = _indicator_eigenvalue(55.0, 3, 0) - _indicator_eigenvalue(55.0, 3, 3000)
        assert 0.1 < want < 0.9
        assert result.found and result.gap == pytest.approx(want, abs=1e-10)

    def test_computes_only_the_two_positions(self, monkeypatch):
        rows = []
        route = toeplitz._diagonal_blocks

        def spy(a, diagonals, *args):
            rows.append(len(diagonals))
            return route(a, diagonals, *args)

        monkeypatch.setattr(toeplitz, "_diagonal_blocks", spy)
        result = separation_check(1, 0, 100000)
        assert result.found and result.witness_u == 0.5
        assert result.gap == pytest.approx(1 - math.exp(-0.25), abs=1e-12)
        assert separation_check(2, 100000, math.inf).gap == pytest.approx(0.0, abs=1e-12)
        assert rows == [2, 1]

    @pytest.mark.parametrize("p, q, name", [
        (0, 2.5, "position q"), (0, -math.inf, "position q"),
        (0, math.nan, "position q"), (0, -1, "position q"),
        (-1, 2, "position p"), (1.5, 2, "position p")])
    def test_invalid_positions_rejected(self, p, q, name):
        with pytest.raises(ValueError, match=name):
            separation_check(2, p, q)
