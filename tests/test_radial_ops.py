import cmath
import math
import re

import numpy as np
import pytest

from polyfock.fock_spaces import SpaceId, berezin
from polyfock.quadrature import CircleRule
from polyfock.radial_ops import (DEFAULT_TAUS, BasisMatrix, RadialityError,
                                 RadialOperatorRep, assemble_blocks,
                                 finite_rank_radial, is_radial, phi_n,
                                 radialize_matrix, radialize_numeric,
                                 rotation_phases, vanishing_berezin_witness)
from polyfock.toeplitz import indicator_symbol, toeplitz_matrix

POLY2 = SpaceId("poly", 2)


def identity_matrix(space, trunc):
    k = len(space.basis_indices(trunc))
    return BasisMatrix(space, trunc, np.eye(k, dtype=complex))


def random_rep(n, d_max, seed=3):
    rng = np.random.default_rng(seed)
    blocks = tuple(rng.standard_normal((min(n, n + d), min(n, n + d)))
                   + 1j * rng.standard_normal((min(n, n + d), min(n, n + d)))
                   for d in range(-n + 1, d_max + 1))
    return RadialOperatorRep(n=n, blocks=blocks)


class TestRotation:
    # the rotation acts on the coefficient of b_{p,q} by the phase tau^(q-p)
    def test_phase_on_basis_vector(self):
        phases = rotation_phases(POLY2, 4, 1j)
        assert phases[POLY2.basis_indices(4).index((1, 0))] == pytest.approx(-1j)

    def test_diagonal_zero_fixed(self):
        at = POLY2.basis_indices(4).index((1, 1))
        for tau in (1j, cmath.exp(0.71j)):
            assert rotation_phases(POLY2, 4, tau)[at] == 1.0

    def test_identity_rotation(self):
        assert np.array_equal(rotation_phases(POLY2, 4, 1.0), np.ones(8))


class TestRadialization:
    def test_witness_killed_entirely(self):
        witness = vanishing_berezin_witness(POLY2, 6)
        rad = radialize_matrix(witness)
        assert np.all(rad.entries == 0)

    def test_radial_matrix_fixed(self):
        s = assemble_blocks(random_rep(2, 4), 8)
        assert np.array_equal(radialize_matrix(s).entries, s.entries)

    def test_identity_fixed(self):
        ident = identity_matrix(POLY2, 5)
        assert np.array_equal(radialize_matrix(ident).entries, ident.entries)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        k = len(POLY2.basis_indices(5))
        s = BasisMatrix(POLY2, 5, rng.standard_normal((k, k))
                        + 1j * rng.standard_normal((k, k)))
        once = radialize_matrix(s)
        twice = radialize_matrix(once)
        assert np.array_equal(once.entries, twice.entries)

    def test_fixed_point_iff_radial(self):
        witness = vanishing_berezin_witness(POLY2, 6)
        radial = assemble_blocks(random_rep(2, 4), 6)
        assert not is_radial(witness).radial
        assert not np.array_equal(radialize_matrix(witness).entries,
                                  witness.entries)
        assert is_radial(radial).radial
        assert np.array_equal(radialize_matrix(radial).entries, radial.entries)

    def test_norm_nonincreasing_linear(self):
        rng = np.random.default_rng(5)
        k = len(POLY2.basis_indices(5))
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        ra = radialize_matrix(BasisMatrix(POLY2, 5, a)).entries
        rb = radialize_matrix(BasisMatrix(POLY2, 5, b)).entries
        rsum = radialize_matrix(BasisMatrix(POLY2, 5, a + 2 * b)).entries
        assert np.allclose(rsum, ra + 2 * rb)
        assert np.linalg.norm(ra, 2) <= np.linalg.norm(a, 2) + 1e-12


class TestNumericRadialization:
    def test_matches_exact_above_nyquist(self):
        rng = np.random.default_rng(2)
        k = len(POLY2.basis_indices(6))
        s = BasisMatrix(POLY2, 6, rng.standard_normal((k, k))
                        + 1j * rng.standard_normal((k, k)))
        # largest diagonal gap is (P-1) - (-(n-1)) = 6
        num = radialize_numeric(s, CircleRule(14))
        assert np.max(np.abs(num.entries - radialize_matrix(s).entries)) < 1e-12

    def test_aliasing_below_nyquist(self):
        space = SpaceId("poly", 1)
        trunc, m = 10, 8
        entries = np.zeros((trunc, trunc), dtype=complex)
        entries[m, 0] = 1.0  # diagonal gap exactly m: aliases back in
        s = BasisMatrix(space, trunc, entries)
        aliased = radialize_numeric(s, CircleRule(m))
        assert abs(aliased.entries[m, 0] - 1.0) < 1e-12
        assert radialize_matrix(s).entries[m, 0] == 0


class TestBlockDecomposition:
    def test_identity_blocks(self):
        rep = phi_n(identity_matrix(POLY2, 6), d_max=4)
        assert [b.shape[0] for b in rep.blocks] == [1, 2, 2, 2, 2, 2]
        assert np.array_equal(rep.block(-1), np.eye(1))
        for d in range(0, 5):
            assert np.array_equal(rep.block(d), np.eye(2))

    def test_block_sizes_order_three(self):
        rep = phi_n(identity_matrix(SpaceId("poly", 3), 8), d_max=4)
        assert [b.shape[0] for b in rep.blocks] == [1, 2, 3, 3, 3, 3, 3]

    def test_round_trip_exact(self):
        rep = random_rep(3, 5)
        s = assemble_blocks(rep, 10)
        back = phi_n(s, 5)
        for a, b in zip(back.blocks, rep.blocks):
            assert np.array_equal(a, b)

    def test_non_radial_rejected(self):
        witness = vanishing_berezin_witness(POLY2, 6)
        with pytest.raises(RadialityError):
            phi_n(witness, d_max=2)

    def test_coverage_validation(self):
        with pytest.raises(ValueError):
            phi_n(identity_matrix(POLY2, 6), d_max=5)  # needs p up to 6
        with pytest.raises(ValueError):
            phi_n(identity_matrix(SpaceId("true_poly", 2), 6), d_max=2)

    def test_assemble_zero_and_single_block(self):
        zero = RadialOperatorRep(2, (np.zeros((1, 1)), np.zeros((2, 2))))
        assert np.all(assemble_blocks(zero, 4).entries == 0)
        block = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        rep = RadialOperatorRep(2, (np.zeros((1, 1)), block))
        s = assemble_blocks(rep, 4)
        assert np.linalg.norm(s.entries, 2) == pytest.approx(
            np.linalg.norm(block, 2))

    def test_assembled_norm_is_sup_of_blocks(self):
        rep = random_rep(2, 6)
        s = assemble_blocks(rep, 10)
        assert np.linalg.norm(s.entries, 2) == pytest.approx(rep.sup_norm())

    def test_block_map_multiplicative(self):
        repa, repb = random_rep(2, 6, seed=5), random_rep(2, 6, seed=6)
        sa, sb = assemble_blocks(repa, 8), assemble_blocks(repb, 8)
        prod = phi_n(BasisMatrix(POLY2, 8, sa.entries @ sb.entries), 6)
        for d in range(-1, 7):
            assert np.allclose(prod.block(d), repa.block(d) @ repb.block(d),
                               atol=1e-13)

    def test_rep_validation(self):
        # blocks start at d_min = -n+1, where the order-2 block is 1 x 1
        assert RadialOperatorRep(2, (np.eye(1), np.eye(2))).d_min == -1
        with pytest.raises(ValueError, match="d=-1"):
            RadialOperatorRep(2, (np.eye(2),))


class TestFiniteRank:
    def test_projector(self):
        s = finite_rank_radial(POLY2, 5, [(0, 1.0, {(0, 0): 1.0}, {(0, 0): 1.0})])
        assert s.entries[0, 0] == 1.0
        assert np.sum(np.abs(s.entries)) == 1.0
        assert is_radial(s).radial

    def test_random_well_formed_is_radial(self):
        rng = np.random.default_rng(9)
        terms = []
        for d in (0, 1, -1):
            us = {(d + k, k): complex(rng.standard_normal())
                  for k in range(max(0, -d), 2)}
            terms.append((d, 1.5, us, dict(us)))
        s = finite_rank_radial(POLY2, 6, terms)
        assert is_radial(s).radial

    def test_cross_diagonal_rejected(self):
        with pytest.raises(RadialityError):
            finite_rank_radial(POLY2, 5,
                               [(0, 1.0, {(0, 0): 1.0}, {(1, 0): 1.0})])

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            finite_rank_radial(POLY2, 5, [(0, 0.0, {(0, 0): 1.0}, {(0, 0): 1.0})])


class TestIsRadial:
    def test_identity(self):
        report = is_radial(identity_matrix(POLY2, 5))
        assert report.radial and report.max_commutator_norm == 0.0

    def test_witness_commutator_size(self):
        witness = vanishing_berezin_witness(POLY2, 6)
        report = is_radial(witness)
        # entry moving between diagonals 0 and 1 picks up |i^{-1} - 1| = sqrt 2
        # at tau = 1j, which DEFAULT_TAUS contains
        assert 1j in DEFAULT_TAUS
        assert not report.radial
        assert report.max_commutator_norm >= math.sqrt(2) - 1e-12

    def test_assembled_always_radial(self):
        for n, seed in ((2, 1), (3, 2)):
            s = assemble_blocks(random_rep(n, 5, seed=seed), 9)
            assert is_radial(s).radial

    def test_zero_commutator_skips_the_svd(self, monkeypatch):
        norm, calls = np.linalg.norm, []
        monkeypatch.setattr(np.linalg, "norm",
                            lambda *a, **k: calls.append(a) or norm(*a, **k))
        # assembled from real blocks, so the commutator is exactly zero
        s = toeplitz_matrix(indicator_symbol(1.0), SpaceId("poly", 3), 12)
        assert is_radial(s).max_commutator_norm == 0.0
        # complex blocks: the phase difference is exactly 0 on each block
        s = assemble_blocks(random_rep(3, 5, seed=4), 9)
        assert is_radial(s).max_commutator_norm == 0.0
        assert calls == []
        assert is_radial(vanishing_berezin_witness(POLY2, 6)).max_commutator_norm > 0
        assert len(calls) == len(DEFAULT_TAUS)

    def test_off_block_mass(self):
        # the witness lies wholly off the blocks; an assembled matrix has
        # none off them, exactly
        witness = vanishing_berezin_witness(POLY2, 6)
        total = np.linalg.norm(witness.entries)
        with pytest.raises(RadialityError,
                           match=re.escape(f"off-block mass {total:.3e} ")):
            phi_n(witness, d_max=4)
        rep = random_rep(2, 4)
        s = assemble_blocks(rep, 6)
        assert np.array_equal(radialize_matrix(s).entries, s.entries)
        back = phi_n(s, d_max=4)
        assert all(np.array_equal(a, b) for a, b in zip(back.blocks, rep.blocks))


class TestToeplitzCovariance:
    def test_conjugation_by_rotation(self):
        # T with symbol g(tau z) equals the rotation conjugate of T with g
        g = lambda z: z.real
        g_rot = lambda z: (1j * z).real
        mg = toeplitz_matrix(g, POLY2, 8)
        mg_rot = toeplitz_matrix(g_rot, POLY2, 8)
        phases = rotation_phases(POLY2, 8, 1j)
        conj = np.diag(1.0 / phases) @ mg.entries @ np.diag(phases)
        assert np.max(np.abs(mg_rot.entries - conj)) < 1e-10


class TestBerezinRadialInvariance:
    def test_rotating_the_argument(self):
        s = toeplitz_matrix(indicator_symbol(1.0), POLY2, 30)
        for z in (0.4 + 0.1j, -0.6 + 0.5j):
            base = berezin(POLY2, s.entries, z, 30)
            for tau in (1j, cmath.exp(1.3j)):
                rotated = berezin(POLY2, s.entries, tau * z, 30)
                assert rotated == pytest.approx(base, abs=1e-8)
