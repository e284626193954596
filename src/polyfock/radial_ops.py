"""Radiality tests, radialization, and the block decomposition of radial
operators at finite truncation.

A radial operator on the order-n space decomposes into one block per
diagonal d >= -n+1, the block on diagonal d having size min(n, n+d).  The
rows of the basis enumeration that form each block come from one layout,
`SpaceId.diagonal_rows`, which the extraction and the assembly share.  All
statements here are finite-truncation versions of the infinite-rank facts:
every result carries its truncation explicitly and nothing is asserted about
the part of the operator that the truncation does not cover.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .defaults import integers
from .fock_spaces import SpaceId
from .quadrature import CircleRule

#: one rational rotation plus two irrational angles; irrational angles
#: separate every pair of distinct diagonals at once.
DEFAULT_TAUS = (1j, cmath.exp(1j), cmath.exp(1j * math.sqrt(2.0)))

DEFAULT_RADIAL_TOL = 1e-10


class RadialityError(ValueError):
    """Raised when an operator fails the radial-structure precondition."""


@dataclass(frozen=True)
class BasisMatrix:
    """Dense operator matrix over a space's basis enumeration.

    Entry [out, in] = <S b_in, b_out>.  The enumeration is fixed:
    lexicographic in (q, p) for the full space, by p for the true layer, with
    p < truncation in both cases.
    """

    space: SpaceId
    truncation: int
    entries: np.ndarray

    def __post_init__(self):
        k = len(self.space.basis_indices(self.truncation))
        if self.entries.shape != (k, k):
            raise ValueError(f"entries shape {self.entries.shape}, expected ({k}, {k})")

    @classmethod
    def zeros(cls, space: SpaceId, truncation: int) -> BasisMatrix:
        k = len(space.basis_indices(truncation))
        return cls(space, truncation, np.zeros((k, k), dtype=complex))

    @cached_property
    def indices(self) -> list[tuple[int, int]]:
        return self.space.basis_indices(self.truncation)

    @cached_property
    def index_of(self) -> dict[tuple[int, int], int]:
        return {idx: i for i, idx in enumerate(self.indices)}

    @cached_property
    def diagonal_indices(self) -> np.ndarray:
        """p - q for each enumerated basis element."""
        return np.array([p - q for p, q in self.indices])


@dataclass(frozen=True)
class RadialOperatorRep:
    """Block sequence (A_d) for d = d_min, d_min+1, ..., block d of size
    min(n, n+d), from the first diagonal d_min = -n+1 of the order-n space."""

    n: int
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        [n] = integers(1, n=self.n)
        object.__setattr__(self, "n", n)
        for i, block in enumerate(self.blocks):
            d = self.d_min + i
            size = min(self.n, self.n + d)
            if block.shape != (size, size):
                raise ValueError(f"block at d={d} has shape {block.shape}, "
                                 f"expected ({size}, {size})")

    @property
    def d_min(self) -> int:
        return -self.n + 1

    @property
    def d_max(self) -> int:
        return self.d_min + len(self.blocks) - 1

    def block(self, d: int) -> np.ndarray:
        if not self.d_min <= d <= self.d_max:
            raise KeyError(f"no block stored for d={d}")
        return self.blocks[d - self.d_min]

    def sup_norm(self) -> float:
        return max(float(np.linalg.norm(b, 2)) for b in self.blocks)


@dataclass(frozen=True)
class RadialityReport:
    radial: bool
    max_commutator_norm: float


def rotation_phases(space: SpaceId, truncation: int, tau: complex) -> np.ndarray:
    """Diagonal of the rotation operator: tau^(q-p) per basis element."""
    return np.array([tau ** (q - p) for p, q in space.basis_indices(truncation)])


def radialize_matrix(s: BasisMatrix) -> BasisMatrix:
    """Exact Haar average of rotated conjugates: keeps an entry iff the input
    and output basis elements sit on the same diagonal."""
    d = s.diagonal_indices
    mask = d[:, None] == d[None, :]
    return BasisMatrix(s.space, s.truncation, np.where(mask, s.entries, 0.0))


def radialize_numeric(s: BasisMatrix, circle_rule: CircleRule) -> BasisMatrix:
    """Haar average discretized over M equispaced angles.

    Agrees with the exact radialization whenever M exceeds the largest
    diagonal gap in the truncation; smaller M aliases: entries whose diagonal
    gap is a nonzero multiple of M survive.
    """
    d = s.diagonal_indices
    gap = d[None, :] - d[:, None]
    taus = circle_rule.taus
    phase_avg = np.mean(taus[None, None, :] ** gap[:, :, None], axis=2)
    return BasisMatrix(s.space, s.truncation, s.entries * phase_avg)


def is_radial(s: BasisMatrix) -> RadialityReport:
    """Largest spectral norm of the commutators [R_tau, S] with the rotations
    DEFAULT_TAUS; radial when it is at most DEFAULT_RADIAL_TOL.

    Equivalent, at this truncation, to having zero mass off the block
    structure: rotations are diagonal with phases tau^(q-p), so an entry
    commutes with all of them iff its endpoints share a diagonal.  A
    commutator that is exactly zero, as for the Toeplitz matrix of a radial
    symbol, skips the SVD: its norm is 0.0 either way.
    """
    worst = 0.0
    for tau in DEFAULT_TAUS:
        phases = rotation_phases(s.space, s.truncation, tau)
        commutator = (phases[:, None] - phases[None, :]) * s.entries
        if np.any(commutator):
            worst = max(worst, float(np.linalg.norm(commutator, 2)))
    return RadialityReport(radial=worst <= DEFAULT_RADIAL_TOL,
                           max_commutator_norm=worst)


def _require_block_coverage(n: int, truncation: int, d_max: int) -> None:
    if d_max < -n + 1:
        raise ValueError("d_max below the first diagonal of the space")
    if d_max + n - 1 > truncation - 1:
        raise ValueError(f"truncation {truncation} covers blocks only up to "
                         f"d = {truncation - n}; got d_max = {d_max}")


def phi_n(s: BasisMatrix, d_max: int) -> RadialOperatorRep:
    """Extract the block sequence of a radial operator on the full space.

    Entry [j, k] of the block at diagonal d is <S b_{d+k,k}, b_{d+j,j}>.
    Fails when the off-block mass, the Frobenius norm of S minus its
    radialization, exceeds DEFAULT_RADIAL_TOL relative to the norm of S.
    """
    if s.space.kind != "poly":
        raise ValueError("block decomposition is defined over the full space")
    n = s.space.n
    [d_max] = integers(d_max=d_max)
    _require_block_coverage(n, s.truncation, d_max)
    total = float(np.linalg.norm(s.entries))
    # S minus its radialization, formed in the radialization's own array
    off_block = radialize_matrix(s).entries
    off = float(np.linalg.norm(np.subtract(s.entries, off_block, out=off_block)))
    if total > 0 and off > DEFAULT_RADIAL_TOL * total:
        raise RadialityError(f"off-block mass {off:.3e} exceeds "
                             f"{DEFAULT_RADIAL_TOL:.1e} of total {total:.3e}")
    rows_of = s.space.diagonal_rows(s.truncation)
    blocks = tuple(s.entries[np.ix_(rows_of[d], rows_of[d])]
                   for d in range(-n + 1, d_max + 1))
    return RadialOperatorRep(n=n, blocks=blocks)


def assemble_blocks(rep: RadialOperatorRep, truncation: int) -> BasisMatrix:
    """Embed a block sequence back into the dense basis matrix.

    Exact inverse of the extraction on the covered index range; entries on
    diagonals beyond the stored blocks are zero.  The operator norm of the
    result is the largest block norm.
    """
    space = SpaceId("poly", rep.n)
    rows_of = space.diagonal_rows(truncation)
    _require_block_coverage(rep.n, truncation, rep.d_max)
    s = BasisMatrix.zeros(space, truncation)
    for d in range(rep.d_min, rep.d_max + 1):
        s.entries[np.ix_(rows_of[d], rows_of[d])] = rep.block(d)
    return s


def finite_rank_radial(space: SpaceId, truncation: int,
                       terms: Sequence[tuple[int, complex,
                                             dict[tuple[int, int], complex],
                                             dict[tuple[int, int], complex]]]
                       ) -> BasisMatrix:
    """Sum of rank-one terms xi <., u> v with u, v on a single diagonal each.

    Each term is (d, xi, u_coeffs, v_coeffs); both vectors must be supported
    on diagonal d inside the space, which makes the result radial by
    construction.
    """
    s = BasisMatrix.zeros(space, truncation)
    index_of, k = s.index_of, len(s.indices)
    for d, xi, u_coeffs, v_coeffs in terms:
        if xi == 0:
            raise ValueError("rank-one weights must be nonzero")
        for label, coeffs in (("u", u_coeffs), ("v", v_coeffs)):
            for (p, q) in coeffs:
                if p - q != d:
                    raise RadialityError(
                        f"{label} has support at ({p}, {q}), off diagonal {d}")
                if (p, q) not in index_of:
                    raise ValueError(f"{label} index ({p}, {q}) outside the "
                                     "truncated space")
        u = np.zeros(k, dtype=complex)
        v = np.zeros(k, dtype=complex)
        for key, c in u_coeffs.items():
            u[index_of[key]] = c
        for key, c in v_coeffs.items():
            v[index_of[key]] = c
        s.entries[...] += xi * np.outer(v, u.conjugate())
    return s


def vanishing_berezin_witness(space: SpaceId, truncation: int) -> BasisMatrix:
    """The rank-two operator f -> <f, 1> z - <f, zbar> 1.

    Its Berezin transform vanishes identically although the operator is
    nonzero (it sends the constant to z) and non-radial (it moves mass
    between diagonals 0 and 1).  Needs order >= 2 so that z and zbar both
    act inside the space.
    """
    if space.kind != "poly" or space.n < 2:
        raise ValueError("witness requires the full space with order >= 2")
    s = BasisMatrix.zeros(space, truncation)
    s.entries[s.index_of[(1, 0)], s.index_of[(0, 0)]] = 1.0
    s.entries[s.index_of[(0, 0)], s.index_of[(0, 1)]] = -1.0
    return s
