"""Radial Toeplitz machinery: the beta integrals pairing a radial symbol with
two normalized Laguerre functions, the resulting operator blocks and
eigenvalue sequences, limit diagnostics, and separation witnesses.

Symbols are callables in the radius r; the substitution t = r^2 and the
mapping of declared breakpoints are handled here, in one place.  All beta
values, blocks, eigenvalue sequences and matrices of radial symbols come from
one batched pass over their diagonals (`_diagonal_blocks`) on one
self-checked window rule with its own weight constant (`_window`), the
separation witnesses included.  The pass stacks adjacent diagonals with the
same degrees as rows of (rows, nodes) arrays, in bounded chunks, and returns
one (rows, K, K) array.  Each row's window is built once; the self-check's
first step evaluates the rules of 64 and 128 nodes on it in one pass
(`_block_once`), and from there each row doubles its rule until it converges
on its own.  The matrix of a plain callable g(z) takes `quadrature`'s polar
route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .defaults import DEFAULT_P_MAX
from .laguerre import orthonormal_scaled
from .quadrature import (QuadratureConvergenceError, _polar_checked,
                         _polar_samples, _sampler, gauss_laguerre, legendre_rule)

# the plane and exact layers are imported inside `toeplitz_matrix`, so the
# radial route (the CLI's `toeplitz` command) never loads them
if TYPE_CHECKING:
    from .fock_spaces import SpaceId
    from .radial_ops import BasisMatrix

BETA_REL_TOL = 1e-9
BETA_ABS_TOL = 1e-12
_N_START = 64
_N_MAX = 512
#: least self-check tolerance, relative to the sum of |w a phi_j phi_k|
ROUNDING_FLOOR = 1000 * float(np.finfo(float).eps)
#: c = |d| + 1 from which a row's log constant comes from Stirling's series
_STIRLING_FROM = 100


class NonFiniteIntegrandError(QuadratureConvergenceError):
    """Raised when a beta integrand is not finite at a quadrature node."""


@dataclass(frozen=True)
class RadialSymbol:
    """A radial symbol a(r) with its declared analytic metadata.

    `breakpoints` are discontinuity radii (quadrature pieces are aligned to
    them); `limit_at_infinity` enables the limit diagnostics; `bound` is the
    sup norm, infinite for unbounded symbols (permitted, flagged).  The
    quadrature calls `fn` on whole arrays of radii; a callable that only
    takes one radius at a time is called once per radius instead.
    """

    fn: Callable[[float], complex]
    breakpoints: tuple[float, ...] = ()
    limit_at_infinity: complex | None = None
    bound: float = math.inf
    name: str = "custom"

    def __post_init__(self):
        if not all(math.isfinite(u) and u > 0 for u in self.breakpoints):
            raise ValueError(f"breakpoints of {self.name} must be finite "
                             f"positive radii, got {self.breakpoints}")
        if list(self.breakpoints) != sorted(self.breakpoints):
            raise ValueError("breakpoints must be sorted")

    def __call__(self, r: float) -> complex:
        return self.fn(r)

    @property
    def unbounded(self) -> bool:
        return not math.isfinite(self.bound)


def const_symbol(c: complex) -> RadialSymbol:
    return RadialSymbol(lambda r: c, limit_at_infinity=c, bound=abs(c),
                        name=f"const:{c}")


def indicator_symbol(u: float) -> RadialSymbol:
    """Characteristic function of the open interval (0, u)."""
    if u <= 0:
        raise ValueError("indicator radius must be positive")
    return RadialSymbol(lambda r: 1.0 * ((0.0 < r) & (r < u)),
                        breakpoints=(u,), limit_at_infinity=0.0, bound=1.0,
                        name=f"indicator:{u}")


def gaussian_symbol(s: float) -> RadialSymbol:
    """a(r) = exp(-r^2 / s^2); 0 where (r/s)^2 overflows."""
    if s <= 0:
        raise ValueError("scale must be positive")

    def fn(r):
        with np.errstate(over="ignore"):
            x = r / s
            return np.exp(-(x * x))
    return RadialSymbol(fn, limit_at_infinity=0.0, bound=1.0, name=f"gauss:{s}")


def inverse_quadratic_symbol() -> RadialSymbol:
    """a(r) = 1 / (1 + r^2)."""
    return RadialSymbol(lambda r: 1.0 / (1.0 + r * r), limit_at_infinity=0.0,
                        bound=1.0, name="rational")


def inverse_linear_symbol() -> RadialSymbol:
    """a(r) = 1 / (1 + r)."""
    return RadialSymbol(lambda r: 1.0 / (1.0 + r), limit_at_infinity=0.0,
                        bound=1.0, name="inverse_linear")


def exp_decay_symbol() -> RadialSymbol:
    """a(r) = exp(-r)."""
    return RadialSymbol(lambda r: np.exp(-r), limit_at_infinity=0.0,
                        bound=1.0, name="exp_decay")


def squared_radius_symbol() -> RadialSymbol:
    """a(r) = r^2; unbounded, kept as an analytic test case."""
    return RadialSymbol(lambda r: r * r, limit_at_infinity=None,
                        bound=math.inf, name="squared_radius")


def symbol_from_spec(text: str) -> RadialSymbol:
    """Parse the CLI mini-language: const:c, indicator:u, gauss:s, rational."""
    if text == "rational":
        return inverse_quadratic_symbol()
    head, _, arg = text.partition(":")
    factory = {"const": const_symbol, "indicator": indicator_symbol,
               "gauss": gaussian_symbol}.get(head)
    if factory is None:
        raise ValueError(f"unknown symbol spec {text!r}")
    try:
        value = float(arg)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"symbol spec {text!r} needs a finite real parameter")
    try:
        return factory(value)
    except ValueError as exc:
        raise ValueError(f"symbol spec {text!r}: {exc}") from None


@dataclass(frozen=True)
class EigenvalueSequence:
    """Eigenvalues lambda(p) of a radial Toeplitz operator on the true layer."""

    n: int
    values: np.ndarray
    quadrature_meta: dict = field(default_factory=dict)


#: degrees times rows per `_block_checked` call: bounds the (degrees, rows,
#: nodes) arrays of a pass, however many diagonals it covers
_CHUNK = 64


def _stirling_constant(c: np.ndarray, log_c: np.ndarray) -> np.ndarray:
    """(c - 1) log c - c - lgamma(c) from Stirling's series,
    -log(2 pi c)/2 - 1/(12c) + 1/(360c^3) - 1/(1260c^5) + 1/(1680c^7);
    the first omitted term is below 1e-20 for c >= 100."""
    x = 1.0 / (c * c)
    return (-0.5 * (math.log(2 * math.pi) + log_c)
            - (1.0 / 12 - x * (1.0 / 360 - x * (1.0 / 1260 - x / 1680))) / c)


@lru_cache(maxsize=None)
def _rule_base(n_nodes: int) -> tuple[np.ndarray, ...]:
    """The parts of the size-n window rule that no diagonal changes: the
    Legendre nodes and weights on [0, 2] (x + 1 and w), and the tail's
    Gauss-Laguerre nodes s and the logs of its weights times e^s."""
    x1, w = legendre_rule(0.0, 2.0, n_nodes)
    tail = gauss_laguerre(0, n_nodes)
    return x1, w, tail.nodes, tail.log_weights + tail.nodes


def _window(a: RadialSymbol, ds: np.ndarray,
            ms: Sequence[int]) -> tuple[np.ndarray, ...]:
    """The part of the window rule of each diagonal d in ds that does not
    depend on the rule size: the piece edges in u = sqrt(t), one row per d,
    then as columns (rows, 1) alpha = |d|, c and the terms head, c and
    lgamma(c) of the weight's log constant (the last two 0 where Stirling's
    series gives head).
    t^|d| e^{-t} is centred at c = |d| + 1, width sqrt(c): Legendre pieces in
    u span the turning points of phi_max(ms) widened by 12 sqrt(c), split at
    c, at breakpoints and once per 8 degrees; a shifted Gauss-Laguerre rule
    covers the rest.  No piece size depends on d, and every diagonal has the
    same number of pieces: a breakpoint below a diagonal's window is moved up
    to its lower edge, where its piece has zero length and zero weight; one
    far above it moves down to where the weight is below e^-40, so no piece
    is too long for its rule.
    Not `laguerre.profile_scaled`: its prefactor alpha log r - lgamma(alpha+1)/2
    cancels to about 1e-9 at |d| ~ 10^6; see the log constant below."""
    alpha = np.abs(ds).astype(float)
    c, m = alpha + 1.0, max(ms)
    # turning points of phi_m^alpha: t_lo + t_hi = 4m + 2c, t_lo t_hi ~ alpha^2
    nu = 4 * m + 2 * c
    t_hi = 0.5 * (nu + np.sqrt(nu * nu - 4.0 * alpha * alpha))
    margin = 12 * np.sqrt(c)
    lo = np.sqrt(np.maximum(0.0, alpha * alpha / t_hi - margin))
    mid = np.sqrt(c)
    pieces = 1 + m // 8
    # np.linspace(lo, mid) and np.linspace(mid, hi), row by row
    steps = np.arange(pieces + 1.0)
    ends = np.stack([lo, mid, np.sqrt(t_hi + margin)], axis=1)
    spaced = (steps * ((ends[:, 1:] - ends[:, :-1]) / pieces)[:, :, None]
              + ends[:, :-1, None])
    spaced[:, :, -1] = ends[:, 1:]
    # 40 decay lengths: sqrt(c) at the peak, t_hi^(1/3) past a turning point
    reach = np.sqrt(t_hi + margin + 40 * np.maximum(np.sqrt(c), np.cbrt(t_hi)))
    edges = np.sort(np.concatenate(
        [spaced[:, 0], spaced[:, 1, 1:],
         np.clip(np.array(a.breakpoints)[None, :], lo[:, None], reach[:, None])],
        axis=1), axis=1)
    # t^alpha e^{-t} / alpha! = exp(alpha log c - c - lgamma(c)) times
    # exp(alpha log1p(s/c) - s), s = t - c.  alpha log c - c - lgamma(c)
    # cancels terms of size alpha log alpha; from c = _STIRLING_FROM on,
    # Stirling's series gives it with no cancellation.  It stands in the head
    # of the sum, with c and lgamma replaced by 0, so rows below it give the
    # plain expression's sum, rounding included
    log_c = np.array([[math.log(x)] for x in c.tolist()])
    lgam = np.array([[math.lgamma(x + 1)] for x in alpha.tolist()])
    alpha, c = alpha[:, None], c[:, None]
    head, c_off, lgam_off = alpha * log_c, c, lgam
    big = c >= _STIRLING_FROM
    if big.any():
        head = np.where(big, _stirling_constant(c, log_c), head)
        c_off, lgam_off = np.where(big, 0.0, c), np.where(big, 0.0, lgam)
    return edges, alpha, c, head, c_off, lgam_off


def _block_once(a: RadialSymbol, values: Callable[[np.ndarray], np.ndarray],
                ds: np.ndarray, ms: Sequence[int], window: tuple[np.ndarray, ...],
                sizes: Sequence[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """Phi diag(a) Phi^T for each diagonal d in ds, stacked along the first
    axis, at each rule size in sizes, and the rounding scale
    |Phi| diag|a| |Phi|^T at the last size; row k of Phi is
    (-1)^k phi_k^(|d|), k in ms, times the root node weights of the `_window`
    rule of d with that many nodes per piece and in its tail.
    The nodes of all sizes lie side by side in one row, a segment per size in
    the order of one rule (its pieces, then its tail), so one recurrence, one
    symbol sample and one exponential serve them all; each size sums its own
    segment."""
    edges, alpha, c, head, c_off, lgam_off = window
    rows, pieces = len(ds), edges.shape[1] - 1
    segments, start = [], 0
    for n in sizes:
        segments.append(slice(start, start + (pieces + 1) * n))
        start += (pieces + 1) * n
    r = np.empty((rows, start))
    log_w = np.empty((rows, start))
    lo = edges[:, :-1, None]
    half = 0.5 * (edges[:, 1:, None] - lo)
    # tail past the last edge b: t = b + s against e^{-s}
    b2 = edges[:, -1:] ** 2
    pieces_of = []
    for n, seg in zip(sizes, segments):
        x1, w, tail_s, tail_log_w = _rule_base(n)
        end = seg.start + pieces * n
        pieces_of.append(slice(seg.start, end))
        # Legendre pieces: u = lo + half (x + 1), weight 2 u half w in t
        u = r[:, seg.start:end].reshape(rows, pieces, n)
        np.multiply(half, x1, out=u)
        u += lo
        weight = log_w[:, seg.start:end].reshape(rows, pieces, n)
        np.multiply(u, 2.0, out=weight)
        weight *= half * w
        np.sqrt(b2 + tail_s, out=r[:, end:seg.stop])
        log_w[:, end:seg.stop] = tail_log_w
    avals = values(r)
    t = r * r
    s = t - c
    # log 0 on zero-length pieces, t^0 = 1 at t ~ 0, and a non-finite
    # integrand or block sum, named below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for part in pieces_of:
            np.log(log_w[:, part], out=log_w[:, part])
        # row k is psi_k(t) sqrt(w t^alpha e^{-t} / alpha!); log_w becomes
        # the log root weight 0.5 (log w + alpha log1p(s/c) - s + head - c
        # - lgamma), summed in place in that order, with the weight's log
        # constant from `_window`
        log_w += np.where(alpha > 0, alpha * np.log1p(s / c), 0.0)
        log_w -= s
        del s
        log_w += head
        log_w -= c_off
        log_w -= lgam_off
        log_w *= 0.5
        v, log_v = orthonormal_scaled(ms, alpha, t)
        log_v += log_w
        phi = v * np.exp(log_v, out=log_v)
        del v, log_v, log_w
        weighted = phi * avals
        # (rows, degrees, nodes) @ (rows, nodes, degrees), one size at a time
        blocks = [weighted[..., seg].transpose(1, 0, 2)
                  @ phi[..., seg].transpose(1, 2, 0) for seg in segments]
    if not (np.isfinite(weighted).all()
            and all(np.isfinite(block).all() for block in blocks)):
        for seg, block in zip(segments, blocks):
            bad = np.argwhere(~np.isfinite(weighted[..., seg]))
            if len(bad):
                k, i, j = bad[0]
                j += seg.start
                raise NonFiniteIntegrandError(
                    f"integrand not finite at t={t[i, j]} (d={ds[i]}, "
                    f"m={ms[k]}): symbol {a.name} is {complex(avals[i, j])}, "
                    f"Laguerre function value {phi[k, i, j]}")
            if not np.isfinite(block).all():
                i = np.argwhere(~np.isfinite(block))[0][0]
                raise NonFiniteIntegrandError(
                    f"block sums overflow (d={ds[i]}, {a.name})")
    size = np.abs(phi[..., segments[-1]])
    scale = ((size * np.abs(avals[:, segments[-1]])).transpose(1, 0, 2)
             @ size.transpose(1, 2, 0))
    return blocks, scale


def _block_checked(a: RadialSymbol, values: Callable[[np.ndarray], np.ndarray],
                   ds: np.ndarray, ms: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of a stack of diagonals sharing the degrees ms, each
    self-checked by doubling its node count from _N_START until every entry
    agrees with the previous size to atol + BETA_REL_TOL |entry|.  atol is
    BETA_ABS_TOL or the rounding floor ROUNDING_FLOOR * sum |w a phi_j phi_k|
    if larger, which by Cauchy-Schwarz happens only for symbols with
    sup |a| > 2.  The `_window` of every row is built once; the first step
    evaluates the first two sizes, 64 and 128 nodes, on it in one
    `_block_once` pass, and each later doubling evaluates only the rows that
    have not converged.  Returns the blocks and, per row, the node count at
    which it converged.
    """
    window = _window(a, ds, ms)
    n = 2 * _N_START
    (prev, cur), scale = _block_once(a, values, ds, ms, window, (_N_START, n))
    blocks = np.empty(cur.shape, dtype=complex)
    nodes = np.zeros(len(ds), dtype=int)
    todo = np.arange(len(ds))
    while True:
        atol = np.maximum(BETA_ABS_TOL, ROUNDING_FLOOR * scale)
        ok = (np.abs(cur - prev) <= atol + BETA_REL_TOL * np.abs(cur)).all(
            axis=(1, 2))
        blocks[todo[ok]] = cur[ok]
        nodes[todo[ok]] = n
        todo, prev = todo[~ok], cur[~ok]
        if not len(todo):
            return blocks, nodes
        if n == _N_MAX:
            raise QuadratureConvergenceError(
                f"block on diagonal d={ds[todo[0]]} for degrees {list(ms)} did "
                f"not converge up to {_N_MAX} nodes for symbol {a.name}")
        n *= 2
        (cur,), scale = _block_once(a, values, ds[todo], ms,
                                    tuple(part[todo] for part in window), (n,))


def _diagonal_blocks(a: RadialSymbol, ds: np.ndarray,
                     degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The self-checked blocks of many diagonals in one pass.

    Row i is diagonal ds[i] with the ascending Laguerre degrees degrees[i],
    padded on the right with -1 to the common width K.  Adjacent rows with
    the same degrees run together, _CHUNK // (their number) at a time (at
    least one); every call samples the symbol through one `quadrature._sampler`.
    Returns the (rows, K, K) stack of the blocks, each in the leading corner
    of its row with zeros around it, and the node count each converged at.
    """
    values = _sampler(a.fn)
    stack = np.zeros(degrees.shape + degrees.shape[-1:], dtype=complex)
    nodes = np.zeros(len(ds), dtype=int)
    starts = [0] + (np.flatnonzero((degrees[1:] != degrees[:-1]).any(axis=1))
                    + 1).tolist() if len(ds) else []
    for first, end in zip(starts, starts[1:] + [len(ds)]):
        ms = degrees[first][degrees[first] >= 0].tolist()
        step = max(1, _CHUNK // len(ms))
        for lo in range(first, end, step):
            rows = slice(lo, min(lo + step, end))
            stack[rows, :len(ms), :len(ms)], nodes[rows] = _block_checked(
                a, values, ds[rows], ms)
    return stack, nodes


def _betas(a: RadialSymbol, ds: np.ndarray, j: int, k: int) -> np.ndarray:
    """beta(a, d, j, k) for each d in ds: entry [0, -1] of the block of the
    degrees min(j, j+d), min(k, k+d) (blocks are symmetric)."""
    low = np.minimum(ds, 0)
    if len(ds) and min(j, k) + low.min() < 0:
        raise ValueError(f"indices (d={ds.min()}, j={j}, k={k}) leave the "
                         f"valid range")
    return _diagonal_blocks(a, ds, low[:, None] + sorted({j, k}))[0][:, 0, -1]


def beta(a: RadialSymbol, d: int, j: int, k: int) -> complex:
    """Matrix element of multiplication by the symbol between two basis
    elements on diagonal d: the integral of a(sqrt t) against two normalized
    Laguerre functions of order |d|, times the polar-form sign
    (-1)^(min(j, j+d) + min(k, k+d)) the basis elements carry.  The sign
    cancels on the diagonal j = k, where the values are the Toeplitz
    eigenvalues.

    Self-checked by doubling the node count until two consecutive values
    agree; raises QuadratureConvergenceError otherwise.
    """
    return complex(_betas(a, np.array([d]), j, k)[0])


def _true_layer(a: RadialSymbol, n: int,
                positions: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """lambda(p) = beta(a, p-n+1, n-1, n-1) at the given positions, in one
    pass, and the node count at which each passed its self-check."""
    if n < 1:
        raise ValueError("order must be >= 1")
    p = np.asarray(positions)
    stack, nodes = _diagonal_blocks(a, p - n + 1, np.minimum(p, n - 1)[:, None])
    return stack[:, 0, 0], nodes


def lambda_seq(a: RadialSymbol, n: int,
               p_max: int = DEFAULT_P_MAX) -> EigenvalueSequence:
    """Eigenvalue sequence of the radial Toeplitz operator on the true layer:
    lambda(p) = beta(a, p-n+1, n-1, n-1), all p in one pass.

    `quadrature_meta["nodes"][p]` is the node count at which lambda(p)
    passed its self-check.
    """
    if p_max < 0:
        raise ValueError(f"p_max must be nonnegative, got {p_max}")
    values, nodes = _true_layer(a, n, np.arange(p_max + 1))
    meta = {"n_start": _N_START, "n_max": _N_MAX, "rel_tol": BETA_REL_TOL,
            "nodes": nodes.tolist()}
    return EigenvalueSequence(n=n, values=values, quadrature_meta=meta)


def toeplitz_block(a: RadialSymbol, n: int, d: int) -> np.ndarray:
    """Block of the radial Toeplitz operator on diagonal d: the matrix of
    beta values over the indices living inside the order-n space."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if d < -n + 1:
        raise ValueError(f"diagonal {d} is empty in a space of order {n}")
    return _diagonal_blocks(a, np.array([d]),
                            np.arange(min(n, n + d))[None, :])[0][0]


def toeplitz_blocks(a: RadialSymbol, n: int, d_max: int) -> list[np.ndarray]:
    """The blocks `toeplitz_block(a, n, d)` for d = -n+1, ..., d_max, in one
    pass."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if d_max < -n + 1:
        raise ValueError(f"d_max must be at least {-n + 1}, the first diagonal "
                         f"of a space of order {n}, got {d_max}")
    ds = np.arange(-n + 1, d_max + 1)
    sizes = np.minimum(n, n + ds)
    ks = np.arange(n)
    stack, _ = _diagonal_blocks(a, ds, np.where(ks < sizes[:, None], ks, -1))
    return [stack[i, :s, :s] for i, s in enumerate(sizes.tolist())]


def toeplitz_matrix(symbol: RadialSymbol | Callable[[complex], complex],
                    space: SpaceId, truncation: int) -> BasisMatrix:
    """Dense matrix of the Toeplitz operator with symbol g on the space.

    Entries are <g b_in, b_out>.  A radial symbol's matrix is its block
    sequence: the indices on each diagonal d = p - q form one self-checked
    block (`toeplitz_block` when the diagonal is whole, a leading part of it
    near the truncation, a single eigenvalue on the true layer), and every
    entry between two diagonals is 0.  A plain callable g(z) takes the
    self-checked polar route of `quadrature`: as b_{p,q}(r tau) is tau^(p-q)
    times a radial profile, an entry sees only g's angular mode
    d_out - d_in, which one FFT over the angles gives per radial node.  The
    rule starts at 64 radial nodes and max(64, diagonal gap + 8) angles.
    """
    from .hermite_basis import _radial_values
    from .radial_ops import BasisMatrix
    indices = space.basis_indices(truncation)
    if isinstance(symbol, RadialSymbol):
        rows_of = space.diagonal_rows(truncation)
        low = np.min(indices, axis=1)
        degrees = np.full((len(rows_of), max(map(len, rows_of.values()))), -1)
        for i, rows in enumerate(rows_of.values()):
            degrees[i, :len(rows)] = low[rows]
        stack, _ = _diagonal_blocks(symbol, np.array(list(rows_of)), degrees)
        matrix = BasisMatrix.zeros(space, truncation)
        for block, rows in zip(stack, rows_of.values()):
            matrix.entries[np.ix_(rows, rows)] = block[:len(rows), :len(rows)]
        return matrix

    d = np.array([p - q for p, q in indices])
    # 8 angles of margin for low-degree angular content of g
    m_angles = max(64, int(d.max() - d.min()) + 8)
    values = _sampler(symbol)

    def once(rr, cr) -> np.ndarray:
        modes = np.fft.fft(_polar_samples(values, rr, cr), axis=1) / cr.m_angles
        # root weights in the profiles' log scale, which then never overflow
        profiles = _radial_values(indices, np.sqrt(rr.nodes), 0.5 * rr.log_weights)
        if not np.isfinite(profiles).all():
            i, j = np.argwhere(~np.isfinite(profiles))[0]
            raise NonFiniteIntegrandError(
                f"basis profile b_{indices[i][0]},{indices[i][1]} is not finite "
                f"at radial node {j} of {len(rr.nodes)}")
        mode_of = (d[:, None] - d[None, :]) % cr.m_angles
        return sum(np.outer(profile, profile) * mode[mode_of]
                   for profile, mode in zip(profiles.T, modes))
    return BasisMatrix(space, truncation, _polar_checked(once, m_angles))


@dataclass(frozen=True)
class LimitRecord:
    d: int
    beta: complex
    residual: float

    def to_json_dict(self) -> dict:
        return {"d": self.d, "beta_re": self.beta.real,
                "beta_im": self.beta.imag, "residual": self.residual}


def limit_diagnostic(a: RadialSymbol, j: int, k: int,
                     d_list: Sequence[int]) -> list[LimitRecord]:
    """Residuals |beta(a, d, j, k) - delta_{jk} v| along increasing d.

    Requires a declared limit v at infinity; the residuals witness the
    convergence of the blocks to v times the identity.
    """
    if a.limit_at_infinity is None:
        raise ValueError("symbol must declare its limit at infinity")
    target = a.limit_at_infinity if j == k else 0.0
    ds = np.sort(d_list)
    return [LimitRecord(d=d, beta=val, residual=abs(val - target))
            for d, val in zip(ds.tolist(), _betas(a, ds, j, k).tolist())]


@dataclass(frozen=True)
class SeparationResult:
    p: int
    q: float
    found: bool
    witness_u: float | None
    gap: float


SEPARATION_GAP = 1e-6


def separation_check(n: int, p: int, q: float,
                     u_grid: Sequence[float] = (0.5, 1.0, 2.0, 4.0)) -> SeparationResult:
    """Search the grid for an indicator radius whose eigenvalue separates the
    nonnegative integer positions p and q, computing only those two per
    radius; q = inf compares against the limit value 0 at u = 1."""
    if not (float(p).is_integer() and p >= 0):
        raise ValueError(f"position p must be a nonnegative integer, got {p}")
    p = int(p)
    if q != math.inf and not (float(q).is_integer() and q >= 0):
        raise ValueError(f"position q must be a nonnegative integer or inf, got {q}")
    if p == q:
        raise ValueError("positions must differ")
    if math.isinf(q):
        gap = float(_true_layer(indicator_symbol(1.0), n, (p,))[0][0].real)
        found = gap > SEPARATION_GAP
        return SeparationResult(p, q, found, 1.0 if found else None, gap)
    best_u, best_gap = None, 0.0
    for u in u_grid:
        lam_p, lam_q = _true_layer(indicator_symbol(u), n, (p, int(q)))[0].real
        gap = float(abs(lam_p - lam_q))
        if gap > best_gap:
            best_u, best_gap = u, gap
        if gap > SEPARATION_GAP:
            return SeparationResult(p=p, q=q, found=True, witness_u=u, gap=gap)
    return SeparationResult(p=p, q=q, found=False, witness_u=best_u, gap=best_gap)
