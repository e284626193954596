"""Radial Toeplitz machinery: the beta integrals pairing a radial symbol with
two normalized Laguerre functions, and the resulting operator blocks and
eigenvalue sequences.

Symbols are callables in the radius r; the substitution t = r^2 and the
mapping of declared breakpoints are handled here, in one place.  All beta
values, blocks, eigenvalue sequences and matrices of radial symbols come from
one batched pass over their diagonals (`_diagonal_blocks`) on one
self-checked window rule with one log weight constant per diagonal
(`_window`); the blocks on F_n of any set of diagonals are one pass
(`toeplitz_blocks`, the one public reader, which checks the diagonals once;
`toeplitz_block` reads one diagonal through it), and so is every true-layer
sequence up to an order (`_true_layers`).  The
pass stacks adjacent diagonals with the same degrees as rows of (rows,
nodes) arrays, in bounded chunks, and returns
one (rows, K, K) array.  The chunks of a pass share one scratch buffer for
those arrays, so a long pass does not map fresh pages for every chunk; each
call has its own.  Each row's window is built once; the self-check's
first step evaluates the rules of 64 and 128 nodes on it in one pass
(`_block_once`), and from there each row doubles its rule until it converges
on its own, up to 512 nodes: `quadrature`'s size policy, which its polar
route shares.  A row is first tested against the absolute tolerance alone; the
rounding scale that may loosen it is computed only for the rows that fail
that test (`_agreed`).  The matrix of a plain callable g(z) takes
`quadrature`'s polar route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .defaults import DEFAULT_P_MAX, integers
from .laguerre import _turning_point, orthonormal_scaled
from .quadrature import (_N_MAX, _N_START, DEFAULT_ANGLES,
                         QuadratureConvergenceError, _polar_checked,
                         _polar_samples, _sampler, gauss_laguerre, legendre_rule)

# the plane and exact layers are imported inside `toeplitz_matrix`, so the
# radial route (the CLI's `toeplitz` command) never loads them
if TYPE_CHECKING:
    from .fock_spaces import SpaceId
    from .radial_ops import BasisMatrix

BETA_REL_TOL = 1e-9
BETA_ABS_TOL = 1e-12
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
    them); `limit_at_infinity` is the value a(inf) that the eigenvalues and
    blocks tend to, declared when it exists; `bound` is the sup norm,
    infinite for unbounded symbols (permitted, flagged).  The quadrature
    calls `fn` on whole arrays of radii; a callable that only takes one
    radius at a time is called once per radius instead.
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
    try:
        finite = math.isfinite(c.real) and math.isfinite(c.imag)
        bound = abs(c)
    except OverflowError:
        raise ValueError(f"constant {c} has a modulus past the float "
                         f"range") from None
    if not finite:
        raise ValueError(f"constant must be finite, got {c}")
    return RadialSymbol(lambda r: c, limit_at_infinity=c, bound=bound,
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
    if not 0 < s < math.inf:
        raise ValueError("scale must be positive" if s <= 0 else
                         f"scale must be positive and finite, got {s}")

    def fn(r):
        with np.errstate(over="ignore"):
            x = r / s
            return np.exp(-(x * x))
    return RadialSymbol(fn, limit_at_infinity=0.0, bound=1.0, name=f"gauss:{s}")


def inverse_quadratic_symbol() -> RadialSymbol:
    """a(r) = 1 / (1 + r^2)."""
    return RadialSymbol(lambda r: 1.0 / (1.0 + r * r), limit_at_infinity=0.0,
                        bound=1.0, name="rational")


def exp_decay_symbol() -> RadialSymbol:
    """a(r) = exp(-r)."""
    return RadialSymbol(lambda r: np.exp(-r), limit_at_infinity=0.0,
                        bound=1.0, name="exp_decay")


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
    then as columns (rows, 1) alpha = |d|, c and the weight's log constant.
    t^|d| e^{-t} is centred at c = |d| + 1, width sqrt(c): Legendre pieces in
    u span the turning points of phi_max(ms) (`laguerre._turning_point`)
    widened by 12 sqrt(c), split at c, at breakpoints and once per 8
    degrees; a shifted Gauss-Laguerre rule covers the rest.  No piece size
    depends on d, and every diagonal has the same number of pieces: a
    breakpoint below a diagonal's window is moved up to its lower edge, where
    its piece has zero length and zero weight; one far above it moves down
    to where the weight is below e^-40, so no piece is too long for its rule.
    Not `laguerre.profile_scaled`: its prefactor alpha log r - lgamma(alpha+1)/2
    cancels to about 1e-9 at |d| ~ 10^6; see the log constant below."""
    alpha = np.abs(ds).astype(float)
    c, m = alpha + 1.0, max(ms)
    t_hi, decay = _turning_point(m, alpha)
    mid = np.sqrt(c)
    margin = 12 * mid
    lo = np.sqrt(np.maximum(0.0, alpha * alpha / t_hi - margin))
    pieces = 1 + m // 8
    # np.linspace(lo, mid) and np.linspace(mid, hi), row by row
    steps = np.arange(pieces + 1.0)
    ends = np.array([lo, mid, np.sqrt(t_hi + margin)]).T
    spaced = (steps * ((ends[:, 1:] - ends[:, :-1]) / pieces)[:, :, None]
              + ends[:, :-1, None])
    spaced[:, :, -1] = ends[:, 1:]
    # ascending as they stand: lo <= mid <= hi
    edges = np.concatenate([spaced[:, 0], spaced[:, 1, 1:]], axis=1)
    if a.breakpoints:
        # 40 decay lengths past the widened window
        reach = np.sqrt(t_hi + margin + 40 * decay)
        edges = np.sort(np.concatenate(
            [edges, np.clip(np.array(a.breakpoints)[None, :], lo[:, None],
                            reach[:, None])], axis=1), axis=1)
    # t^alpha e^{-t} / alpha! = exp(alpha log c - c - lgamma(c)) times
    # exp(alpha log1p(s/c) - s), s = t - c.  alpha log c - c - lgamma(c)
    # cancels terms of size alpha log alpha; from c = _STIRLING_FROM on,
    # Stirling's series gives it with no cancellation
    log_c = np.array([[math.log(x)] for x in c.tolist()])
    lgam = np.array([[math.lgamma(x + 1)] for x in alpha.tolist()])
    alpha, c = alpha[:, None], c[:, None]
    const = alpha * log_c - c - lgam
    big = c >= _STIRLING_FROM
    if big.any():
        const = np.where(big, _stirling_constant(c, log_c), const)
    return edges, alpha, c, const


def _block_once(a: RadialSymbol, values: Callable[[np.ndarray], np.ndarray],
                ds: np.ndarray, ms: Sequence[int], window: tuple[np.ndarray, ...],
                sizes: Sequence[int],
                scratch: list[np.ndarray]
                ) -> tuple[list[np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """Phi diag(a) Phi^T for each diagonal d in ds, stacked along the first
    axis, at each rule size in sizes, and a function that gives the rounding
    scale |Phi| diag|a| |Phi|^T at the last size for the rows it is passed,
    until the next call on the same scratch buffer; row k of Phi is
    (-1)^k phi_k^(|d|), k in ms, times the root node weights of the `_window`
    rule of d with that many nodes per piece and in its tail.
    The nodes of all sizes lie side by side in one row, a segment per size in
    the order of one rule (its pieces, then its tail), so one recurrence, one
    symbol sample and one exponential serve them all; each size sums its own
    segment.
    The (rows, nodes) arrays r, log w, t = r^2, s = t - c and the term
    alpha log1p(s/c) are the five planes of the pass's scratch buffer
    scratch[0], which is replaced by a larger one when it is too small; log w
    becomes the log root weight with `_window`'s one log constant per row in
    four passes, and phi is formed in place; the r plane, which the symbol's
    values may be or view, is not written after sampling.  Only the blocks
    are tested for non-finite values: a non-finite integrand value reaches
    its block's sums."""
    edges, alpha, c, const = window
    rows, pieces = len(ds), edges.shape[1] - 1
    segments, start = [], 0
    for n in sizes:
        segments.append(slice(start, start + (pieces + 1) * n))
        start += (pieces + 1) * n
    if scratch[0].size < 5 * rows * start:
        scratch[0] = np.empty(5 * rows * start)
    r, log_w, t, s, term = scratch[0][:5 * rows * start].reshape(5, rows, start)
    lo = edges[:, :-1, None]
    half = 0.5 * (edges[:, 1:, None] - lo)
    length = 2.0 * half
    # tail past the last edge b: t = b + s against e^{-s}
    b2 = edges[:, -1:] ** 2
    pieces_of = []
    for n, seg in zip(sizes, segments):
        x1, w, tail_s, tail_log_w = _rule_base(n)
        end = seg.start + pieces * n
        pieces_of.append(slice(seg.start, end))
        # Legendre pieces: u = lo + half (x + 1), weight 2 u half w in t,
        # formed as u (2 half) w, the same bits while half w is a normal
        # float: the factor 2 is exact
        u = r[:, seg.start:end].reshape(rows, pieces, n)
        np.multiply(half, x1, out=u)
        u += lo
        weight = log_w[:, seg.start:end].reshape(rows, pieces, n)
        np.multiply(length, w, out=weight)
        weight *= u
        tail = r[:, end:seg.stop]
        np.add(b2, tail_s, out=tail)
        np.sqrt(tail, out=tail)
        log_w[:, end:seg.stop] = tail_log_w
    avals = values(r)
    np.multiply(r, r, out=t)
    np.subtract(t, c, out=s)
    # log 0 on zero-length pieces, t^0 = 1 at t ~ 0, and a non-finite
    # integrand or block sum, named below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for part in pieces_of:
            np.log(log_w[:, part], out=log_w[:, part])
        # row k is psi_k(t) sqrt(w t^alpha e^{-t} / alpha!); log_w becomes
        # 0.5 (log w + alpha log1p(s/c) - s + const), in place in that order
        np.divide(s, c, out=term)
        np.log1p(term, out=term)
        np.multiply(alpha, term, out=term)
        if not alpha.all():
            term[alpha[:, 0] == 0] = 0.0
        log_w += term
        log_w -= s
        log_w += const
        log_w *= 0.5
        v, log_v = orthonormal_scaled(ms, alpha, t)
        log_v += log_w
        phi = np.multiply(v, np.exp(log_v, out=log_v), out=v)
        del log_v
        weighted = phi * avals
        # (rows, degrees, nodes) @ (rows, nodes, degrees), one size at a time
        blocks = [weighted[..., seg].transpose(1, 0, 2)
                  @ phi[..., seg].transpose(1, 2, 0) for seg in segments]
    # the integrand is searched only to name what made a block non-finite
    if not all(np.isfinite(block).all() for block in blocks):
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
    phi, avals = phi[..., segments[-1]], avals[:, segments[-1]]

    def scale(rows: np.ndarray) -> np.ndarray:
        size = np.abs(phi[:, rows])
        return ((size * np.abs(avals[rows])).transpose(1, 0, 2)
                @ size.transpose(1, 2, 0))
    return blocks, scale


def _agreed(cur: np.ndarray, prev: np.ndarray,
            scale: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Per row, whether every entry of cur agrees with prev to
    atol + BETA_REL_TOL |entry|, atol = max(BETA_ABS_TOL, ROUNDING_FLOOR
    scale).  The floor can only loosen atol, so the scale of a row is
    computed only when the row fails with atol = BETA_ABS_TOL."""
    diff = np.abs(cur - prev)
    rel = BETA_REL_TOL * np.abs(cur)
    ok = (diff <= BETA_ABS_TOL + rel).all(axis=(1, 2))
    if not ok.all():
        bad = np.flatnonzero(~ok)
        atol = np.maximum(BETA_ABS_TOL, ROUNDING_FLOOR * scale(bad))
        ok[bad] = (diff[bad] <= atol + rel[bad]).all(axis=(1, 2))
    return ok


def _block_checked(a: RadialSymbol, values: Callable[[np.ndarray], np.ndarray],
                   ds: np.ndarray, ms: Sequence[int],
                   scratch: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of a stack of diagonals sharing the degrees ms, each
    self-checked by doubling its node count from _N_START, up to _N_MAX,
    until it agrees with the previous size (`_agreed`; by Cauchy-Schwarz the
    rounding floor binds only for symbols with sup |a| > 2).  The `_window`
    of every row is built once; the
    first step evaluates the first two sizes, 64 and 128 nodes, on it in one
    `_block_once` pass, and each later doubling evaluates only the rows that
    have not converged.  Every `_block_once` call works in the pass's
    scratch buffer scratch[0].  Returns the blocks and, per row, the node
    count at which it converged.
    """
    window = _window(a, ds, ms)
    n = 2 * _N_START
    (prev, cur), scale = _block_once(a, values, ds, ms, window, (_N_START, n),
                                     scratch)
    ok = _agreed(cur, prev, scale)
    if ok.all():
        return cur, np.full(len(ds), n)
    blocks = np.empty(cur.shape, dtype=complex)
    nodes = np.zeros(len(ds), dtype=int)
    todo = np.arange(len(ds))
    while True:
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
                                    tuple(part[todo] for part in window), (n,),
                                    scratch)
        ok = _agreed(cur, prev, scale)


def _diagonal_blocks(a: RadialSymbol, ds: np.ndarray,
                     degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The self-checked blocks of many diagonals in one pass.

    Row i is diagonal ds[i] with the ascending Laguerre degrees degrees[i],
    padded on the right with -1 to the common width K.  Adjacent rows with
    the same degrees run together, _CHUNK // (their number) at a time (at
    least one); every call samples the symbol through one `quadrature._sampler`.
    The chunks share one scratch buffer, which `_block_once` allocates at the
    first chunk and replaces by a larger one whenever a step needs more; no
    buffer outlives the call.
    Returns the (rows, K, K) stack of the blocks, each in the leading corner
    of its row with zeros around it, and the node count each converged at.
    """
    values = _sampler(a.fn)
    stack = np.zeros(degrees.shape + degrees.shape[-1:], dtype=complex)
    nodes = np.zeros(len(ds), dtype=int)
    starts = [0] if len(ds) else []
    starts += (np.flatnonzero((degrees[1:] != degrees[:-1]).any(axis=1))
               + 1).tolist()
    chunks = []
    for first, end in zip(starts, starts[1:] + [len(ds)]):
        ms = degrees[first][degrees[first] >= 0].tolist()
        step = max(1, _CHUNK // len(ms))
        chunks += [(slice(lo, min(lo + step, end)), ms)
                   for lo in range(first, end, step)]
    scratch = [np.empty(0)]
    for rows, ms in chunks:
        stack[rows, :len(ms), :len(ms)], nodes[rows] = _block_checked(
            a, values, ds[rows], ms, scratch)
    return stack, nodes


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
    d, j, k = integers(d=d, j=j, k=k)
    low = min(d, 0)
    if min(j, k) + low < 0:
        raise ValueError(f"indices (d={d}, j={j}, k={k}) leave the valid range")
    # entry [0, -1] of the block of the degrees min(j, j+d), min(k, k+d)
    # (blocks are symmetric)
    stack, _ = _diagonal_blocks(a, np.array([d]),
                                np.array([[low + m for m in sorted({j, k})]]))
    return complex(stack[0, 0, -1])


def lambda_seq(a: RadialSymbol, n: int,
               p_max: int = DEFAULT_P_MAX) -> EigenvalueSequence:
    """Eigenvalue sequence of the radial Toeplitz operator on the true layer:
    lambda(p) = beta(a, p-n+1, n-1, n-1), all p in one pass.

    `quadrature_meta["nodes"][p]` is the node count at which lambda(p)
    passed its self-check.
    """
    [n] = integers(1, n=n)
    [p_max] = integers(0, p_max=p_max)
    p = np.arange(p_max + 1)
    stack, nodes = _diagonal_blocks(a, p - n + 1, np.minimum(p, n - 1)[:, None])
    meta = {"n_start": _N_START, "n_max": _N_MAX, "rel_tol": BETA_REL_TOL,
            "nodes": nodes.tolist()}
    return EigenvalueSequence(n=n, values=stack[:, 0, 0], quadrature_meta=meta)


def _blocks(a: RadialSymbol, n: int, ds: Sequence[int]) -> np.ndarray:
    """The blocks on F_n of the diagonals ds (each at least -n+1) in one
    pass: a (len(ds), n, n) stack, block d in the leading min(n, n+d) corner
    of its row with zeros around it.
    The rows of diagonal d are b_{d+k,k} with Laguerre degrees k, so the
    block of d on F_m is the leading corner of its block on F_n for m <= n,
    up to the self-check: a row's rule is set by its largest degree."""
    ds = np.asarray(ds)
    ks = np.arange(n)
    return _diagonal_blocks(
        a, ds, np.where(ks < np.minimum(n, n + ds)[:, None], ks, -1))[0]


def _true_layers(a: RadialSymbol, n_max: int, p_max: int) -> np.ndarray:
    """lambda_n(p) for n = 1..n_max (row n-1) and p = 0..p_max from one
    `_blocks` pass on F_{n_max} over d = -n_max+1, ..., p_max: lambda_n(p) is
    the diagonal entry of degree min(p, n-1) in the block of d = p-n+1."""
    n = np.arange(1, n_max + 1)[:, None]
    p = np.arange(p_max + 1)
    m = np.minimum(p, n - 1)
    stack = _blocks(a, n_max, np.arange(-n_max + 1, p_max + 1))
    return stack[p - n + n_max, m, m]


def toeplitz_block(a: RadialSymbol, n: int, d: int) -> np.ndarray:
    """Block of the radial Toeplitz operator on diagonal d: the matrix of
    beta values over the indices living inside the order-n space."""
    return toeplitz_blocks(a, n, [d])[0]


def toeplitz_blocks(a: RadialSymbol, n: int,
                    d_max: int | Sequence[int]) -> list[np.ndarray]:
    """The blocks of the radial Toeplitz operator on F_n of many diagonals
    in one pass: d = -n+1, ..., d_max when d_max is an integer, or each
    diagonal of the sequence d_max, in its order, repeats included.  Block d
    is min(n, n+d) square.  Every diagonal must be at least -n+1; an integer
    d_max below that asks for no diagonal and is named as one."""
    [n] = integers(1, n=n)
    if np.ndim(d_max):
        ds = [integers(d=d)[0] for d in d_max]
        least = min(ds, default=-n + 1)
    else:
        [d_max] = integers(d_max=d_max)
        ds, least = range(-n + 1, d_max + 1), min(d_max, -n + 1)
    if least < -n + 1:
        raise ValueError(f"diagonals must be at least {-n + 1}, the first of a "
                         f"space of order {n}, got {least}")
    stack = _blocks(a, n, ds)
    return [block[:min(n, n + d), :min(n, n + d)] for d, block in zip(ds, stack)]


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
    from .radial_ops import BasisMatrix
    indices = space.basis_indices(truncation)
    if isinstance(symbol, RadialSymbol):
        rows_of = space.diagonal_rows(truncation)
        # the basis positions of each diagonal's block, padded with -1
        rows = np.full((len(rows_of), max(map(len, rows_of.values()))), -1)
        for i, block_rows in enumerate(rows_of.values()):
            rows[i, :len(block_rows)] = block_rows
        inside = rows >= 0
        degrees = np.where(inside, np.min(indices, axis=1)[rows], -1)
        stack, _ = _diagonal_blocks(symbol, np.array(list(rows_of)), degrees)
        matrix = BasisMatrix.zeros(space, truncation)
        k, i, j = np.nonzero(inside[:, :, None] & inside[:, None, :])
        matrix.entries[rows[k, i], rows[k, j]] = stack[k, i, j]
        return matrix

    from .hermite_basis import _radial_values
    d = np.array([p - q for p, q in indices])
    # 8 angles of margin for low-degree angular content of g
    m_angles = max(DEFAULT_ANGLES, int(d.max() - d.min()) + 8)
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
