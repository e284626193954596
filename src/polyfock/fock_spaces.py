"""Polyanalytic and true-polyanalytic Fock spaces: reproducing kernels,
series and recursion cross-checks, evaluation bounds, and the Berezin
transform.

The kernel of the order-n polyanalytic space is e^(zbar w) L_{n-1}^(1)(|w-z|^2);
its true-polyanalytic sibling replaces L^(1) by the plain Laguerre polynomial.
The closed forms are evaluated while Re(zbar w) <= 700; past that, and
wherever a factor or their product leaves the float range, they raise a named
OverflowError.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

from .defaults import _finite_point, integers
from .laguerre import _recurrence_scalar, _times_exp, profile_point

# numpy is imported inside the array function (`berezin`) and the exact layer
# inside `kernel_recursion_check`, so the kernels and their series (the CLI's
# `kernel`) load neither
if TYPE_CHECKING:
    import numpy as np

Kind = Literal["poly", "true_poly"]

EXP_OVERFLOW_LIMIT = 700.0


@dataclass(frozen=True)
class SpaceId:
    """Either the order-n polyanalytic space or its true-polyanalytic layer."""

    kind: Kind
    n: int

    def __post_init__(self):
        if self.kind not in ("poly", "true_poly"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        [n] = integers(1, n=self.n)
        object.__setattr__(self, "n", n)

    def basis_indices(self, truncation: int) -> list[tuple[int, int]]:
        """Basis enumeration up to the truncation: p ranges over 0..P-1.

        For the full space the order is lexicographic in (q, p); the true
        layer is the single column q = n-1 ordered by p.
        """
        [truncation] = integers(1, truncation=truncation)
        if self.kind == "poly":
            return [(p, q) for q in range(self.n) for p in range(truncation)]
        return [(p, self.n - 1) for p in range(truncation)]

    def diagonal_rows(self, truncation: int) -> dict[int, list[int]]:
        """The basis-to-block layout: for each diagonal d = p - q, the
        positions in `basis_indices(truncation)` of its elements b_{d+k,k},
        ascending in k = q and so in the Laguerre degree min(p, q).

        Diagonals come in order of first appearance in the enumeration.
        """
        rows: dict[int, list[int]] = {}
        for i, (p, q) in enumerate(self.basis_indices(truncation)):
            rows.setdefault(p - q, []).append(i)
        return rows


def _checked_exp_arg(z: complex, w: complex) -> complex:
    arg = z.conjugate() * w
    if arg.real > EXP_OVERFLOW_LIMIT:
        raise OverflowError(
            f"kernel exponent Re(zbar w) = {arg.real:.1f} exceeds the limit "
            f"{EXP_OVERFLOW_LIMIT}")
    return arg


def _laguerre_factor(n: int, alpha: int, z: complex, w: complex) -> float:
    """L_{n-1}^(alpha)(|w-z|^2); a named OverflowError when it is not finite.
    L_0 = 1 at every distance, |w-z|^2 past the float range included."""
    if n == 1:
        return 1.0
    try:
        t = abs(w - z) ** 2
    except OverflowError:
        t = math.inf
    if not math.isfinite(t):
        raise OverflowError(f"kernel argument |w-z|^2 = {t} is not finite")
    lag = _recurrence_scalar(n - 1, alpha, t)
    if not math.isfinite(lag):
        raise OverflowError(f"kernel factor L_{n - 1}^({alpha})(|w-z|^2) is not "
                            f"finite at |w-z|^2 = {t:.3g}")
    return lag


def _kernel_plain(n: int, z: complex, w: complex, alpha: int) -> complex:
    [n] = integers(1, n=n)
    z, w = _finite_point(z), _finite_point(w, "w")
    arg = _checked_exp_arg(z, w)
    value = cmath.exp(arg) * _laguerre_factor(n, alpha, z, w)
    if not cmath.isfinite(value):
        raise OverflowError("kernel value overflows the float range")
    return value


def kernel_true(n: int, z: complex, w: complex) -> complex:
    """Reproducing kernel of the true-polyanalytic layer of order n."""
    return _kernel_plain(n, z, w, 0)


def kernel_poly(n: int, z: complex, w: complex) -> complex:
    """Reproducing kernel of the order-n polyanalytic space."""
    return _kernel_plain(n, z, w, 1)


def kernel_partial_sum(space: SpaceId, z: complex, w: complex,
                       truncation: int) -> complex:
    """Truncated basis series sum of conj(b(z)) b(w) over the space's basis.

    With z = r_z tau_z, w = r_w tau_w and the basis profiles
    `profile_point` = v e^s at r_z and r_w, each term is
    v_z v_w (conj(tau_z) tau_w)^(p-q) times one exponential of s_z + s_w; a
    zero product v_z v_w is an exact 0 term.  A non-finite point raises
    ValueError, and a term past the float range OverflowError.
    """
    z, w = _finite_point(z), _finite_point(w, "w")
    rz, rw = math.hypot(z.real, z.imag), math.hypot(w.real, w.imag)
    tz = z / rz if 0 < rz < math.inf else 1.0
    tw = w / rw if 0 < rw < math.inf else 1.0
    rho = tz.conjugate() * tw
    total = 0j
    for p, q in space.basis_indices(truncation):
        m, alpha = min(p, q), abs(p - q)
        vz, sz = profile_point(m, alpha, rz)
        vw, sw = profile_point(m, alpha, rw)
        if not vz * vw:
            continue
        term = _times_exp(vz * vw, sz + sw)
        if not math.isfinite(term):
            raise OverflowError(f"kernel series term b_{p},{q} at z={z}, w={w} "
                                "does not fit in a float")
        total += term * rho ** (p - q)
    return total


def kernel_recursion_check(n: int) -> bool:
    """Exact one-step check of the kernel recursion between consecutive layers.

    Writing the kernel as e^(zbar w) P(u, ubar) in the offset variable
    u = w - z, the two first-order factors of the recursion act on P as the
    creation operators of the exact layer, so the whole step reduces to exact
    polynomial arithmetic:  P_{n+1} = -(1/n) (u - d/du_bar)(ubar - d/du) P_n.
    """
    [n] = integers(1, n=n)
    if n > 8:
        raise ValueError("exact recursion check capped at order 8")
    from fractions import Fraction

    from .exact_poly import BiPolynomial, creation_adagger, creation_adagger_bar
    from .laguerre import laguerre_exact

    def layer_poly(order: int) -> BiPolynomial:
        coeffs = laguerre_exact(order - 1, 0)
        return BiPolynomial({(k, k): c for k, c in enumerate(coeffs)})

    stepped = creation_adagger_bar(creation_adagger(layer_poly(n)))
    stepped = stepped.scale(Fraction(-1, n))
    return stepped == layer_poly(n + 1)


def evaluation_bound(n: int, z: complex) -> float:
    """Sharp bound sqrt(n) e^(|z|^2 / 2) on point evaluation at z."""
    [n] = integers(1, n=n)
    half = 0.5 * abs(_finite_point(z)) ** 2
    if half > EXP_OVERFLOW_LIMIT:
        raise OverflowError(f"bound exponent |z|^2 / 2 = {half:.1f} exceeds the "
                            f"limit {EXP_OVERFLOW_LIMIT}")
    return math.sqrt(n) * math.exp(half)


_TAIL_FRACTION = 10  # last 1/10 of the enumerated diagonal feeds the tail estimate


def berezin(space: SpaceId, operator_matrix: np.ndarray, z: complex,
            truncation: int) -> complex:
    """Berezin transform (S K_z)(z) / K_z(z) at a point, from a basis matrix.

    The matrix is indexed by the space enumeration at the given truncation,
    entry [out, in] = <S b_in, b_out>.  A tail estimate on the kernel series
    warns when the truncation has not converged at this z.
    """
    import numpy as np

    from .hermite_basis import _radial_values
    z = _finite_point(z)
    indices = space.basis_indices(truncation)
    k = len(indices)
    if operator_matrix.shape != (k, k):
        raise ValueError(f"matrix shape {operator_matrix.shape} does not match "
                         f"enumeration of size {k}")
    phase = z / abs(z) if z != 0 else 1.0
    d = np.array([p - q for p, q in indices])
    values = _radial_values(indices, abs(z)) * phase ** d
    den_terms = np.abs(values) ** 2
    den = float(np.sum(den_terms))
    tail_start = truncation - max(1, truncation // _TAIL_FRACTION)
    tail_mask = np.array([p >= tail_start for p, _ in indices])
    tail = float(np.sum(den_terms[tail_mask]))
    if tail > 1e-8 * den:
        warnings.warn(f"kernel series tail at z={z} is {tail/den:.2e} of the "
                      "diagonal mass; increase the truncation", stacklevel=2)
    num = values @ operator_matrix @ values.conjugate()
    return complex(num / den)
