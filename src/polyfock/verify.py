"""Self-verification suites behind the `verify` CLI command.

Each suite re-derives a family of identities at configured sizes and reports
one named check per identity with the measured residual.  All sampling is
deterministic (fixed seeds, fixed grids), so two runs produce byte-identical
reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from . import radial_ops
from .defaults import SUITE_NAMES
from .exact_poly import gaussian_inner
from .fock_spaces import (SpaceId, berezin, evaluation_bound, kernel_partial_sum,
                          kernel_poly, kernel_recursion_check, kernel_true)
from .hermite_basis import (HermiteIndex, b_coeffs, b_eval, b_eval_polar, b_exact,
                            monomial_b_inner)
from .laguerre import (laguerre_exact, laguerre_function_sup, laguerre_eval,
                       rodrigues_identity_residual)
from .quadrature import CircleRule, gauss_laguerre
from .radial_ops import (BasisMatrix, assemble_blocks, finite_rank_radial,
                         is_radial, phi_n, radialize_matrix, radialize_numeric,
                         vanishing_berezin_witness)
from .toeplitz import (_true_layers, beta, const_symbol, exp_decay_symbol,
                       gaussian_symbol, indicator_symbol,
                       inverse_quadratic_symbol, toeplitz_blocks,
                       toeplitz_matrix)

_SEED = 20240901


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    residual: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.suite}/{self.name}  "
                f"residual={self.residual:.17g}  tol={self.tolerance:.17g}")


def _check(suite: str, name: str, residual: float, tol: float) -> CheckResult:
    return CheckResult(suite=suite, name=name, passed=residual <= tol,
                       residual=float(residual), tolerance=tol)


def _laguerre_explicit_float(n: int, alpha: int, x: float) -> float:
    """The explicit sum of L_n^(alpha) at the exact binary value x = u / v of
    the float x, rounded once: n! v^n L_n^(alpha)(x) =
    sum_k (-1)^k binom(n+alpha, n-k) (n!/k!) u^k v^(n-k) is an integer."""
    u, v = x.as_integer_ratio()
    fact_n = math.factorial(n)
    total = sum((-1) ** k * math.comb(n + alpha, n - k)
                * (fact_n // math.factorial(k)) * u ** k * v ** (n - k)
                for k in range(n + 1))
    return float(Fraction(total, fact_n * v ** n))


def suite_laguerre(quick: bool = False) -> list[CheckResult]:
    out = []
    nmax, amax = (6, 4) if quick else (12, 8)

    worst = 0.0
    squares = {}  # (m, alpha) -> sum w L_m^2, which the normalization reads
    for alpha in range(amax + 1):
        rule = gauss_laguerre(alpha, nmax + 2)
        values = []
        for n in range(nmax + 1):
            values.append(np.array([laguerre_eval(n, alpha, float(t))
                                    for t in rule.nodes]))
        for n in range(nmax + 1):
            for m in range(n, nmax + 1):
                val = float(np.sum(rule.weights * values[n] * values[m]))
                if n == m:
                    squares[m, alpha] = val
                rhs = math.factorial(n + alpha) / math.factorial(n) if n == m else 0.0
                scale = math.sqrt(math.factorial(n + alpha) / math.factorial(n)
                                  * math.factorial(m + alpha) / math.factorial(m))
                worst = max(worst, abs(val - rhs) / scale)
    out.append(_check("laguerre", "orthogonality", worst, 1e-10))

    worst = max(abs(val * (math.factorial(m) / math.factorial(m + alpha)) - 1.0)
                for (m, alpha), val in squares.items())
    out.append(_check("laguerre", "function_normalization", worst, 1e-10))

    worst = 0.0
    nr = 12 if quick else 30
    for n in range(nr + 1):
        for alpha in (0, 3, 10):
            for x in (0.1, 1.0, 10.0, 50.0):
                exact = _laguerre_explicit_float(n, alpha, x)
                rec = laguerre_eval(n, alpha, x)
                # at exact zeros of the polynomial fall back to the term
                # magnitude sum as the relative scale
                scale = abs(exact) or float(sum(
                    abs(c) * Fraction(x) ** k for k, c in
                    enumerate(laguerre_exact(n, alpha))))
                worst = max(worst, abs(rec - exact) / scale)
    out.append(_check("laguerre", "recurrence_vs_explicit_sum", worst, 1e-12))

    decay_ok = True
    worst = 0.0
    for m in range(4):
        for x in (1.0, 4.0):
            s40 = laguerre_function_sup(m, 40, x)
            s80 = laguerre_function_sup(m, 80, x)
            s120 = laguerre_function_sup(m, 120, x)
            decay_ok = decay_ok and (s80 < s40)
            worst = max(worst, s120)
    out.append(_check("laguerre", "order_decay_monotone", 0.0 if decay_ok else 1.0, 0.5))
    out.append(_check("laguerre", "order_decay_small_at_120", worst, 1e-4))

    bad = sum(not rodrigues_identity_residual(n, alpha)
              for n in range(1, 6) for alpha in range(6))
    out.append(_check("laguerre", "rodrigues_identity_exact", float(bad), 0.5))
    return out


def suite_basis(quick: bool = False) -> list[CheckResult]:
    """The basis checks.  The first counts the b_{p,q}, p, q <= 12 (6 quick),
    whose exact body from creation operators differs from `b_coeffs`; the
    tests' negative control adds 1 to b_{2,1} there and sees it fail."""
    out = []
    pmax = 6 if quick else 12

    mismatches = 0
    for p in range(pmax + 1):
        for q in range(pmax + 1):
            idx = HermiteIndex(p, q)
            if not b_exact(idx).same_polynomial(b_coeffs(idx)):
                mismatches += 1
    out.append(_check("basis", "operator_vs_closed_coefficients",
                      float(mismatches), 0.5))

    cap = 5 if quick else 8
    bad = 0
    elems = {(p, q): b_exact(HermiteIndex(p, q))
             for p in range(cap + 1) for q in range(cap + 1)}
    for (p, q), left in elems.items():
        for (j, k), right in elems.items():
            raw = gaussian_inner(left.body, right.body)
            if (p, q) == (j, k):
                if raw * left.scale_sq != 1:
                    bad += 1
            elif not raw.is_zero:
                bad += 1
    out.append(_check("basis", "exact_orthonormality", float(bad), 0.5))

    bad = 0
    for d in range(cap + 1):
        for q in range(cap + 1 - d):
            for k in range(q + 1):
                sign, square = monomial_b_inner(d, k, q)
                if k == q:
                    expected = Fraction(math.factorial(q) * math.factorial(d + q))
                    if sign != 1 or square != expected:
                        bad += 1
                elif sign != 0 or square != 0:
                    bad += 1
    out.append(_check("basis", "monomial_pairing_closed_form", float(bad), 0.5))

    idx_cap = 8 if quick else 12
    # the polar tensor Gram matrix over p, q <= idx_cap
    gram = toeplitz_matrix(lambda z: 1.0, SpaceId("poly", idx_cap + 1),
                           idx_cap + 1).entries
    worst = float(np.max(np.abs(gram - np.eye(len(gram)))))
    out.append(_check("basis", "numeric_orthonormality", worst, 1e-10))

    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for d, m in ((0, 3), (2, 4), (-3, 2), (5, 1)):
        coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        tau = complex(np.exp(0.7j))
        radii = np.linspace(0.4, 2.5, m + 2)
        start = max(0, -d)
        def member(r):
            return sum(c * b_eval_polar(HermiteIndex(d + k, k), r, tau)
                       for c, k in zip(coeffs, range(start, start + m)))
        profile = np.array([member(r) * tau ** (-d) / r ** abs(d) for r in radii])
        vander = np.vander(radii[:m] ** 2, m, increasing=True)
        poly = np.linalg.solve(vander, profile[:m])
        fitted = np.vander(radii[m:] ** 2, m, increasing=True) @ poly
        scale = max(1.0, float(np.max(np.abs(profile))))
        worst = max(worst, float(np.max(np.abs(fitted - profile[m:]))) / scale)
    out.append(_check("basis", "polar_profile_is_polynomial", worst, 1e-10))

    worst = 0.0
    zs = (0.3 + 1.1j, -0.8 + 0.2j, 1.5 - 0.7j)
    taus = (1j, np.exp(1j), np.exp(1j * math.sqrt(2)))
    for p, q in ((0, 1), (2, 2), (3, 1), (1, 4)):
        idx = HermiteIndex(p, q)
        for z in zs:
            for tau in taus:
                tau = complex(tau)
                lhs = b_eval(idx, z / tau)
                rhs = tau ** (q - p) * b_eval(idx, z)
                worst = max(worst, abs(lhs - rhs))
    out.append(_check("basis", "rotation_eigenrelation", worst, 1e-12))
    return out


def _sample_zw(count: int, radius: float) -> list[tuple[complex, complex]]:
    rng = np.random.default_rng(_SEED)
    zs = radius * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))
    ws = radius * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))
    return [(complex(z), complex(w)) for z, w in zip(zs, ws)]


def suite_kernels(quick: bool = False) -> list[CheckResult]:
    out = []
    pairs = _sample_zw(5 if quick else 20, 2.0 / math.sqrt(2.0))
    series_p = 60 if quick else 200

    worst = 0.0
    for n in range(1, 5):
        for z, w in pairs:
            closed_t = kernel_true(n, z, w)
            closed_p = kernel_poly(n, z, w)
            st = kernel_partial_sum(SpaceId("true_poly", n), z, w, series_p)
            sp = kernel_partial_sum(SpaceId("poly", n), z, w, series_p)
            worst = max(worst, abs(st - closed_t), abs(sp - closed_p))
    out.append(_check("kernels", "series_vs_closed_form", worst, 1e-8))

    bad = sum(not kernel_recursion_check(n) for n in range(1, 6))
    out.append(_check("kernels", "recursion_exact", float(bad), 0.5))

    worst = 0.0
    taus = (1j, complex(np.exp(1j * math.sqrt(3.0))))
    for n in (1, 3):
        for z, w in pairs[:6]:
            for tau in taus:
                worst = max(
                    worst,
                    abs(kernel_poly(n, tau * z, tau * w) - kernel_poly(n, z, w)),
                    abs(kernel_true(n, tau * z, tau * w) - kernel_true(n, z, w)))
    out.append(_check("kernels", "rotation_invariance", worst, 1e-12))

    worst = 0.0
    for n in (1, 2, 4):
        for z, w in pairs[:6]:
            worst = max(
                worst,
                abs(kernel_poly(n, z, w) - kernel_poly(n, w, z).conjugate()),
                abs(kernel_true(n, z, w) - kernel_true(n, w, z).conjugate()))
    out.append(_check("kernels", "hermitian_symmetry", worst, 1e-12))

    worst = 0.0
    for n in range(1, 5):
        for z, w in pairs[:6]:
            tele = sum(kernel_true(m, z, w) for m in range(1, n + 1))
            worst = max(worst, abs(tele - kernel_poly(n, z, w)))
    out.append(_check("kernels", "telescoping_sum", worst, 1e-12))

    worst = 0.0
    for n in (1, 2, 4):
        for z, _ in pairs[:6]:
            diag = kernel_poly(n, z, z)
            worst = max(worst, abs(diag - n * math.exp(abs(z) ** 2)))
            # equality case of the evaluation bound: |K_z(z)| / ||K_z|| = bound
            worst = max(worst, abs(math.sqrt(abs(diag)) - evaluation_bound(n, z)))
    out.append(_check("kernels", "diagonal_and_sharp_bound", worst, 1e-12))

    trunc = 40 if quick else 80
    space = SpaceId("poly", 2)
    k = len(space.basis_indices(trunc))
    ident = BasisMatrix(space, trunc, np.eye(k, dtype=complex))
    witness = vanishing_berezin_witness(space, trunc)
    worst_id, worst_wit = 0.0, 0.0
    sample_zs = [0.2 + 0.1j, -0.5 + 0.4j, 1.0 - 0.3j, 0.7j, -0.9 - 0.2j,
                 0.1 - 0.8j, 1.2 + 0.5j, -1.1 + 0.9j, 0.4 + 0.4j, -0.3 - 0.6j]
    for z in sample_zs:
        worst_id = max(worst_id, abs(berezin(space, ident.entries, z, trunc) - 1.0))
        worst_wit = max(worst_wit, abs(berezin(space, witness.entries, z, trunc)))
    out.append(_check("kernels", "berezin_identity_is_one", worst_id, 1e-10))
    out.append(_check("kernels", "berezin_blind_spot_vanishes", worst_wit, 1e-8))
    witness_nonzero = float(np.max(np.abs(witness.entries)))
    out.append(_check("kernels", "berezin_blind_spot_operator_nonzero",
                      0.0 if witness_nonzero == 1.0 else 1.0, 0.5))
    return out


def _random_radial_rep(n: int, d_max: int, rng) -> radial_ops.RadialOperatorRep:
    blocks = []
    for d in range(-n + 1, d_max + 1):
        size = min(n, n + d)
        blocks.append(rng.standard_normal((size, size))
                      + 1j * rng.standard_normal((size, size)))
    return radial_ops.RadialOperatorRep(n=n, blocks=tuple(blocks))


def suite_radial(quick: bool = False) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(_SEED)
    trunc = 12 if quick else 20

    rep = _random_radial_rep(3, trunc - 3, rng)
    s = assemble_blocks(rep, trunc)
    rad = radialize_matrix(s)
    fixed_point = np.array_equal(rad.entries, s.entries)
    idempotent = np.array_equal(radialize_matrix(rad).entries, rad.entries)
    out.append(_check("radial", "radialization_fixed_point_on_radial",
                      0.0 if fixed_point and idempotent else 1.0, 0.5))
    out.append(_check("radial", "radial_report_on_assembled",
                      is_radial(s).max_commutator_norm, 1e-10))

    space = SpaceId("poly", 3)
    witness_space = SpaceId("poly", 2)
    witness = vanishing_berezin_witness(witness_space, trunc)
    rep_w = is_radial(witness)
    changed = not np.array_equal(radialize_matrix(witness).entries, witness.entries)
    out.append(_check("radial", "blind_spot_witness_nonradial",
                      0.0 if (not rep_w.radial and changed
                              and rep_w.max_commutator_norm >= math.sqrt(2) - 1e-12)
                      else 1.0, 0.5))

    m_good = CircleRule(2 * (trunc + 3))
    num = radialize_numeric(s, m_good)
    worst = float(np.max(np.abs(num.entries - rad.entries)))
    out.append(_check("radial", "numeric_radialization_matches_exact", worst, 1e-12))

    alias_space = SpaceId("poly", 1)
    alias_m = 8
    k = len(alias_space.basis_indices(alias_m + 2))
    entries = np.zeros((k, k), dtype=complex)
    entries[alias_m, 0] = 1.0  # couples diagonals 0 and alias_m = M
    alias = BasisMatrix(alias_space, alias_m + 2, entries)
    aliased = radialize_numeric(alias, CircleRule(alias_m))
    survived = abs(aliased.entries[alias_m, 0])
    killed = abs(radialize_matrix(alias).entries[alias_m, 0])
    out.append(_check("radial", "aliasing_witness_below_nyquist",
                      0.0 if survived > 0.9 and killed == 0.0 else 1.0, 0.5))

    sizes = [b.shape[0] for b in phi_n(assemble_blocks(
        _random_radial_rep(3, 4, rng), 10), 4).blocks]
    out.append(_check("radial", "block_sizes_1_to_n_then_n",
                      0.0 if sizes == [1, 2, 3, 3, 3, 3, 3] else 1.0, 0.5))

    rep2 = _random_radial_rep(2, trunc - 2, rng)
    s2 = assemble_blocks(rep2, trunc)
    round_trip = phi_n(s2, trunc - 2)
    exact = all(np.array_equal(a, b) for a, b in zip(round_trip.blocks, rep2.blocks))
    out.append(_check("radial", "phi_assemble_round_trip_exact",
                      0.0 if exact else 1.0, 0.5))
    norm_gap = abs(float(np.linalg.norm(s2.entries, 2)) - rep2.sup_norm())
    out.append(_check("radial", "assembled_norm_is_max_block_norm", norm_gap, 1e-12))

    repa = _random_radial_rep(2, trunc - 2, rng)
    repb = _random_radial_rep(2, trunc - 2, rng)
    sa, sb = assemble_blocks(repa, trunc), assemble_blocks(repb, trunc)
    prod = BasisMatrix(SpaceId("poly", 2), trunc, sa.entries @ sb.entries)
    prod_rep = phi_n(prod, trunc - 2)
    worst = max(float(np.max(np.abs(prod_rep.block(d)
                                    - repa.block(d) @ repb.block(d))))
                for d in range(-1, trunc - 2 + 1))
    out.append(_check("radial", "block_map_multiplicative", worst, 1e-12))

    g = lambda z: z.real
    g_rot = lambda z: (1j * z).real  # g after the rotation by tau = i
    t_space = SpaceId("poly", 2)
    t_trunc = 8 if quick else 12
    mg = toeplitz_matrix(g, t_space, t_trunc)
    mg_rot = toeplitz_matrix(g_rot, t_space, t_trunc)
    phases = radial_ops.rotation_phases(t_space, t_trunc, 1j)
    conjugated = np.diag(1.0 / phases) @ mg.entries @ np.diag(phases)
    worst = float(np.max(np.abs(mg_rot.entries - conjugated)))
    out.append(_check("radial", "toeplitz_rotation_covariance", worst, 1e-10))

    proj = finite_rank_radial(t_space, t_trunc,
                              [(0, 1.0, {(0, 0): 1.0}, {(0, 0): 1.0})])
    ok = is_radial(proj).radial and abs(proj.entries[0, 0] - 1.0) < 1e-15
    mixed_rejected = False
    try:
        finite_rank_radial(t_space, t_trunc,
                           [(0, 1.0, {(0, 0): 1.0}, {(1, 0): 1.0})])
    except radial_ops.RadialityError:
        mixed_rejected = True
    out.append(_check("radial", "finite_rank_constructor",
                      0.0 if ok and mixed_rejected else 1.0, 0.5))

    ber_trunc = 24 if quick else 40
    ind_m = toeplitz_matrix(indicator_symbol(1.0), t_space, ber_trunc)
    worst = 0.0
    for z in (0.5 + 0.2j, -0.8 + 0.6j, 1.1j):
        base = berezin(t_space, ind_m.entries, z, ber_trunc)
        for tau in (1j, complex(np.exp(0.9j))):
            worst = max(worst, abs(berezin(t_space, ind_m.entries, tau * z,
                                           ber_trunc) - base))
    out.append(_check("radial", "berezin_of_radial_is_rotation_invariant",
                      worst, 1e-8))
    return out


def _indicator_eigenvalue(u: float, n: int, p: int) -> float:
    """Exact eigenvalue lambda(p) of indicator:u on the true layer of order n.

    With U = u^2, m = min(p, n-1), alpha = |p-n+1| and (m!/(m+alpha)!)
    (L_m^alpha)^2 = sum_k c_k t^k, lambda(p) = sum_k c_k (alpha+k)!
    P(alpha+k+1, U) = A - B e^-U, A and B rational (P(p+1, U) at n = 1).
    Only e^-U and A - B e^-U are rounded, at 60 digits: a float sum cancels.
    """
    m, alpha = min(p, n - 1), abs(p - n + 1)
    ell = laguerre_exact(m, alpha)
    norm = Fraction(math.factorial(m), math.factorial(m + alpha))
    big_u = Fraction(u) ** 2
    # U^j / j! and its partial sums, times scale = denominator(U)^top top!
    top, (num, den) = alpha + 2 * m, big_u.as_integer_ratio()
    scale = den ** top * math.factorial(top)
    terms = [scale]
    for j in range(1, top + 1):
        terms.append(terms[-1] * num // (den * j))
    partial = list(itertools.accumulate(terms))
    a = b = Fraction(0)
    for i, j in itertools.product(range(m + 1), repeat=2):
        weight = norm * ell[i] * ell[j] * math.factorial(alpha + i + j)
        a += weight
        b += weight * partial[alpha + i + j]
    b /= scale
    with localcontext() as ctx:
        ctx.prec = 60
        a, b, big_u = (Decimal(x.numerator) / x.denominator for x in (a, b, big_u))
        return float(a - b * (-big_u).exp())


def suite_toeplitz(quick: bool = False) -> list[CheckResult]:
    out = []
    # a line reads a symbol's blocks, or its true-layer eigenvalues at every
    # order up to N, from one pass on F_N (`toeplitz_blocks`, `_true_layers`)
    blocks = toeplitz_blocks(const_symbol(1.0), 3, [0, 5, 40, 200])
    worst = float(np.max(np.abs(np.array(blocks) - np.eye(3))))
    out.append(_check("toeplitz", "beta_of_one_is_delta", worst, 1e-10))

    worst = abs(beta(indicator_symbol(1.0), 0, 0, 0) - (1 - math.exp(-1)))
    out.append(_check("toeplitz", "beta_indicator_closed_form", worst, 1e-10))

    # the indicator eigenvalues that the gamma, monotonicity and separation
    # lines read: ind[u, n] = lambda_n, n <= 3, one pass per u
    pcap = 10 if quick else 30
    ind = {(u, n): values for u in (0.5, 1.0, 2.0) for n, values in
           enumerate(_true_layers(indicator_symbol(u), 3, pcap), 1)}
    worst = max(abs(ind[u, n][p] - _indicator_eigenvalue(u, n, p))
                for u in (0.5, 1.0, 2.0) for n in (1, 2)
                for p in range(pcap + 1))
    out.append(_check("toeplitz", "indicator_eigenvalues_vs_gamma", worst, 1e-9))

    mono_ok = all(ind[1.0, n][p].real < ind[2.0, n][p].real
                  for n in (1, 3) for p in (0, 2, 7))
    positive = all(ind[u, 2][p].real > 0 for u in (0.5, 1.0) for p in (0, 1, 5))
    out.append(_check("toeplitz", "indicator_monotone_positive",
                      0.0 if mono_ok and positive else 1.0, 0.5))

    symbols = [indicator_symbol(1.0), exp_decay_symbol(),
               inverse_quadratic_symbol()]
    # (matrix symbol, sequence symbol): a radial symbol's matrix takes one
    # degree per diagonal, its sequences the blocks on F_{n_max}, so the two
    # windows differ; the gaussian's matrix takes the polar route
    pairs = [(a, a) for a in symbols] + [
        (lambda z: np.exp(-np.abs(z) ** 2 / 4.0), gaussian_symbol(2.0))]
    trunc = 20 if quick else 40
    n_max = 2 if quick else 4
    worst_off, worst_diag, worst_excess = 0.0, 0.0, 0.0
    for g, a in pairs:
        lam = _true_layers(a, n_max, trunc - 1)
        worst_excess = max(worst_excess, float(np.max(np.abs(lam))) - a.bound)
        for n, values in enumerate(lam, 1):
            m = toeplitz_matrix(g, SpaceId("true_poly", n), trunc)
            diag = np.diag(m.entries)
            off = float(np.linalg.norm(m.entries - np.diag(diag)))
            worst_off = max(worst_off, off / float(np.linalg.norm(m.entries)))
            worst_diag = max(worst_diag, float(np.max(np.abs(diag - values))))
    out.append(_check("toeplitz", "true_layer_diagonality", worst_off, 1e-8))
    out.append(_check("toeplitz", "eigenvalues_match_matrix_diagonal",
                      worst_diag, 1e-8))
    out.append(_check("toeplitz", "eigenvalue_contractivity", worst_excess, 1e-10))

    pmax = 100 if quick else 200
    worst = 0.0
    for a in (indicator_symbol(1.0), exp_decay_symbol(), const_symbol(1.0)):
        tail = beta(a, pmax, 0, 0)
        worst = max(worst, abs(tail - a.limit_at_infinity))
    out.append(_check("toeplitz", "eigenvalue_limit_at_infinity", worst, 1e-4))

    # 1/(1+r^2) approaches its limit only like 1/d; assert decrease, not size
    slow = inverse_quadratic_symbol()
    res = [abs(block[0, 0])
           for block in toeplitz_blocks(slow, 1, [pmax // 4, pmax // 2, pmax])]
    decreasing = res[0] > res[1] > res[2]
    out.append(_check("toeplitz", "slow_symbol_limit_monotone",
                      0.0 if decreasing else 1.0, 0.5))

    ok = True
    for a, v in ((indicator_symbol(1.0), 0.0), (const_symbol(1.0), 1.0)):
        blocks = toeplitz_blocks(a, 2, [10, 50, 200])
        norms = [float(np.linalg.norm(block - v * np.eye(2), 2))
                 for block in blocks]
        corners = [abs(block[0, 0] - v) for block in blocks]
        ok = (ok and norms[2] < 1e-5 and norms[2] <= norms[0] + 1e-12
              and corners[2] < 1e-6 and corners[2] <= corners[0] + 1e-12)
    out.append(_check("toeplitz", "block_limit_toward_scalar",
                      0.0 if ok else 1.0, 0.5))

    # witnesses that indicators separate points of N and N against infinity
    # (where lambda tends to 0), each with a gap above 1e-6: lambda_2(0) vs
    # lambda_2(5) at some u, and lambda_3(2) at u = 1
    gap = abs(ind[1.0, 1][0].real - ind[1.0, 1][1].real)
    worst = abs(gap - math.exp(-1))
    found = (any(abs(ind[u, 2][0].real - ind[u, 2][5].real) > 1e-6
                 for u in (0.5, 1.0, 2.0))
             and ind[1.0, 3][2].real > 1e-6)
    out.append(_check("toeplitz", "indicator_separation_witnesses",
                      worst if found else 1.0, 1e-9))
    return out


_SUITES = {
    "laguerre": suite_laguerre,
    "basis": suite_basis,
    "kernels": suite_kernels,
    "radial": suite_radial,
    "toeplitz": suite_toeplitz,
}


def run_suites(names: list[str], quick: bool = False) -> list[CheckResult]:
    """Run the named suites of `_SUITES`, in the order of `SUITE_NAMES`, and
    collect their results; other names are ignored, and a list that names
    no suite raises ValueError."""
    if not set(names) & set(SUITE_NAMES):
        raise ValueError(f"no known suite among {names}")
    return [result for name in SUITE_NAMES if name in names
            for result in _SUITES[name](quick=quick)]
