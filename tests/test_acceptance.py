"""Acceptance gate: every criterion at its stated tolerance and budget,
one pass/fail line printed per criterion (run with -s to see them live)."""

import cmath
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from polyfock.exact_poly import gaussian_inner, BiPolynomial
from polyfock.fock_spaces import (SpaceId, berezin, evaluation_bound,
                                  kernel_partial_sum, kernel_poly,
                                  kernel_recursion_check, kernel_true)
from polyfock.hermite_basis import (HermiteIndex, b_coeffs, b_exact,
                                    monomial_b_inner)
from polyfock.laguerre import (laguerre_eval, laguerre_function_sup,
                               rodrigues_identity_residual)
from polyfock.quadrature import CircleRule, gauss_laguerre
from polyfock.radial_ops import (assemble_blocks, is_radial, phi_n,
                                 radialize_matrix, vanishing_berezin_witness)
from polyfock.toeplitz import (beta, const_symbol, exp_decay_symbol,
                               indicator_symbol, lambda_seq, toeplitz_matrix)

from oracles import gammp, run_verify_with_b21_corrupted


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        print(f"PASS {self.name} ({elapsed:.2f}s < {self.seconds}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"


def test_criterion_1_exact_basis_equivalence():
    budget = Budget("criterion 1: operator build == closed coefficients, p,q <= 12", 10)
    for p in range(13):
        for q in range(13):
            idx = HermiteIndex(p, q)
            assert b_exact(idx).same_polynomial(b_coeffs(idx)), (p, q)
    budget.done()


def test_criterion_2_exact_orthonormality_and_pairing():
    budget = Budget("criterion 2: exact orthonormality and monomial pairing, <= 8", 10)
    elems = {(p, q): b_exact(HermiteIndex(p, q))
             for p in range(9) for q in range(9)}
    for (p, q), f in elems.items():
        for (j, k), g in elems.items():
            raw = gaussian_inner(f.body, g.body)
            if (p, q) == (j, k):
                assert raw * f.scale_sq == 1, (p, q)
            else:
                assert raw == 0, (p, q, j, k)
    for d in range(9):
        for q in range(9 - d):
            for k in range(q + 1):
                sign, square = monomial_b_inner(d, k, q)
                if k == q:
                    assert sign == 1
                    assert square == Fraction(math.factorial(q)
                                              * math.factorial(d + q))
                else:
                    assert (sign, square) == (0, 0)
    budget.done()


def test_criterion_3_laguerre_layer():
    budget = Budget("criterion 3: Laguerre orthogonality 1e-10 and exact "
                    "Rodrigues identity", 5)
    for alpha in range(9):
        rule = gauss_laguerre(alpha, 14)
        values = np.stack([
            np.array([laguerre_eval(n, alpha, float(t))
                      for t in rule.nodes]) for n in range(13)])
        gram = (values * rule.weights[None, :]) @ values.T
        for n in range(13):
            for m in range(13):
                want = math.factorial(n + alpha) / math.factorial(n) if n == m else 0.0
                scale = math.sqrt(
                    (math.factorial(n + alpha) / math.factorial(n))
                    * (math.factorial(m + alpha) / math.factorial(m)))
                assert abs(gram[n, m] - want) <= 1e-10 * scale, (n, m, alpha)
    for n in range(6):
        for alpha in range(6):
            assert rodrigues_identity_residual(n, alpha)
    budget.done()


def test_criterion_4_kernel_suite():
    budget = Budget("criterion 4: kernels (series 1e-8, recursion exact, "
                    "rotation 1e-12, diagonal 1e-12)", 60)
    rng = np.random.default_rng(42)
    pts = [(complex(a, b), complex(c, d)) for a, b, c, d in
           rng.uniform(-math.sqrt(2), math.sqrt(2), size=(20, 4))]
    for n in range(1, 5):
        for z, w in pts:
            closed_t = kernel_true(n, z, w)
            closed_p = kernel_poly(n, z, w)
            series = kernel_partial_sum(SpaceId("true_poly", n), z, w, 200)
            assert abs(series - closed_t) < 1e-8, (n, z, w)
            series = kernel_partial_sum(SpaceId("poly", n), z, w, 200)
            assert abs(series - closed_p) < 1e-8, (n, z, w)
    for n in range(1, 6):
        assert kernel_recursion_check(n), n
    taus = (1j, cmath.exp(1j * math.sqrt(2)))
    for n in (1, 2, 4):
        for z, w in pts[:8]:
            for tau in taus:
                assert abs(kernel_poly(n, tau * z, tau * w)
                           - kernel_poly(n, z, w)) < 1e-12
                assert abs(kernel_true(n, tau * z, tau * w)
                           - kernel_true(n, z, w)) < 1e-12
            diag = kernel_poly(n, z, z)
            assert abs(diag - n * math.exp(abs(z) ** 2)) < 1e-12
            assert abs(math.sqrt(abs(diag)) - evaluation_bound(n, z)) < 1e-12
    budget.done()


SYMBOLS_5 = (indicator_symbol(1.0), exp_decay_symbol())


def test_criterion_5_radial_structure():
    budget = Budget("criterion 5: block structure of radial Toeplitz operators "
                    "at P=40", 120)
    trunc = 40
    for n in (1, 2, 3):
        space = SpaceId("poly", n)
        for a in SYMBOLS_5:
            s = toeplitz_matrix(a, space, trunc)
            rep = phi_n(s, d_max=trunc - n)
            sizes = [b.shape[0] for b in rep.blocks]
            assert sizes == list(range(1, n)) + [n] * (trunc - n + 1), (n, a.name)
            back = assemble_blocks(rep, trunc)
            # exact round trip on the covered indices
            d_vec = s.diagonal_indices
            covered = (d_vec[:, None] == d_vec[None, :]) & \
                (d_vec[:, None] <= trunc - n)
            assert np.array_equal(back.entries[covered], s.entries[covered])
            # radialization moves a Toeplitz matrix by at most its off-block mass
            rad = radialize_matrix(s)
            assert (np.linalg.norm(rad.entries - s.entries)
                    < 1e-8 * np.linalg.norm(s.entries))
            assert np.array_equal(radialize_matrix(rad).entries, rad.entries)
    witness = vanishing_berezin_witness(SpaceId("poly", 2), trunc)
    report = is_radial(witness)
    assert not report.radial
    rng = np.random.default_rng(7)
    for z in rng.uniform(-1, 1, size=(10, 2)):
        val = berezin(SpaceId("poly", 2), witness.entries, complex(*z), trunc)
        assert abs(val) < 1e-8
    budget.done()


def test_criterion_6_true_layer_diagonality():
    budget = Budget("criterion 6: diagonality on the true layer and eigenvalue "
                    "cross-checks", 60)
    trunc = 40
    for n in (1, 2, 3, 4):
        space = SpaceId("true_poly", n)
        for a in SYMBOLS_5:
            s = toeplitz_matrix(a, space, trunc)
            diag = np.diag(s.entries)
            off = np.linalg.norm(s.entries - np.diag(diag))
            assert off < 1e-8 * np.linalg.norm(s.entries), (n, a.name)
            seq = lambda_seq(a, n, trunc - 1)
            assert np.max(np.abs(diag - seq.values)) < 1e-8, (n, a.name)
    for u in (0.5, 1.0, 2.0):
        seq = lambda_seq(indicator_symbol(u), 1, 30)
        for p in range(31):
            assert abs(seq.values[p] - gammp(p + 1, u * u)) < 1e-9, (u, p)
    budget.done()


def test_criterion_7_limit_lemma():
    budget = Budget("criterion 7: block entries approach the symbol limit", 60)
    cases = ((indicator_symbol(1.0), 0.0), (const_symbol(1.0), 1.0))
    for a, v in cases:
        for j in range(3):
            for k in range(3):
                target = v if j == k else 0.0
                res_10 = abs(beta(a, 10, j, k) - target)
                res_200 = abs(beta(a, 200, j, k) - target)
                assert res_200 < 1e-5, (a.name, j, k)
                # decrease, modulo the machine-noise floor of exact cases
                assert res_200 <= res_10 or res_200 < 1e-12, (a.name, j, k)
    for m in range(4):
        for x in (1.0, 4.0):
            assert laguerre_function_sup(m, 80, x) < laguerre_function_sup(m, 40, x)
            assert laguerre_function_sup(m, 120, x) < 1e-4
    budget.done()


def test_criterion_8_quadrature_vs_exact():
    budget = Budget("criterion 8: plane quadrature vs exact inner products, "
                    "exponents <= 10", 10)
    rule = gauss_laguerre(0, 64)
    circ = CircleRule(64)
    pairs = [(p, q) for p in range(11) for q in range(11)]
    taus = circ.taus
    t = rule.nodes
    values = np.stack([
        (np.sqrt(t) ** (p + q))[:, None] * (taus ** (p - q))[None, :]
        for p, q in pairs]).reshape(len(pairs), -1)
    wg = np.repeat(rule.weights / circ.m_angles, circ.m_angles)
    gram = (values * wg[None, :]) @ values.conj().T
    for i, (p, q) in enumerate(pairs):
        for j, (jj, kk) in enumerate(pairs):
            want = complex(gaussian_inner(BiPolynomial.monomial(p, q),
                                          BiPolynomial.monomial(jj, kk)))
            scale = math.sqrt(math.factorial(p + q) * math.factorial(jj + kk))
            assert abs(gram[j, i] - want) <= 1e-10 * scale, (p, q, jj, kk)
    budget.done()


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "polyfock.cli", *args],
                          capture_output=True, text=True)


def test_criterion_9_cli_determinism():
    budget = Budget("criterion 9: byte-identical CLI reruns and exit codes", 120)
    commands = [
        ("verify", "--suite", "all"),
        ("basis", "--p", "1", "--q", "1", "--eval", "2+0i"),
        ("basis", "--p", "0", "--q", "0", "--coeffs"),
        ("basis", "--p", "2", "--q", "2", "--coeffs"),
        ("kernel", "--n", "1", "--kind", "poly", "--z", "0+0i", "--w", "0+0i"),
        ("kernel", "--n", "3", "--kind", "poly", "--z", "1+0i", "--w", "1+0i"),
        ("kernel", "--n", "2", "--kind", "true", "--z", "0+0i", "--w", "1+0i"),
        ("toeplitz", "--n", "1", "--symbol", "const:1", "--pmax", "5"),
        ("toeplitz", "--n", "1", "--symbol", "indicator:1", "--pmax", "5"),
        ("toeplitz", "--n", "2", "--symbol", "indicator:1", "--blocks",
         "--dmax", "20"),
    ]
    for cmd in commands:
        first, second = run_cli(*cmd), run_cli(*cmd)
        assert first.stdout == second.stdout, cmd
        assert first.returncode == second.returncode == 0, cmd
    assert run_cli("basis", "--q", "1").returncode == 2
    assert run_cli("toeplitz", "--n", "1", "--symbol", "bad", "--pmax",
                   "1").returncode == 1
    corrupted = run_verify_with_b21_corrupted("--suite", "basis", "--quick")
    assert corrupted.returncode == 1
    assert "FAIL  basis/operator_vs_closed_coefficients" in corrupted.stdout
    budget.done()
