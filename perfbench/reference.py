"""Reference values and output checks for the polyfock benchmark.

Nothing here imports polyfock.  The references come from closed forms:

* the Toeplitz matrix element beta(a, d, j, k) expands the product of two
  Laguerre polynomials into exact rational coefficients, so the integral
  reduces to the moments mu_k = (1/k!) int a(sqrt t) t^k e^-t dt, which are
  known in closed form for the four CLI symbols:
  const:c -> c, gauss:s -> (1 + 1/s^2)^-(k+1), indicator:u -> P(k+1, u^2)
  (regularized incomplete gamma, as a convergent Decimal series) and
  rational -> the stable recurrence mu_k = (1 - mu_{k-1}) / k started from
  the Gompertz constant.  At n = 1 this is exactly beta(const c) = c delta,
  gauss (1+1/s^2)^-(p+1) and indicator P(p+1, u^2).  Sums run in 80-digit
  Decimal arithmetic, so the cancellation in the expansion costs nothing.
* basis functions and kernels use the explicit coefficient sums, not the
  three-term recurrence the package evaluates them with.

Tolerances are the ones the package states: 1e-9 for beta (its relative
self-check tolerance), 1e-8 where the acceptance suite uses it for dense
Toeplitz matrices and kernel series, and 1e-12 for closed-form kernels.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

BETA_TOL = 1e-9
MATRIX_TOL = 1e-8
SERIES_TOL = 1e-8
CLOSED_TOL = 1e-12
BASIS_EVAL_TOL = 1e-10

_CTX = Context(prec=80)


# ---------------------------------------------------------------- moments

@lru_cache(maxsize=None)
def gompertz() -> Decimal:
    """G = int_0^inf e^-t / (1 + t) dt = e E_1(1), from the continued
    fraction 1 / (2 - 1^2 / (4 - 2^2 / (6 - 3^2 / (8 - ...)))), evaluated
    bottom-up and deepened until the 80-digit value stops moving."""
    def depth(terms: int) -> Decimal:
        acc = Decimal(2 * terms + 2)
        for k in range(terms, 0, -1):
            acc = 2 * k - Decimal(k * k) / acc
        return 1 / acc

    with localcontext(_CTX):
        terms, prev = 256, depth(256)
        while True:
            terms *= 2
            cur = depth(terms)
            if abs(cur - prev) < Decimal("1e-75"):
                return cur
            prev = cur


def _symbol_parts(spec: str) -> tuple[str, str]:
    head, _, arg = spec.partition(":")
    if head not in ("const", "gauss", "indicator", "rational"):
        raise ValueError(f"no reference for symbol {spec!r}")
    return head, arg


@lru_cache(maxsize=64)
def moments(spec: str, kmax: int) -> tuple[Decimal, ...]:
    """mu_0 .. mu_kmax for a CLI symbol spec."""
    head, arg = _symbol_parts(spec)
    with localcontext(_CTX):
        if head == "const":
            return (Decimal(arg),) * (kmax + 1)
        if head == "gauss":
            s2 = Decimal(arg) ** 2
            q = s2 / (s2 + 1)
            return tuple(q ** (k + 1) for k in range(kmax + 1))
        if head == "rational":
            out = [gompertz()]
            for k in range(1, kmax + 1):
                out.append((1 - out[-1]) / k)
            return tuple(out)
        # indicator: P(k+1, x) = e^-x sum_{i > k} x^i / i!, every term positive
        x = Decimal(arg) ** 2
        terms = [Decimal(1)]
        for i in range(1, kmax + 1):
            terms.append(terms[-1] * x / i)
        i, t, tail = kmax + 1, terms[-1] * x / (kmax + 1), Decimal(0)
        while t > tail * Decimal("1e-85") or i <= x:
            tail += t
            i += 1
            t = t * x / i
        out = [Decimal(0)] * (kmax + 1)
        emx = (-x).exp()
        for k in range(kmax, -1, -1):
            out[k] = emx * tail
            tail += terms[k]
        return tuple(out)


def symbol_sup(spec: str) -> float:
    head, arg = _symbol_parts(spec)
    return abs(float(arg)) if head == "const" else 1.0


# ------------------------------------------------------------ beta values

@lru_cache(maxsize=None)
def laguerre_coeffs(m: int, alpha: int) -> tuple[Fraction, ...]:
    """Coefficients of L_m^alpha, ascending: (-1)^k C(m+alpha, m-k) / k!."""
    return tuple(Fraction((-1) ** k * math.comb(m + alpha, m - k),
                          math.factorial(k)) for k in range(m + 1))


@lru_cache(maxsize=None)
def _beta_terms(mj: int, mk: int, alpha: int) -> tuple[tuple[int, Decimal], ...]:
    """(moment index, weight) pairs whose moment-weighted sum is the integral
    of phi_mj^alpha phi_mk^alpha against the symbol."""
    lj, lk = laguerre_coeffs(mj, alpha), laguerre_coeffs(mk, alpha)
    prod = [Fraction(0)] * (mj + mk + 1)
    for a, ca in enumerate(lj):
        for b, cb in enumerate(lk):
            prod[a + b] += ca * cb
    norm_sq = Fraction(math.factorial(mj) * math.factorial(mk),
                       math.factorial(mj + alpha) * math.factorial(mk + alpha))
    with localcontext(_CTX):
        norm = (Decimal(norm_sq.numerator) / norm_sq.denominator).sqrt()
        out = []
        for l, c in enumerate(prod):
            exact = c * math.factorial(alpha + l)
            if exact:
                out.append((alpha + l,
                            Decimal(exact.numerator) / exact.denominator * norm))
    return tuple(out)


def beta_ref(spec: str, d: int, j: int, k: int) -> float:
    """Reference for polyfock's beta(a, d, j, k), polar-form sign included."""
    alpha, mj, mk = abs(d), min(j, j + d), min(k, k + d)
    if min(mj, mk) < 0:
        raise ValueError("indices leave the valid range")
    mu = moments(spec, alpha + mj + mk)
    with localcontext(_CTX):
        total = sum((w * mu[idx] for idx, w in _beta_terms(mj, mk, alpha)),
                    Decimal(0))
    sign = -1.0 if (mj + mk) % 2 else 1.0
    return sign * float(total)


def eigenvalue_ref(spec: str, n: int, p: int) -> float:
    """True-layer eigenvalue lambda(p) = beta(a, p-n+1, n-1, n-1)."""
    return beta_ref(spec, p - n + 1, n - 1, n - 1)


def _beta_err(value: complex, ref: float) -> float:
    """Distance to the reference in units of the beta tolerance scale."""
    return abs(value - ref) / max(1.0, abs(ref))


# ------------------------------------------------------- basis and kernels

def basis_coeffs_ref(p: int, q: int) -> tuple[dict, Fraction]:
    """Closed-form b_{p,q} = sqrt(lo!/hi!) sum_s (-1)^s C(hi,s)/(lo-s)!
    z^(p-s) zbar^(q-s): body coefficients and squared scale."""
    lo, hi = min(p, q), max(p, q)
    body = {(p - s, q - s): Fraction((-1) ** s * math.comb(hi, s),
                                     math.factorial(lo - s))
            for s in range(lo + 1)}
    return body, Fraction(math.factorial(lo), math.factorial(hi))


def basis_eval_ref(p: int, q: int, z: complex) -> tuple[complex, float]:
    """Value of b_{p,q}(z) and the sum of the term magnitudes (error scale)."""
    body, scale_sq = basis_coeffs_ref(p, q)
    scale = math.sqrt(scale_sq)
    terms = [float(c) * scale * z ** a * z.conjugate() ** b
             for (a, b), c in body.items()]
    return sum(terms), sum(abs(t) for t in terms)


def kernel_ref(n: int, kind: str, z: complex, w: complex) -> complex:
    """e^(zbar w) L_{n-1}^alpha(|w-z|^2), alpha = 1 (poly) or 0 (true)."""
    alpha = 1 if kind == "poly" else 0
    x = abs(w - z) ** 2
    lag = math.fsum(float(c) * x ** k
                    for k, c in enumerate(laguerre_coeffs(n - 1, alpha)))
    return cmath.exp(z.conjugate() * w) * lag


# ------------------------------------------------------------------ checks

class CheckFailed(Exception):
    """An output is outside its reference tolerance."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_eigenvalues(spec: str, n: int, values) -> None:
    """A true-layer eigenvalue sequence lambda(0..pmax) against beta_ref."""
    worst = 0.0
    for p, v in enumerate(values):
        worst = max(worst, _beta_err(complex(v), eigenvalue_ref(spec, n, p)))
    _require(worst <= BETA_TOL,
             f"{spec} n={n}: eigenvalue error {worst:.3g} > {BETA_TOL}")


def check_block(spec: str, n: int, d: int, block: np.ndarray) -> None:
    """Block on diagonal d: entries against beta_ref, symmetry, and the
    norm bound ||A_d||_2 <= sup|a| for the bounded CLI symbols."""
    ks = list(range(max(0, -d), n))
    _require(block.shape == (len(ks), len(ks)),
             f"{spec} n={n} d={d}: block shape {block.shape}")
    worst = 0.0
    for a, j in enumerate(ks):
        for b, k in enumerate(ks):
            worst = max(worst, _beta_err(block[a, b], beta_ref(spec, d, j, k)))
    _require(worst <= BETA_TOL,
             f"{spec} n={n} d={d}: block error {worst:.3g} > {BETA_TOL}")
    asym = float(np.max(np.abs(block - block.T)))
    _require(asym <= BETA_TOL, f"{spec} n={n} d={d}: asymmetry {asym:.3g}")
    sup = symbol_sup(spec)
    norm = float(np.linalg.norm(block, 2))
    _require(norm <= sup * (1 + BETA_TOL) + BETA_TOL,
             f"{spec} n={n} d={d}: norm {norm!r} exceeds sup {sup}")


def check_identity(entries: np.ndarray) -> None:
    err = float(np.max(np.abs(entries - np.eye(entries.shape[0]))))
    _require(err <= MATRIX_TOL,
             f"toeplitz_matrix(const 1) is {err:.3g} off the identity "
             f"(tolerance {MATRIX_TOL})")


def check_basis_coeffs(p: int, q: int, record: dict) -> None:
    body, scale_sq = basis_coeffs_ref(p, q)
    got = {(j, k): (Fraction(re), Fraction(im))
           for j, k, re, im in record["coeffs"]}
    got_scale = Fraction(record["scale_sq"])
    _require(set(got) == set(body), f"basis ({p},{q}): monomials {sorted(got)}")
    for key, c in body.items():
        re, im = got[key]
        _require(im == 0 and (re > 0) == (c > 0)
                 and re * re * got_scale == c * c * scale_sq,
                 f"basis ({p},{q}): coefficient of {key} is {re}+{im}i")


def check_basis_eval(p: int, q: int, z: complex, value: complex) -> None:
    ref, scale = basis_eval_ref(p, q, z)
    err = abs(value - ref) / max(1.0, scale)
    _require(err <= BASIS_EVAL_TOL, f"basis ({p},{q}) at {z}: error {err:.3g}")


def check_kernel(n: int, kind: str, z: complex, w: complex,
                 closed: complex | None, series: complex | None) -> None:
    ref = kernel_ref(n, kind, z, w)
    if closed is not None:
        err = abs(closed - ref) / max(1.0, abs(ref))
        _require(err <= CLOSED_TOL, f"kernel {kind} n={n}: closed error {err:.3g}")
    if series is not None:
        err = abs(series - ref)
        _require(err <= SERIES_TOL, f"kernel {kind} n={n}: series error {err:.3g}")


# ------------------------------------------------------- CLI output checks

def _flag(argv: list[str], name: str) -> str | None:
    """Value of --name in argv, accepting both '--name v' and '--name=v'."""
    for i, tok in enumerate(argv):
        if tok == name:
            return argv[i + 1]
        if tok.startswith(name + "="):
            return tok.split("=", 1)[1]
    return None


def parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j"))


def check_cli(argv: list[str], stdout: str) -> None:
    """Raise CheckFailed unless the output of a polyfock CLI call that exited
    0 is right."""
    cmd = argv[0]
    if cmd == "verify":
        lines = stdout.strip().splitlines()
        _require(len(lines) >= 2, "verify printed no checks")
        passed, total = lines[-1].split()[0].split("/")
        _require(passed == total and int(total) == len(lines) - 1
                 and all(ln.startswith("PASS") for ln in lines[:-1]),
                 f"verify: {lines[-1]}")
        return
    if cmd == "toeplitz" and "--blocks" not in argv:
        rows = list(csv.reader(io.StringIO(stdout)))
        _require(rows[0] == ["p", "re", "im"], "toeplitz: bad CSV header")
        pmax = int(_flag(argv, "--pmax"))
        _require([int(r[0]) for r in rows[1:]] == list(range(pmax + 1)),
                 "toeplitz: wrong p column")
        values = [complex(float(r[1]), float(r[2])) for r in rows[1:]]
        check_eigenvalues(_flag(argv, "--symbol"), int(_flag(argv, "--n")),
                          values)
        return
    record = json.loads(stdout)
    if cmd == "toeplitz":
        n, spec = int(_flag(argv, "--n")), _flag(argv, "--symbol")
        dmax = int(_flag(argv, "--dmax"))
        _require(record["d_min"] == -n + 1 and record["d_max"] == dmax
                 and len(record["blocks"]) == dmax + n, "toeplitz: block range")
        for d, block in zip(range(-n + 1, dmax + 1), record["blocks"]):
            arr = np.array([[complex(re, im) for re, im in row] for row in block])
            check_block(spec, n, d, arr)
        return
    if cmd == "basis":
        p, q = int(_flag(argv, "--p")), int(_flag(argv, "--q"))
        _require(record["p"] == p and record["q"] == q, "basis: indices")
        z_text = _flag(argv, "--eval")
        if z_text is not None:
            check_basis_eval(p, q, parse_complex(z_text),
                             complex(record["value_re"], record["value_im"]))
        if "--coeffs" in argv or z_text is None:
            check_basis_coeffs(p, q, record)
        return
    if cmd == "kernel":
        n, kind = int(_flag(argv, "--n")), _flag(argv, "--kind")
        z, w = parse_complex(_flag(argv, "--z")), parse_complex(_flag(argv, "--w"))
        series = None
        if _flag(argv, "--series") is not None:
            series = complex(record["series_re"], record["series_im"])
        check_kernel(n, kind, z, w, complex(record["value_re"],
                                            record["value_im"]), series)
        return
    raise CheckFailed(f"no check for command {cmd!r}")
