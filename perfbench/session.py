"""One long-lived library session: runs a plan of polyfock calls in order,
timing each, then checks every output against `reference` and prints one
JSON document on stdout.

Usage (the plan is workloads.session(SEED)):
    python3 perfbench/session.py SEED TRACE(0|1)
"""

from __future__ import annotations

import json
import sys
import warnings
from time import perf_counter

_T0 = perf_counter()
import polyfock as pf  # noqa: E402  (the import is the measured set-up)
IMPORT_S = perf_counter() - _T0

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from reference import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402

# Every call goes through the package namespace, which Tracer.install
# rebinds, so the session's own calls are spans when tracing is on.


def run_op(op: dict, store: dict):
    kind = op["kind"]
    if kind == "lambda_seq":
        return pf.lambda_seq(pf.symbol_from_spec(op["symbol"]), op["n"],
                             op["p_max"]).values
    if kind == "block":
        return pf.toeplitz_block(pf.symbol_from_spec(op["symbol"]), op["n"],
                                 op["d"])
    if kind == "matrix":
        return pf.toeplitz_matrix(pf.symbol_from_spec(op["symbol"]),
                                  pf.SpaceId(op["space"], op["n"]), op["P"])
    if kind == "phi_n":
        return pf.phi_n(store[op["matrix"]], op["d_max"])
    if kind == "is_radial":
        return pf.is_radial(store[op["matrix"]])
    if kind == "kernel_series":
        return pf.kernel_partial_sum(pf.SpaceId(op["space"], op["n"]),
                                     complex(*op["z"]), complex(*op["w"]),
                                     op["terms"])
    if kind == "berezin":
        m = store[op["matrix"]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a truncation warning is a failure
            return pf.berezin(m.space, m.entries, complex(*op["z"]), m.truncation)
    if kind == "b_exact":
        return [pf.b_exact(pf.HermiteIndex(p, q))
                for p in range(op["max_index"] + 1)
                for q in range(op["max_index"] + 1)]
    raise ValueError(f"unknown op kind {kind!r}")


def _kernel_kind(space: str) -> str:
    return "poly" if space == "poly" else "true"


def check_op(op: dict, out, store: dict) -> None:
    """Raise CheckFailed unless the op's output meets its reference."""
    kind = op["kind"]
    if kind == "lambda_seq":
        ref.check_eigenvalues(op["symbol"], op["n"], out)
    elif kind == "block":
        ref.check_block(op["symbol"], op["n"], op["d"], out)
    elif kind == "matrix":
        check_matrix(op, out, store)
    elif kind == "phi_n":
        n, d_max = out.n, op["d_max"]
        sizes = [b.shape[0] for b in out.blocks]
        if sizes != list(range(1, n)) + [n] * (d_max + 1):
            raise CheckFailed(f"phi_n block sizes {sizes[:n + 1]}...")
        spec = op["symbol"]
        for d, block in zip(range(-n + 1, d_max + 1), out.blocks):
            ks = range(max(0, -d), n)
            want = np.array([[ref.beta_ref(spec, d, j, k) for k in ks] for j in ks])
            err = float(np.max(np.abs(block - want)))
            if err > ref.MATRIX_TOL:
                raise CheckFailed(f"phi_n block d={d} error {err:.3g}")
    elif kind == "is_radial":
        if not out.radial:
            raise CheckFailed(f"radial symbol reported non-radial "
                              f"({out.max_commutator_norm:.3g})")
    elif kind == "kernel_series":
        ref.check_kernel(op["n"], _kernel_kind(op["space"]), complex(*op["z"]),
                         complex(*op["w"]), None, out)
    elif kind == "berezin":
        check_berezin(op, out, store)
    elif kind == "b_exact":
        cap = op["max_index"] + 1
        for i, sp in enumerate(out):
            p, q = divmod(i, cap)
            record = {"coeffs": [[j, k, str(c.re), str(c.im)]
                                 for (j, k), c in sp.body.terms()],
                      "scale_sq": str(sp.scale_sq)}
            ref.check_basis_coeffs(p, q, record)


def check_matrix(op: dict, m, store: dict) -> None:
    entries = m.entries
    herm = float(np.max(np.abs(entries - entries.conj().T)))
    if herm > ref.MATRIX_TOL:
        raise CheckFailed(f"{op['name']}: not Hermitian ({herm:.3g})")
    if op["symbol"] == "const:1":
        ref.check_identity(entries)
        return
    # true-layer diagonal: against lambda_seq and against the reference
    n = op["n"]
    diag = np.array([entries[i, i] for i, (p, q) in
                     enumerate(m.space.basis_indices(m.truncation)) if q == n - 1])
    seq = store[op["diag_against"]]
    err = float(np.max(np.abs(diag - seq)))
    if err > ref.MATRIX_TOL:
        raise CheckFailed(f"{op['name']}: true-layer diagonal is {err:.3g} "
                          f"from lambda_seq")
    worst = max(abs(v - ref.eigenvalue_ref(op["symbol"], n, p))
                for p, v in enumerate(diag))
    if worst > ref.MATRIX_TOL:
        raise CheckFailed(f"{op['name']}: diagonal error {worst:.3g}")
    norm = float(np.linalg.norm(entries, 2))
    if norm > ref.symbol_sup(op["symbol"]) + ref.MATRIX_TOL:
        raise CheckFailed(f"{op['name']}: norm {norm!r} exceeds the symbol sup")


def check_berezin(op: dict, value: complex, store: dict) -> None:
    """Against the same quotient v^T S conj(v) / |v|^2 built from the
    closed-form basis values, and 0 < B <= sup|a| for a positive symbol."""
    m = store[op["matrix"]]
    z = complex(*op["z"])
    v = np.array([ref.basis_eval_ref(p, q, z)[0]
                  for p, q in m.space.basis_indices(m.truncation)])
    want = complex((v @ m.entries @ v.conj()) / np.sum(np.abs(v) ** 2))
    err = abs(value - want) / max(1.0, abs(want))
    if err > ref.BASIS_EVAL_TOL:
        raise CheckFailed(f"{op['name']}: error {err:.3g} against the quotient")
    sup = ref.symbol_sup(op["symbol"])
    if not (0.0 < value.real <= sup + ref.MATRIX_TOL
            and abs(value.imag) <= ref.MATRIX_TOL):
        raise CheckFailed(f"{op['name']}: value {value} outside (0, {sup}]")


def negative_control(plan: list[dict], store: dict) -> bool:
    """The checks must reject a perturbed copy of a real output."""
    for op in plan:
        if op["kind"] == "lambda_seq" and store[op["name"]] is not None:
            bad = np.array(store[op["name"]], dtype=complex)
            bad[len(bad) // 2] += 1e-7
            try:
                check_op(op, bad, store)
            except CheckFailed:
                return True
            return False
    return False


def main() -> int:
    plan, trace = workloads.session(int(sys.argv[1])), sys.argv[2] == "1"
    tracer = Tracer().install() if trace else None
    store: dict = {}
    records = []
    for i, op in enumerate(plan):
        if tracer:
            tracer.trace_id = i
        start = perf_counter()
        try:
            out, error = run_op(op, store), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        store[op["name"]] = out
        records.append({"name": op["name"], "seconds": seconds, "error": error})
    for op, rec in zip(plan, records):
        if rec["error"] is None:
            try:
                check_op(op, store[op["name"]], store)
            except CheckFailed as exc:
                rec["error"] = f"check: {exc}"
            except Exception as exc:  # e.g. the op it is checked against failed
                rec["error"] = f"unchecked: {type(exc).__name__}: {exc}"
    result = {"import_s": IMPORT_S, "ops": records,
              "negative_control": negative_control(plan, store)}
    if tracer:
        result["trace"] = tracer.export()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
