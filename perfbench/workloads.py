"""Seeded operation lists for the benchmark workloads.

The seed picks symbol parameters (gauss:s, indicator:u, const:c), evaluation
points z and w, and basis indices.  It never changes how many operations run
or their sizes (orders n, truncations P, pmax, dmax), so every seed does the
same amount of work.  All three workloads are closed loops with one client:
run.py issues one operation, waits for it, then issues the next.
"""

from __future__ import annotations

import random

# tests/test_acceptance.py::test_criterion_9_cli_determinism, minus the three
# calls that are meant to exit non-zero
CRITERION_9 = (
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
)


def _point(rng: random.Random, radius: float) -> complex:
    """Uniform in the disk, rounded to 4 decimals so argv carries it exactly."""
    while True:
        z = complex(round(rng.uniform(-radius, radius), 4),
                    round(rng.uniform(-radius, radius), 4))
        if abs(z) <= radius:
            return z


def _fmt(z: complex) -> str:
    return f"{z.real:.4f}{z.imag:+.4f}i"


def _symbol(rng: random.Random, head: str) -> str:
    """A seeded CLI symbol spec; the ranges keep every rule converging."""
    if head == "gauss":
        return f"gauss:{rng.uniform(1.0, 4.0):.4f}"
    if head == "indicator":
        return f"indicator:{rng.uniform(0.6, 2.5):.4f}"
    if head == "const":
        return f"const:{rng.uniform(0.5, 2.0):.4f}"
    return "rational"


def cli_light(seed: int) -> list[list[str]]:
    """40 small CLI calls: the criterion-9 set plus seeded small calls."""
    rng = random.Random(seed)
    ops = [list(c) for c in CRITERION_9]
    for _ in range(8):
        ops.append(["basis", "--p", str(rng.randint(0, 12)), "--q",
                    str(rng.randint(0, 12)), f"--eval={_fmt(_point(rng, 1.5))}"])
    for _ in range(6):
        ops.append(["basis", "--p", str(rng.randint(0, 12)), "--q",
                    str(rng.randint(0, 12)), "--coeffs"])
    for i in range(8):
        argv = ["kernel", "--n", str(1 + i % 4), "--kind", ("poly", "true")[i % 2],
                f"--z={_fmt(_point(rng, 1.2))}", f"--w={_fmt(_point(rng, 1.2))}"]
        ops.append(argv + (["--series", "200"] if i < 4 else []))
    for head, n in (("gauss", 1), ("indicator", 1), ("const", 3), ("rational", 2)):
        ops.append(["toeplitz", "--n", str(n), "--symbol", _symbol(rng, head),
                    "--pmax", "20"])
    for head, n in (("gauss", 2), ("indicator", 3), ("rational", 3), ("const", 2)):
        ops.append(["toeplitz", "--n", str(n), "--symbol", _symbol(rng, head),
                    "--blocks", "--dmax", "20"])
    return ops


def cli_spectra(seed: int) -> list[list[str]]:
    """Six heavy CLI calls: long eigenvalue sequences on both beta routes
    (smooth symbols absorbed, the indicator split) and two block sweeps."""
    rng = random.Random(seed)
    ops = [["toeplitz", "--n", str(n), "--symbol", _symbol(rng, head),
            "--pmax", "400"]
           for head, n in (("gauss", 1), ("rational", 2), ("const", 3),
                           ("indicator", 1))]
    ops.append(["toeplitz", "--n", "8", "--symbol", "rational", "--blocks",
                "--dmax", "100"])
    ops.append(["toeplitz", "--n", "4", "--symbol", _symbol(rng, "indicator"),
                "--blocks", "--dmax", "100"])
    return ops


def session(seed: int) -> list[dict]:
    """One library session: eigenvalue sequences and block sweeps on warm
    rules, then the dense tensor path (toeplitz_matrix) and the calls that
    consume it.  Each toeplitz_block call is its own operation, as a script
    sweeping diagonal by diagonal issues it."""
    rng = random.Random(seed)
    g1, g2, g3 = (_symbol(rng, "gauss") for _ in range(3))
    u1, u2 = _symbol(rng, "indicator"), _symbol(rng, "indicator")
    c = _symbol(rng, "const")
    plan = [{"name": f"lambda_seq.{i}.{spec}", "kind": "lambda_seq",
             "symbol": spec, "n": 2, "p_max": 200}
            for i, spec in enumerate((g1, c, u1, "rational", g2, u2))]
    plan += [{"name": f"toeplitz_block.{spec}.d{d}", "kind": "block",
              "symbol": spec, "n": n, "d": d}
             for spec, n, d_max in ((g1, 2, 100), (c, 2, 100), (u1, 2, 100),
                                    ("rational", 3, 60))
             for d in range(-n + 1, d_max + 1)]
    plan += [
        {"name": "toeplitz_matrix.const1.P40", "kind": "matrix",
         "symbol": "const:1", "space": "poly", "n": 2, "P": 40},
        {"name": "toeplitz_matrix.const1.P200", "kind": "matrix",
         "symbol": "const:1", "space": "poly", "n": 2, "P": 200},
        {"name": "lambda_seq.gauss.n3", "kind": "lambda_seq", "symbol": g3,
         "n": 3, "p_max": 119},
        {"name": "toeplitz_matrix.gauss.P120", "kind": "matrix", "symbol": g3,
         "space": "poly", "n": 3, "P": 120, "diag_against": "lambda_seq.gauss.n3"},
        {"name": "phi_n", "kind": "phi_n", "matrix": "toeplitz_matrix.gauss.P120",
         "symbol": g3, "d_max": 117},
        {"name": "is_radial", "kind": "is_radial",
         "matrix": "toeplitz_matrix.gauss.P120"},
        {"name": "kernel_partial_sum.poly2", "kind": "kernel_series",
         "space": "poly", "n": 2, "terms": 200},
        {"name": "kernel_partial_sum.true3", "kind": "kernel_series",
         "space": "true_poly", "n": 3, "terms": 200},
        {"name": "berezin.gauss.P120", "kind": "berezin",
         "matrix": "toeplitz_matrix.gauss.P120", "symbol": g3},
        {"name": "berezin.const1.P40", "kind": "berezin",
         "matrix": "toeplitz_matrix.const1.P40", "symbol": "const:1"},
        {"name": "b_exact", "kind": "b_exact", "max_index": 12},
    ]
    for op in plan:
        if op["kind"] == "kernel_series":
            op["z"], op["w"] = ([v.real, v.imag] for v in
                                (_point(rng, 1.2), _point(rng, 1.2)))
        elif op["kind"] == "berezin":
            z = _point(rng, 0.8 if op["symbol"] != "const:1" else 0.5)
            op["z"] = [z.real, z.imag]
    return plan
