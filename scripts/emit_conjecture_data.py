#!/usr/bin/env python3
"""Emit exploratory datasets around the two open questions on radial Toeplitz
algebras: eigenvalue sequences of bounded radial symbols on the square-root
oscillation scale, and the distance of operator blocks to scalar matrices.

No claim is asserted by this script; it only produces plot-ready CSV/JSON.

Usage:
    python3 scripts/emit_conjecture_data.py --outdir results --n 2 --pmax 400
"""

import argparse
import csv
import json
import math
import os

import numpy as np

from polyfock.toeplitz import (RadialSymbol, exp_decay_symbol, gaussian_symbol,
                               indicator_symbol, inverse_quadratic_symbol,
                               lambda_seq, toeplitz_blocks)


def oscillating_symbol(freq: float) -> RadialSymbol:
    """Bounded radial symbol without a limit at infinity: sin(freq * r)."""
    return RadialSymbol(lambda r: np.sin(freq * r), bound=1.0,
                        name=f"sin:{freq}")


def sqrt_scale_oscillation(values: np.ndarray, window: float) -> np.ndarray:
    """Largest |lambda(q) - lambda(p)| over |q - p| <= window * sqrt(p)."""
    out = np.zeros(len(values))
    for p in range(len(values)):
        radius = max(1, int(window * math.sqrt(p))) if p else 1
        lo, hi = max(0, p - radius), min(len(values), p + radius + 1)
        out[p] = float(np.max(np.abs(values[lo:hi] - values[p])))
    return out


def emit_eigenvalue_oscillation(outdir: str, n: int, pmax: int) -> None:
    symbols = [indicator_symbol(1.0), exp_decay_symbol(), gaussian_symbol(2.0),
               inverse_quadratic_symbol(), oscillating_symbol(1.0),
               oscillating_symbol(4.0)]
    path = os.path.join(outdir, f"eigenvalue_oscillation_n{n}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["symbol", "p", "re", "im", "sqrt_window_osc"])
        for a in symbols:
            seq = lambda_seq(a, n, pmax)
            osc = sqrt_scale_oscillation(seq.values.real, window=1.0)
            for p, (v, o) in enumerate(zip(seq.values, osc)):
                writer.writerow([a.name, p, f"{v.real:.17g}", f"{v.imag:.17g}",
                                 f"{o:.17g}"])
    print(f"wrote {path}")


def emit_block_scalar_distance(outdir: str, n: int, dmax: int) -> None:
    symbols = [indicator_symbol(1.0), exp_decay_symbol(),
               inverse_quadratic_symbol()]
    ds = sorted(d for d in {0, 1, 2, 5, 10, 20, 50, 100, dmax} if d <= dmax)
    records = []
    for a in symbols:
        v = a.limit_at_infinity
        # one pass per symbol
        for d, block in zip(ds, toeplitz_blocks(a, n, ds)):
            dist = float(np.linalg.norm(block - v * np.eye(len(block)), 2))
            records.append({"symbol": a.name, "d": d,
                            "distance_to_scalar": dist})
    path = os.path.join(outdir, f"block_scalar_distance_n{n}.json")
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--pmax", type=int, default=400)
    parser.add_argument("--dmax", type=int, default=200)
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    emit_eigenvalue_oscillation(args.outdir, args.n, args.pmax)
    emit_block_scalar_distance(args.outdir, args.n, args.dmax)


if __name__ == "__main__":
    main()
