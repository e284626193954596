#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

From the root of a checkout:

    python3 perfbench/collect.py --seeds 1-10 [--workloads cli-light session]
                                 [--trace 0] [--out perfbench/baseline/x.json]

Settings (run_seconds, metric bounds) come from BENCHMARK.json.  For every
workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next to
the metric's bound.  --out writes every run's result and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(ln[len("report: "):]) for ln in lines
                  if ln.startswith("report: "))
    return {"seed": seed, "result": json.loads(lines[-1]), "report": report}


def summarize(runs: list[dict], bounds: dict) -> dict:
    """Per metric, gated ones and those run.py prints but does not gate."""
    table = [{**{k: m["value"] for k, m in r["result"]["metrics"].items()},
              **r["report"].get("ungated", {})} for r in runs]
    out = {}
    for name in table[0]:
        values = [row[name] for row in table]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "bound": bounds.get(name)}
    return out


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    doc = {"run_seconds": spec["run_seconds"], "trace": args.trace,
           "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            values = {k: f"{v['value']:.6g}"
                      for k, v in runs[-1]["result"]["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", flush=True)
        if len(runs) < 2:
            continue
        summary = summarize(runs, bounds)
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
        doc["environment"] = runs[0]["report"]["environment"]
        print(f"{workload}: correct={[r['result']['correct'] for r in runs]}")
        for name, s in summary.items():
            bound = f"  bound {s['bound']}" if s["bound"] is not None else ""
            print(f"  {name:40s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}{bound}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
