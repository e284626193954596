#!/usr/bin/env python3
"""polyfock benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a polyfock checkout (the program is imported from
./src, nothing needs building):

    python3 perfbench/run.py --workload cli-light --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py; all are closed loops with one client, which
issues one operation and waits for it before the next):

* cli-light   - 40 fresh `python -m polyfock.cli` processes: the criterion-9
                command set plus seeded small basis/kernel/toeplitz calls.
* cli-spectra - 6 heavy fresh CLI processes: pmax-400 eigenvalue sequences
                and dmax-100 block sweeps, every Gauss-Laguerre rule cold.
* session     - one library process per pass running a fixed plan of calls:
                warm-rule sequences and block sweeps (one operation per
                toeplitz_block call), then the dense toeplitz_matrix path and
                the calls that consume its output.

A run repeats whole passes of the workload's operation list while another
pass still fits in --seconds (at least one pass).  The CLI workloads then
spend what is left of --seconds on one more, partial pass: each operation
runs again if its first time still fits.  Every output is checked against
reference.py; an operation fails if it exits non-zero, raises, times out or
is outside its reference tolerance.

--trace 0 prints the end-to-end metrics (op_p50_s and op_p75_s are printed
but left out of the result line, so they are not gated; see UNGATED):
  setup_s      median of 8 fresh processes doing the workload's import
               (`import polyfock.cli` for the CLI workloads, `import
               polyfock` for the session), spawn to exit; 4 run before the
               timed passes and 4 after, as host speed drifts over seconds
  wall_s       wall time of the whole operation list: the sum over the
               list of each operation's wall time (its median over the
               passes that ran it)
  op_p50_s     median of the same per-operation times; in the session each
               toeplitz_block call is an operation, so it has 386, and
               p75 has 96 above it
  op_p75_s     75th percentile of the same per-operation times
  peak_rss_mb  median over the operation processes (the session: over the
               passes) of each one's own peak RSS, from wait4; the largest
               is reported beside it, ungated, since on cli-light it is the
               verify call, whose thread pool peaks anywhere from 115 to
               160 MB with the scheduling.  Linux carries a parent's peak
               RSS over fork and exec, so no child reads below run.py's
               own peak, which the report gives as runner_rss_mb
  pass_rate    1 - fail_rate, where fail_rate = failed / attempted
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics, with spans recorded by tracing.py around each module's public
functions (written to .perfbench/ when the run ends), and the import
breakdown from `python -X importtime`.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
`correct` is false when an operation fails that is not a registered known
defect (KNOWN_DEFECTS), or when the checks accept a perturbed output.
Known defects still count in `failed` and in pass_rate.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent

SETUP_RUNS = 4  # before the timed passes, and as many after
IMPORTTIME_RUNS = 3
OP_TIMEOUT_S = 60
SESSION_TIMEOUT_S = 120

#: failures the benchmark expects on the current code; they are counted,
#: reported by name, and do not make the run incorrect
KNOWN_DEFECTS = {
    "toeplitz_matrix.const1.P200":
        "toeplitz_matrix uses a fixed 64-node radial rule with no self-check; "
        "at P=200 it is about 1.4e-3 off the identity",
}

ENTRY = {"cli-light": "polyfock.cli", "cli-spectra": "polyfock.cli",
         "session": "polyfock"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "op_p75_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}

#: printed, but kept out of the result line and BENCHMARK.json.  On the
#: shared 2-vCPU Xeon VM of the committed baseline, speed flips between two
#: states every few seconds; ms-scale interpreter-bound calls run 1.5-1.9x
#: faster in the fast one, the dense numpy path ~1.3x.  The session's
#: percentiles fall on toeplitz_block calls: in sets of ten seeds they
#: spread 39-49% of their median, and their medians moved 32% between two
#: sets, where the session's wall_s spread 14-20%.
UNGATED = ("op_p50_s", "op_p75_s")


@dataclass
class Pass:
    """Operation records of one pass, plus what its processes reported."""

    records: list[dict]
    rss_mb: list[float] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    negative_control: bool | None = None
    import_s: float | None = None

    @property
    def wall(self) -> float:
        return sum(r["seconds"] for r in self.records)


def child_env(root: Path) -> dict:
    """Environment of every child: polyfock from ./src, and one BLAS thread.

    With two vCPUs shared with other machines, a two-thread BLAS product
    stalls whenever the second vCPU is busy (toeplitz_matrix at P=40 took
    0.03 s or 0.55 s at random), so dense products run on the client's core.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _cli_record(argv: list[str], rc: int, stdout: str, stderr: str,
                seconds: float) -> dict:
    rec = {"name": " ".join(argv), "seconds": seconds, "error": None}
    if rc != 0:
        detail = (stderr.strip() or stdout.strip())[-300:]
        rec["error"] = f"exit {rc}: {detail}"
        return rec
    try:
        reference.check_cli(argv, stdout)
    except (reference.CheckFailed, ValueError, KeyError, IndexError,
            TypeError) as exc:
        rec["error"] = f"check: {exc}"
    return rec


def cli_negative_control(argv: list[str], stdout: str) -> bool:
    """Shift one eigenvalue of a checked CSV output by 1e-7; the check must
    reject it."""
    lines = stdout.splitlines()
    mid = len(lines) // 2 or 1
    p, re, im = lines[mid].split(",")
    lines[mid] = f"{p},{float(re) + 1e-7!r},{im}"
    try:
        reference.check_cli(argv, "\n".join(lines) + "\n")
    except reference.CheckFailed:
        return True
    return False


@dataclass
class Child:
    rc: int | None  # None: killed at the timeout
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float


def run_child(cmd: list[str], root: Path, env: dict, timeout: float) -> Child:
    """Run cmd to completion, as subprocess.run would, and also return the
    child's own peak RSS.  getrusage only gives the largest over all
    children so far, so the child is reaped here with wait4."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=root)
    out = {proc.stdout: bytearray(), proc.stderr: bytearray()}
    killed = False
    with selectors.DefaultSelector() as sel:
        for pipe in out:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = start + timeout - perf_counter()
            if left <= 0:
                proc.kill()
                killed = True
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    out[key.fileobj] += data
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here
    proc.stdout.close()
    proc.stderr.close()
    return Child(None if killed else proc.returncode,
                 out[proc.stdout].decode(), out[proc.stderr].decode(),
                 seconds, usage.ru_maxrss / 1024)


def cli_pass(ops: list[list[str]], root: Path, env: dict, traced: bool,
             fits=lambda index: True) -> Pass:
    """Run the operations in order, skipping those for which fits(index) is
    false."""
    result = Pass(records=[])
    for index, argv in enumerate(ops):
        if not fits(index):
            continue
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), json.dumps(argv)]
        else:
            cmd = [sys.executable, "-m", "polyfock.cli", *argv]
        child = run_child(cmd, root, env, OP_TIMEOUT_S)
        result.rss_mb.append(child.rss_mb)
        if child.rc is None:
            result.records.append({"name": " ".join(argv), "index": index,
                                   "error": "timeout",
                                   "seconds": child.seconds})
            continue
        rc, stdout, stderr = child.rc, child.stdout, child.stderr
        if traced and rc == 0:
            doc = json.loads(stdout)
            rc, stdout, stderr = doc["rc"], doc["stdout"], doc["stderr"]
            result.traces.append(doc["trace"])
        rec = _cli_record(argv, rc, stdout, stderr, child.seconds)
        rec["index"] = index
        result.records.append(rec)
        is_csv = argv[0] == "toeplitz" and "--blocks" not in argv
        if is_csv and rec["error"] is None and result.negative_control is None:
            result.negative_control = cli_negative_control(argv, stdout)
    return result


def session_pass(seed: int, root: Path, env: dict, traced: bool) -> Pass:
    cmd = [sys.executable, str(HERE / "session.py"), str(seed),
           "1" if traced else "0"]
    child = run_child(cmd, root, env, SESSION_TIMEOUT_S)
    doc = json.loads(child.stdout.splitlines()[-1]) if child.rc == 0 else None
    if doc is None:
        why = ["timeout"] if child.rc is None \
            else child.stderr.strip().splitlines()[-1:]
        return Pass(records=[{"name": op["name"], "index": i, "seconds": 0.0,
                              "error": f"session process failed: {why}"}
                             for i, op in enumerate(workloads.session(seed))],
                    rss_mb=[child.rss_mb], negative_control=True)
    for i, rec in enumerate(doc["ops"]):
        rec["index"] = i
    return Pass(records=doc["ops"], rss_mb=[child.rss_mb],
                traces=[doc["trace"]] if traced else [],
                negative_control=doc["negative_control"],
                import_s=doc["import_s"])


def cli_ops(workload: str, seed: int) -> list[list[str]]:
    return workloads.cli_light(seed) if workload == "cli-light" \
        else workloads.cli_spectra(seed)


def run_pass(workload: str, seed: int, root: Path, env: dict,
             traced: bool) -> Pass:
    if workload == "session":
        return session_pass(seed, root, env, traced)
    return cli_pass(cli_ops(workload, seed), root, env, traced)


def timed_passes(workload: str, seed: int, root: Path, env: dict,
                 seconds: float) -> list[Pass]:
    """Whole passes while another fits in `seconds` (at least one); for a
    CLI workload, then one partial pass of the operations whose first time
    still fits in what is left."""
    passes, start = [], perf_counter()
    while True:
        passes.append(run_pass(workload, seed, root, env, traced=False))
        elapsed = perf_counter() - start
        if elapsed / len(passes) * (len(passes) + 1) > seconds:
            break
    if workload != "session":
        first = [r["seconds"] for r in passes[0].records]
        passes.append(cli_pass(
            cli_ops(workload, seed), root, env, traced=False,
            fits=lambda i: perf_counter() - start + first[i] <= seconds))
    return passes


def time_import(entry: str, root: Path, env: dict) -> float:
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", f"import {entry}"],
                          capture_output=True, text=True, env=env, cwd=root,
                          timeout=OP_TIMEOUT_S)
    seconds = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"import {entry} failed: {proc.stderr.strip()}")
    return seconds


def import_breakdown(entry: str, root: Path, env: dict) -> dict[str, float]:
    """Seconds of `python -X importtime -c "import <entry>"` by package."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           f"import {entry}"], capture_output=True, text=True,
                          env=env, cwd=root, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import {entry} failed: {proc.stderr.strip()}")
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict[str, float]:
    """Split `-X importtime` self times into total, scipy, numpy, polyfock.

    Each module's self time goes to the outermost numpy or scipy import
    enclosing it (itself included), else to an enclosing polyfock import, so
    a dependency's figure is what its first import cost, standard-library
    modules and other numpy modules it pulled in included.  The total is
    every import of the process.
    """
    # entries come in post-order: a module's imports are listed before it,
    # one indentation level (two spaces) deeper
    pending: list[tuple[int, dict]] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        node = {"name": name.strip(), "self": int(self_us) * 1e-6, "kids": []}
        while pending and pending[-1][0] > depth:
            node["kids"].append(pending.pop()[1])
        pending.append((depth, node))
    out = Counter()

    def walk(node: dict, owner: str | None) -> None:
        top = node["name"].split(".", 1)[0]
        if owner in (None, "polyfock") and top in ("numpy", "scipy", "polyfock"):
            owner = top
        out["total"] += node["self"]
        if owner:
            out[owner] += node["self"]
        for kid in node["kids"]:
            walk(kid, owner)

    for _, node in pending:
        walk(node, None)
    return {k: out[k] for k in ("total", "scipy", "numpy", "polyfock")}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def failures(passes: list[Pass]) -> list[dict]:
    return [r for p in passes for r in p.records if r["error"] is not None]


def op_latencies(passes: list[Pass]) -> list[float]:
    """Each operation's median wall time over the passes that ran it (one
    value per operation of the list; with one pass, the times themselves)."""
    by_op: dict[int, list[float]] = {}
    for p in passes:
        for r in p.records:
            by_op.setdefault(r["index"], []).append(r["seconds"])
    return [statistics.median(v) for v in by_op.values()]


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    samples = op_latencies(passes)
    rss = [x for p in passes for x in p.rss_mb]
    attempted = sum(len(p.records) for p in passes)
    failed = len(failures(passes))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(samples),
        "op_p50_s": statistics.median(samples),
        "op_p75_s": statistics.quantiles(samples, n=4)[2],
        "peak_rss_mb": statistics.median(rss),
        "pass_rate": 1.0 - failed / attempted,
    }
    p75 = metrics["op_p75_s"]
    notes = {"setup_s": f"median of {len(setup)} processes",
             "wall_s": f"sum of {len(samples)} operation medians, "
                       f"{attempted} operations run",
             "op_p50_s": f"{len(samples)} operations, each the median "
                         f"of its times over at most {len(passes)} passes",
             "op_p75_s": f"{len(samples)} operations, "
                         f"{sum(s > p75 for s in samples)} above",
             "peak_rss_mb": f"median over {len(rss)} processes; the "
                            f"largest peaked at {max(rss)!r} MB",
             "pass_rate": f"fail_rate = {failed}/{attempted} = "
                          f"{failed / attempted!r}"}
    return metrics, notes


def per_layer(base: Pass, traced: Pass, imports: list[dict]) -> tuple[dict, dict]:
    s = Counter()
    for export in traced.traces:
        s.update(tracing.summarize(export))
    rule_calls = s["quadrature.gauss_laguerre.calls"]
    beta_calls = s["toeplitz.beta.calls"]
    m = {f"import.{k}_s": statistics.median(i[k] for i in imports)
         for k in ("total", "scipy", "numpy", "polyfock")}
    m.update({
        "quadrature.gauss_laguerre.calls": rule_calls,
        "quadrature.distinct_rules": s["distinct_rules"],
        "quadrature.rule_hit_ratio":
            1.0 - s["distinct_rules"] / rule_calls if rule_calls else 0.0,
        "quadrature.legendre_rule.calls": s["quadrature.legendre_rule.calls"],
        "quadrature.nodes_requested": s["nodes_requested"],
        "quadrature.self_s": s["quadrature.self_s"],
        "toeplitz.beta.calls": beta_calls,
        "toeplitz.beta.self_s": s["toeplitz.beta.self_s"],
        "toeplitz.beta.rule_requests_per_call":
            s["toeplitz.beta.rule_requests"] / beta_calls if beta_calls else 0.0,
        "toeplitz.symbol_evals": s["symbol_evals"],
        "toeplitz.lambda_seq.s": s["toeplitz.lambda_seq.s"],
        "toeplitz.toeplitz_block.s": s["toeplitz.toeplitz_block.s"],
        "toeplitz.self_s": s["toeplitz.self_s"],
        "toeplitz.toeplitz_matrix.s": s["toeplitz.toeplitz_matrix.s"],
        "toeplitz.toeplitz_matrix.values_bytes": s["polar_values_bytes"],
    })
    for layer in ("hermite_basis", "radial_ops", "laguerre", "fock_spaces",
                  "exact_poly"):
        m[f"{layer}.calls"] = s[f"{layer}.calls"]
        m[f"{layer}.self_s"] = s[f"{layer}.self_s"]
    for suite in ("laguerre", "basis", "kernels", "radial", "toeplitz"):
        m[f"verify.{suite}.s"] = s[f"verify.suite_{suite}.s"]
    m["cli.calls"] = s["cli.calls"]
    m["cli.self_s"] = s["cli.self_s"]
    m["trace.overhead_ratio"] = traced.wall / base.wall
    notes = {"toeplitz.toeplitz_matrix.values_bytes":
             "computed: 16 B x radial nodes x angles per b_polar_values call",
             "trace.overhead_ratio":
             f"traced {traced.wall!r} s / untraced {base.wall!r} s",
             "import.total_s": f"median of {len(imports)} -X importtime runs",
             "self_s": tracing.SELF_TIME_LIMIT}
    return m, notes


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_per_call"):
        return "count/call"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def write_spans(root: Path, workload: str, seed: int, traced: Pass) -> Path:
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "trace_id", "name", "start", "end"],
                   "processes": [t["spans"] for t in traced.traces]}, fh)
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ENTRY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "polyfock" / "__init__.py").is_file():
        print("error: run from the root of a polyfock checkout "
              "(src/polyfock not found)", file=sys.stderr)
        return 2
    env = child_env(root)
    entry = ENTRY[args.workload]
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "load_model": "closed loop, 1 client",
              "environment": environment()}

    if args.trace:
        base = run_pass(args.workload, args.seed, root, env, traced=False)
        traced = run_pass(args.workload, args.seed, root, env, traced=True)
        imports = [import_breakdown(entry, root, env)
                   for _ in range(IMPORTTIME_RUNS)]
        passes = [base, traced]
        metrics, notes = per_layer(base, traced, imports)
        report["spans_file"] = str(write_spans(root, args.workload, args.seed,
                                               traced).relative_to(root))
    else:
        setup = [time_import(entry, root, env) for _ in range(SETUP_RUNS)]
        passes = timed_passes(args.workload, args.seed, root, env,
                              args.seconds)
        setup += [time_import(entry, root, env) for _ in range(SETUP_RUNS)]
        metrics, notes = end_to_end(passes, setup)
        imports_in_session = [p.import_s for p in passes if p.import_s]
        if imports_in_session:
            report["session_import_s"] = imports_in_session

    failed = failures(passes)
    unexpected = [r for r in failed if r["name"] not in KNOWN_DEFECTS
                  or not r["error"].startswith("check:")]
    controls = [p.negative_control for p in passes
                if p.negative_control is not None]
    correct = not unexpected and bool(controls) and all(controls)
    report["passes"] = len(passes)
    report["runner_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["op_seconds"] = {}
    for p in passes:
        for r in p.records:
            report["op_seconds"].setdefault(r["name"], []).append(r["seconds"])
    report["negative_control_rejected"] = controls
    report["failures"] = [{"op": r["name"], "error": r["error"],
                           "known_defect": KNOWN_DEFECTS.get(r["name"])}
                          for r in failed]
    report["notes"] = notes
    report["ungated"] = {k: metrics[k] for k in UNGATED if k in metrics}

    for name, value in metrics.items():
        note = notes.get(name)
        if name in UNGATED:
            note = f"{note}; not gated" if note else "not gated"
        print(f"{name} = {value!r} {unit_of(name)}" + (f"  ({note})" if note else ""))
    for name, note in notes.items():
        if name not in metrics:
            print(f"note on {name}: {note}")
    for r in failed:
        known = KNOWN_DEFECTS.get(r["name"])
        print(f"FAILED {r['name']}: {r['error']}"
              + (f"  [known defect: {known}]" if known else ""))
    print("report: " + json.dumps(report))
    attempted = sum(len(p.records) for p in passes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()
                                  if k not in UNGATED}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
