"""Span tracing of polyfock from outside the package.

`Tracer.install()` wraps every public function of the layer modules (names
without a leading underscore, defined in that module) and rebinds the wrapper
in every polyfock module namespace, and in module-level dicts, that refers to
the function.  So `toeplitz`'s imported `gauss_laguerre` and `b_polar_values`
and `verify`'s suite table are counted.

Limit: private helpers that a caller invokes directly (for example
`_recurrence_array` inside `toeplitz._beta_once`) get no span; their time is
in the calling public function's self time.

Spans stay in memory as (id, parent, trace_id, name, start, end) tuples and
are handed out when the process ends.  A span opened on a worker thread with
no open span of its own takes the main thread's innermost open span as its
parent, so `verify`'s thread-pool suites nest under `run_suites`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import sys
import threading
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "toeplitz", "quadrature", "laguerre", "hermite_basis",
          "fock_spaces", "radial_ops", "exact_poly", "verify")

SELF_TIME_LIMIT = ("private helpers called directly by a public function "
                   "(e.g. _recurrence_array inside _beta_once) are counted "
                   "in that function's self time")

RULE_SPANS = ("quadrature.gauss_laguerre", "quadrature.legendre_rule")

#: functions whose arguments feed a counter (see Tracer._hook)
HOOKED = RULE_SPANS + ("hermite_basis.b_polar_values",)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and boundary counters for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.rules: set[tuple[int, int]] = set()
        self.trace_id = 0
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _hook(self, name: str, args: tuple, kwargs: dict) -> None:
        """Counters taken at the boundary, from the call's own arguments."""
        if name == "quadrature.gauss_laguerre":
            alpha, n_nodes = _arg(args, kwargs, 0, "alpha"), \
                _arg(args, kwargs, 1, "n_nodes")
            self.rules.add((alpha, n_nodes))
            self.counters["nodes_requested"] += n_nodes
        elif name == "quadrature.legendre_rule":
            self.counters["nodes_requested"] += _arg(args, kwargs, 2, "n_nodes")
        elif name == "hermite_basis.b_polar_values":
            t, taus = _arg(args, kwargs, 1, "t"), _arg(args, kwargs, 2, "taus")
            self.counters["polar_values_bytes"] += 16 * len(t) * len(taus)

    def count_symbol(self, symbol):
        """Return the RadialSymbol with its callable counting evaluations."""
        fn, counters = symbol.fn, self.counters

        def counted(r):
            counters["symbol_evals"] += 1
            return fn(r)
        return dataclasses.replace(symbol, fn=counted)

    def _wrap(self, name: str, fn):
        stack_of, spans, ids = self._stack, self.spans, self._ids
        main_stack, hook = self._main_stack, self._hook
        hooked = name in HOOKED
        counts_symbol = name == "toeplitz.symbol_from_spec"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else 0
            sid = next(ids)
            if hooked:
                hook(name, args, kwargs)
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, self.trace_id, name, start, end))
            return self.count_symbol(out) if counts_symbol else out
        return wrapper

    def install(self) -> "Tracer":
        """Wrap the public functions of every layer module (imports them)."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"polyfock.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj):
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "polyfock"
                                   or mod_name.startswith("polyfock.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in originals:
                    setattr(mod, attr, originals[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in originals:
                            obj[key] = originals[id(val)]
        return self

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "distinct_rules": len(self.rules)}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(export: dict) -> Counter:
    """Additive per-process figures: span counts, inclusive and self times
    per function and per layer, rule requests made under `beta`, counters."""
    spans = export["spans"]
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = Counter()
    for sid, parent, _, name, start, end in spans:
        layer = name.split(".", 1)[0]
        inner = [(max(lo, start), min(hi, end))
                 for lo, hi in children.get(sid, ()) if hi > start and lo < end]
        self_s = (end - start) - _union_length(inner)
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += self_s
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += self_s
        if name in RULE_SPANS:
            anc = by_id.get(parent)
            while anc is not None and anc[3] != "toeplitz.beta":
                anc = by_id.get(anc[1])
            if anc is not None:
                out["toeplitz.beta.rule_requests"] += 1
    for key, val in export["counters"].items():
        out[key] += val
    out["distinct_rules"] += export["distinct_rules"]
    return out
