"""Command-line frontend: basis evaluation, kernel values, Toeplitz
eigenvalues and blocks, and the self-verification suites.

Output is machine-readable (JSON or CSV) and byte-deterministic: field order
is fixed and every float is rendered with 17 significant digits.  Complex
numbers on the command line are written as a+bi with no spaces; values that
start with a minus sign need the --flag=value form.

Exit codes: 0 success, 1 computation or verification failure (a request too
large for memory included), 2 bad arguments.

Each command imports the layers it uses when it runs, so start-up loads only
those: `basis` and `kernel` are exact or point work and never load numpy
or `dataclasses`, `basis --eval` and `kernel` load no exact layer either,
and `toeplitz` loads
only the radial route (`laguerre`, `quadrature`, `toeplitz` and numpy), none
of the plane or exact layers.

The `polyfock` program enters through `run()`: the cyclic collector is off
for the call and the heap is frozen before exit, so the interpreter's final
collection skips numpy's objects.  `main(argv)` leaves the collector as it
finds it, for callers that run it in-process.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

from .defaults import DEFAULT_D_MAX, DEFAULT_P_MAX, SUITE_NAMES


def format_float(x: float) -> str:
    """Fixed 17-significant-digit rendering used for all emitted floats."""
    return format(float(x), ".17g")


def dumps_fixed(obj) -> str:
    """Deterministic JSON: insertion-ordered dicts, floats at 17 digits."""
    if isinstance(obj, dict):
        inner = ",".join(f"{dumps_fixed(str(k))}:{dumps_fixed(v)}"
                         for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_fixed(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return format_float(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def parse_complex(text: str, name: str = "complex number") -> complex:
    """Parse a+bi with no spaces (also plain reals and bare i terms).

    Both parts must be finite; `name` (the option, say) heads the error.
    """
    try:
        value = complex(text.replace("i", "j").replace("I", "j"))
    except ValueError as exc:
        raise ValueError(f"cannot parse {name} {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_basis(args) -> int:
    from .hermite_basis import HermiteIndex, b_eval, basis_json_dict
    idx = HermiteIndex(args.p, args.q)
    record: dict = {"p": args.p, "q": args.q}
    if args.eval is not None:
        z = parse_complex(args.eval, "--eval")
        value = b_eval(idx, z)
        record["z"] = [z.real, z.imag]
        record["value_re"] = value.real
        record["value_im"] = value.imag
    if args.coeffs or args.eval is None:
        record.update(basis_json_dict(idx))
    _emit(dumps_fixed(record) + "\n", args.out)
    return 0


def cmd_kernel(args) -> int:
    from .fock_spaces import SpaceId, kernel_partial_sum, kernel_poly, kernel_true
    kind = "poly" if args.kind == "poly" else "true_poly"
    z, w = parse_complex(args.z, "--z"), parse_complex(args.w, "--w")
    closed = kernel_poly(args.n, z, w) if kind == "poly" \
        else kernel_true(args.n, z, w)
    record = {
        "n": args.n,
        "kind": args.kind,
        "z": [z.real, z.imag],
        "w": [w.real, w.imag],
        "value_re": closed.real,
        "value_im": closed.imag,
    }
    if args.series is not None:
        partial = kernel_partial_sum(SpaceId(kind, args.n), z, w, args.series)
        record["series_re"] = partial.real
        record["series_im"] = partial.imag
        record["series_residual"] = abs(partial - closed)
    _emit(dumps_fixed(record) + "\n", args.out)
    return 0


def _eigenvalues_csv(seq) -> str:
    lines = ["p,re,im"]
    for p, v in enumerate(seq.values):
        lines.append(f"{p},{format_float(v.real)},{format_float(v.imag)}")
    return "\n".join(lines) + "\n"


def _blocks_json(head: dict, blocks) -> str:
    """`dumps_fixed` of head with "blocks" appended, each block written as
    rows of [re, im] pairs, one row per `%` operation on its interleaved
    real and imaginary parts."""
    import numpy as np

    def rows(block) -> str:
        pattern = "[" + ",".join(["[%.17g,%.17g]"] * block.shape[1]) + "]"
        parts = np.stack([block.real, block.imag], -1).reshape(len(block), -1)
        return ",".join(pattern % tuple(row) for row in parts.tolist())
    body = ",".join(f"[{rows(block)}]" for block in blocks)
    return dumps_fixed(head)[:-1] + f',"blocks":[{body}]}}'


def cmd_toeplitz(args) -> int:
    from .toeplitz import lambda_seq, symbol_from_spec, toeplitz_blocks
    symbol = symbol_from_spec(args.symbol)
    if args.blocks:
        blocks = toeplitz_blocks(symbol, args.n, args.dmax)
        head = {"n": args.n, "symbol": symbol.name, "d_min": -args.n + 1,
                "d_max": args.dmax}
        _emit(_blocks_json(head, blocks) + "\n", args.out)
        return 0
    seq = lambda_seq(symbol, args.n, args.pmax)
    if args.format == "json":
        record = {"n": args.n, "symbol": symbol.name, "p_max": args.pmax,
                  "values": [[v.real, v.imag] for v in seq.values]}
        _emit(dumps_fixed(record) + "\n", args.out)
    else:
        _emit(_eigenvalues_csv(seq), args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suites
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    results = run_suites(names, quick=args.quick)
    lines = [r.line() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyfock",
        description="polyanalytic Fock space computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="evaluate or print a basis function")
    p_basis.add_argument("--p", type=int, required=True)
    p_basis.add_argument("--q", type=int, required=True)
    p_basis.add_argument("--eval", type=str, default=None, metavar="Z",
                         help="evaluate at the complex point a+bi")
    p_basis.add_argument("--coeffs", action="store_true",
                         help="include exact coefficients")
    p_basis.add_argument("--out", type=str, default=None)
    p_basis.set_defaults(func=cmd_basis)

    p_kernel = sub.add_parser("kernel", help="reproducing kernel values")
    p_kernel.add_argument("--n", type=int, required=True)
    p_kernel.add_argument("--kind", choices=("poly", "true"), required=True)
    p_kernel.add_argument("--z", type=str, required=True)
    p_kernel.add_argument("--w", type=str, required=True)
    p_kernel.add_argument("--series", type=int, default=None, metavar="P",
                          help="also report the P-term basis series")
    p_kernel.add_argument("--out", type=str, default=None)
    p_kernel.set_defaults(func=cmd_kernel)

    p_toe = sub.add_parser("toeplitz", help="radial Toeplitz data")
    p_toe.add_argument("--n", type=int, required=True)
    p_toe.add_argument("--symbol", type=str, required=True,
                       help="const:c | indicator:u | gauss:s | rational")
    p_toe.add_argument("--pmax", type=int, default=DEFAULT_P_MAX)
    p_toe.add_argument("--blocks", action="store_true",
                       help="emit block JSON instead of eigenvalue CSV")
    p_toe.add_argument("--dmax", type=int, default=DEFAULT_D_MAX)
    p_toe.add_argument("--format", choices=("csv", "json"), default="csv")
    p_toe.add_argument("--out", type=str, default=None)
    p_toe.set_defaults(func=cmd_toeplitz)

    p_verify = sub.add_parser("verify", help="run self-verification suites")
    p_verify.add_argument("--suite", choices=("all",) + SUITE_NAMES,
                          default="all")
    p_verify.add_argument("--quick", action="store_true")
    p_verify.add_argument("--out", type=str, default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, KeyError, OSError, MemoryError) as exc:
        return _fail(exc)
    except RuntimeError as exc:
        from .quadrature import QuadratureConvergenceError
        if not isinstance(exc, QuadratureConvergenceError):
            raise
        return _fail(exc)


def _fail(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 1


def run() -> None:
    """The `polyfock` program: `main()` on the command line with the cyclic
    collector off, then the heap frozen so that the interpreter's final
    collection skips it, and exit with main's code.  One call per process
    leaves few cycles, and the process's end frees them."""
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
