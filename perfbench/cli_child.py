"""One traced CLI call in a fresh process: installs the span wrappers, runs
polyfock.cli.main(argv) with stdout captured, and prints one JSON document
with the exit code, the captured output and the trace.

Usage:
    python3 perfbench/cli_child.py ARGV_JSON
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import polyfock.cli

from tracing import Tracer


def main() -> int:
    argv = json.loads(sys.argv[1])
    tracer = Tracer().install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = polyfock.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error is a failed call
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = 1
    sys.stdout.write(json.dumps({"rc": rc, "stdout": out.getvalue(),
                                 "stderr": err.getvalue(),
                                 "trace": tracer.export()}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
