"""Traced ``alg2d`` entry point for the cli workload's trace run.

Usage: python benchmarks/cli_child.py <alg2d arguments>

Installs the tracer, runs ``alg2d.cli.main`` with the given arguments and
leaves stdout untouched; the span aggregate, the spans and the memo-cache
size go to stderr as one last line starting with ``#alg2d-trace ``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import tracer as tracing  # noqa: E402


def main() -> int:
    tr = tracing.Tracer()
    tr.install()
    from alg2d.cli import main as alg2d_main

    tr.op, tr.active = 0, True
    try:
        code = alg2d_main(sys.argv[1:])
    finally:
        tr.active = False
    sys.stdout.flush()
    payload = {"agg": tr.aggregate(), "spans": tr.spans, "caches": tracing.cache_entries()}
    print(tracing.TRACE_MARK + json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
