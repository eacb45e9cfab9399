"""What the benchmark harness reads of the program must keep working.

`benchmarks/tracer.py` wraps `Fel.__init__`, `Field.__init__` and a list of
public functions, and reads the sizes of every field's memo caches and of the
`GF` cache.  A change to the element kernel, or a renamed solver, could break
`--trace 1` without failing anything else, so this runs one traced oracle
analysis and one traced `verify_point` with an oracle recheck in a fresh
interpreter, as the harness does.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from alg2d import GF, MSC, report, sweep
from alg2d.families import FamilyId, Regime

t = tracer.Tracer()
t.install()
t.active = True
%s
t.active = False
print(json.dumps({"caches": tracer.cache_entries(), **t.aggregate()}))
"""


def _traced(op: str) -> dict:
    """The tracer's aggregate over one traced op, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT % op, str(ROOT / "src"), str(ROOT / "benchmarks")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_runs_on_an_oracle_analysis():
    agg = _traced(
        "F = GF(3, 2)\n"
        "A = MSC(F, [F.from_index(i) for i in (1, 4, 0, 7)],"
        " [F.from_index(i) for i in (2, 0, 5, 8)])\n"
        "report.analyze(A, oracle=True)"
    )
    assert agg["caches"] > 0
    assert agg["calls"]["report.analyze.oracle"] == 1
    assert agg["calls"]["algebra.oracle_enumerate"] > 0
    assert agg["calls"]["algebra.oracle_points"] == 2
    # the oracle tests its definitions on raw values, never through `mul`
    assert agg["counts"].get("algebra.mul.calls", 0) == 0


def test_tracer_counts_direct_calls_of_mul():
    agg = _traced(
        "from alg2d import algebra\n"
        "F = GF(3, 2)\n"
        "A = MSC(F, [F.from_index(i) for i in (1, 4, 0, 7)],"
        " [F.from_index(i) for i in (2, 0, 5, 8)])\n"
        "e1, e2 = algebra.basis(F)\n"
        "algebra.mul(A, e1, e2)\n"
        "algebra.mul(A, e2, e2)"
    )
    assert agg["counts"]["algebra.mul.calls"] == 2


def test_tracer_counts_the_solves_of_a_verify_point_recheck():
    """A1 (0, 0, 1, 0) over GF(5): the table's left-ideal reading is
    ambiguous, so the left record is rechecked against the oracle."""
    agg = _traced(
        "F = GF(5)\n"
        "sweep.verify_point(FamilyId(1, Regime.of_field(F)), [F.el(c) for c in (0, 0, 1, 0)], F)"
    )
    for name in ("solvers.line_count_closed", "solvers.left_ideals", "sweep._oracle_check"):
        assert agg["calls"].get(name, 0) > 0, name
    assert agg["solves"] > 0
