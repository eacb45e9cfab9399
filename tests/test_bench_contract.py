"""What the benchmark harness reads of the program must keep working.

`benchmarks/tracer.py` wraps `Fel.__init__`, `Field.__init__` and a list of
public functions, and reads the sizes of every field's memo caches and of the
`GF` cache.  A change to the element kernel could break `--trace 1` without
failing anything else, so this runs one traced oracle analysis in a fresh
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
from alg2d import GF, MSC, report

t = tracer.Tracer()
t.install()
F = GF(3, 2)
A = MSC(F, [F.from_index(i) for i in (1, 4, 0, 7)], [F.from_index(i) for i in (2, 0, 5, 8)])
t.active = True
report.analyze(A, oracle=True)
t.active = False
print(json.dumps({"caches": tracer.cache_entries(), **t.aggregate()}))
"""


def test_tracer_runs_on_an_oracle_analysis():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "benchmarks")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    agg = json.loads(proc.stdout)
    assert agg["caches"] > 0
    assert agg["calls"]["report.analyze.oracle"] == 1
    assert agg["counts"]["algebra.mul.calls"] > 0
