"""The runtime is standard-library only: importing the package loads nothing else."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import alg2d.cli, alg2d.report, alg2d.sweep
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_importing_the_cli_loads_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "alg2d" in loaded
    foreign = [m for m in loaded if m != "alg2d" and m not in sys.stdlib_module_names]
    assert foreign == []
