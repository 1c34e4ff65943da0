"""The benchmark's own self-test, ``python3 perfbench/selftest.py``, passes.

It runs every workload at tiny sizes, untraced and traced, with each step's
output judged by the benchmark oracle (the exports workload checks every
strata CSV row against the prime flags), so a change that breaks a
benchmark step fails here and not only when the benchmark is run.  It
takes about ten seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
