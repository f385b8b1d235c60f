"""The benchmark's own check: python3 -m pytest bench

Runs ``run.py --smoke`` (every workload on a few games, about 90 s):
every metric of BENCHMARK.json is emitted for every workload, two traced
runs give the same exact counts, and kt6's counts match the ROADMAP.
"""

import os
import subprocess
import sys


def test_smoke():
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    out = subprocess.run(
        [sys.executable, run, "--smoke"], capture_output=True, text=True, timeout=900
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert out.stdout.rstrip().endswith("smoke ok")
