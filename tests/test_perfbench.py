"""The benchmark's own smoke test, run as part of the test suite.

``perfbench/smoke.py`` runs every workload at 8x8 for 2 steps, traced and
untraced, and checks the final diagnostics against the recorded reference.
A library change that breaks the benchmark (for instance one that calls
``splu`` where the tracer cannot see it, or moves the results off the
reference) fails here, not only when the benchmark is next run.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, str(Path("perfbench") / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
