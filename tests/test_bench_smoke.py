"""The benchmark still runs against the current source: perfbench/smoke.py exits 0.

The smoke script runs every benchmark workload at a tiny size, traced and
untraced. The traced pass wraps package functions by name, so a renamed or
removed public function fails here rather than only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.slow


def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
