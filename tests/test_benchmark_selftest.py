import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # the benchmark's own self-test runs the library from this checkout: a
    # library change that breaks what the benchmark calls or traces fails here
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("PASS validate_and_index imported by name is traced")
               for line in lines), proc.stdout
