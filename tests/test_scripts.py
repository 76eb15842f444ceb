import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_invariant_sweep_runs():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "invariant_sweep.py"),
                           "--n", "3", "--d", "2", "--mmax", "3"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2 + 3
