import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# container CI boxes can stall arbitrarily; the strategies here are tiny, so
# drop the per-example deadline rather than flake
settings.register_profile("default", deadline=None)
settings.load_profile("default")

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh_python():
    """Run Python code in a new interpreter that imports contactloci from
    this checkout's src/, and return its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))

    def run(code: str, *argv: str) -> str:
        return subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                              capture_output=True, text=True, timeout=60).stdout

    return run
