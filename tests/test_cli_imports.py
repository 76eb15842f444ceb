"""Each command-line process loads only the layers its subcommand runs, and
none of them loads ``dataclasses`` or the ``inspect`` module it imports.

Every case runs in a fresh interpreter, since the test process has loaded
the whole package already.
"""

import json

import pytest

PROBE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from contactloci.cli import main
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
layers = sorted(name.split(".", 1)[1] for name in sys.modules if name.startswith("contactloci."))
print(json.dumps([code, layers, sorted({"dataclasses", "inspect"} & set(sys.modules))]))
"""

ENTRY = {"cli", "domain"}
CHAIN = ENTRY | {"arith", "resolution"}
COHOMOLOGY = ENTRY | {"groups", "surface", "contact"}
SPECTRAL = COHOMOLOGY | {"spectral"}

# argv -> (exit code, the contactloci submodules the process may load)
ALLOWED = {
    ("resolve", "--n", "3", "--d", "2", "--m", "4"): (0, CHAIN),
    ("nash", "--n", "3", "--d", "2", "--m", "4"): (0, CHAIN | {"nash"}),
    ("cohomology", "--n", "3", "--d", "2", "--m", "4"): (0, COHOMOLOGY),
    ("floer", "--n", "3", "--d", "5", "--m", "5"): (0, SPECTRAL),
    ("euler", "--n", "4", "--d", "3", "--m", "6", "--format", "json"): (0, SPECTRAL),
    ("scatter", "--nmax", "5", "--dmax", "5", "--format", "csv"): (0, SPECTRAL),
    ("verify", "--f", "x0^2+x1^2+x2^2", "--m", "3", "--primes", "3"):
        (0, COHOMOLOGY | {"oracle", "poly"}),
    ("verify", "--f", "x0^2+", "--m", "4", "--primes", "5"): (2, ENTRY | {"poly"}),
    ("resolve", "--n", "1", "--d", "2", "--m", "4"): (2, ENTRY),
    ("cohomology", "--n", "3", "--d", "1", "--m", "4"): (2, ENTRY),
    ("floer", "--n", "3", "--d", "3", "--m", "60003"): (3, ENTRY),
    ("euler", "--n", "3000", "--d", "3000", "--m", "3000"): (3, ENTRY),
    ("resolve", "--bogus"): (2, ENTRY),
}


def test_import_loads_no_layer(fresh_python):
    out = fresh_python("import sys, contactloci; "
                       "print(sorted(m for m in sys.modules if m.startswith('contactloci.')))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv", list(ALLOWED), ids=" ".join)
def test_subcommand_loads_only_its_layers(argv, fresh_python):
    want_code, allowed = ALLOWED[argv]
    code, layers, slow_imports = json.loads(fresh_python(PROBE, *argv))
    assert code == want_code
    assert set(layers) <= allowed, sorted(set(layers) - allowed)
    assert slow_imports == []
