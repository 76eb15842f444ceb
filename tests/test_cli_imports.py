"""Each command-line process loads only the layers its subcommand runs, and
none of them loads ``dataclasses`` or the ``inspect`` module it imports.
Only JSON output loads ``json``.

Every case runs in a fresh interpreter, since the test process has loaded
the whole package already.
"""

import json

import pytest

# json is imported after the snapshot of sys.modules, to print the result
PROBE = """
import io, sys
from contextlib import redirect_stderr, redirect_stdout
from contactloci.cli import main
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
loaded = set(sys.modules)
import json
layers = sorted(name.split(".", 1)[1] for name in loaded if name.startswith("contactloci."))
print(json.dumps([code, layers, sorted({"dataclasses", "inspect"} & loaded), "json" in loaded]))
"""

ENTRY = {"cli", "domain"}
CHAIN = ENTRY | {"resolution"}
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
    ("euler", "--n", "3000", "--d", "3000", "--m", "3000"): (3, SPECTRAL),
    ("euler", "--n", "10000", "--d", str(10 ** 40), "--m", str(10 ** 40 + 1)): (3, ENTRY),
    ("resolve", "--bogus"): (2, ENTRY),
    ("scatter", "--nmax", "201", "--dmax", "10"): (2, ENTRY),
}


def test_import_loads_no_layer(fresh_python):
    out = fresh_python("import sys, contactloci; "
                       "print(sorted(m for m in sys.modules if m.startswith('contactloci.')))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv", list(ALLOWED), ids=" ".join)
def test_subcommand_loads_only_its_layers(argv, fresh_python):
    want_code, allowed = ALLOWED[argv]
    code, layers, slow_imports, _ = json.loads(fresh_python(PROBE, *argv))
    assert code == want_code
    assert set(layers) <= allowed, sorted(set(layers) - allowed)
    assert slow_imports == []


@pytest.mark.parametrize("fmt,loads_json", [("text", False), ("json", True)])
def test_only_json_output_loads_json(fmt, loads_json, fresh_python):
    argv = ("resolve", "--n", "3", "--d", "2", "--m", "4", "--format", fmt)
    code, _, _, json_loaded = json.loads(fresh_python(PROBE, *argv))
    assert (code, json_loaded) == (0, loads_json)
