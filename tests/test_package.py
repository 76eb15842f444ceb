"""The package namespace: 44 names, each resolved on first use by loading the
one layer that owns it, and then bound as a plain global."""

import importlib
import json

import pytest

import contactloci

EXPORTED = [
    "ConditionReport", "CoprimePair", "Divisor", "FgAbGroup", "GradedGroup", "GradedPiece",
    "HypersurfaceData", "JetCountReport", "MDivisorList", "MotivicClass", "PairClass",
    "ResolutionChain", "SparseIntPoly", "SpectralPage", "ValuationReport",
    "build_minimal_resolution", "classify_pair", "compare_pages",
    "condition_degeneration", "condition_filtration", "cone_compact_cohomology",
    "contact_class", "contact_cohomology", "contact_dimension", "contact_euler",
    "count_base", "count_contact_jets", "cover_homology", "floer_cohomology",
    "graded_pieces", "hypersurface_data", "lefschetz_number",
    "m_divisors", "mclean_e1", "middle_rank", "milnor_fiber_compact_cohomology",
    "milnor_number_oracle", "nef_fiber_identity", "order_e1", "parse_poly",
    "piece_compact_cohomology", "scatter_grid", "valuation_report", "verify_minimality",
]

LAYERS = ("contact", "groups", "nash", "oracle", "poly", "resolution", "spectral", "surface")

# Runs the statement in argv[1] in a fresh interpreter, then prints the
# contactloci submodules it loaded and the exported names the package bound.
PROBE = """
import sys
import contactloci as cl
exec(sys.argv[1], {"cl": cl})
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("contactloci."))
bound = sorted(n for n in cl.__all__ if n in vars(cl))
import json
print(json.dumps([loaded, bound]))
"""


def first_access(fresh_python, statement):
    return json.loads(fresh_python(PROBE, statement))


def test_all_is_unchanged():
    assert contactloci.__all__ == EXPORTED
    assert len(EXPORTED) == 44


def test_each_name_is_its_layers_object():
    for name in EXPORTED:
        value = getattr(contactloci, name)
        layer = value.__module__
        assert layer.split(".")[0] == "contactloci" and layer.split(".")[1] in LAYERS, name
        assert value.__name__ == name
        assert vars(importlib.import_module(layer))[name] is value, name


def test_star_import_and_dir():
    namespace = {}
    exec("from contactloci import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    assert all(namespace[name] is getattr(contactloci, name) for name in EXPORTED)
    assert set(EXPORTED) <= set(dir(contactloci))
    assert "__version__" in dir(contactloci)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        contactloci.no_such_name  # noqa: B018
    assert not hasattr(contactloci, "no_such_name")


def test_first_access_loads_only_the_owning_layer(fresh_python):
    loaded, bound = first_access(fresh_python, "cl.parse_poly")
    assert loaded == ["poly"]
    assert bound == ["SparseIntPoly", "parse_poly"]


def test_oracle_access_loads_no_chain_layer(fresh_python):
    loaded, bound = first_access(fresh_python, "cl.count_contact_jets")
    assert "oracle" in loaded
    assert not {"resolution", "spectral", "nash"} & set(loaded)
    assert bound == ["JetCountReport", "count_base", "count_contact_jets",
                     "milnor_number_oracle"]


def test_first_access_binds_the_whole_layer(fresh_python):
    loaded, bound = first_access(fresh_python, "cl.nef_fiber_identity")
    assert loaded == ["domain", "resolution"]
    assert "verify_minimality" in bound
    assert bound == sorted(contactloci._LAYERS["resolution"])


def test_star_import_binds_every_name(fresh_python):
    loaded, bound = first_access(fresh_python, "from contactloci import *")
    assert bound == EXPORTED
    assert set(LAYERS) <= set(loaded)
