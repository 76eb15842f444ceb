"""The package namespace: 47 names, resolved on first use and then bound as
plain globals."""

import importlib

import pytest

import contactloci

EXPORTED = [
    "ConditionReport", "CoprimePair", "Divisor", "FgAbGroup", "GradedGroup", "GradedPiece",
    "HypersurfaceData", "JetCountReport", "MDivisorList", "MotivicClass", "PairClass",
    "ResolutionChain", "SparseIntPoly", "SpectralPage", "ValuationReport", "adjacency",
    "blowup_counts", "build_minimal_resolution", "classify_pair", "compare_pages",
    "condition_degeneration", "condition_filtration", "cone_compact_cohomology",
    "contact_class", "contact_cohomology", "contact_dimension", "contact_euler",
    "count_base", "count_contact_jets", "cover_homology", "floer_cohomology",
    "graded_pieces", "hypersurface_data", "lefschetz_number",
    "m_divisors", "mclean_e1", "middle_rank", "milnor_fiber_compact_cohomology",
    "milnor_number_oracle", "nef_fiber_identity", "order_e1", "parents_from_cf",
    "parse_poly", "piece_compact_cohomology", "scatter_grid", "valuation_report",
    "verify_minimality",
]

LAYERS = ("arith", "contact", "groups", "nash", "oracle", "poly", "resolution", "spectral",
          "surface")


def test_all_is_unchanged():
    assert contactloci.__all__ == EXPORTED
    assert len(EXPORTED) == 47


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


def test_first_access_binds_every_name(fresh_python):
    # In a fresh interpreter: nothing is bound before the first access, and
    # everything is afterwards, so later lookups never reach __getattr__.
    out = fresh_python("import contactloci as cl; "
                       "before = [n for n in cl.__all__ if n in vars(cl)]; "
                       "cl.nef_fiber_identity; "
                       "after = [n for n in cl.__all__ if n not in vars(cl)]; "
                       "print(before, after)")
    assert out.strip() == "[] []"
