"""Exact invariants of contact loci of semihomogeneous hypersurface
singularities, from the three integers (n, d, m).

Importing the package loads none of its layers.  The first access to an
exported name imports the one layer that owns it and binds that layer's
exported names into this namespace (PEP 562), so from then on each is a
plain module global.  The other layers stay unloaded until a caller names
one of theirs.
"""

from importlib import import_module

__version__ = "0.1.0"

_LAYERS = {
    "contact": (
        "GradedPiece",
        "MotivicClass",
        "contact_class",
        "contact_cohomology",
        "contact_dimension",
        "contact_euler",
        "graded_pieces",
        "piece_compact_cohomology",
    ),
    "groups": ("FgAbGroup", "GradedGroup"),
    "nash": ("ValuationReport", "valuation_report"),
    "oracle": (
        "JetCountReport",
        "count_base",
        "count_contact_jets",
        "milnor_number_oracle",
    ),
    "poly": ("SparseIntPoly", "parse_poly"),
    "resolution": (
        "CoprimePair",
        "Divisor",
        "MDivisorList",
        "ResolutionChain",
        "build_minimal_resolution",
        "m_divisors",
        "nef_fiber_identity",
        "verify_minimality",
    ),
    "spectral": (
        "ConditionReport",
        "PairClass",
        "SpectralPage",
        "classify_pair",
        "compare_pages",
        "condition_degeneration",
        "condition_filtration",
        "floer_cohomology",
        "lefschetz_number",
        "mclean_e1",
        "order_e1",
        "scatter_grid",
    ),
    "surface": (
        "HypersurfaceData",
        "cone_compact_cohomology",
        "cover_homology",
        "hypersurface_data",
        "middle_rank",
        "milnor_fiber_compact_cohomology",
    ),
}

__all__ = sorted(name for names in _LAYERS.values() for name in names)


def __getattr__(name: str):
    for layer, names in _LAYERS.items():
        if name in names:
            module = import_module("." + layer, __name__)
            namespace = globals()
            for export in names:
                namespace[export] = getattr(module, export)
            return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
