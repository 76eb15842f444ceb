"""Spans around the public calls of each contactloci layer.

The tracer replaces a fixed list of public functions with timing wrappers in
every loaded ``contactloci`` module namespace, so calls between layers are
spanned too (``floer_cohomology`` calling ``contact_cohomology`` nests a
contact span under a spectral span).  Nothing under ``src/`` changes; the
originals are put back by ``uninstall``.  Wrappers only record while
``active`` is set, so correctness checks run between jobs stay untraced.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from math import comb
from time import perf_counter_ns

LAYERS = ("resolution", "surface", "contact", "spectral", "nash", "oracle", "cli")


def _is_fermat(poly) -> bool:
    """Whether poly is x0^d + ... + x_{n-1}^d with unit coefficients."""
    if len(poly.terms) != poly.nvars:
        return False
    degrees = set()
    hit = set()
    for exps, coeff in poly.terms:
        support = [j for j, e in enumerate(exps) if e]
        if coeff != 1 or len(support) != 1:
            return False
        hit.add(support[0])
        degrees.add(exps[support[0]])
    return len(degrees) == 1 and len(hit) == poly.nvars


def _jets_name(args, kwargs) -> str:
    return "oracle.jets.fermat" if _is_fermat(args[0]) else "oracle.jets.lowsym"


def _milnor_monomials(poly) -> int:
    # Mirrors the degree loop of milnor_number_oracle: one Jacobian matrix
    # per degree 0 .. n(d-2)+1, with C(deg+n-1, n-1) columns each.
    n, d = poly.nvars, poly.min_total_degree()
    if d < 2:
        return 0
    return sum(comb(deg + n - 1, n - 1) for deg in range(n * (d - 2) + 2))


def _count_divisors(counters, args, kwargs, result):
    counters["resolution.divisors"] += len(result)


def _count_strata(counters, args, kwargs, result):
    counters["contact.strata"] += 1


def _count_degrees(counters, args, kwargs, result):
    counters["groups.total_degrees"] += len(result.entries)


def _count_page(counters, args, kwargs, result):
    counters["spectral.page_entries"] += len(result.entries)


def _count_essential(counters, args, kwargs, result):
    counters["nash.essential"] += len(result.essential)


def _count_jets(counters, args, kwargs, result):
    counters["oracle.jets_counted"] += result.total_count
    counters["oracle.reports"] += 1
    counters["oracle.reports_matched"] += int(result.matches)


def _count_milnor(counters, args, kwargs, result):
    counters["oracle.milnor_monomials"] += _milnor_monomials(args[0])


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return "cli.main." + (argv[0] if argv else "none")


# (module, function, span name or callable giving it, counter hook or None)
TRACED = (
    ("resolution", "build_minimal_resolution", "resolution.build", _count_divisors),
    ("resolution", "m_divisors", "resolution.m_divisors", None),
    ("resolution", "verify_minimality", "resolution.verify", None),
    ("resolution", "nef_fiber_identity", "resolution.nef", None),
    ("surface", "hypersurface_data", "surface.hypersurface_data", None),
    ("surface", "cone_compact_cohomology", "surface.cone", None),
    ("surface", "milnor_fiber_compact_cohomology", "surface.milnor_fiber", None),
    ("surface", "cover_homology", "surface.cover", None),
    ("contact", "contact_cohomology", "contact.cohomology", _count_degrees),
    ("contact", "contact_euler", "contact.euler", None),
    ("contact", "contact_dimension", "contact.dimension", None),
    ("contact", "piece_compact_cohomology", "contact.piece", _count_strata),
    ("contact", "contact_class", "contact.class", None),
    ("spectral", "compare_pages", "spectral.compare_pages", None),
    ("spectral", "mclean_e1", "spectral.mclean_e1", _count_page),
    ("spectral", "order_e1", "spectral.order_e1", _count_page),
    ("spectral", "condition_degeneration", "spectral.condition", None),
    ("spectral", "condition_filtration", "spectral.condition", None),
    ("spectral", "floer_cohomology", "spectral.floer", None),
    ("spectral", "lefschetz_number", "spectral.lefschetz", None),
    ("spectral", "scatter_grid", "spectral.scatter", None),
    ("nash", "valuation_report", "nash.report", _count_essential),
    ("oracle", "count_contact_jets", _jets_name, _count_jets),
    ("oracle", "singular_point_mod_p", "oracle.base", None),
    ("oracle", "count_base", "oracle.base", None),
    ("oracle", "milnor_number_oracle", "oracle.milnor", _count_milnor),
    ("cli", "main", _cli_name, None),
)

# Per-layer time metrics: the summed self time of the spans named here.
TIME_METRICS = {
    "resolution.build_s": ("resolution.build", "resolution.m_divisors"),
    "resolution.verify_s": ("resolution.verify",),
    "resolution.nef_s": ("resolution.nef",),
    "surface.profiles_s": ("surface.hypersurface_data", "surface.cone",
                           "surface.milnor_fiber", "surface.cover"),
    "contact.cohomology_s": ("contact.cohomology", "contact.euler",
                             "contact.dimension", "contact.piece"),
    "contact.class_s": ("contact.class",),
    "spectral.pages_s": ("spectral.compare_pages", "spectral.mclean_e1",
                         "spectral.order_e1"),
    "spectral.floer_s": ("spectral.condition", "spectral.floer"),
    "spectral.lefschetz_s": ("spectral.lefschetz",),
    "spectral.scatter_s": ("spectral.scatter",),
    "nash.report_s": ("nash.report",),
    "oracle.jets.fermat_s": ("oracle.jets.fermat",),
    "oracle.jets.lowsym_s": ("oracle.jets.lowsym",),
    "oracle.base_s": ("oracle.base",),
    "oracle.milnor_s": ("oracle.milnor",),
}

COUNT_METRICS = (
    "resolution.divisors",
    "contact.strata",
    "groups.total_degrees",
    "spectral.page_entries",
    "nash.essential",
    "oracle.jets_counted",
    "oracle.reports",
    "oracle.reports_matched",
    "oracle.milnor_monomials",
)

# Counters that must repeat exactly for one seed.
EXACT_COUNTERS = (
    "resolution.divisors",
    "contact.strata",
    "spectral.page_entries",
    "oracle.jets_counted",
    "cli.output_bytes",
)


class Tracer:
    """In-memory span recorder.

    A span is ``(name, start_ns, end_ns, parent_index, job_id)``; the parent
    is the index of the enclosing span, or -1 for a root.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self.active = False
        self.job = -1
        self._stack: list[int] = []
        self._patched: list = []

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()
        self._stack = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name (for the benchmark's own jobs)."""
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            result = tracer.span(label, fn, *args, **kwargs)
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Put a wrapper in place of every traced function, in every loaded
        contactloci namespace that refers to it."""
        for module_name in LAYERS:
            importlib.import_module("contactloci." + module_name)
        namespaces = [mod for key, mod in list(sys.modules.items())
                      if mod is not None and (key == "contactloci" or key.startswith("contactloci."))]
        for module_name, func_name, name, count in TRACED:
            original = getattr(sys.modules["contactloci." + module_name], func_name)
            wrapper = self._wrap(original, name, count)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._patched.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched = []


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def by_name(spans) -> dict[str, tuple[int, int]]:
    """name -> (summed self time in ns, call count)."""
    totals: dict[str, list[int]] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, [0, 0])
        entry[0] += own
        entry[1] += 1
    return {name: (ns, calls) for name, (ns, calls) in totals.items()}


def layer_table(spans, counters) -> list[tuple[str, float, int, dict]]:
    """(layer, self seconds, calls, counters) per layer, benchmark glue last."""
    rows: dict[str, list] = {}
    for name, (ns, calls) in by_name(spans).items():
        layer = name.split(".", 1)[0]
        row = rows.setdefault(layer, [0, 0])
        row[0] += ns
        row[1] += calls
    order = list(LAYERS) + sorted(set(rows) - set(LAYERS))
    table = []
    for layer in order:
        ns, calls = rows.get(layer, (0, 0))
        layer_counters = {k: v for k, v in sorted(counters.items())
                          if k.split(".", 1)[0] == layer
                          or (layer == "contact" and k.startswith("groups."))}
        table.append((layer, ns / 1e9, calls, layer_counters))
    return table


def time_metrics(spans) -> dict[str, float]:
    named = by_name(spans)
    return {metric: sum(named.get(name, (0, 0))[0] for name in names) / 1e9
            for metric, names in TIME_METRICS.items()}


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("index,parent,job,name,start_ns,end_ns\n")
        for index, (name, start, end, parent, job) in enumerate(spans):
            out.write(f"{index},{parent},{job},{name},{start},{end}\n")
