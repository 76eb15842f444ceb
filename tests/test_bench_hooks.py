"""The benchmark under perfbench/ reaches the library by name: the tracer
wraps the functions listed in ``tracing.TRACED`` and the workloads call
``contactloci.<name>``.  A renamed function would make a per-layer metric
read 0 instead of failing, so these names are pinned here.  The benchmark
files are only read, never changed."""

import ast
import importlib
import importlib.util
from pathlib import Path

import contactloci

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_readonly",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_library_names():
    """(package attributes used as ``cl.<name>``, (module, name) imported
    from contactloci submodules) in perfbench/workloads.py."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    attrs, imports = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "cl"):
            attrs.add(node.attr)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("contactloci."):
            imports.update((node.module, alias.name) for alias in node.names)
    return attrs, imports


def test_traced_functions_exist():
    tracing = load_tracing()
    assert tracing.TRACED
    for module_name, func_name, _, _ in tracing.TRACED:
        module = importlib.import_module("contactloci." + module_name)
        function = getattr(module, func_name, None)
        assert callable(function), f"{module_name}.{func_name}"
        # the tracer swaps every reference to this object, so a package
        # re-export must be the same object, not a second definition
        assert getattr(contactloci, func_name, function) is function, func_name


def test_run_job_names_are_reexported():
    attrs, imports = workload_library_names()
    # run_job's resolve job: chain, m-divisors, minimality and the nef identity
    assert {"build_minimal_resolution", "m_divisors", "verify_minimality",
            "nef_fiber_identity"} <= attrs
    for name in attrs:
        assert callable(getattr(contactloci, name, None)), name
        assert name in contactloci.__all__, name
    for module_name, name in imports:
        assert callable(getattr(importlib.import_module(module_name), name, None)), name
