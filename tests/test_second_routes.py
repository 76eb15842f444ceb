"""Second routes to the class of X_m and to the Lefschetz numbers of the
monodromy iterates, kept as test-side references: Denef-Loeser over the
chain (tests/denef_loeser.py), and the motivic zeta function and A'Campo's
formula of the one-blow-up resolution (tests/zeta_function.py).  Each is
compared over a grid with the strata sum of contact_class and with
lefschetz_closed_form, and each imports only what its docstring allows."""

import ast
from pathlib import Path

from contactloci.contact import contact_class
from contactloci.spectral import lefschetz_closed_form
from contactloci.surface import euler_characteristic, milnor_fiber_euler
from denef_loeser import denef_loeser_class
from zeta_function import a_campo_lefschetz, surface_euler, zeta_class

TESTS = Path(__file__).resolve().parent


def class_terms(n, d, m):
    return {(basis, exp): coeff for basis, exp, coeff in contact_class(n, d, m).terms}


def test_denef_loeser_over_the_chain_is_the_class():
    for n in range(3, 7):
        for d in range(2, 8):
            chi_s, chi_mh = euler_characteristic(n, d), milnor_fiber_euler(n, d)
            for m in range(1, 41):
                terms = denef_loeser_class(n, d, m)
                assert terms == class_terms(n, d, m), (n, d, m)
                # at L = 1 the (L - 1)[S] terms vanish and [Mh] is chi(Mh)
                at_one = sum(coeff * (chi_mh if basis == "Mh" else chi_s)
                             for (basis, _), coeff in terms.items())
                assert at_one == lefschetz_closed_form(n, d, m), (n, d, m)


def test_the_zeta_function_of_one_blow_up_gives_the_class():
    for n in range(3, 8):
        for d in range(2, 9):
            for m in range(1, 61):
                assert zeta_class(n, d, m) == class_terms(n, d, m), (n, d, m)


def test_a_campo_gives_the_lefschetz_numbers():
    for n in range(3, 10):
        for d in range(2, 10):
            assert surface_euler(n, d) == euler_characteristic(n, d), (n, d)
            for m in range(1, 60):
                assert a_campo_lefschetz(n, d, m) == lefschetz_closed_form(n, d, m), (n, d, m)


def test_each_reference_imports_only_what_it_may():
    allowed = {"denef_loeser": [("contactloci.resolution", "build_minimal_resolution")],
               "zeta_function": [("math", "comb")]}
    for module, imports in allowed.items():
        tree = ast.parse((TESTS / f"{module}.py").read_text(encoding="utf-8"))
        found = [(node.module, alias.name) for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
        found += [(alias.name, None) for node in ast.walk(tree)
                  if isinstance(node, ast.Import) for alias in node.names]
        assert found == imports, module
