"""Second routes to the class of X_m, to the Lefschetz numbers of the
monodromy iterates and to the cone's cohomology, kept as test-side
references: Denef-Loeser over the chain (tests/denef_loeser.py), the motivic
zeta function and A'Campo's formula of the one-blow-up resolution
(tests/zeta_function.py), and the Smith normal form of the monodromy on the
Milnor lattice (tests/milnor_lattice.py).  Each is compared over a grid with
contact_class, lefschetz_closed_form or cone_compact_cohomology, and each
imports only what its docstring allows.  So does the chain's Stern-Brocot
reference (tests/sternbrocot.py), which imports nothing."""

import ast
from pathlib import Path

from contactloci.contact import contact_class
from contactloci.spectral import lefschetz_closed_form
from contactloci.surface import (
    cone_compact_cohomology,
    euler_characteristic,
    middle_rank,
    milnor_fiber_euler,
)
from denef_loeser import denef_loeser_class
from milnor_lattice import cone_cohomology
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


# (n, d) with n >= 3, d >= 2 and a lattice of rank (d-1)^n <= 256; the
# quadrics, of rank 1, up to n = 12
LATTICE_PAIRS = [(n, d) for n in range(3, 13) for d in range(2, 8) if (d - 1) ** n <= 256]


def test_the_milnor_lattice_gives_the_cone_profile():
    # torsion included: Z/d in degree n for odd n, none for even n.  The rank
    # c in degree n - 1 is b for odd n and b - 1 for even n, so the lattice
    # gives the middle rank b for both parities: 2 for the quadric surface
    for n, d in LATTICE_PAIRS:
        lattice = cone_cohomology(n, d)
        profile = {k: (group.rank, group.torsion) for k, group in cone_compact_cohomology(n, d).entries}
        assert lattice == profile, (n, d)
        assert middle_rank(n, d) == lattice.get(n - 1, (0, ()))[0] + (n % 2 == 0), (n, d)
    assert cone_cohomology(4, 2)[3] == (1, ())


def test_each_reference_imports_only_what_it_may():
    allowed = {"denef_loeser": [("contactloci.resolution", "build_minimal_resolution")],
               "zeta_function": [("math", "comb")],
               "milnor_lattice": [("itertools", "product")],
               "sternbrocot": []}
    for module, imports in allowed.items():
        tree = ast.parse((TESTS / f"{module}.py").read_text(encoding="utf-8"))
        found = [(node.module, alias.name) for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
        found += [(alias.name, None) for node in ast.walk(tree)
                  if isinstance(node, ast.Import) for alias in node.names]
        assert found == imports, module
