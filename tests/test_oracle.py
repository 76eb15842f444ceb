import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactloci.oracle import (
    MAX_JET_DEPTH,
    BudgetExceededError,
    JetCountReport,
    NonIsolatedSingularityError,
    NonSmoothReductionError,
    _grid,
    _orbits,
    _rank_sparse_int,
    _scalings,
    _symmetries,
    count_base,
    count_contact_jets,
    milnor_number_oracle,
    singular_point_mod_p,
)
from contactloci.poly import SparseIntPoly, parse_poly

QUADRIC = parse_poly("x0^2+x1^2+x2^2")
CUBIC = parse_poly("x0^3+x1^3+x2^3")
QUARTIC = parse_poly("x0^4+x1^4+x2^4")
SEXTIC = parse_poly("x0^6+x1^6+x2^6")
PERTURBED = parse_poly("x0^2+x1^2+x2^2+x0^3")
QUATERNARY = parse_poly("x0^2+x1^2+x2^2+x3^2")
LOWSYM = parse_poly("x0^2+x1^2+x2^2+x0^3+2*x1^3")
# its symmetries over F_7 swap x0 and x1 only with scales c, c' where c^2 = 2
SCALED = parse_poly("x0^2+2*x1^2+3*x2^2")
MIXED_CUBIC = SparseIntPoly.from_terms(3, [
    ((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), 1), ((1, 1, 1), 1)])
HYPERBOLIC = SparseIntPoly.from_terms(3, [((1, 1, 0), 1), ((0, 0, 2), 1)])
MIXED_QUADRIC = SparseIntPoly.from_terms(3, [
    ((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 1), ((1, 1, 1), 1)])


def brute_force_value_counts(poly, p):
    # reference count by direct evaluation of every point, nothing shared
    # with the library's evaluation path beyond arithmetic
    counts = {0: 0, 1: 0}
    for point in product(range(p), repeat=poly.nvars):
        total = 0
        for exps, coeff in poly.terms:
            term = coeff
            for x, e in zip(point, exps):
                term *= x ** e
            total += term
        value = total % p
        if value in counts:
            counts[value] += 1
    return counts


def value_mod(terms, point, p):
    # the polynomial with these terms at point, mod p, by direct evaluation
    return sum(coeff * prod(x ** e for x, e in zip(point, exps)) for exps, coeff in terms) % p


def test_parse_examples():
    assert QUADRIC.terms == (((0, 0, 2), 1), ((0, 2, 0), 1), ((2, 0, 0), 1))
    poly = parse_poly("3*x0^2-x1")
    assert poly.terms == (((0, 1), -1), ((2, 0), 3))


def test_parse_combines_duplicate_monomials():
    assert parse_poly("x0+x0").terms == (((1,), 2),)
    with pytest.raises(ValueError):
        parse_poly("x0-x0")  # cancels to zero


@pytest.mark.parametrize("bad", ["", "x", "2x0", "x0^", "x0 + ", "y0", "x0 ** 2",
                                 "-x0", "5", "x0^2 ++ x1"])
def test_parse_rejects_ungrammatical_input(bad):
    with pytest.raises(ValueError):
        parse_poly(bad)


def test_poly_doc_round_trip():
    doc = PERTURBED.to_doc()
    assert SparseIntPoly.from_doc(doc) == PERTURBED


def test_initial_form_and_partials():
    assert PERTURBED.min_total_degree() == 2
    assert PERTURBED.initial_form() == QUADRIC
    zero = SparseIntPoly(3, ())
    assert str(zero) == "0"
    with pytest.raises(ValueError, match="^the zero polynomial has no order$"):
        zero.min_total_degree()
    dx0 = PERTURBED.partial(0)
    assert dx0.terms == (((1, 0, 0), 2), ((2, 0, 0), 3))


def test_count_base_quadric():
    for p in (3, 5):
        reference = brute_force_value_counts(QUADRIC, p)
        cone, milnor = count_base(QUADRIC, p)
        assert cone == reference[0] - 1
        assert milnor == reference[1]
    assert count_base(QUADRIC, 3) == (8, 6)


def test_count_base_linear_form():
    linear = SparseIntPoly(3, (((1, 0, 0), 1),))
    for p in (3, 5):
        cone, milnor = count_base(linear, p)
        assert cone == p ** 2 - 1
        assert milnor == p ** 2


def scan_forms(n):
    # homogeneous forms with mixed terms and negative coefficients; x0^2 is
    # singular along x0 = 0 when n >= 2
    def mono(*js):
        return tuple(js.count(i) for i in range(n))
    return [SparseIntPoly.from_terms(n, terms) for terms in (
        [(mono(j, j), 1 - 2 * (j % 2)) for j in range(n)] + [(mono(0, n - 1), -3)],
        [(mono(j, j, j), j + 1) for j in range(n)] + [(mono(0, 0, n - 1), -2)],
        [(mono(j, (j + 1) % n), -2) for j in range(n)],
        [(mono(0, 0), 1)])]


# x0^3 + x1^3 in three variables: S_2 is all of F_p^*, and the partials
# vanish along the x2 axis, so the witness is (0, 0, 1)
BINARY_CUBIC = SparseIntPoly.from_terms(3, [((3, 0, 0), 1), ((0, 3, 0), 1)])
# forms whose scalings are proper subgroups of F_p^* at some p
CELL_FORMS = [CUBIC, QUARTIC, SEXTIC, SCALED, BINARY_CUBIC]


def assert_scans_agree(h, p):
    # both scans against every point of F_p^n, evaluated one by one
    n = h.nvars
    points = list(product(range(p), repeat=n))  # product order
    values = [value_mod(h.terms, x, p) for x in points]
    if h.is_homogeneous():
        assert count_base(h, p) == (values.count(0) - 1, values.count(1)), (str(h), p)
    partials = [[(exps[:j] + (exps[j] - 1,) + exps[j + 1:], coeff * exps[j])
                 for exps, coeff in h.terms if exps[j]] for j in range(n)]
    # verify prints this witness, so it must be the first in product order
    first = next((x for x in points[1:]
                  if all(value_mod(terms, x, p) == 0 for terms in partials)), None)
    assert singular_point_mod_p(h, p) == first, (str(h), p)


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in (1, 2, 3, 4)
                                 if n <= 3 or p <= 7])
def test_scans_agree_with_evaluating_every_point(p, n):
    for h in scan_forms(n) + (CELL_FORMS if n == 3 else []):
        assert_scans_agree(h, p)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_a_free_coordinate_gives_its_axis_as_witness(p):
    assert _scalings(BINARY_CUBIC, p)[2] == set(range(1, p))
    assert singular_point_mod_p(BINARY_CUBIC, p) == (0, 0, 1)


def test_scans_hold_one_value_list_at_a_time():
    # the 15-variable Fermat cubic over F_2: 2^15 cells, each partial's
    # values read over all of them, then folded into one list
    h = parse_poly("+".join(f"x{j}^3" for j in range(15)))
    tracemalloc.start()
    try:
        assert singular_point_mod_p(h, 2) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


@st.composite
def diagonal_scan_forms(draw):
    # (sum of a_j x_j^(e_j) over n variables, p), homogeneous when the
    # exponents are drawn equal; a coefficient may vanish mod p
    n, p = draw(st.integers(1, 3)), draw(st.sampled_from([5, 7, 11, 13]))
    degree = draw(st.integers(1, 6))
    exponents = ([degree] * n if draw(st.booleans())
                 else [draw(st.integers(1, 6)) for _ in range(n)])
    terms = [(tuple(e * (k == j) for k in range(n)), draw(st.integers(1, 13)))
             for j, e in enumerate(exponents)]
    return SparseIntPoly.from_terms(n, terms), p


@settings(max_examples=60)
@given(case=diagonal_scan_forms())
@example(case=(SparseIntPoly.from_terms(3, [((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 13)]),
               13))
def test_scans_of_diagonal_forms_agree_with_every_point(case):
    h, p = case
    assert_scans_agree(h, p)
    # each grid point stands for the points whose coordinatewise least
    # scaling image it is, and the cells cover F_p^n once
    scalings = _scalings(h, p)
    cells = Counter(tuple(min(c * x % p for c in group) for x, group in zip(point, scalings))
                    for point in product(range(p), repeat=h.nvars))
    axes, sizes = _grid(h, p)
    assert dict(zip(product(*axes), map(prod, product(*sizes)))) == cells
    assert sum(map(prod, product(*sizes))) == p ** h.nvars


def test_count_base_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        count_base(PERTURBED, 3)


def test_empty_locus_below_degree():
    report = count_contact_jets(QUADRIC, 1, 3)
    assert report.total_count == 0
    assert report.by_order == ()
    assert report.matches


def test_stratified_counts_small_cases():
    report = count_contact_jets(QUADRIC, 2, 3)
    assert dict(report.by_order) == {1: report.milnor_count * 3 ** 3}
    assert report.matches

    report = count_contact_jets(QUADRIC, 3, 3)
    assert dict(report.by_order) == {1: report.cone_count * 3 ** 5}
    assert report.matches

    report = count_contact_jets(QUADRIC, 4, 3)
    assert set(dict(report.by_order)) == {1, 2}
    assert report.matches


def test_stratification_examples():
    assert count_contact_jets(QUADRIC, 4, 3).matches
    assert count_contact_jets(QUADRIC, 4, 5).matches
    assert count_contact_jets(QUARTIC, 4, 3).matches
    assert count_contact_jets(CUBIC, 3, 5).matches


def test_stratification_with_three_strata():
    report = count_contact_jets(QUADRIC, 6, 3)
    assert len(report.by_order) == 3
    assert report.matches


def test_counts_depend_only_on_the_initial_form():
    # a term of degree above m contributes nothing, however large its exponent
    for perturbed in (PERTURBED, parse_poly("x0^2+x1^2+x2^2+x0^3000")):
        for m in (2, 3, 4):
            assert count_contact_jets(perturbed, m, 5) == count_contact_jets(QUADRIC, m, 5)


def test_mixed_monomial_perturbation_agrees_too():
    # a higher-order term involving several variables exercises the general
    # truncated-product evaluation
    mixed = SparseIntPoly.from_terms(3, [
        ((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 1), ((1, 1, 1), 5)])
    for m in (2, 3, 4):
        assert count_contact_jets(mixed, m, 5) == count_contact_jets(QUADRIC, m, 5)


def test_total_is_sum_of_strata():
    report = count_contact_jets(QUADRIC, 4, 5)
    assert report.total_count == sum(c for _, c in report.by_order)


@pytest.mark.parametrize("poly,p,top", [(QUADRIC, 3, 6), (QUADRIC, 7, 5), (LOWSYM, 5, 5),
                                        (CUBIC, 5, 6), (QUATERNARY, 3, 5)])
def test_counts_satisfy_the_zeta_recurrence(poly, p, top):
    # Blowing up the origin once is a log resolution with two divisors,
    # (N, nu) = (d, n) and the strict transform's (1, 1), so Denef-Loeser's
    # formula ("Motivic Igusa zeta functions", 1998) gives Z(T) the
    # denominator (1 - L^(-n) T^d)(1 - L^(-1) T).  At L = p the totals c_m
    # satisfy the recurrence below for m >= d + 2, whatever the base counts.
    # Its T^d term needs c_(m-d) != 0, which first holds at m = 2d.
    n, d = poly.nvars, poly.min_total_degree()
    c = {m: count_contact_jets(poly, m, p).total_count for m in range(1, top + 1)}
    assert top >= 2 * d and c[top - d] != 0
    for m in range(d + 2, top + 1):
        assert c[m] == (p ** (n - 1) * c[m - 1] + p ** (n * (d - 1)) * c[m - d]
                        - p ** (n * d - 1) * c[m - d - 1]), m


def test_total_count_matches_class_specialization():
    # the Grothendieck-ring class evaluated at L = p, [S] = projective point
    # count, [Mh] = fiber point count must reproduce the enumerated total
    from contactloci.contact import contact_class

    for poly, d in [(QUADRIC, 2), (CUBIC, 3), (PERTURBED, 2)]:
        for m in (2, 3, 4):
            for p in (3, 5):
                if d % p == 0:
                    continue
                report = count_contact_jets(poly, m, p)
                assert report.cone_count % (p - 1) == 0
                projective_points = report.cone_count // (p - 1)
                predicted = contact_class(3, d, m).specialize(
                    lef=p, surface=projective_points,
                    milnor_fiber=report.milnor_count)
                assert report.total_count == predicted, (str(poly), m, p)


def test_report_doc_round_trip():
    # the document the verify command prints rebuilds the report
    report = count_contact_jets(QUADRIC, 4, 3)
    doc = report.to_doc()

    def pairs(counts):
        return tuple(sorted((int(k), v) for k, v in counts.items()))

    rebuilt = JetCountReport(doc["p"], doc["m"], pairs(doc["by_order"]),
                             doc["base_counts"]["cone"], doc["base_counts"]["milnor"],
                             pairs(doc["predicted_by_order"]))
    assert rebuilt == report and rebuilt.to_doc() == doc


def test_non_smooth_reduction_is_detected():
    with pytest.raises(NonSmoothReductionError):
        count_contact_jets(CUBIC, 3, 3)  # p divides every partial coefficient


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        count_contact_jets(QUADRIC, 4, 7, budget=10)
    # charged before the scans of F_p^n, so 10007^3 points are never visited
    with pytest.raises(BudgetExceededError):
        count_contact_jets(QUADRIC, 4, 10007, budget=10)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        count_contact_jets(QUADRIC, 4, 5, budget=-1)
    with pytest.raises(ValueError, match="^m must be >= 1$"):
        count_contact_jets(QUADRIC, 0, 5)


def test_calls_that_share_spent_share_one_budget():
    # the quadric at m = 4 and p = 13 spends 7,604 units: 3 * 13^3 for the
    # scans and 1,013 for the search
    spent = [0]
    first = count_contact_jets(QUADRIC, 4, 13, budget=15208, spent=spent)
    assert spent == [7604]
    assert count_contact_jets(QUADRIC, 4, 13, budget=15208, spent=spent) == first
    assert spent == [15208]
    spent = [7604]
    with pytest.raises(BudgetExceededError, match="more than 15207 candidates"):
        count_contact_jets(QUADRIC, 4, 13, budget=15207, spent=spent)
    # without a list, each call has the whole budget
    for _ in range(2):
        assert count_contact_jets(QUADRIC, 4, 13, budget=7604) == first


def test_depth_limit():
    # m - d + 1 levels: one past the limit is refused before any scan, even
    # at a prime the budget would refuse and at one that is not prime
    for p in (3, 10007, 9):
        with pytest.raises(BudgetExceededError, match=f"depth m - d \\+ 1 = {MAX_JET_DEPTH + 1} "):
            count_contact_jets(QUADRIC, MAX_JET_DEPTH + 2, p)
    # at the limit the search runs down the zero prefix to its last level,
    # within the recursion limit, and the budget stops it there
    with pytest.raises(BudgetExceededError, match="enumeration budget"):
        count_contact_jets(QUADRIC, MAX_JET_DEPTH + 1, 3, budget=5000)


def test_depth_limit_is_checked_before_the_strata_are_built(monkeypatch):
    # the strata number m // d, so building them first would be O(m/d) work
    import contactloci.oracle as oracle

    def refuse(*args):
        raise AssertionError("order_counts called before the depth check")

    monkeypatch.setattr(oracle, "order_counts", refuse)
    with pytest.raises(BudgetExceededError, match="depth m - d \\+ 1 = 9999999 "):
        count_contact_jets(QUADRIC, 10 ** 7, 3)
    # an input outside the domain is still a ValueError, not a budget error
    with pytest.raises(ValueError, match="n must be >= 3"):
        count_contact_jets(parse_poly("x0^2+x1^2"), 10 ** 7, 3)


def test_prime_validation():
    with pytest.raises(ValueError):
        count_contact_jets(QUADRIC, 3, 9)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)])
def test_milnor_number_of_fermat_forms(d, n):
    terms = []
    for j in range(n):
        exps = [0] * n
        exps[j] = d
        terms.append((tuple(exps), 1))
    fermat = SparseIntPoly(n, tuple(terms))
    assert milnor_number_oracle(fermat) == (d - 1) ** n


def test_milnor_number_of_forms_with_mixed_terms():
    # partials with several terms, so rows are reduced by pivot rows of
    # several entries; each singularity is isolated, of Milnor number (d-1)^n
    quartic = SparseIntPoly.from_terms(4, [((4, 0, 0, 0), 1), ((0, 4, 0, 0), 2), ((0, 0, 4, 0), 1),
                                           ((0, 0, 0, 4), 1), ((1, 1, 1, 1), 3), ((2, 0, 0, 2), -1)])
    for poly, want in ((MIXED_CUBIC, 8), (HYPERBOLIC, 1), (quartic, 81)):
        assert milnor_number_oracle(poly) == want, str(poly)


def test_milnor_number_of_linear_form():
    assert milnor_number_oracle(SparseIntPoly(2, (((1, 0), 1),))) == 0


def test_milnor_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        milnor_number_oracle(PERTURBED)
    # a nonzero constant is homogeneous, of degree 0
    with pytest.raises(ValueError, match="^expected positive degree$"):
        milnor_number_oracle(SparseIntPoly(2, (((0, 0), 1),)))


def test_non_isolated_singularity_is_detected():
    # x0^2 in two variables vanishes on a line together with its gradient
    degenerate = SparseIntPoly(2, (((2, 0), 1),))
    with pytest.raises(NonIsolatedSingularityError):
        milnor_number_oracle(degenerate)


def test_milnor_refuses_a_degree_of_too_many_monomials():
    # the Milnor oracle's one cap: the 10-variable Fermat cubic's Jacobian
    # matrix has C(16, 9) = 11,440 columns in degree 7 and C(17, 9) = 24,310
    # in degree 8
    fermat = parse_poly("+".join(f"x{j}^3" for j in range(10)))
    with pytest.raises(BudgetExceededError, match="^degree 8 needs more than 20000 monomials$"):
        milnor_number_oracle(fermat)


# by_order of count_contact_jets as computed by the unreduced search, which
# rebuilt every power series from the whole prefix and expanded every vector
PINNED_COUNTS = [
    (QUADRIC, 5, 5, ((1, 46875000), (2, 9375000))),
    (QUADRIC, 6, 3, ((1, 1417176), (2, 472392), (3, 118098))),
    (QUADRIC, 4, 7, ((1, 39530064), (2, 4941258))),
    (CUBIC, 5, 7, ((1, 15253663446),)),
    (CUBIC, 6, 5, ((1, 5859375000), (2, 6103515625))),
    (CUBIC, 4, 13, ((1, 88098917868),)),
    (QUATERNARY, 4, 3, ((1, 1889568), (2, 157464))),
    (QUATERNARY, 3, 7, ((1, 316240512),)),
    (LOWSYM, 4, 7, ((1, 39530064), (2, 4941258))),
    (LOWSYM, 5, 5, ((1, 46875000), (2, 9375000))),
    (SCALED, 3, 7, ((1, 806736),)),
    (SCALED, 4, 7, ((1, 39530064), (2, 6588344))),
    (MIXED_CUBIC, 4, 5, ((1, 9375000),)),
    (MIXED_CUBIC, 5, 5, ((1, 234375000),)),
    (MIXED_CUBIC, 4, 11, ((1, 25723065720),)),
    (HYPERBOLIC, 4, 7, ((1, 39530064), (2, 6588344))),
    # several-variable terms at the internal levels and at the leaves
    (MIXED_QUADRIC, 5, 5, ((1, 46875000), (2, 9375000))),
    (HYPERBOLIC, 6, 3, ((1, 1417176), (2, 472392), (3, 236196))),
]


@pytest.mark.parametrize("poly,m,p,by_order", PINNED_COUNTS)
def test_counts_pinned_to_the_unreduced_search(poly, m, p, by_order):
    report = count_contact_jets(poly, m, p)
    assert report.by_order == by_order
    assert report.matches


# units that count_contact_jets spends on the benchmark's jet forms, so that
# a drift in what a unit charges shows
PINNED_UNITS = [
    (QUADRIC, 5, 5, 1180), (QUADRIC, 5, 7, 3882), (QUADRIC, 4, 5, 420), (QUADRIC, 4, 7, 1118),
    (CUBIC, 6, 5, 8630), (CUBIC, 3, 13, 6626), (CUBIC, 5, 7, 1098),
    (QUATERNARY, 3, 7, 7238), (QUATERNARY, 4, 3, 280),
    (LOWSYM, 3, 13, 7774), (LOWSYM, 4, 7, 2597),
]


@pytest.mark.parametrize("poly,m,p,units", PINNED_UNITS)
def test_units_spent_on_the_benchmark_forms(poly, m, p, units):
    spent = [0]
    count_contact_jets(poly, m, p, spent=spent)
    assert spent[0] == units


def _apply(g, point, p):
    perm, scale = g
    return tuple(scale[i] * point[perm[i]] % p for i in range(len(point)))


def _orbit_labels(gens, n, p):
    # each point of F_p^n mapped to the first point of its orbit, by search
    label = {}
    for start in product(range(p), repeat=n):
        if start not in label:
            label[start] = start
            frontier = [start]
            while frontier:
                point = frontier.pop()
                for g in gens:
                    image = _apply(g, point, p)
                    if image not in label:
                        label[image] = start
                        frontier.append(image)
    return label


def _transposition(n, i, j):
    perm = list(range(n))
    perm[i], perm[j] = j, i
    return perm, [1] * n


def _family(n, p):
    # every single-coordinate scaling and plain transposition of F_p^n
    for i in range(n):
        for c in range(2, p):
            yield list(range(n)), [c if k == i else 1 for k in range(n)]
        for j in range(i + 1, n):
            yield _transposition(n, i, j)


SYMMETRY_CASES = [(QUADRIC, 5), (QUADRIC, 7), (CUBIC, 7), (SCALED, 7), (LOWSYM, 3), (LOWSYM, 7),
                  (MIXED_CUBIC, 7), (HYPERBOLIC, 5), (QUATERNARY, 3)]


def _generators(subgroups, blocks):
    # every element of each coordinate's scaling subgroup, then every
    # transposition of two coordinates of one block
    n = len(subgroups)
    return ([(list(range(n)), [c if k == i else 1 for k in range(n)])
             for i, group in enumerate(subgroups) for c in sorted(group)]
            + [_transposition(n, i, j) for block in blocks for i, j in combinations(block, 2)])


@pytest.mark.parametrize("poly,p", SYMMETRY_CASES)
def test_accepted_symmetries_fix_f_at_every_point(poly, p):
    subgroups, blocks = _symmetries(poly, p)
    assert len(subgroups) == poly.nvars and all(1 in group for group in subgroups)
    assert sorted(i for block in blocks for i in block) == list(range(poly.nvars))
    assert (any(len(block) > 1 for block in blocks)
            or any(len(group) > 1 for group in subgroups))
    for g in _generators(subgroups, blocks):
        for point in product(range(p), repeat=poly.nvars):
            assert value_mod(poly.terms, _apply(g, point, p), p) == value_mod(poly.terms, point, p)


def unfiltered_symmetries(f, p):
    # every single-coordinate scaling and plain transposition whose
    # substituted image is f term by term, each compared in full
    n = f.nvars
    reduced = {exps: c % p for exps, c in f.terms if c % p}
    found = []
    for perm, scale in _family(n, p):
        image = {tuple(exps[q] for q in perm):
                 c0 * prod(pow(s, e, p) for s, e in zip(scale, exps)) % p
                 for exps, c0 in reduced.items()}
        if image == reduced:
            found.append((perm, scale))
    return found


@pytest.mark.parametrize("poly,p", SYMMETRY_CASES + [(LOWSYM, 11), (LOWSYM, 13)])
def test_symmetries_match_the_unfiltered_search(poly, p):
    # each coordinate's subgroup is 1 and the unfiltered search's scalings
    # of it, and the pairs in a block are exactly the transpositions that
    # search accepts: comparing a coordinate with one member of each block
    # loses none.  LOWSYM's supports match under x0 <-> x1, but its
    # coefficients do not.
    n = poly.nvars
    unfiltered = unfiltered_symmetries(poly, p)
    subgroups, blocks = _symmetries(poly, p)
    assert subgroups == [{1} | {scale[i] for perm, scale in unfiltered
                                if perm == list(range(n)) and scale[i] != 1}
                         for i in range(n)]
    assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)
    accepted = {tuple(k for k, q in enumerate(perm) if k != q)
                for perm, _ in unfiltered if perm != list(range(n))}
    assert accepted == {pair for block in blocks for pair in combinations(block, 2)}


@pytest.mark.parametrize("poly,p", [(poly, p) for poly in (QUADRIC, CUBIC, LOWSYM)
                                    for p in (5, 7, 13)]
                         # some accepted scalings do not generate: 4 mod 5 and
                         # 12 mod 13 for the quartic, 2 mod 7 for the sextic
                         + [(QUARTIC, 5), (QUARTIC, 13), (SEXTIC, 7)])
def test_one_scaling_per_coordinate_keeps_the_orbits(poly, p):
    # each S_i is the cyclic group that its element of maximal order
    # generates, so that one scaling per coordinate, closed point by point
    # with the transpositions of adjacent members of each block, gives the
    # orbits
    n = poly.nvars
    subgroups, blocks = _symmetries(poly, p)
    gens = []
    for i, group in enumerate(subgroups):
        c = max(group, key=lambda c: len({pow(c, e, p) for e in range(p)}))
        assert {pow(c, e, p) for e in range(p)} == group
        gens.append((list(range(n)), [c if k == i else 1 for k in range(n)]))
    gens += [_transposition(n, i, j) for block in blocks for i, j in zip(block, block[1:])]
    sizes = Counter(_orbit_labels(gens, n, p).values())
    assert _orbits(subgroups, blocks, p) == sorted(sizes.items())


@pytest.mark.parametrize("poly,p", [(QUADRIC, 5), (QUADRIC, 7), (CUBIC, 7), (SCALED, 7),
                                    (LOWSYM, 7), (QUATERNARY, 3)])
def test_diagonal_forms_lose_no_symmetry_of_the_family(poly, p):
    # Every exponent is below p, so a member of the family that fixes f at
    # every point fixes it term by term, and must then preserve each orbit.
    n = poly.nvars
    label = _orbit_labels(_generators(*_symmetries(poly, p)), n, p)
    for g in _family(n, p):
        if all(value_mod(poly.terms, _apply(g, x, p), p) == value_mod(poly.terms, x, p)
               for x in label):
            assert all(label[_apply(g, x, p)] == label[x] for x in label), g


def test_scaled_form_needs_scaled_transpositions():
    # x0 and x1 swap over F_7 only with scales c, c' where c^2 = 2, so they
    # form no block and the orbits are those of the scalings: finer than with
    # the scaled swaps, and the counts are the same
    subgroups, blocks = _symmetries(SCALED, 7)
    assert blocks == [[0], [1], [2]]

    def fixes(g):
        return all(value_mod(SCALED.terms, _apply(g, x, 7), 7) == value_mod(SCALED.terms, x, 7)
                   for x in product(range(7), repeat=3))

    swaps = [([1, 0, 2], [c, c2, 1]) for c, c2 in product(range(1, 7), repeat=2)]
    scaled = [g for g in swaps if fixes(g)]
    assert scaled and all(scale[0] ** 2 % 7 == 2 for _, scale in scaled)
    scalings = _generators(subgroups, [])
    sizes = Counter(_orbit_labels(scalings, 3, 7).values())
    assert _orbits(subgroups, blocks, 7) == sorted(sizes.items())
    assert len(set(_orbit_labels(scalings + scaled, 3, 7).values())) < len(sizes)


# a block whose coordinates are not adjacent: {x0, x2} beside {x1}
INTERLEAVED = parse_poly("x0^2+2*x1^2+x2^2")


@pytest.mark.parametrize("poly,p", [(SCALED, 7), (CUBIC, 7), (HYPERBOLIC, 5), (LOWSYM, 5),
                                    (MIXED_CUBIC, 7),
                                    # the benchmark's sizes, and proper
                                    # subgroups of F_p^*
                                    (CUBIC, 13), (LOWSYM, 13), (QUATERNARY, 7), (QUARTIC, 13),
                                    (SEXTIC, 7),
                                    (QUADRIC, 5), (QUADRIC, 7), (QUADRIC, 13), (CUBIC, 5),
                                    (LOWSYM, 7), (QUARTIC, 5), (INTERLEAVED, 7), (LOWSYM, 3)])
def test_orbits_are_the_closures_under_the_generators(poly, p):
    # every accepted scaling and transposition, as the unfiltered search
    # finds them, closed point by point
    sizes = Counter(_orbit_labels(unfiltered_symmetries(poly, p), poly.nvars, p).values())
    assert _orbits(*_symmetries(poly, p), p) == sorted(sizes.items())


@st.composite
def diagonal_forms(draw):
    # (sum of a_j x_j^(e_j) over three variables, p): S_j has order
    # gcd(e_j, p - 1), and x_i, x_j share a block when a_i = a_j mod p and,
    # unless both vanish mod p, e_i = e_j
    terms = []
    for j in range(3):
        e, a = draw(st.integers(1, 6)), draw(st.integers(1, 12))
        terms.append((tuple(e * (k == j) for k in range(3)), a))
    return SparseIntPoly.from_terms(3, terms), draw(st.sampled_from([5, 7, 11, 13]))


@settings(max_examples=40)
@given(case=diagonal_forms())
def test_orbits_of_diagonal_forms_are_the_closures(case):
    poly, p = case
    orbits = _orbits(*_symmetries(poly, p), p)
    sizes = Counter(_orbit_labels(unfiltered_symmetries(poly, p), 3, p).values())
    assert orbits == sorted(sizes.items())
    assert sum(size for _, size in orbits) == p ** 3


def test_orbits_refuse_a_transposition_of_unequal_scaling_subgroups():
    # x0 is scaled by -1 and x1 not at all, so a block of the two does not
    # map the cells of the scalings to cells
    with pytest.raises(AssertionError):
        _orbits([{1, 4}, {1}, {1}], [[0, 1], [2]], 5)


def test_a_block_of_seventeen_coordinates_has_eighteen_orbits():
    # the 17-variable Fermat cubic over F_2: S_i = {1} and one block, so an
    # orbit is the number k of coordinates that are 1, of size C(17, k)
    fermat = parse_poly("+".join(f"x{j}^3" for j in range(17)))
    start = time.perf_counter()
    orbits = _orbits(*_symmetries(fermat, 2), 2)
    assert time.perf_counter() - start < 1.0
    assert orbits == [((0,) * (17 - k) + (1,) * k, comb(17, k)) for k in range(18)]
    assert sum(size for _, size in orbits) == 2 ** 17


def _dense_rank(matrix):
    # Gaussian elimination over Q with exact fractions
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    # random rows, then zero, repeated, dependent and scaled rows among them
    width = draw(st.integers(1, 6))
    entries = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(entries), draw(entries)
        rows.append(draw(st.sampled_from([
            [0] * width, list(a), [s * x + t * y for x, y in zip(a, b)],
            [x * draw(st.integers(2, 6)) for x in a]])))
    return draw(st.permutations(rows))


@settings(max_examples=300)
@given(matrix=integer_matrices())
def test_sparse_rank_agrees_with_dense_elimination(matrix):
    rows = [[(c, v) for c, v in enumerate(row) if v] for row in matrix]
    assert _rank_sparse_int(iter(rows)) == _dense_rank(matrix)


def brute_force_jet_counts(poly, m, p):
    # every jet gamma_1 t + ... + gamma_m t^m over F_p, by direct truncated
    # polynomial arithmetic: nothing shared with the library's search
    n = poly.nvars
    counts = {}
    for flat in product(range(p), repeat=n * m):
        gammas = [flat[k * n:(k + 1) * n] for k in range(m)]
        series = [[0] + [g[j] for g in gammas] for j in range(n)]
        value = [0] * (m + 1)
        for exps, coeff in poly.terms:
            term = [coeff] + [0] * m
            for j, e in enumerate(exps):
                for _ in range(e):
                    term = [sum(term[i] * series[j][q - i] for i in range(q + 1))
                            for q in range(m + 1)]
            value = [a + b for a, b in zip(value, term)]
        if all(c % p == 0 for c in value[:m]) and value[m] % p == 1:
            order = next(k + 1 for k, g in enumerate(gammas) if any(g))
            counts[order] = counts.get(order, 0) + 1
    return counts


def test_counts_agree_with_enumerating_every_jet():
    twisted = SparseIntPoly.from_terms(3, [
        ((2, 0, 0), 1), ((0, 2, 0), 2), ((0, 0, 2), 1), ((1, 1, 1), 1)])
    for poly in (QUADRIC, twisted, MIXED_QUADRIC):
        report = count_contact_jets(poly, 3, 3)
        assert {rho: c for rho, c in report.by_order if c} == brute_force_jet_counts(poly, 3, 3)
