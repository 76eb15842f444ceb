import pytest
from hypothesis import given, strategies as st

from contactloci.contact import contact_cohomology
from contactloci.groups import FgAbGroup, GradedGroup, free_group, graded_sum
from contactloci.spectral import mclean_e1

# The only torsion the package builds is copies of Z/d for one d, so every
# group drawn in one example carries copies of the same order.
fg_groups = st.builds(
    lambda rank, d, copies: FgAbGroup(rank, (d,) * copies),
    st.integers(min_value=0, max_value=5),
    st.shared(st.integers(min_value=2, max_value=64), key="d"),
    st.integers(min_value=0, max_value=6),
)

graded_groups = st.builds(
    lambda items: GradedGroup.from_dict(dict(items)),
    st.lists(st.tuples(st.integers(min_value=-6, max_value=12), fg_groups), max_size=5),
)


def test_constructor_validates_invariant_factors():
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbGroup(-1)


def test_direct_sum_examples():
    z0 = GradedGroup.from_dict({0: free_group(1)})
    assert graded_sum([z0, z0]) == GradedGroup.from_dict({0: free_group(2)})
    a = GradedGroup.from_dict({1: FgAbGroup(0, (4,))})
    b = GradedGroup.from_dict({1: free_group(2)})
    assert graded_sum([a, b]) == GradedGroup.from_dict({1: FgAbGroup(2, (4,))})
    x = GradedGroup.from_dict({3: FgAbGroup(1, (2, 4))})
    assert graded_sum([x, GradedGroup()]) == x


def test_shift_examples():
    g = GradedGroup.from_dict({0: free_group(1)})
    assert g.shift(3) == GradedGroup.from_dict({3: free_group(1)})
    assert g.shift(0) == g
    two = GradedGroup.from_dict({2: free_group(6), 5: free_group(1)})
    assert two.shift(-2) == GradedGroup.from_dict({0: free_group(6), 3: free_group(1)})


def test_euler_char_examples():
    assert GradedGroup.from_dict({0: free_group(1)}).euler_char() == 1
    assert GradedGroup.from_dict({1: free_group(6)}).euler_char() == -6
    # torsion is invisible
    assert GradedGroup.from_dict({1: FgAbGroup(6, (4,))}).euler_char() == -6


@given(graded_groups, graded_groups)
def test_euler_char_is_additive(a, b):
    assert graded_sum([a, b]).euler_char() == a.euler_char() + b.euler_char()


@given(graded_groups, st.integers(min_value=-20, max_value=20))
def test_shift_round_trip(g, s):
    assert g.shift(s).shift(-s) == g


@given(graded_groups, graded_groups)
def test_direct_sum_commutes(a, b):
    assert graded_sum([a, b]) == graded_sum([b, a])


@given(st.lists(graded_groups, max_size=6))
def test_graded_sum_is_the_degreewise_sum(groups):
    total = graded_sum(groups)
    degrees = {k for g in groups for k, _ in g.entries}
    assert {k for k, _ in total.entries} == degrees
    for k in degrees:
        summands = [dict(g.entries).get(k, FgAbGroup()) for g in groups]
        want = FgAbGroup(sum(rank for rank, _ in summands),
                         tuple(t for _, torsion in summands for t in torsion))
        assert dict(total.entries)[k] == want


def test_graded_sum_pools_torsion():
    z3 = GradedGroup.from_dict({5: FgAbGroup(0, (3,))})
    assert graded_sum([]) == GradedGroup()
    assert dict(graded_sum([z3] * 4).entries)[5] == FgAbGroup(0, (3, 3, 3, 3))
    # a pool that is not already in invariant-factor form is refused, not normalized
    mixed = [z3, GradedGroup.from_dict({5: FgAbGroup(0, (2,)), 6: free_group(1)})]
    with pytest.raises(ValueError, match=r"invariant factors \(2, 3\) not ordered by divisibility"):
        graded_sum(mixed)


def test_torsion_is_copies_of_z_mod_d():
    # the premise of graded_sum: every torsion order the cohomology layers
    # build is d, and even n carries none; for odd n, the cone strata
    # (order rho < m/d) and the intermediate divisors each carry a Z/d
    for n in range(3, 10):
        for d in range(2, 9):
            for m in range(1, 41):
                groups = [g for _, g in contact_cohomology(n, d, m).entries]
                groups += [g for _, g in mclean_e1(n, d, m).entries]
                orders = {t for g in groups for t in g.torsion}
                assert orders == ({d} if n % 2 and m > d else set()), (n, d, m)


def test_graded_group_rejects_stored_zero():
    with pytest.raises(ValueError):
        GradedGroup(((0, FgAbGroup()),))
    with pytest.raises(ValueError):
        GradedGroup(((0, free_group(1)), (0, free_group(2))))


def test_rendering():
    assert str(FgAbGroup()) == "0"
    assert str(FgAbGroup(6, (4,))) == "Z^6 + Z/4"
    assert str(FgAbGroup(1)) == "Z"


@given(fg_groups)
def test_fg_group_doc_round_trip(g):
    # the document the command line prints rebuilds the group
    doc = g.to_doc()
    assert FgAbGroup(doc["rank"], tuple(doc["torsion"])) == g


@given(graded_groups)
def test_graded_doc_round_trip(g):
    rows = g.to_doc()
    assert GradedGroup(tuple((row["degree"], FgAbGroup(row["rank"], tuple(row["torsion"])))
                             for row in rows)) == g
