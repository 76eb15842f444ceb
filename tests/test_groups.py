from math import prod

import pytest
from hypothesis import given, strategies as st

from contactloci.groups import (
    FgAbGroup,
    GradedGroup,
    free_group,
    graded_sum,
    invariant_factors,
)

orders_lists = st.lists(st.integers(min_value=2, max_value=64), max_size=6)

fg_groups = st.builds(
    lambda rank, orders: FgAbGroup.from_orders(rank, orders),
    st.integers(min_value=0, max_value=5),
    orders_lists,
)

graded_groups = st.builds(
    lambda items: GradedGroup.from_dict(dict(items)),
    st.lists(st.tuples(st.integers(min_value=-6, max_value=12), fg_groups), max_size=5),
)


def test_invariant_factor_examples():
    assert invariant_factors([4, 2]) == (2, 4)
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([12, 60]) == (12, 60)
    assert invariant_factors([2, 4, 8, 3, 9, 5]) == (2, 12, 360)
    # large primes, which no order is split into
    big = 10 ** 20 + 39
    assert invariant_factors([big]) == (big,)
    assert invariant_factors([big, 2 * big, big * big]) == (big, big, 2 * big * big)
    assert invariant_factors([2 ** 61 - 1, 2 ** 89 - 1]) == ((2 ** 61 - 1) * (2 ** 89 - 1),)


# orders built from these primes, small and large, so that the reference
# below reads their factorisations off by division
PRIMES = (2, 3, 5, 7, 1_000_000_000_039, 10 ** 20 + 39, 2 ** 61 - 1)

built_orders = st.lists(
    st.lists(st.integers(0, 3), min_size=len(PRIMES), max_size=len(PRIMES))
    .map(lambda exps: prod(p ** e for p, e in zip(PRIMES, exps)))
    .filter(lambda t: t > 1),
    max_size=8)


def prime_factor_invariant_factors(orders):
    # reference: split every order into prime powers, then the k-th largest
    # factor takes the k-th largest power of each prime
    factors = [1] * len(orders)
    for p in PRIMES:
        powers = []
        for t in orders:
            power = 1
            while t % (power * p) == 0:
                power *= p
            powers.append(power)
        for k, power in enumerate(sorted(powers, reverse=True)):
            factors[k] *= power
    return tuple(f for f in reversed(factors) if f > 1)


@given(built_orders)
def test_invariant_factors_match_the_prime_factor_reference(orders):
    assert invariant_factors(orders) == prime_factor_invariant_factors(orders)


@given(orders_lists)
def test_normalization_is_idempotent(orders):
    factors = invariant_factors(orders)
    assert invariant_factors(factors) == factors
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


def test_constructor_validates_invariant_factors():
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbGroup(-1)


def test_from_orders_folds_free_and_trivial_parts():
    assert FgAbGroup.from_orders(1, (0, 1, 6)) == FgAbGroup(2, (6,))
    assert FgAbGroup.from_orders(0, (0,)) == free_group(1)
    assert FgAbGroup.from_orders(0, (1,)).is_zero


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
        # renormalised one summand at a time, where graded_sum pools first
        want = FgAbGroup()
        for g in groups:
            rank, torsion = g.at(k)
            want = FgAbGroup.from_orders(want.rank + rank, want.torsion + torsion)
        assert total.at(k) == want


def test_graded_sum_pools_torsion():
    z3 = GradedGroup.from_dict({5: FgAbGroup(0, (3,))})
    assert graded_sum([]) == GradedGroup()
    assert graded_sum([z3] * 4).at(5) == FgAbGroup(0, (3, 3, 3, 3))
    mixed = [z3, GradedGroup.from_dict({5: FgAbGroup(0, (2,)), 6: free_group(1)})]
    assert graded_sum(mixed) == GradedGroup.from_dict({5: FgAbGroup(0, (6,)), 6: free_group(1)})


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
