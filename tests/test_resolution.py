import copy
import pickle
import tracemalloc
from math import gcd
from operator import add

import pytest
from hypothesis import example, given, strategies as st

from contactloci.resolution import (
    CoprimePair,
    Divisor,
    ResolutionChain,
    _check_chain_invariants,
    build_minimal_resolution,
    exceptional_m_divisors,
    m_divisors,
    nef_fiber_identity,
    verify_minimality,
)
from sternbrocot import mediant_chain, parents_from_cf

GRID = [(n, d, m) for n in (2, 3, 5) for d in (1, 2, 3, 5, 8) for m in range(1, 26)]


def pairs_of(chain):
    return [(div.pair.kappa, div.pair.r) for div in chain]


def test_chain_3_2_4():
    chain = build_minimal_resolution(3, 2, 4)
    assert pairs_of(chain) == [(0, 1), (1, 1), (2, 1), (1, 0)]
    assert [div.multiplicity for div in chain] == [2, 3, 4, 1]
    assert [div.log_discrepancy for div in chain] == [3, 4, 5, 1]


def test_chain_without_insertions():
    # 5 + 1 > 4, so the bare blow-up is already 4-separating
    chain = build_minimal_resolution(3, 5, 4)
    assert pairs_of(chain) == [(0, 1), (1, 0)]


def test_chain_3_2_6_matches_closed_form():
    chain = build_minimal_resolution(3, 2, 6)
    intermediate = {div.pair for div in chain.divisors[1:-1]}
    assert intermediate == {(1, 2), (1, 1), (2, 1), (3, 1), (4, 1)}
    # ordered by decreasing slope r/kappa
    assert pairs_of(chain) == [(0, 1), (1, 2), (1, 1), (2, 1), (3, 1), (4, 1), (1, 0)]


def test_build_rejects_bad_parameters():
    for bad in ((1, 2, 4), (2, 0, 4), (2, 2, 0), (0, 2, 4), (-3, 2, 4), (2, -1, 4),
                (2, 2, -5), (1, 0, 0)):
        with pytest.raises(ValueError):
            build_minimal_resolution(*bad)


@pytest.mark.parametrize("n,d,m", [(3, 2, 12), (4, 3, 17), (2, 1, 9), (5, 8, 40)])
def test_chain_invariants(n, d, m):
    chain = build_minimal_resolution(n, d, m)
    assert verify_minimality(chain)
    for a, b in zip(chain.divisors, chain.divisors[1:]):
        det = a.pair.kappa * b.pair.r - b.pair.kappa * a.pair.r
        assert det == -1
        assert a.multiplicity + b.multiplicity > m
    for div in chain.intermediate_divisors():
        low, high = parents_from_cf(div.pair.kappa, div.pair.r)
        for value, coeff in ((div.multiplicity, d), (div.log_discrepancy, n)):
            assert value == (low[0] + coeff * low[1]) + (high[0] + coeff * high[1])


def test_built_divisors_pass_the_checking_constructors():
    # the build wraps pairs and divisors without their constructors' checks
    for n in range(2, 10):
        for d in range(1, 9):
            for m in range(1, 61):
                chain = build_minimal_resolution(n, d, m)
                assert {(type(div), type(div.pair)) for div in chain} == {(Divisor, CoprimePair)}
                assert list(chain) == [Divisor.for_params(CoprimePair(*div.pair), n, d)
                                       for div in chain], (n, d, m)


def test_built_chain_is_the_mediant_insertion_order():
    # the build lists the chain by the Farey next-term rule; the reference
    # replays the blow-ups, whose pairs do not depend on n
    for d in range(1, 9):
        for m in range(1, 61):
            expected = mediant_chain(d, m)
            for n in range(2, 10):
                assert pairs_of(build_minimal_resolution(n, d, m)) == expected, (n, d, m)
    assert pairs_of(build_minimal_resolution(3, 2, 800)) == mediant_chain(2, 800)


def test_each_field_holds_one_int_object_per_value():
    # the values of kappa and r past 256, which the interpreter does not
    # cache, are drawn from a per-build table, so equal values are one
    # object; a chain holds no N or nu
    for n, d, m in [(n, d, m) for n in (2, 3, 8) for d in (1, 3, 7) for m in (270, 400)] + [
            (3, 400, 1000), (10**6, 2, 300)]:
        chain = build_minimal_resolution(n, d, m)
        for field in ("kappa", "r"):
            values = [getattr(div.pair, field) for div in chain]
            assert len(set(map(id, values))) == len(set(values)), (n, d, m, field)
    # kappa and r come from the one table, so the fields share their objects too
    chain = build_minimal_resolution(8, 2, 770)
    values = [value for div in chain for value in div.pair]
    assert len(chain) == 90209
    assert len(set(map(id, values))) == len(set(values)) == 769


@pytest.mark.parametrize("n,d,m", [(10**8, 1, 30), (3, 10**9, 10**9 + 1),
                                   (3, 10**9 - 5, 10**9 + 1), (10**6, 2, 60)])
def test_value_tables_are_no_longer_than_the_chain(n, d, m):
    # a table over range(nu) or range(m) would hold billions of entries here
    tracemalloc.start()
    try:
        chain = build_minimal_resolution(n, d, m)
        assert verify_minimality(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_a_chain_holds_its_rows_and_index_not_its_divisors():
    # 90,209 divisors: one Divisor and one CoprimePair each would hold about
    # 11 MB, and a dict from the pairs or their int keys to rows 8-10 MB more;
    # the rows' 180,418 ints take about 1.4 MiB and the 148,225 table slots
    # 0.6 MiB; rows that held N and nu too would take 2.9 MiB
    tracemalloc.start()
    try:
        chain = build_minimal_resolution(8, 2, 770)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chain) == 90209
    assert held < 2.5 * 2**20 and peak < 2.5 * 2**20, (held, peak)


def test_tables_grow_with_the_chain_not_with_m_squared():
    # the pairs, and so the tables, do not depend on n, so each (d, m) is
    # built once, with n running through 2..9; the most slots per divisor,
    # 136/81, are at d = 1, m = 16
    for d in range(1, 12):
        for m in range(1, 201):
            chain = build_minimal_resolution(2 + (d + m) % 8, d, m)
            tables = chain[4]
            assert len(tables) == m // d + 1 and not tables[0]
            assert sum(map(len, tables)) <= 1.7 * len(chain), (d, m)
            # a pair has a slot when r >= 1 and N <= m: all but (1, 0), and
            # but (0, 1), whose N is d, when d > m
            filled = sum(len(t) - t.count(-1) for t in tables)
            assert filled == len(chain) - 1 - (d > m), (d, m)


def test_closed_form_equivalence_over_grid():
    for n, d, m in GRID:
        chain = build_minimal_resolution(n, d, m)
        # the closed form: coprime (kappa, r) with both >= 1 and kappa + r*d <= m
        expected = {(kappa, r) for r in range(1, m // d + 1)
                    for kappa in range(1, m - r * d + 1) if gcd(kappa, r) == 1}
        assert {div.pair for div in chain.divisors[1:-1]} == expected, (n, d, m)


def test_verify_minimality_rejects_extra_divisor():
    # (1, 2) has multiplicity 5 > 4: its parents were already separated
    pairs = [CoprimePair(0, 1), CoprimePair(1, 2), CoprimePair(1, 1),
             CoprimePair(2, 1), CoprimePair(1, 0)]
    bloated = ResolutionChain(3, 2, 4, tuple(Divisor.for_params(p, 3, 2) for p in pairs))
    assert not verify_minimality(bloated)


def test_m_divisors_examples():
    chain = build_minimal_resolution(3, 2, 4)
    entries = m_divisors(chain).entries
    assert [(e.index, e.divisor.pair) for e in entries] == [
        (-2, (0, 1)), (-1, (2, 1)), (0, (1, 0))]
    assert [e.exceptional for e in entries] == [True, True, False]

    only_strict = m_divisors(build_minimal_resolution(3, 5, 4)).entries
    assert [(e.index, e.divisor.pair) for e in only_strict] == [(0, (1, 0))]

    chain8 = build_minimal_resolution(3, 4, 8)
    entries8 = m_divisors(chain8).entries
    assert [(e.index, e.divisor.pair) for e in entries8] == [
        (-2, (0, 1)), (-1, (4, 1)), (0, (1, 0))]
    assert all(8 % e.divisor.multiplicity == 0 for e in entries8)


def test_m_divisors_are_exactly_divisors_with_dividing_multiplicity():
    for n, d, m in [(3, 2, 12), (4, 3, 18), (3, 5, 20), (2, 1, 7)]:
        chain = build_minimal_resolution(n, d, m)
        listed = {e.divisor.pair for e in m_divisors(chain).entries}
        by_multiplicity = {div.pair for div in chain if m % div.multiplicity == 0}
        assert listed == by_multiplicity


def test_m_divisor_index_range():
    assert m_divisors(build_minimal_resolution(3, 2, 4)).entries[-1].divisor.pair == (1, 0)


def test_exceptional_m_divisors_shortcut_agrees_with_chain():
    for n, d, m in [(3, 2, 10), (3, 4, 8), (4, 4, 16), (2, 1, 6)]:
        chain = build_minimal_resolution(n, d, m)
        from_chain = [e.divisor for e in m_divisors(chain).entries if e.exceptional]
        assert list(exceptional_m_divisors(n, d, m)) == from_chain


def test_fresh_mediant_has_zero_counts():
    # a divisor flanked by its own parents is the mediant of its neighbours,
    # so their N and nu add up to its own: the factor of the nef identity is 1
    chain = build_minimal_resolution(3, 3, 12)
    divs = chain.divisors
    fresh = 0
    for left, div, right in zip(divs, divs[1:], divs[2:]):
        if (left.pair, right.pair) == parents_from_cf(*div.pair):
            assert tuple(map(add, left.pair, right.pair)) == div.pair
            assert tuple(map(add, left[1:], right[1:])) == div[1:]
            assert nef_fiber_identity(chain, div.pair)
            fresh += 1
    assert fresh == 5


def test_nef_fiber_identity_examples_and_grid():
    chain = build_minimal_resolution(3, 2, 4)
    assert nef_fiber_identity(chain, CoprimePair(1, 1))
    assert nef_fiber_identity(chain, CoprimePair(2, 1))
    for n in (2, 4):
        for d in (1, 3, 6):
            for m in range(1, 16):
                c = build_minimal_resolution(n, d, m)
                assert all(nef_fiber_identity(c, div.pair)
                           for div in c.intermediate_divisors()), (n, d, m)


@given(st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=40))
def test_random_chain_is_minimal_and_separating(n, d, m):
    chain = build_minimal_resolution(n, d, m)
    assert verify_minimality(chain)
    assert all(nef_fiber_identity(chain, div.pair)
               for div in chain.intermediate_divisors())


def test_chain_doc_round_trip():
    chain = build_minimal_resolution(4, 3, 9)
    doc = chain.to_doc()
    # the document the resolve command prints rebuilds the chain
    rebuilt = ResolutionChain(doc["n"], doc["d"], doc["m"], tuple(
        Divisor(CoprimePair(row["kappa"], row["r"]), row["N"], row["nu"])
        for row in doc["divisors"]))
    assert rebuilt == chain and rebuilt.to_doc() == doc
    assert doc["divisors"][0] == {"kappa": 0, "r": 1, "N": 3, "nu": 4,
                                  "kind": "first_exceptional"}


def test_coprime_pair_validation():
    for bad, message in (((2, 4), "not coprime"), ((0, 2), "not coprime"),
                         ((6, 9), "not coprime"), ((0, 0), "not a valid pair"),
                         ((-1, 2), "non-negative"), ((1, -1), "non-negative"),
                         ((-1, 0), "non-negative")):
        with pytest.raises(ValueError, match=message):
            CoprimePair(*bad)


def test_divisor_validation():
    pair = CoprimePair(2, 1)
    for mult, disc in ((0, 5), (4, 0), (-1, 5)):
        with pytest.raises(ValueError, match="positive"):
            Divisor(pair, mult, disc)
    # the kind is the pair's, so no divisor can disagree with its pair
    assert [Divisor(CoprimePair(*p), 2, 3).kind for p in ((2, 1), (1, 0), (0, 1))] == [
        "intermediate", "strict_transform", "first_exceptional"]


BUILT_3_2_4 = [(0, 1), (1, 1), (2, 1), (1, 0)]


def chain_of(pairs, n=3, d=2, m=4):
    return ResolutionChain(n, d, m, tuple(Divisor.for_params(CoprimePair(*p), n, d)
                                          for p in pairs))


def wrapped(rows, n=3, d=2, m=4):
    # a chain of (pair, N, nu) rows, wrapped without the pair and divisor
    # constructors' checks; the chain's own refuses N or nu off the pair
    new = tuple.__new__
    return ResolutionChain(n, d, m, tuple(
        new(Divisor, (new(CoprimePair, pair), mult, disc)) for pair, mult, disc in rows))


@pytest.mark.parametrize("pairs", [
    # missing (2, 1), whose multiplicity 4 is at most m
    [(0, 1), (1, 1), (1, 0)],
    # missing (1, 1), N = 3; every adjacent pair is separated
    [(0, 1), (2, 1), (1, 0)],
    # missing both
    [(0, 1), (1, 0)],
    # (3, 1), N = 5, in place of (2, 1): as many divisors as the closed form
    [(0, 1), (1, 1), (3, 1), (1, 0)],
    # no strict transform
    [(0, 1), (1, 1), (2, 1)],
    # no first blow-up
    [(1, 1), (2, 1), (1, 0)],
])
def test_verify_minimality_rejects_missing_divisor(pairs):
    assert not verify_minimality(chain_of(pairs))


def minimality_by_sets(chain):
    # (0, 1) first and (1, 0) last, the slopes kappa/r strictly increasing,
    # so no pair twice, the pairs between hashed into a set of their own
    # against the closed form as a set, and every adjacent multiplicity sum
    d, m = chain.d, chain.m
    pairs = [div.pair for div in chain]
    predicted = {(kappa, r) for r in range(1, m // d + 1)
                 for kappa in range(1, m - r * d + 1) if gcd(kappa, r) == 1}
    mults = [div.multiplicity for div in chain]
    return (pairs[:1] == [(0, 1)] and pairs[-1:] == [(1, 0)]
            and all(a[0] * b[1] < b[0] * a[1] for a, b in zip(pairs, pairs[1:]))
            and set(pairs[1:-1]) == predicted
            and all(a + b > m for a, b in zip(mults, mults[1:])))


@st.composite
def edited_chains(draw):
    # a built chain, perhaps shuffled, then closed-form pairs dropped,
    # duplicated or moved, coprime pairs added, and endpoints put anywhere
    n, d, m = draw(st.integers(2, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 24))
    pairs = pairs_of(build_minimal_resolution(n, d, m))
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs))
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("drop", "duplicate", "move", "add", "endpoint")))
        if op in ("drop", "duplicate", "move") and pairs:
            pair = pairs[draw(st.integers(0, len(pairs) - 1))]
            if op != "duplicate":
                pairs.remove(pair)
            if op != "drop":
                pairs.insert(draw(st.integers(0, len(pairs))), pair)
        elif op == "add":
            kappa, r = draw(st.integers(0, m + 2)), draw(st.integers(0, m // d + 2))
            if gcd(kappa, r) == 1:
                pairs.insert(draw(st.integers(0, len(pairs))), (kappa, r))
        elif op == "endpoint":
            pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from([(0, 1), (1, 0)])))
    return chain_of(pairs, n, d, m)


@given(edited_chains())
@example(chain_of([(0, 1), (1, 1), (2, 1), (1, 0)]))
@example(chain_of([(1, 1), (2, 1), (1, 0)]))
# as many divisors as the closed form, Farey neighbours in slope order and
# separated, but no first blow-up
@example(chain_of([(1, 1), (2, 1), (3, 1), (1, 0)]))
@example(chain_of([(1, 1), (0, 1), (2, 1), (1, 1), (1, 0)], m=3))
# Farey neighbours and separated throughout, but every divisor of the built
# chain (0, 1), (1, 1), (1, 0) but the last comes twice
@example(chain_of([(0, 1), (1, 1), (0, 1), (1, 1), (1, 0)], 2, 1, 2))
def test_verify_minimality_matches_a_set_based_check(chain):
    # verify_minimality walks the chain and compares its length with a
    # closed-form count; the reference builds sets of its own
    assert verify_minimality(chain) == minimality_by_sets(chain)


def test_verify_minimality_rejects_non_separating_chain():
    # the intermediate divisors are the closed-form set, but (0, 1) sits
    # next to (1, 0) and 2 + 1 <= 4
    chain = chain_of([(0, 1), (1, 0), (1, 1), (2, 1)])
    assert {div.pair for div in chain.intermediate_divisors()} == {(1, 1), (2, 1)}
    assert not verify_minimality(chain)
    # as many divisors as the closed form, Farey neighbours in slope order,
    # but (1, 1) sits next to (1, 0) and 3 + 1 <= 4
    assert not verify_minimality(chain_of([(0, 1), (1, 2), (1, 1), (1, 0)]))


def test_verify_minimality_needs_the_count():
    # the (3, 2, 5) chain relabelled m = 4: Farey neighbours in slope order
    # and 4-separating, so it passes the walk, but it has 6 divisors, not 4
    chain = chain_of(pairs_of(build_minimal_resolution(3, 2, 5)))
    _check_chain_invariants(chain)
    assert len(chain) == 6 and not verify_minimality(chain)


def test_verify_minimality_needs_the_walk():
    # as many divisors as the closed form, but (1, 1) comes twice
    chain = chain_of([(0, 1), (1, 1), (1, 1), (1, 0)])
    assert len(chain) == len(build_minimal_resolution(3, 2, 4))
    with pytest.raises(AssertionError, match="Farey"):
        _check_chain_invariants(chain)
    assert not verify_minimality(chain)


@pytest.mark.parametrize("pairs,pair,side", [
    # (1, 1) is first: its left neighbour must not wrap round to (1, 0)
    ([(1, 1), (2, 1), (1, 0)], (1, 1), "left"),
    ([(0, 1), (1, 1), (2, 1)], (2, 1), "right"),
])
def test_flanks_refuse_a_missing_neighbour(pairs, pair, side):
    with pytest.raises(ValueError, match=f"has no {side} neighbour in this chain"):
        nef_fiber_identity(chain_of(pairs), CoprimePair(*pair))


@pytest.mark.parametrize("pairs,pair,message", [
    (BUILT_3_2_4, (0, 1), r"\(0,1\) is a chain endpoint, adjacency is undefined"),
    (BUILT_3_2_4, (1, 0), r"\(1,0\) is a chain endpoint, adjacency is undefined"),
    (BUILT_3_2_4, (3, 1), r"pair \(3,1\) is not a divisor of this chain"),
    # an endpoint pair is refused as such wherever a hand-made chain holds it
    ([(1, 1), (2, 1), (1, 0)], (0, 1), "chain endpoint"),
    ([(1, 1), (0, 1), (2, 1), (1, 0)], (0, 1), "chain endpoint"),
    ([(0, 1), (1, 0), (1, 1), (2, 1)], (1, 0), "chain endpoint"),
])
def test_flanks_messages(pairs, pair, message):
    with pytest.raises(ValueError, match=message):
        nef_fiber_identity(chain_of(pairs), CoprimePair(*pair))


def unchecked(pairs, n=3, d=2, m=4):
    # a chain of pairs with their linear forms, which CoprimePair may refuse
    return wrapped([(p, p[0] + p[1] * d, p[0] + p[1] * n) for p in pairs], n, d, m)


# at (3, 2, 4) the tables cover 1 <= r <= 2 and kappa <= 4 - 2r, so (0, 6)
# has no slot, though kappa*5 + r would key it as 6, like (1, 1): a pair in
# the tables is found by its slot, and one outside them by the scan
SHARED_KEY_3_2_4 = [(0, 1), (1, 1), (1, 0), (0, 6)]


def test_a_shared_key_finds_the_pair_by_its_row():
    # (1, 1) is found by its slot, whatever row (0, 6) takes
    assert nef_fiber_identity(unchecked(SHARED_KEY_3_2_4), CoprimePair(1, 1)) is True
    # (1, 7) lies past the tables, and the scan finds it between (0, 1) and
    # (2, 2), which fails the determinant test
    with pytest.raises(AssertionError, match="non-integral blow-up count"):
        nef_fiber_identity(unchecked([(0, 1), (1, 7), (2, 2)]), CoprimePair(1, 7))
    # (1, 1) comes first, and the row of (0, 6), outside the tables, sits
    # between neighbours that would pass the determinant test for (1, 1)
    with pytest.raises(ValueError, match=r"\(1,1\) has no left neighbour"):
        nef_fiber_identity(unchecked([(1, 1), (0, 1), (0, 6), (1, 0)]), CoprimePair(1, 1))


@pytest.mark.parametrize("pairs,pair", [
    # (3, 1) lies past the tables, so the scan looks for it
    (SHARED_KEY_3_2_4, (3, 1)),
    # (1, 1) has a slot of -1, and the scan finds no row of it beside (0, 6)
    ([(0, 1), (0, 6), (1, 0)], (1, 1)),
])
def test_a_shared_key_refuses_an_absent_pair(pairs, pair):
    with pytest.raises(ValueError, match=r"pair \(\d,\d\) is not a divisor of this chain"):
        nef_fiber_identity(unchecked(pairs), CoprimePair(*pair))


def outcome(chain, pair):
    try:
        return nef_fiber_identity(chain, CoprimePair(*pair))
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("pairs", [
    BUILT_3_2_4, [(0, 1), (1, 1), (1, 0)], [(1, 1), (2, 1), (1, 0)],
    [(0, 1), (1, 1), (3, 1), (1, 0)], [(1, 1), (0, 1), (2, 1), (1, 0)]])
def test_a_hand_made_chain_past_its_slots_takes_the_scan(pairs):
    # tables for m = 10**9 would hold 2.5 * 10**17 slots: the chain gets
    # none, and every pair is looked up by the scan
    tracemalloc.start()
    try:
        chain = chain_of(pairs, m=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert chain[4] == []
    small = chain_of(pairs)
    for pair in {*pairs, (0, 1), (1, 0), (1, 2), (3, 1)}:
        assert outcome(chain, pair) == outcome(small, pair), pair


def test_values_outside_the_domain_take_the_scan():
    # a negative entry would read a table from its end: (-2, 2) the slot of
    # (7, 2), and (1, -2) that of (1, 5)
    chain = build_minimal_resolution(3, 2, 12)
    for pair in ((-2, 2), (1, -2)):
        with pytest.raises(ValueError, match="is not a divisor of this chain"):
            nef_fiber_identity(chain, pair)
    # nor does a row with a negative entry take another pair's slot: (-1, 1)
    # would write to the slot of (2, 1)
    assert nef_fiber_identity(unchecked(BUILT_3_2_4 + [(-1, 1)]), CoprimePair(2, 1)) is True
    # at d = 0 there is no m // d, and a hand-made chain gets no tables
    chain = chain_of([(1, 1), (2, 1), (1, 0)], d=0)
    assert chain[4] == [] and nef_fiber_identity(chain, CoprimePair(2, 1))


@pytest.mark.parametrize("pairs,pair", [
    # right neighbour (4, 1) of (2, 1): (4 - 1) / 2 is not integral
    ([(0, 1), (1, 1), (2, 1), (4, 1), (1, 0)], (2, 1)),
    # right neighbour (3, 1) of (1, 1): kappa and r give different counts
    ([(0, 1), (1, 1), (3, 1), (1, 0)], (1, 1)),
    # left neighbour (0, 1) of (2, 1): (0 - 1) / 2 is not integral
    ([(0, 1), (2, 1), (1, 0)], (2, 1)),
    # left neighbour (4, 3) of (2, 1): (4 - 1) / 2 is not integral
    ([(0, 1), (4, 3), (2, 1), (1, 0)], (2, 1)),
    # left neighbour (4, 1) of (3, 1): (4 - 2) / 3 is not integral, though
    # its floor 0 agrees with (1 - 1) / 1
    ([(0, 1), (4, 1), (3, 1), (1, 0)], (3, 1)),
    # left neighbour (1, 4) of (1, 2): (4 - 1) / 2 is not integral, though
    # its floor 1 agrees with (1 - 0) / 1
    ([(0, 1), (1, 4), (1, 2), (1, 1), (1, 0)], (1, 2)),
])
def test_blowup_counts_rejects_wrong_neighbours(pairs, pair):
    with pytest.raises(AssertionError, match="blow-up count"):
        nef_fiber_identity(chain_of(pairs), CoprimePair(*pair))
    assert nef_fiber_identity(chain_of(BUILT_3_2_4), CoprimePair(1, 1))


@pytest.mark.parametrize("divisors,message", [
    ([((1, 1), 3, 4), ((2, 1), 4, 5), ((1, 0), 1, 1)], "endpoints"),
    ([((0, 1), 2, 3), ((1, 1), 3, 4), ((2, 1), 4, 5)], "endpoints"),
    # Farey neighbours in slope order, but (1, 1) next to (1, 0), and 3 + 1 <= 4
    ([((0, 1), 2, 3), ((1, 2), 5, 7), ((1, 1), 3, 4), ((1, 0), 1, 1)],
     r"^chain is not 4-separating at \(1,1\), \(1,0\)$"),
    # a negative r: without the entry check (0, 1), (1, -1) would pass as
    # Farey neighbours and fail separation
    ([((0, 1), 2, 3), ((1, -1), -1, -2), ((1, 0), 1, 1)], r"^\(1,-1\) has a negative entry$"),
    ([((0, 1), 2, 3), ((2, 1), 4, 5), ((1, 1), 3, 4), ((1, 0), 1, 1)], "Farey"),
    ([((0, 1), 2, 3), ((1, 0), 1, 1)], "separating"),
    # CoprimePair refuses (-1, 1), so the rows are wrapped without the checks
    ([((0, 1), 2, 3), ((-1, 1), 1, 2), ((1, 0), 1, 1)], "negative"),
    # two faults: (1, 1), (3, 1) have determinant -2, and (3, 1), (2, 1) +1
    ([((0, 1), 2, 3), ((1, 1), 3, 4), ((3, 1), 5, 6), ((2, 1), 4, 5), ((1, 0), 1, 1)],
     r"^\(1,1\), \(3,1\) are not Farey neighbors$"),
    # determinant +1: Farey neighbours, but the slope falls from (1, 1) to (1, 2)
    ([((0, 1), 2, 3), ((1, 1), 3, 4), ((1, 2), 5, 7), ((1, 0), 1, 1)],
     r"^\(1,1\), \(1,2\) are out of slope order$"),
])
def test_chain_invariant_check_rejects_broken_chains(divisors, message):
    """The check walks the chain once, from the left: each divisor's
    entries, then its determinant, which must be -1, and separation against
    the previous divisor.  So the leftmost fault is the one reported."""
    with pytest.raises(AssertionError, match=message):
        _check_chain_invariants(wrapped(divisors))
    _check_chain_invariants(build_minimal_resolution(3, 2, 4))


@pytest.mark.parametrize("mult,disc", [(4, 4), (3, 5)])
def test_a_chain_refuses_n_or_nu_off_the_linear_forms(mult, disc):
    # a chain holds the pairs alone and reads N = kappa + r*d and
    # nu = kappa + r*n off them, so the constructor, the one entry point for
    # outside values, refuses others: (1, 1) has N = 3 and nu = 4 at (3, 2, 4)
    divisors = [Divisor.for_params(CoprimePair(*pair), 3, 2) for pair in BUILT_3_2_4]
    divisors[1] = Divisor(CoprimePair(1, 1), mult, disc)
    with pytest.raises(ValueError, match=r"^\(1,1\) has N, nu = "):
        ResolutionChain(3, 2, 4, tuple(divisors))
    divisors[1] = Divisor(CoprimePair(1, 1), 3, 4)
    assert ResolutionChain(3, 2, 4, tuple(divisors)) == build_minimal_resolution(3, 2, 4)


def test_m_divisors_rejects_chain_without_an_m_divisor():
    # E_{-1} = (2, 1) for (n, d, m) = (3, 2, 4)
    with pytest.raises(AssertionError, match="missing"):
        m_divisors(chain_of([(0, 1), (1, 1), (1, 0)]))
    # E_{-2} = (0, 1)
    with pytest.raises(AssertionError, match="missing"):
        m_divisors(chain_of([(1, 1), (2, 1), (1, 0)]))
    assert len(m_divisors(chain_of([(0, 1), (1, 1), (2, 1), (1, 0)])).entries) == 3


def test_value_semantics():
    a, b = CoprimePair(3, 2), CoprimePair(3, 2)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != CoprimePair(2, 3)
    assert len({a, b, CoprimePair(2, 3)}) == 2
    div = Divisor.for_params(a, 4, 5)
    assert div == Divisor(CoprimePair(3, 2), 13, 11)
    assert hash(div) == hash(Divisor.for_params(b, 4, 5))
    assert div != Divisor.for_params(a, 5, 5)

    chain = build_minimal_resolution(3, 2, 12)
    pairs = {div.pair for div in chain}
    assert CoprimePair(5, 3) in pairs and CoprimePair(3, 5) not in pairs
    assert Divisor.for_params(CoprimePair(5, 3), 3, 2) in chain.divisors
    assert chain.divisors.index(Divisor(CoprimePair(1, 0), 1, 1)) == len(chain) - 1

    for obj in (a, div, chain):
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj
    for clone in (pickle.loads(pickle.dumps(chain)), copy.deepcopy(chain)):
        assert clone[4] == chain[4]
        assert all(nef_fiber_identity(clone, div.pair) for div in chain.intermediate_divisors())

    for obj, attr in ((a, "kappa"), (a, "r"), (a, "other"), (div, "multiplicity"),
                      (div, "pair"), (div, "kind"), (div, "other")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, 1)


def test_value_text_and_documents():
    assert str(CoprimePair(5, 3)) == "(5,3)"
    assert str(CoprimePair(1, 0)) == "(1,0)"
    kinds = {(1, 0): "strict_transform", (0, 1): "first_exceptional",
             (1, 1): "intermediate", (7, 2): "intermediate"}
    for pair, kind in kinds.items():
        assert CoprimePair(*pair).kind == kind
    assert Divisor.for_params(CoprimePair(5, 3), 4, 2).to_doc() == {
        "kappa": 5, "r": 3, "N": 11, "nu": 17, "kind": "intermediate"}
    assert list(Divisor.for_params(CoprimePair(1, 0), 4, 2).to_doc()) == [
        "kappa", "r", "N", "nu", "kind"]
    entry = m_divisors(build_minimal_resolution(3, 2, 4)).entries[1]
    assert entry.to_doc() == {"i": -1, "kappa": 2, "r": 1, "N": 4, "nu": 5,
                              "kind": "intermediate", "exceptional": True}
    assert list(entry.to_doc()) == ["i", "kappa", "r", "N", "nu", "kind", "exceptional"]


def reduced(a, b):
    g = gcd(a, b)
    return a // g, b // g


coprime_pairs = st.builds(reduced, st.integers(min_value=1, max_value=500),
                          st.integers(min_value=1, max_value=500))
large_coprime_pairs = st.builds(reduced, st.integers(min_value=1, max_value=10 ** 18),
                                st.integers(min_value=1, max_value=10 ** 18))


def test_parents_examples():
    assert parents_from_cf(1, 1) == ((0, 1), (1, 0))
    assert parents_from_cf(2, 1) == ((1, 1), (1, 0))
    assert parents_from_cf(5, 3) == ((3, 2), (2, 1))


def test_parents_reject_endpoints():
    with pytest.raises(ValueError):
        parents_from_cf(1, 0)
    with pytest.raises(ValueError):
        parents_from_cf(0, 1)


def test_parents_reject_non_coprime():
    with pytest.raises(ValueError, match="not a coprime pair"):
        parents_from_cf(6, 9)


@given(coprime_pairs)
def test_parents_are_mediant_summands(pair):
    kappa, r = pair
    low, high = parents_from_cf(kappa, r)
    assert low[0] + high[0] == kappa
    assert low[1] + high[1] == r
    assert gcd(low[0], low[1]) == 1
    assert gcd(high[0], high[1]) == 1
    # the low parent sits on the (0, 1) side: low < kappa/r < high
    assert low[0] * r < kappa * low[1] and kappa * high[1] < high[0] * r
    # parent and child are Farey neighbors
    assert abs(low[0] * r - kappa * low[1]) == 1
    assert abs(high[0] * r - kappa * high[1]) == 1


def stern_brocot_parents(kappa, r):
    # descend the Stern-Brocot tree from the endpoints (0, 1) and (1, 0),
    # keeping the interval that contains kappa / r, until the mediant hits it
    low, high = (0, 1), (1, 0)
    while True:
        mid = (low[0] + high[0], low[1] + high[1])
        if mid == (kappa, r):
            return low, high
        if kappa * mid[1] < mid[0] * r:
            high = mid
        else:
            low = mid


def test_parents_match_stern_brocot_descent():
    checked = 0
    for kappa in range(1, 151):
        for r in range(1, 151):
            if gcd(kappa, r) == 1:
                assert parents_from_cf(kappa, r) == stern_brocot_parents(kappa, r), (kappa, r)
                checked += 1
    assert checked == 13_715


def convergent_parents(kappa, r):
    # Truncate the continued fraction of kappa / r: one Euclidean pass runs
    # the convergent recurrence h_i = q_i h_(i-1) + h_(i-2); the truncated
    # expansion is the next-to-last convergent, and the one with its last
    # quotient decremented is (q_k - 1) h_(k-1) + h_(k-2).
    h2, k2, h1, k1 = 0, 1, 1, 0
    a, b = kappa, r
    q = a // b
    while a != q * b:
        a, b = b, a - q * b
        h2, k2, h1, k1 = h1, k1, q * h1 + h2, q * k1 + k2
        q = a // b
    assert b == 1, "not a coprime pair"
    h, k = (q - 1) * h1 + h2, (q - 1) * k1 + k2
    assert (h1 + h, k1 + k) == (kappa, r)
    return ((h, k), (h1, k1)) if h * k1 < h1 * k else ((h1, k1), (h, k))


# consecutive Fibonacci numbers have the longest expansions for their size
@example((679891637638612258, 420196140727489673))
@example((420196140727489673, 679891637638612258))
@given(large_coprime_pairs)
def test_parents_match_the_convergent_recurrence(pair):
    assert parents_from_cf(*pair) == convergent_parents(*pair)


def counts_by_definition(pair, left, right):
    # n' = (kappa_L - kappa')/kappa = (r_L - r')/r from the low mediant parent
    # (kappa', r'), and n'' likewise from the high one; None where a count is
    # not one integer
    kappa, r = pair
    counts = []
    for (kn, rn), (kp, rp) in zip((left, right), parents_from_cf(kappa, r)):
        count = (kn - kp) // kappa
        if (kn - kp, rn - rp) != (count * kappa, count * r):
            return None
        counts.append(count)
    return tuple(counts)


def identity_by_definition(left, div, right):
    # the nef identity with counts_by_definition's counts; None where they
    # are not integers
    counts = counts_by_definition(div.pair, left.pair, right.pair)
    if counts is None:
        return None
    factor = 1 + sum(counts)
    return (left.multiplicity + right.multiplicity == factor * div.multiplicity
            and left.log_discrepancy + right.log_discrepancy == factor * div.log_discrepancy)


def test_blowup_counts_match_the_parents_on_built_chains():
    checked = 0
    for n in range(2, 6):
        for d in range(1, 9):
            for m in range(1, 61):
                chain = build_minimal_resolution(n, d, m)
                divs = chain.divisors
                for left, div, right in zip(divs, divs[1:], divs[2:]):
                    expected = identity_by_definition(left, div, right)
                    assert expected is True, (n, d, m, div.pair)
                    assert nef_fiber_identity(chain, div.pair) is True, (n, d, m, div.pair)
                    checked += 1
    assert checked == 247_388


@st.composite
def flanked_chains(draw):
    # a coprime pair between two neighbours with non-negative entries, as a
    # three-divisor chain.  Each neighbour is its parent plus a multiple of
    # the pair, such a point moved by one in either entry, or arbitrary, so
    # that integral counts, near misses, non-coprime neighbours and the
    # multiples below the parent all come up.
    n, d = draw(st.integers(min_value=2, max_value=5)), draw(st.integers(min_value=1, max_value=8))
    kappa, r = draw(st.builds(reduced, st.integers(min_value=1, max_value=40),
                              st.integers(min_value=1, max_value=40)))
    sides = []
    for pk, pr in parents_from_cf(kappa, r):
        multiples = st.builds(lambda t: (pk + t * kappa, pr + t * r),
                              st.integers(min_value=-2, max_value=6))
        moved = st.builds(lambda v, dk, dr: (v[0] + dk, v[1] + dr), multiples,
                          st.integers(min_value=-1, max_value=1),
                          st.integers(min_value=-1, max_value=1))
        arbitrary = st.tuples(st.integers(min_value=0, max_value=300),
                              st.integers(min_value=0, max_value=300))
        sides.append(draw(st.one_of(multiples, moved, arbitrary).filter(
            lambda v: min(v) >= 0 and v != (kappa, r))))
    return unchecked([sides[0], (kappa, r), sides[1]], n, d)


@example(wrapped([((0, 1), 2, 3), ((1, 1), 3, 4), ((1, 0), 1, 1)]))
@example(wrapped([((1, 1), 3, 4), ((2, 1), 4, 5), ((1, 0), 1, 1)]))
@example(wrapped([((0, 1), 2, 3), ((1, 3), 7, 10), ((1, 2), 5, 7)]))
@given(flanked_chains())
def test_counts_match_the_parents_on_any_neighbours(chain):
    left, div, right = chain.divisors
    expected = identity_by_definition(left, div, right)
    if expected is None:
        with pytest.raises(AssertionError, match="non-integral blow-up count"):
            nef_fiber_identity(chain, div.pair)
    else:
        assert nef_fiber_identity(chain, div.pair) is expected
