import time

import pytest
from hypothesis import given, strategies as st

from contactloci.contact import (
    BASE_CONE,
    BASE_MILNOR_FIBER,
    GradedPiece,
    MotivicClass,
    contact_class,
    contact_cohomology,
    contact_dimension,
    contact_euler,
    euler_specialization,
    graded_pieces,
    order_counts,
    piece_compact_cohomology,
)
from contactloci.groups import FgAbGroup, GradedGroup, free_group
from contactloci.surface import milnor_number

EULER_GRID = [(n, d, m) for n in (3, 4, 5) for d in (2, 3, 5) for m in range(1, 21)]


def test_graded_pieces_3_2_4():
    pieces = graded_pieces(3, 2, 4)
    assert [(p.rho, p.base_kind, p.fiber_dim) for p in pieces] == [
        (1, BASE_CONE, 7), (2, BASE_MILNOR_FIBER, 6)]
    assert [(p.hyperplane_vars, p.free_vars) for p in pieces] == [(2, 1), (0, 2)]
    assert [p.total_dim for p in pieces] == [9, 8]


def test_graded_pieces_empty_below_degree():
    assert graded_pieces(3, 5, 4) == []


def test_graded_pieces_3_4_8():
    pieces = graded_pieces(3, 4, 8)
    assert [(p.rho, p.base_kind, p.fiber_dim) for p in pieces] == [
        (1, BASE_CONE, 17), (2, BASE_MILNOR_FIBER, 18)]


def test_piece_structure_invariants():
    for n, d, m in EULER_GRID:
        pieces = graded_pieces(n, d, m)
        assert len(pieces) == m // d
        milnor_pieces = [p for p in pieces if p.base_kind == BASE_MILNOR_FIBER]
        assert len(milnor_pieces) == (1 if m % d == 0 else 0)
        for p in pieces:
            assert p.base_kind == BASE_MILNOR_FIBER or p.hyperplane_vars > 0
            assert p.total_dim == (n - 1) * (m - d * p.rho + 1) + (d - 1) * p.rho * n
        if pieces:
            assert pieces[0].total_dim == (n - 1) * m + d - 1


def test_piece_cohomology_milnor_piece():
    piece = graded_pieces(3, 2, 4)[1]
    assert piece_compact_cohomology(piece, 3, 2) == GradedGroup.from_dict({
        14: free_group(1), 16: free_group(1)})


def test_piece_cohomology_preserves_euler_char():
    for n, d, m in [(3, 2, 4), (3, 4, 8), (4, 3, 9)]:
        for piece in graded_pieces(n, d, m):
            profile = piece_compact_cohomology(piece, n, d)
            base_chi = 0 if piece.base_kind == BASE_CONE else 1 + (-1) ** (n - 1) * milnor_number(n, d)
            assert profile.euler_char() == base_chi


def test_contact_cohomology_3_2_4():
    assert contact_cohomology(3, 2, 4) == GradedGroup.from_dict({
        14: free_group(1),
        15: free_group(1),
        16: free_group(1),
        17: FgAbGroup(0, (2,)),
        18: free_group(1),
    })


def test_contact_cohomology_3_5_5():
    assert contact_cohomology(3, 5, 5) == GradedGroup.from_dict({
        26: free_group(64), 28: free_group(1)})


def test_contact_cohomology_empty():
    assert contact_cohomology(3, 5, 4).is_zero


def test_degree_one_is_rejected():
    with pytest.raises(ValueError, match="d >= 2"):
        contact_cohomology(3, 1, 3)
    with pytest.raises(ValueError):
        graded_pieces(3, 1, 3)


def test_contact_euler_examples():
    assert contact_euler(3, 2, 4) == 2
    assert contact_euler(3, 2, 3) == 0
    assert contact_euler(3, 4, 8) == 28


def test_contact_euler_closed_form_over_grid():
    for n, d, m in EULER_GRID:
        expected = 0 if m % d else 1 + (-1) ** (n - 1) * (d - 1) ** n
        assert contact_euler(n, d, m) == expected, (n, d, m)


@given(st.integers(min_value=3, max_value=7),
       st.integers(min_value=2, max_value=9),
       st.integers(min_value=1, max_value=40))
def test_contact_euler_closed_form_randomized(n, d, m):
    expected = 0 if m % d else 1 + (-1) ** (n - 1) * (d - 1) ** n
    assert contact_euler(n, d, m) == expected


def test_rank_additivity_over_pieces():
    for n, d, m in [(3, 2, 8), (3, 4, 12), (4, 3, 9), (5, 2, 6)]:
        total = contact_cohomology(n, d, m)
        pieces = [piece_compact_cohomology(p, n, d) for p in graded_pieces(n, d, m)]
        degrees = {k for profile in pieces for k, _ in profile.entries}
        total_ranks = {k: g.rank for k, g in total.entries}
        piece_ranks = [{k: g.rank for k, g in p.entries} for p in pieces]
        for k in degrees:
            assert total_ranks.get(k, 0) == sum(ranks.get(k, 0) for ranks in piece_ranks)


def test_stratum_sum_is_linear_in_the_strata():
    # 2000 strata: a pairwise sum that rebuilds the total once per stratum
    # took 3.7 s on a 2-core x86 VM, the one-pass sum 0.04 s
    started = time.perf_counter()
    total = contact_cohomology(5, 2, 4000)
    assert time.perf_counter() - started < 1
    assert total.euler_char() == 1 + (2 - 1) ** 5


def test_contact_class_examples():
    assert contact_class(3, 2, 4) == MotivicClass.from_terms(
        [("S", 8, 1), ("S", 7, -1), ("Mh", 6, 1)])
    assert contact_class(3, 5, 4).is_zero
    assert contact_class(3, 2, 2) == MotivicClass.from_terms([("Mh", 3, 1)])


def test_contact_class_specializes_to_euler():
    for n, d, m in EULER_GRID:
        assert euler_specialization(n, d, m) == contact_euler(n, d, m), (n, d, m)


def test_order_counts_sum_to_the_class_at_l_equals_p():
    # [S] -> s and [Mh] -> t with s, t distinct, so the punctured cone has
    # (p - 1) s points and no swap of the two bases goes unseen
    s, t = 1000, 7
    for n in range(3, 7):
        for d in range(2, 6):
            for m in range(1, 3 * d + 1):
                for p in (3, 5, 7):
                    counts = order_counts(n, d, m, p, (p - 1) * s, t)
                    assert [rho for rho, _ in counts] == list(range(1, m // d + 1))
                    assert sum(count for _, count in counts) \
                        == contact_class(n, d, m).specialize(p, s, t), (n, d, m, p)


def test_contact_dimension():
    assert contact_dimension(3, 2, 4) == 9
    assert contact_dimension(3, 5, 5) == 14 == (3 - 1) * 5 + 5 - 1
    assert contact_dimension(3, 5, 4) is None


def test_motivic_class_algebra():
    a = MotivicClass.from_terms([("S", 2, 1), ("Mh", 0, 3)])
    b = MotivicClass.from_terms([("S", 2, -1)])
    assert MotivicClass.from_terms(a.terms + b.terms) == MotivicClass.from_terms([("Mh", 0, 3)])
    assert a.specialize(lef=2, surface=5, milnor_fiber=7) == 4 * 5 + 3 * 7


def test_motivic_class_validation():
    with pytest.raises(ValueError):
        MotivicClass((("bogus", 0, 1),))
    with pytest.raises(ValueError):
        MotivicClass((("S", 0, 0),))


def test_docs_round_trip():
    # the documents the cohomology command prints rebuild the values
    cls = contact_class(3, 4, 12)
    terms = cls.to_doc()["terms"]
    assert MotivicClass(tuple((t["basis"], t["L_exp"], t["coeff"]) for t in terms)) == cls
    piece = graded_pieces(3, 4, 12)[1]
    assert GradedPiece(**piece.to_doc()) == piece
