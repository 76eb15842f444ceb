import pytest

from contactloci.contact import graded_pieces
from contactloci.groups import FgAbGroup, free_group
from contactloci.spectral import (
    ConditionReport,
    classify_pair,
    compare_pages,
    comparison_shift,
    condition_degeneration,
    condition_filtration,
    default_k_bound,
    floer_cohomology,
    lefschetz_number,
    mclean_e1,
    order_e1,
    scatter_grid,
)

COLORS = {(True, True): "pink", (True, False): "yellow", (False, True): "orange",
          (False, False): "blue"}


def columns(page):
    return tuple(sorted({i for (i, _), _ in page.entries}))


def column(page, i):
    return {s: group for (col, s), group in page.entries if col == i}


def test_mclean_page_3_2_4():
    page = mclean_e1(3, 2, 4)
    assert columns(page) == (-2, -1)
    # column -2 is the Milnor-fiber cover: Z in homological degree 0 lands at
    # s = 2 - 0 - 4 = -2 and Z^mu at degree 2 lands at s = -4
    assert column(page, -2) == {-2: free_group(1), -4: free_group(1)}
    assert column(page, -1) == {0: free_group(1), -1: FgAbGroup(0, (2,)),
                               -3: free_group(1)}


def test_mclean_page_3_5_5():
    page = mclean_e1(3, 5, 5)
    assert columns(page) == (-1,)
    assert column(page, -1) == {6: free_group(1), 4: free_group(64)}


def test_mclean_page_empty():
    assert mclean_e1(3, 5, 4).entries == ()


def test_order_page_3_2_4():
    page = order_e1(3, 2, 4)
    assert column(page, -2) == {14: free_group(1), 16: free_group(1)}
    assert column(page, -1) == {15: free_group(1), 17: FgAbGroup(0, (2,)),
                               18: free_group(1)}


def test_order_page_3_4_8_torsion_column():
    page = order_e1(3, 4, 8)
    assert sorted(columns(page)) == [-2, -1]
    torsion = [g for g in column(page, -1).values() if g.torsion]
    assert torsion == [FgAbGroup(6, (4,))]


def test_compare_pages_examples():
    assert compare_pages(3, 2, 4)
    assert compare_pages(3, 5, 5)
    assert compare_pages(3, 4, 8)


def test_compare_pages_medium_grid():
    for n in (3, 4):
        for d in (2, 3, 5):
            for m in range(1, 16):
                assert compare_pages(n, d, m), (n, d, m)


def test_duality_shift_identity():
    # 2 * D_rho = 2m(n-1) - 2i(d-n) for every column i = -rho
    for n in (3, 4, 5, 6):
        for d in (2, 3, 4, 6):
            for m in range(1, 25):
                for piece in graded_pieces(n, d, m):
                    i = -piece.rho
                    assert 2 * piece.fiber_dim == 2 * m * (n - 1) - 2 * i * (d - n)


def test_mclean_column_support_is_at_most_four():
    for n, d, m in [(3, 2, 12), (4, 3, 12), (5, 4, 16), (6, 2, 10)]:
        page = mclean_e1(n, d, m)
        for i in columns(page):
            assert len(column(page, i)) <= 4


def test_condition_degeneration_examples():
    assert not condition_degeneration(3, 3, 7).holds
    assert condition_degeneration(3, 3, 7).violating_k == (1, 2)
    for m in range(1, 40):
        assert condition_degeneration(3, 5, m).holds
    # empty k-range: vacuous
    assert condition_degeneration(4, 6, 6).holds
    assert condition_degeneration(4, 6, 6).violating_k == ()


def test_condition_filtration_examples():
    assert not condition_filtration(3, 3, 7).holds
    assert not condition_filtration(4, 3, 7).holds
    assert condition_filtration(4, 3, 7).violating_k == (1,)
    assert condition_filtration(5, 3, 3).holds


def test_conditions_hold_under_theorem_bounds():
    for n in range(3, 8):
        for d in range(2, 2 * n + 6):
            if d > 2 * n - 2 or 2 <= d < n / 2:
                for m in range(1, 30):
                    assert condition_degeneration(n, d, m).holds, (n, d, m)
                    assert condition_filtration(n, d, m).holds, (n, d, m)


def test_violations_are_monotone_in_m():
    for n, d in [(3, 3), (4, 3), (3, 4), (5, 4)]:
        for m0 in range(1, 25):
            base = set(condition_degeneration(n, d, m0).violating_k)
            later = set(condition_degeneration(n, d, m0 + 7).violating_k)
            assert base <= later


def test_floer_cohomology_determined():
    hf = floer_cohomology(3, 5, 5)
    assert hf is not None
    assert dict(hf.entries)[4] == free_group(64)
    assert dict(hf.entries)[6] == free_group(1)
    assert comparison_shift(3, 5) == 22


def test_floer_cohomology_not_determined():
    assert floer_cohomology(3, 3, 9) is None


def test_floer_cohomology_empty_locus():
    hf = floer_cohomology(3, 5, 4)
    assert hf is not None and hf.is_zero


def test_floer_matches_conditions_exactly():
    for n in (3, 4):
        for d in (2, 3, 5, 7):
            for m in range(1, 18):
                determined = (condition_degeneration(n, d, m).holds
                              and condition_filtration(n, d, m).holds)
                assert (floer_cohomology(n, d, m) is not None) == determined


def test_classify_pair_examples():
    assert classify_pair(3, 5).color == "blue"
    assert classify_pair(10, 4).color == "blue"
    assert classify_pair(3, 3).color == "pink"
    assert classify_pair(4, 2).color == "yellow"
    assert classify_pair(6, 4).color == "orange"


def test_classification_is_stable_under_larger_scans():
    # witness lists keep growing on the diagonal d = n, but the color never
    # changes once the default bound has been scanned
    for n in range(3, 12):
        for d in range(2, 12):
            # the conditions at m = d(2 bound + 1) scan k up to twice the bound
            m = d * (2 * default_k_bound(n, d) + 1)
            deg_fails = not condition_degeneration(n, d, m).holds
            filt_fails = not condition_filtration(n, d, m).holds
            assert classify_pair(n, d).color == COLORS[deg_fails, filt_fails], (n, d)


def test_diagonal_is_pink():
    for n in range(3, 12):
        assert classify_pair(n, n).color == "pink"


def test_scatter_grid_shape():
    rows = scatter_grid(range(3, 6), range(2, 5))
    assert len(rows) == 9
    assert rows[0][:2] == (3, 2)


def test_lefschetz_examples():
    assert lefschetz_number(3, 2, 4) == 2
    assert lefschetz_number(3, 2, 3) == 0
    assert lefschetz_number(4, 3, 6) == -15


def test_lefschetz_zero_iff_not_divisible():
    # the closed form 1 + (-1)^(n-1) (d-1)^n also vanishes when n is even
    # and d = 2, so that case is excluded from the biconditional
    for n in (3, 4):
        for d in (2, 3, 4):
            for m in range(1, 18):
                vanishes = bool(m % d) or (n % 2 == 0 and d == 2)
                assert (lefschetz_number(n, d, m) == 0) == vanishes


def test_filtration_condition_forces_single_column_degrees():
    # when the condition holds, no total degree of the order page receives
    # entries from two columns, so the abutment has no extension problem
    for n in (3, 4, 5):
        for d in (2, 3, 4, 5, 6, 7):
            for m in range(1, 25):
                if not condition_filtration(n, d, m).holds:
                    continue
                by_degree = {}
                for (i, s), _ in order_e1(n, d, m).entries:
                    by_degree.setdefault(s, set()).add(i)
                assert all(len(cols) == 1 for cols in by_degree.values()), (n, d, m)


def test_diagonal_stacks_strata_at_one_shift():
    # d = n gives every stratum the same fiber dimension, so torsion from
    # two cone strata lands in a single total degree; the assembly keeps the
    # summands separate by convention
    from contactloci.contact import contact_cohomology

    profile = contact_cohomology(3, 3, 9)
    assert dict(profile.entries)[39] == FgAbGroup(4, (3, 3))


def test_condition_report_round_trip():
    report = condition_degeneration(3, 3, 9)
    doc = report.to_doc()
    rebuilt = ConditionReport(tuple(doc["violating_k"]))
    assert rebuilt == report and rebuilt.to_doc() == doc


def test_page_parameter_validation():
    with pytest.raises(ValueError):
        mclean_e1(2, 3, 4)
    with pytest.raises(ValueError):
        order_e1(3, 1, 4)
