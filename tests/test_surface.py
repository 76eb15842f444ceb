import pytest

from contactloci.groups import FgAbGroup, GradedGroup, free_group
from contactloci.surface import (
    cone_compact_cohomology,
    cover_homology,
    hypersurface_data,
    middle_rank,
    milnor_fiber_compact_cohomology,
    milnor_number,
)


@pytest.mark.parametrize("n,d,expected", [
    (3, 4, 6),    # plane quartic, genus 3
    (4, 2, 2),    # quadric surface
    (5, 3, 10),   # cubic threefold
    (3, 1, 0),    # a line in the plane
    (3, 2, 0),    # conic, isomorphic to P^1
    (4, 3, 7),    # cubic surface
    (5, 2, 0),    # quadric threefold
])
def test_middle_rank_known_values(n, d, expected):
    assert middle_rank(n, d) == expected


def test_middle_rank_rejects_small_n():
    with pytest.raises(ValueError):
        middle_rank(2, 3)


def test_plane_curve_rank_is_twice_genus():
    for d in range(1, 11):
        assert middle_rank(3, d) == (d - 1) * (d - 2)


@pytest.mark.parametrize("n,d,b,mu,chi", [
    (3, 2, 0, 1, 2),
    (4, 3, 7, 16, 9),
    (3, 4, 6, 27, -4),
])
def test_hypersurface_data(n, d, b, mu, chi):
    data = hypersurface_data(n, d)
    assert data.middle == b
    assert data.milnor == mu
    assert data.euler == chi


def test_gysin_profile_odd_dimension():
    profile = cone_compact_cohomology(3, 4)
    assert profile == GradedGroup.from_dict({
        1: free_group(1),
        2: free_group(6),
        3: FgAbGroup(6, (4,)),
        4: free_group(1),
    })


def test_gysin_profile_even_dimension():
    profile = cone_compact_cohomology(4, 2)
    assert profile == GradedGroup.from_dict({
        1: free_group(1),
        3: free_group(1),
        4: free_group(1),
        6: free_group(1),
    })


def test_cover_homology_profiles():
    assert cover_homology(3, 4, -1, 8) == GradedGroup.from_dict({
        0: free_group(1),
        1: FgAbGroup(6, (4,)),
        2: free_group(6),
        3: free_group(1),
    })
    assert cover_homology(4, 2, -1, 4) == GradedGroup.from_dict({
        0: free_group(1), 2: free_group(1), 3: free_group(1), 5: free_group(1)})
    assert cover_homology(3, 2, -1, 4) == GradedGroup.from_dict({
        0: free_group(1), 1: FgAbGroup(0, (2,)), 3: free_group(1)})


def test_cover_homology_of_first_blowup_divisor():
    # index -m/d names the (0, 1) divisor, whose cover is the Milnor fiber
    assert cover_homology(3, 2, -2, 4) == GradedGroup.from_dict({
        0: free_group(1), 2: free_group(1)})
    assert cover_homology(3, 5, -1, 5) == GradedGroup.from_dict({
        0: free_group(1), 2: free_group(64)})


def test_cover_homology_index_validation():
    for i in (-3, 0, 1):
        with pytest.raises(ValueError, match=r"index -?\d+ outside \[-2, -1\]"):
            cover_homology(3, 2, i, 4)
    with pytest.raises(ValueError, match="m must be >= 1"):
        cover_homology(3, 2, -1, 0)


def test_cover_homology_independent_of_index_and_m():
    reference = cover_homology(3, 4, -1, 8)
    for m, i in [(12, -1), (12, -2), (20, -3), (16, -1)]:
        pair_is_first = (m + i * 4 == 0)
        if not pair_is_first:
            assert cover_homology(3, 4, i, m) == reference, (m, i)


def test_milnor_fiber_profiles():
    assert milnor_fiber_compact_cohomology(3, 2) == GradedGroup.from_dict({
        2: free_group(1), 4: free_group(1)})
    assert milnor_fiber_compact_cohomology(3, 4) == GradedGroup.from_dict({
        2: free_group(27), 4: free_group(1)})
    assert milnor_fiber_compact_cohomology(4, 2) == GradedGroup.from_dict({
        3: free_group(1), 6: free_group(1)})


def test_cone_euler_characteristic_vanishes():
    for n in (3, 4, 5, 6):
        for d in range(1, 7):
            assert cone_compact_cohomology(n, d).euler_char() == 0, (n, d)


def test_milnor_fiber_euler_characteristic():
    for n in (3, 4, 5):
        for d in range(1, 7):
            chi = milnor_fiber_compact_cohomology(n, d).euler_char()
            assert chi == 1 + (-1) ** (n - 1) * milnor_number(n, d), (n, d)


def test_cover_is_poincare_dual_of_cone():
    for n in (3, 4, 5):
        for d in (2, 3, 4):
            cone = cone_compact_cohomology(n, d)
            cover = cover_homology(n, d, -1, 3 * d + 1)
            dual = GradedGroup(tuple((2 * n - 2 - k, g) for k, g in cone.entries))
            assert cover == dual, (n, d)
