from fractions import Fraction
from math import gcd as math_gcd

import pytest
from hypothesis import given, strategies as st

from contactloci.arith import cf_value, continued_fraction, pair_less, parents_from_cf


def cf_fraction(quotients):
    # forward evaluation with exact rationals, independent of cf_value
    value = Fraction(quotients[-1])
    for q in reversed(quotients[:-1]):
        value = q + 1 / value
    return value


coprime_pairs = st.builds(
    lambda a, b: (a // math_gcd(a, b), b // math_gcd(a, b)),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500),
)


def test_continued_fraction_examples():
    assert continued_fraction(5, 3) == [1, 1, 2]
    assert continued_fraction(1, 1) == [1]
    assert continued_fraction(7, 2) == [3, 2]


def test_continued_fraction_evaluates_back():
    assert cf_fraction(continued_fraction(5, 3)) == Fraction(5, 3)
    assert cf_fraction(continued_fraction(7, 2)) == Fraction(7, 2)


def test_continued_fraction_rejects_non_coprime():
    with pytest.raises(ValueError):
        continued_fraction(6, 9)
    with pytest.raises(ValueError):
        continued_fraction(0, 1)


@given(coprime_pairs)
def test_continued_fraction_is_canonical(pair):
    kappa, r = pair
    quotients = continued_fraction(kappa, r)
    assert cf_fraction(quotients) == Fraction(kappa, r)
    if len(quotients) > 1:
        assert quotients[-1] >= 2
        assert all(q >= 1 for q in quotients[1:])
    assert quotients[0] >= 0


def test_cf_value_endpoint_convention():
    assert cf_value([]) == (1, 0)
    assert cf_value([0]) == (0, 1)
    assert cf_value([1, 1, 2]) == (5, 3)


def test_parents_examples():
    assert parents_from_cf(1, 1) == ((0, 1), (1, 0))
    assert parents_from_cf(2, 1) == ((1, 1), (1, 0))
    assert parents_from_cf(5, 3) == ((3, 2), (2, 1))


def test_parents_reject_endpoints():
    with pytest.raises(ValueError):
        parents_from_cf(1, 0)
    with pytest.raises(ValueError):
        parents_from_cf(0, 1)


@given(coprime_pairs)
def test_parents_are_mediant_summands(pair):
    kappa, r = pair
    low, high = parents_from_cf(kappa, r)
    assert low[0] + high[0] == kappa
    assert low[1] + high[1] == r
    assert math_gcd(low[0], low[1]) == 1
    assert math_gcd(high[0], high[1]) == 1
    # the low parent sits on the (0, 1) side
    assert pair_less(low, (kappa, r)) and pair_less((kappa, r), high)
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
            if math_gcd(kappa, r) == 1:
                assert parents_from_cf(kappa, r) == stern_brocot_parents(kappa, r), (kappa, r)
                checked += 1
    assert checked == 13_715
