from math import gcd as math_gcd

import pytest
from hypothesis import example, given, strategies as st

from contactloci.resolution import parents_from_cf

def reduced(a, b):
    g = math_gcd(a, b)
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
    assert math_gcd(low[0], low[1]) == 1
    assert math_gcd(high[0], high[1]) == 1
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
            if math_gcd(kappa, r) == 1:
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
