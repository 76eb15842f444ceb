"""The tests' second route to the middle rank b of S: a binomial sum.

surface.middle_rank reads b off the Euler characteristic.  This sum agrees
with it for odd n only; the even-dimensional case needs a different
correction term, and the quadric surface, (n, d) = (4, 2), is the smallest
counterexample (the sum gives 0 where b is 2).  tests/test_surface.py and
tests/test_acceptance.py compare the two on odd n.
"""

from math import comb


def middle_rank_alternating_sum(n: int, d: int) -> int:
    """Alternating binomial-sum expression for the middle rank, for n >= 3."""
    correction = (-1) ** (n - 1) * 2 * (n // 2)  # n // 2 == ceil((n-1)/2)
    total = sum((-1) ** k * comb(n, k) * d ** (n - 1 - k) for k in range(n - 1))
    return correction + total
