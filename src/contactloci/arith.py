"""Exact integer helpers: Stern-Brocot mediant parents.

Everything here is plain arbitrary-precision integer arithmetic.  Coprime
pairs are passed around as bare ``(kappa, r)`` tuples; the resolution layer
wraps them in a richer type.
"""

from __future__ import annotations


def parents_from_cf(kappa: int, r: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two coprime pairs whose mediant is (kappa, r).

    Truncating the continued fraction of kappa/r gives one parent and
    decrementing its last quotient gives the other.  Returns the pair
    ``(low, high)`` where ``low`` has the smaller value kappa/r, i.e. it is
    the parent on the (0, 1) side of the Stern-Brocot tree.  The endpoints
    (1, 0) and (0, 1) have no parents and are rejected.

    One Euclidean pass runs the convergent recurrence h_i = q_i h_(i-1) +
    h_(i-2) alongside: the truncated expansion evaluates to the next-to-last
    convergent, and the decremented one to (q_k - 1) h_(k-1) + h_(k-2).
    The pass ends at the last nonzero remainder b, which is gcd(kappa, r).
    """
    if kappa < 1 or r < 1:
        raise ValueError(f"({kappa}, {r}): both entries must be >= 1")
    # (h1, k1) and (h2, k2): the last two convergents before the current one
    h2, k2, h1, k1 = 0, 1, 1, 0
    a, b = kappa, r
    q = a // b
    while a != q * b:
        a, b = b, a - q * b
        h2, k2, h1, k1 = h1, k1, q * h1 + h2, q * k1 + k2
        q = a // b
    if b != 1:
        raise ValueError(f"({kappa}, {r}) is not a coprime pair")
    # the truncated expansion (h1, k1) and the decremented one (h, k)
    h, k = (q - 1) * h1 + h2, (q - 1) * k1 + k2
    if h1 + h != kappa or k1 + k != r:
        raise AssertionError(f"parent reconstruction failed for ({kappa}, {r})")
    # the smaller of h/k and h1/k1, compared by cross-multiplying, is low
    if h * k1 < h1 * k:
        return (h, k), (h1, k1)
    return (h1, k1), (h, k)
