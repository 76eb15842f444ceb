"""Exact integer helpers: Stern-Brocot mediant parents.

Everything here is plain arbitrary-precision integer arithmetic.  Coprime
pairs are passed around as bare ``(kappa, r)`` tuples; the resolution layer
wraps them in a richer type.  The parents of a pair come from the
determinant identity kappa*k - r*h = 1 through one modular inverse; they are
the same parents that truncating the continued fraction of kappa/r gives.
"""

from __future__ import annotations


def parents_from_cf(kappa: int, r: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two coprime pairs whose mediant is (kappa, r).

    Returns the pair ``(low, high)`` where ``low`` has the smaller value
    kappa/r, i.e. it is the parent on the (0, 1) side of the Stern-Brocot
    tree.  The endpoints (1, 0) and (0, 1) have no parents and are rejected.

    The low parent (h, k) is the one pair with kappa*k - r*h = 1 and
    0 < k <= r: k is the inverse of kappa mod r (r itself when r = 1) and
    h = (kappa*k - 1) / r.  The high parent is (kappa - h, r - k).  These are
    the parents that truncating the continued fraction of kappa/r gives: the
    truncated expansion and the one with its last quotient decremented are
    the two Farey neighbours of kappa/r whose denominators add up to r.
    """
    if kappa < 1 or r < 1:
        raise ValueError(f"({kappa}, {r}): both entries must be >= 1")
    try:
        k = pow(kappa, -1, r) or r
    except ValueError:
        raise ValueError(f"({kappa}, {r}) is not a coprime pair") from None
    h = (kappa * k - 1) // r
    return (h, k), (kappa - h, r - k)
