"""The tests' Stern-Brocot reference: the mediant parents of a coprime pair,
and the chain's pairs in the order that mediant insertion leaves them.

No library function derives parents; nef_fiber_identity reads its blow-up
counts off two neighbour determinants.  The tests check those counts, and
the chain's neighbours, against the parents given here, and
tests/test_resolution.py checks this function against a descent of the
Stern-Brocot tree and against the continued-fraction convergents.  The
library lists the chain by the Farey next-term rule; the tests check its
order against the blow-ups themselves, replayed by mediant_chain.
"""


def mediant_chain(d: int, m: int) -> list[tuple[int, int]]:
    """The pairs (kappa, r) of the minimal m-separating chain for degree d,
    left to right, by mediant insertion from [(0, 1), (1, 0)].

    An in-order expansion of the mediant tree: an adjacent pair gets its
    intersection blown up exactly when the multiplicities N = kappa + r*d
    sum to at most m, which inserts the mediant between them.  The stack
    holds the right ends (kappa, r, N) still to be reached from the current
    left end; N adds under mediants as kappa and r do.  (1, 0) sits at the
    bottom of the stack, so it is the one pair popped last.
    """
    out = [(0, 1)]
    kappa, r, mult = 0, 1, d
    stack = [(1, 0, 1)]
    while stack:
        right = stack[-1]
        if mult + right[2] <= m:
            stack.append((kappa + right[0], r + right[1], mult + right[2]))
        else:
            kappa, r, mult = stack.pop()
            out.append((kappa, r))
    return out


def parents_from_cf(kappa: int, r: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two coprime pairs whose mediant is (kappa, r).

    Returns the pair ``(low, high)`` where ``low`` has the smaller value
    kappa/r, i.e. it is the parent on the (0, 1) side of the Stern-Brocot
    tree.  The endpoints (1, 0) and (0, 1) have no parents and are rejected.
    Pairs go in and out as bare ``(kappa, r)`` tuples.

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
