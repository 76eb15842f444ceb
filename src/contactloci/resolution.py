"""Minimal m-separating resolution chains, listed by the Farey next-term rule.

For the parameters (n, d, m) the exceptional divisors of the minimal
m-separating log resolution of a semihomogeneous singularity of degree d in
n variables are indexed by coprime pairs (kappa, r).  The chain runs from
(0, 1), the first blow-up, to (1, 0), the strict transform, and blowing up
an intersection inserts the mediant of the two adjacent pairs.  Multiplicity
and log discrepancy are the linear forms N = kappa + r*d and nu = kappa + r*n.
The finished chain holds the pairs with N <= m in slope order, so the build
lists them left to right, each from its two left neighbours, without
replaying the blow-ups.  A chain, (n, d, m, rows, tables), keeps each
divisor's pair in one flat list, and makes objects, N and nu when read.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from itertools import compress, islice, repeat
from math import gcd
from operator import add, itemgetter, mul, not_
from typing import Iterator, NamedTuple

from .domain import CHAIN

KIND_STRICT_TRANSFORM = "strict_transform"
KIND_FIRST_EXCEPTIONAL = "first_exceptional"
KIND_INTERMEDIATE = "intermediate"

_ENDPOINT_KINDS = {(1, 0): KIND_STRICT_TRANSFORM, (0, 1): KIND_FIRST_EXCEPTIONAL}


class CoprimePair(namedtuple("CoprimePair", ("kappa", "r"))):
    """A coprime pair (kappa, r) of non-negative integers.

    A tuple underneath, so hashing and equality run in C; it compares and
    hashes equal to the plain tuple ``(kappa, r)``.
    """

    __slots__ = ()

    def __new__(cls, kappa: int, r: int) -> "CoprimePair":
        if kappa < 0 or r < 0:
            raise ValueError(f"({kappa}, {r}): entries must be non-negative")
        if gcd(kappa, r) != 1:
            if kappa == r == 0:
                raise ValueError("(0, 0) is not a valid pair")
            raise ValueError(f"({kappa}, {r}) is not coprime")
        return tuple.__new__(cls, (kappa, r))

    @property
    def kind(self) -> str:
        return _ENDPOINT_KINDS.get(self, KIND_INTERMEDIATE)

    def __str__(self) -> str:
        return f"({self[0]},{self[1]})"


class Divisor(namedtuple("Divisor", ("pair", "multiplicity", "log_discrepancy"))):
    """One irreducible component of the total transform.

    multiplicity is the order of the pulled-back function along the divisor
    and log_discrepancy is 1 + the order of the relative canonical divisor;
    for the pair (kappa, r) these are kappa + r*d and kappa + r*n.  A tuple
    ``(pair, multiplicity, log_discrepancy)`` underneath; the kind is the
    pair's.
    """

    __slots__ = ()

    def __new__(cls, pair: CoprimePair, multiplicity: int, log_discrepancy: int) -> "Divisor":
        if multiplicity < 1 or log_discrepancy < 1:
            raise ValueError("multiplicity and log discrepancy must be positive")
        return tuple.__new__(cls, (pair, multiplicity, log_discrepancy))

    @property
    def kind(self) -> str:
        return self[0].kind

    @classmethod
    def for_params(cls, pair: CoprimePair, n: int, d: int) -> "Divisor":
        return cls(pair, pair[0] + pair[1] * d, pair[0] + pair[1] * n)

    def to_doc(self) -> dict:
        (kappa, r), multiplicity, log_discrepancy = self
        return _row_doc(kappa, r, multiplicity, log_discrepancy)


def _chain_rows(d: int, m: int) -> list[int]:
    # The next-term rule that build_minimal_resolution proves, from (0, 1)
    # and (1, (m - 1) // d) until P is (1, 0), whose r is 0.  Each kappa and
    # r comes from one table over [0, m - d], so each holds one int object per
    # value; the table is no longer than the chain's m - d pairs (k, 1).
    values = list(range(m - d + 1))
    rows = [0, 1]
    kappa_l, r_l, kappa, r = 0, 1, 1, (m - 1) // d
    while r:
        rows += (values[kappa], values[r])
        t = (m + kappa_l + r_l * d) // (kappa + r * d)
        kappa_l, r_l, kappa, r = kappa, r, t * kappa - kappa_l, t * r - r_l
    rows += (1, 0)
    return rows


def _linear_form(rows: list[int], c: int) -> Iterator[int]:
    # kappa + r*c of each row in C-level steps: N for c = d, nu for c = n
    return map(add, islice(rows, 0, None, 2), map(mul, islice(rows, 1, None, 2), repeat(c)))


def _row_doc(kappa: int, r: int, mult: int, disc: int) -> dict:
    return {"kappa": kappa, "r": r, "N": mult, "nu": disc,
            "kind": _ENDPOINT_KINDS.get((kappa, r), KIND_INTERMEDIATE)}


class ResolutionChain(tuple):
    """The divisor chain of the minimal m-separating resolution, left to right
    from (0, 1) to (1, 0), as (n, d, m, rows, tables): rows lists kappa and r
    of each divisor in turn; tables[r][kappa] is the row of (kappa, r) or -1,
    for 1 <= r <= m // d and kappa <= m - r*d.  Iteration, len and divisors
    wrap Divisor objects from the rows on demand, with N and nu computed, so
    the constructor refuses a divisor with other N or nu.  A plain tuple
    subclass, not a named tuple: _asdict and _make would misread the iteration.
    """

    __slots__ = ()

    def __new__(cls, n: int, d: int, m: int, divisors: tuple[Divisor, ...]) -> "ResolutionChain":
        rows = []
        for (kappa, r), mult, disc in divisors:
            if mult != kappa + r * d or disc != kappa + r * n:
                raise ValueError(f"({kappa},{r}) has N, nu = {mult}, {disc}, off its linear forms")
            rows += (kappa, r)
        return _wrap(n, d, m, rows)

    n = property(itemgetter(0))
    d = property(itemgetter(1))
    m = property(itemgetter(2))
    divisors = property(lambda self: tuple(iter(self)))

    def intermediate_divisors(self) -> Iterator[Divisor]:
        """The divisors with a pair other than an endpoint, wrapped lazily."""
        pairs = zip(*[iter(self[3])] * 2)
        return compress(self, map(not_, map(_ENDPOINT_KINDS.__contains__, pairs)))

    def __iter__(self) -> Iterator[Divisor]:
        # without the constructors' checks: _check_chain_invariants covers them
        n, d, _, rows = self[:4]
        pairs = map(tuple.__new__, repeat(CoprimePair), zip(*[iter(rows)] * 2))
        return map(tuple.__new__, repeat(Divisor),
                   zip(pairs, _linear_form(rows, d), _linear_form(rows, n)))

    def __len__(self) -> int:
        return len(self[3]) // 2

    def to_doc(self) -> dict:
        n, d, m, rows = self[:4]
        mults, discs = _linear_form(rows, d), _linear_form(rows, n)
        return {"n": n, "d": d, "m": m,
                "divisors": list(map(_row_doc, rows[::2], rows[1::2], mults, discs))}

    def __getnewargs__(self) -> tuple:
        return (*self[:3], self.divisors)


def _wrap(n: int, d: int, m: int, rows: list[int]) -> ResolutionChain:
    # under 1.7 slots per divisor for a built chain; none for a hand-made one
    # outside the domain, or whose m needs more than four slots per divisor
    top = m // d if d > 0 else -1
    tables = []
    if top >= 0 and top * (m + 1) - d * top * (top + 1) // 2 <= 2 * len(rows):
        tables = [array("i")] + [array("i", [-1]) * (m - r * d + 1) for r in range(1, top + 1)]
        for at, kappa, r in zip(range(0, len(rows), 2), *[iter(rows)] * 2):
            if 0 <= kappa <= m - r * d and r > 0:
                tables[r][kappa] = at
    return tuple.__new__(ResolutionChain, (n, d, m, rows, tables))


def build_minimal_resolution(n: int, d: int, m: int) -> ResolutionChain:
    """Build the chain left to right by the Farey next-term rule.

    Mediant insertion from [(0,1), (1,0)] stops when every adjacent pair
    has N_L + N_R > m, which leaves the endpoints and the coprime (kappa, r)
    with kappa, r >= 1 and N <= m, in increasing slope kappa/r, adjacent
    pairs with determinant -1.  The first pair after (0, 1) has kappa = 1
    and the largest r with N <= m, r = (m - 1) // d; when that is 0 it is
    (1, 0).  After the neighbours L and P the next pair is t*P - L with
    t = (m + N_L) // N_P.  Indeed det(P, t*P - L) = det(L, P) = -1 for
    every integer t, and P is primitive, so these are all the pairs with
    determinant -1 against P, the successor Q among them.  Its N is
    t*N_P - N_L <= m, so its t is at most (m + N_L) // N_P.  If it were
    smaller, adding P to Q would give a coprime pair with N <= m strictly
    between P and Q in slope, a pair of the chain between neighbours; so t
    is the largest value with N <= m.

    The finished chain passes the walk of local invariants;
    verify_minimality compares it with the closed form.
    """
    CHAIN.check(n, d, m)
    chain = _wrap(n, d, m, _chain_rows(d, m))
    _check_chain_invariants(chain)
    return chain


def _check_chain_invariants(chain: ResolutionChain) -> None:
    # One walk, so that the leftmost fault is the one raised: each divisor's
    # entries, then its determinant against the previous divisor, -1 so that
    # the slopes kappa/r increase, and separation.  With CHAIN.check these
    # imply the constructors' checks, which the build skips: determinant -1
    # makes a pair coprime, and N = kappa + r*d and nu = kappa + r*n are >= 1
    # for kappa, r >= 0 not both 0, d >= 1 and n >= 2.  The start values
    # (-1, 0) and N = m + 1 let (0, 1), which has no predecessor, pass both.
    d, m, rows = chain[1:4]
    if rows[:2] != [0, 1] or rows[-2:] != [1, 0]:
        raise AssertionError("chain endpoints are wrong")
    kappa_p, r_p, mult_p = -1, 0, m + 1
    for kappa, r in zip(*[iter(rows)] * 2):
        if kappa < 0 or r < 0:
            raise AssertionError(f"({kappa},{r}) has a negative entry")
        det = kappa_p * r - kappa * r_p
        if det == 1:
            raise AssertionError(f"({kappa_p},{r_p}), ({kappa},{r}) are out of slope order")
        if det != -1:
            raise AssertionError(f"({kappa_p},{r_p}), ({kappa},{r}) are not Farey neighbors")
        mult = kappa + r * d
        if mult_p + mult <= m:
            raise AssertionError(
                f"chain is not {m}-separating at ({kappa_p},{r_p}), ({kappa},{r})")
        kappa_p, r_p, mult_p = kappa, r, mult


def verify_minimality(chain: ResolutionChain) -> bool:
    """Check the chain against its closed form, whose intermediate pairs are
    the coprime (kappa, r) with kappa, r >= 1 and N = kappa + r*d <= m.

    The build's walk gives both endpoints, increasing slopes (so no pair
    repeats) and m-separation, so every closed-form pair is in the chain: one
    strictly between Farey neighbours L and R is s*L + t*R with s, t >= 1, so
    its N >= N_L + N_R > m.  Then the sets are equal if the sizes are, and by
    Moebius inversion over r = e*j the closed form has
    sum_e mu(e) * (J*(m//e) - d*J*(J + 1)/2) pairs, where J = m//d//e.
    """
    try:
        _check_chain_invariants(chain)
    except AssertionError:
        return False
    d, m = chain[1:3]
    top = m // d
    mu = [0, 1] + [0] * top  # the Moebius function, sieved as the loop reaches e
    count = 2
    for e in range(1, top + 1):
        for k in range(2 * e, top + 1, e):
            mu[k] -= mu[e]
        j = top // e
        count += mu[e] * (j * (m // e) - d * j * (j + 1) // 2)
    return len(chain) == count


def nef_fiber_identity(chain: ResolutionChain, pair: CoprimePair) -> bool:
    """Fiber-degree identity for both linear invariants of an intermediate
    divisor (kappa, r) and its chain neighbours L and R:
    N_L + N_R = (1 + n' + n'')*N and nu_L + nu_R = (1 + n' + n'')*nu, where
    n' and n'' count the blow-ups on each side of the divisor after its
    creation.

    The mediant parents low and high of the pair add up to it, and each has
    determinant -1 with it.  So det(L, pair) = -1 holds exactly when
    L - low is parallel to the pair, and the pair is primitive, so L - low
    is an integer multiple n' of it; likewise R - high is n'' times the pair
    exactly when det(pair, R) = -1.  Then
    L + R = (1 + n' + n'')*(kappa, r), and r_L + r_R fixes the factor.  A
    determinant other than -1 means the chain was built wrong and raises.
    The tests check the factor against the parents that their Stern-Brocot
    reference, tests/sternbrocot.py, derives.
    """
    # one table slot, one slice and the determinant test; every refusal, the
    # endpoint test among them, comes after them, so a call that succeeds
    # does not search
    kappa, r = pair
    rows = chain[3]
    try:
        at = chain[4][r][kappa] if kappa >= 0 <= r else -1  # the tables
    except IndexError:  # r = 0, a pair past the tables, or no tables
        at = -1
    if at < 0:
        # the pair's last row, if any, by a loop: a generator here would
        # make kappa, r and rows closure cells on every call
        at = None
        for i in range(0, len(rows), 2):
            if rows[i] == kappa and rows[i + 1] == r:
                at = i
    if at:  # not None, nor the first row, which has no left neighbour
        try:
            kappa_l, r_l, _, _, kappa_r, r_r = rows[at - 2:at + 4]
        except ValueError:  # the last row's slice is short
            pass
        else:
            if kappa_l * r - kappa * r_l == -1 and kappa * r_r - r * kappa_r == -1:
                n, d, factor = chain[0], chain[1], (r_l + r_r) // r
                return (kappa_l + kappa_r + (r_l + r_r) * n == factor * (kappa + r * n)
                        and kappa_l + kappa_r + (r_l + r_r) * d == factor * (kappa + r * d))
    # an endpoint held inside a hand-made chain fails the determinant test:
    # det(L, (0, 1)) is kappa_L >= 0 and det((1, 0), R) is r_R >= 0
    if pair in _ENDPOINT_KINDS:
        raise ValueError(f"{pair} is a chain endpoint, adjacency is undefined")
    if at is None:
        raise ValueError(f"pair {pair} is not a divisor of this chain")
    if not 0 < at < len(rows) - 2:
        side = "left" if at == 0 else "right"
        raise ValueError(f"{pair} has no {side} neighbour in this chain")
    raise AssertionError(f"non-integral blow-up count at {pair}")


def _m_divisor(n: int, d: int, m: int, i: int) -> Divisor:
    # E_i, the normalization of (m + i*d, -i), for (n, d, m) in the chain domain
    # and i in [-floor(m/d), 0]: E_0 is the strict transform, and E_(-m/d) is
    # the first exceptional divisor (0, 1) when d divides m
    a, b = m + i * d, -i
    g = gcd(a, b)
    div = Divisor.for_params(CoprimePair(a // g, b // g), n, d)
    if m % div.multiplicity != 0:
        raise AssertionError(f"multiplicity of E_{i} does not divide m")
    return div


class MDivisor(NamedTuple):
    index: int
    divisor: Divisor

    @property
    def exceptional(self) -> bool:
        return self.index != 0

    def to_doc(self) -> dict:
        return {"i": self.index, **self.divisor.to_doc(), "exceptional": self.exceptional}


class MDivisorList(NamedTuple):
    entries: tuple[MDivisor, ...]

    def to_doc(self) -> list:
        return [entry.to_doc() for entry in self.entries]


def m_divisors(chain: ResolutionChain) -> MDivisorList:
    """The m-divisors of a chain, indexed by i in [-floor(m/d), 0]: the
    exceptional ones, then the strict transform E_0.

    Each listed pair is checked against the chain's rows whose N divides m.
    """
    n, d, m, rows = chain[:4]
    divs = exceptional_m_divisors(n, d, m) + (_m_divisor(n, d, m, 0),)
    present = {(kappa, r) for kappa, r in zip(*[iter(rows)] * 2) if m % (kappa + r * d) == 0}
    for div in divs:
        if div.pair not in present:
            raise AssertionError(f"m-divisor {div.pair} missing from chain")
    return MDivisorList(tuple(map(MDivisor, range(-(m // d), 1), divs)))


def exceptional_m_divisors(n: int, d: int, m: int) -> tuple[Divisor, ...]:
    """The exceptional m-divisors E_{-floor(m/d)}, ..., E_{-1} without
    building the full chain."""
    CHAIN.check(n, d, m)
    return tuple(_m_divisor(n, d, m, i) for i in range(-(m // d), 0))
