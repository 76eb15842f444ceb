"""Minimal m-separating resolution chains built by iterated mediant insertion.

For the parameters (n, d, m) the exceptional divisors of the minimal
m-separating log resolution of a semihomogeneous singularity of degree d in
n variables are indexed by coprime pairs (kappa, r).  The chain runs from
(0, 1), the first blow-up, to (1, 0), the strict transform, and blowing up
an intersection inserts the mediant of the two adjacent pairs.  Multiplicity
and log discrepancy are the linear forms N = kappa + r*d and nu = kappa + r*n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Mapping

from .arith import parents_from_cf
from .domain import CHAIN

KIND_STRICT_TRANSFORM = "strict_transform"
KIND_FIRST_EXCEPTIONAL = "first_exceptional"
KIND_INTERMEDIATE = "intermediate"


@dataclass(frozen=True)
class CoprimePair:
    kappa: int
    r: int

    def __post_init__(self) -> None:
        if self.kappa < 0 or self.r < 0:
            raise ValueError(f"({self.kappa}, {self.r}): entries must be non-negative")
        if (self.kappa, self.r) == (0, 0):
            raise ValueError("(0, 0) is not a valid pair")
        if gcd(self.kappa, self.r) != 1:
            raise ValueError(f"({self.kappa}, {self.r}) is not coprime")

    @property
    def kind(self) -> str:
        if (self.kappa, self.r) == (1, 0):
            return KIND_STRICT_TRANSFORM
        if (self.kappa, self.r) == (0, 1):
            return KIND_FIRST_EXCEPTIONAL
        return KIND_INTERMEDIATE

    @property
    def is_intermediate(self) -> bool:
        return self.kind == KIND_INTERMEDIATE

    def as_tuple(self) -> tuple[int, int]:
        return (self.kappa, self.r)

    def mediant(self, other: "CoprimePair") -> "CoprimePair":
        return CoprimePair(self.kappa + other.kappa, self.r + other.r)

    def __str__(self) -> str:
        return f"({self.kappa},{self.r})"


PAIR_FIRST = CoprimePair(0, 1)
PAIR_STRICT = CoprimePair(1, 0)


@dataclass(frozen=True)
class Divisor:
    """One irreducible component of the total transform.

    multiplicity is the order of the pulled-back function along the divisor
    and log_discrepancy is 1 + the order of the relative canonical divisor;
    for the pair (kappa, r) these are kappa + r*d and kappa + r*n.
    """

    pair: CoprimePair
    multiplicity: int
    log_discrepancy: int
    kind: str

    def __post_init__(self) -> None:
        if self.multiplicity < 1 or self.log_discrepancy < 1:
            raise ValueError("multiplicity and log discrepancy must be positive")
        if self.kind != self.pair.kind:
            raise ValueError(f"kind {self.kind!r} does not match pair {self.pair}")

    @classmethod
    def for_params(cls, pair: CoprimePair, n: int, d: int) -> "Divisor":
        return cls(pair, pair.kappa + pair.r * d, pair.kappa + pair.r * n, pair.kind)

    def to_doc(self) -> dict:
        return {
            "kappa": self.pair.kappa,
            "r": self.pair.r,
            "N": self.multiplicity,
            "nu": self.log_discrepancy,
            "kind": self.kind,
        }

    @classmethod
    def from_doc(cls, doc: Mapping) -> "Divisor":
        return cls(
            CoprimePair(int(doc["kappa"]), int(doc["r"])),
            int(doc["N"]),
            int(doc["nu"]),
            str(doc["kind"]),
        )


def _chain_pairs(d: int, m: int) -> list[CoprimePair]:
    # In-order expansion of the mediant tree: an adjacent pair of divisors
    # gets its intersection blown up exactly when the multiplicities sum to
    # at most m, which inserts the mediant between them.
    def mult(p: CoprimePair) -> int:
        return p.kappa + p.r * d

    out = [PAIR_FIRST]
    stack = [(PAIR_FIRST, PAIR_STRICT)]
    while stack:
        left, right = stack.pop()
        if mult(left) + mult(right) <= m:
            mid = left.mediant(right)
            stack.append((mid, right))
            stack.append((left, mid))
        else:
            out.append(right)
    return out


@dataclass(frozen=True)
class ResolutionChain:
    """The divisor chain of the minimal m-separating resolution, left to right
    from (0, 1) to (1, 0)."""

    n: int
    d: int
    m: int
    divisors: tuple[Divisor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index",
                           {div.pair: idx for idx, div in enumerate(self.divisors)})

    def pairs(self) -> tuple[CoprimePair, ...]:
        return tuple(div.pair for div in self.divisors)

    def index_of(self, pair: CoprimePair) -> int:
        idx = self._index.get(pair)
        if idx is None:
            raise ValueError(f"pair {pair} is not a divisor of this chain")
        return idx

    def divisor(self, pair: CoprimePair) -> Divisor:
        return self.divisors[self.index_of(pair)]

    def intermediate_divisors(self) -> tuple[Divisor, ...]:
        return tuple(div for div in self.divisors if div.pair.is_intermediate)

    def __iter__(self) -> Iterator[Divisor]:
        return iter(self.divisors)

    def __len__(self) -> int:
        return len(self.divisors)

    def to_doc(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "m": self.m,
            "divisors": [div.to_doc() for div in self.divisors],
        }

    @classmethod
    def from_doc(cls, doc: Mapping) -> "ResolutionChain":
        return cls(
            int(doc["n"]),
            int(doc["d"]),
            int(doc["m"]),
            tuple(Divisor.from_doc(row) for row in doc["divisors"]),
        )


def build_minimal_resolution(n: int, d: int, m: int) -> ResolutionChain:
    """Build the chain by repeated mediant insertion from [(0,1), (1,0)].

    The construction and its closed form (intermediate pairs are exactly the
    coprime (kappa, r) with kappa, r >= 1 and kappa + r*d <= m) are kept
    separate so one can be checked against the other; see verify_minimality.
    """
    CHAIN.check(n, d, m)
    divisors = tuple(Divisor.for_params(p, n, d) for p in _chain_pairs(d, m))
    chain = ResolutionChain(n, d, m, divisors)
    _check_chain_invariants(chain)
    return chain


def _check_chain_invariants(chain: ResolutionChain) -> None:
    divs = chain.divisors
    if divs[0].pair != PAIR_FIRST or divs[-1].pair != PAIR_STRICT:
        raise AssertionError("chain endpoints are wrong")
    for div in divs:
        if div.multiplicity != div.pair.kappa + div.pair.r * chain.d:
            raise AssertionError(f"multiplicity of {div.pair} is inconsistent")
        if div.log_discrepancy != div.pair.kappa + div.pair.r * chain.n:
            raise AssertionError(f"log discrepancy of {div.pair} is inconsistent")
    for a, b in zip(divs, divs[1:]):
        det = a.pair.kappa * b.pair.r - b.pair.kappa * a.pair.r
        if det not in (1, -1):
            raise AssertionError(f"{a.pair}, {b.pair} are not Farey neighbors")
        if a.multiplicity + b.multiplicity <= chain.m:
            raise AssertionError(f"chain is not {chain.m}-separating at {a.pair}, {b.pair}")


def closed_form_intermediate_pairs(d: int, m: int) -> set[CoprimePair]:
    """The predicted set of intermediate pairs: coprime, both >= 1, N <= m."""
    pairs = set()
    for r in range(1, m // d + 1):
        for kappa in range(1, m - r * d + 1):
            if gcd(kappa, r) == 1:
                pairs.add(CoprimePair(kappa, r))
    return pairs


def verify_minimality(chain: ResolutionChain) -> bool:
    """Check the closed-form membership predicate and the separation bound."""
    actual = {div.pair for div in chain.intermediate_divisors()}
    if actual != closed_form_intermediate_pairs(chain.d, chain.m):
        return False
    for a, b in zip(chain.divisors, chain.divisors[1:]):
        if a.multiplicity + b.multiplicity <= chain.m:
            return False
    return True


def adjacency(chain: ResolutionChain, pair: CoprimePair) -> tuple[CoprimePair, CoprimePair]:
    """Chain neighbors of an intermediate divisor, the left one first.

    Left means closer to (0, 1), i.e. smaller kappa/r.
    """
    if not pair.is_intermediate:
        raise ValueError(f"{pair} is a chain endpoint, adjacency is undefined")
    idx = chain.index_of(pair)
    return chain.divisors[idx - 1].pair, chain.divisors[idx + 1].pair


def blowup_counts(chain: ResolutionChain, pair: CoprimePair) -> tuple[int, int]:
    """How many times each side of a divisor was blown up after its creation.

    If (kappa', r') and (kappa'', r'') are the mediant parents of the pair
    and (kappa*, r*), (kappa**, r**) its chain neighbors (primed and starred
    both taken on the (0,1) side first), the counts are
    n' = (kappa* - kappa')/kappa = (r* - r')/r and symmetrically n''.
    Non-integrality would mean the chain was built wrong and raises.
    """
    parent_low, parent_high = parents_from_cf(pair.kappa, pair.r)
    left, right = adjacency(chain, pair)
    counts = []
    for parent, neighbor in ((parent_low, left), (parent_high, right)):
        dk = neighbor.kappa - parent[0]
        dr = neighbor.r - parent[1]
        if dk % pair.kappa or dr % pair.r or dk // pair.kappa != dr // pair.r:
            raise AssertionError(f"non-integral blow-up count at {pair}")
        count = dk // pair.kappa
        if count < 0:
            raise AssertionError(f"negative blow-up count at {pair}")
        counts.append(count)
    return counts[0], counts[1]


def nef_fiber_identity(chain: ResolutionChain, pair: CoprimePair) -> bool:
    """Fiber-degree identity for both linear invariants of an intermediate
    divisor: the neighbor values sum to (1 + n' + n'') times the divisor's own,
    both for N and for nu."""
    n_left, n_right = blowup_counts(chain, pair)
    left, right = adjacency(chain, pair)
    div = chain.divisor(pair)
    div_left = chain.divisor(left)
    div_right = chain.divisor(right)
    factor = 1 + n_left + n_right
    return (
        div_left.log_discrepancy + div_right.log_discrepancy == factor * div.log_discrepancy
        and div_left.multiplicity + div_right.multiplicity == factor * div.multiplicity
    )


def m_divisor_indices(d: int, m: int) -> range:
    """All m-divisor indices i, from -floor(m/d) to 0 inclusive."""
    return range(-(m // d), 1)


def m_divisor(n: int, d: int, m: int, i: int) -> Divisor:
    """The m-divisor E_i, from the normalization of (m + i*d, -i).

    Index 0 is the strict transform; when d divides m, index -m/d is the
    first exceptional divisor (0, 1).
    """
    CHAIN.check(n, d, m)
    if i not in m_divisor_indices(d, m):
        raise ValueError(f"index {i} outside [-{m // d}, 0]")
    a, b = m + i * d, -i
    g = gcd(a, b)
    pair = CoprimePair(a // g, b // g)
    div = Divisor.for_params(pair, n, d)
    if m % div.multiplicity != 0:
        raise AssertionError(f"multiplicity of E_{i} does not divide m")
    return div


def exceptional_m_divisor(n: int, d: int, m: int, i: int) -> Divisor:
    """The exceptional m-divisor E_i, for i in [-floor(m/d), -1]."""
    CHAIN.check(n, d, m)
    if i == 0 or i not in m_divisor_indices(d, m):
        raise ValueError(f"index {i} outside [-{m // d}, -1]")
    return m_divisor(n, d, m, i)


@dataclass(frozen=True)
class MDivisor:
    index: int
    divisor: Divisor
    exceptional: bool

    def to_doc(self) -> dict:
        return {"i": self.index, **self.divisor.to_doc(), "exceptional": self.exceptional}


@dataclass(frozen=True)
class MDivisorList:
    n: int
    d: int
    m: int
    entries: tuple[MDivisor, ...]

    def to_doc(self) -> list:
        return [entry.to_doc() for entry in self.entries]


def m_divisors(chain: ResolutionChain) -> MDivisorList:
    """The m-divisors of a chain, indexed by i in [-floor(m/d), 0].

    Each listed pair is checked to be present in the chain.
    """
    entries = []
    chain_pairs = set(chain.pairs())
    for i in m_divisor_indices(chain.d, chain.m):
        div = m_divisor(chain.n, chain.d, chain.m, i)
        if div.pair not in chain_pairs:
            raise AssertionError(f"m-divisor {div.pair} missing from chain")
        entries.append(MDivisor(i, div, i != 0))
    return MDivisorList(chain.n, chain.d, chain.m, tuple(entries))


def exceptional_m_divisors(n: int, d: int, m: int) -> tuple[Divisor, ...]:
    """The exceptional m-divisors E_{-floor(m/d)}, ..., E_{-1} without
    building the full chain."""
    return tuple(m_divisor(n, d, m, i) for i in m_divisor_indices(d, m) if i != 0)
