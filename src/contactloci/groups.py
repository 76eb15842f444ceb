"""Finitely generated abelian groups and graded stacks of them.

``FgAbGroup`` models ``Z^rank + Z/t1 + ... + Z/tk`` with the invariant-factor
normalization ``t1 | t2 | ... | tk`` (each ``ti >= 2``), which makes equality
testing canonical.  ``GradedGroup`` is a finitely supported map from integer
degrees to such groups; it is the value type of every cohomology computation
in this package.  All values are immutable.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping

from .domain import Value


def _factorize(x: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    p = 2
    while p * p <= x:
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
        p += 1 if p == 2 else 2
    if x > 1:
        factors[x] = factors.get(x, 0) + 1
    return factors


def invariant_factors(orders: Iterable[int]) -> tuple[int, ...]:
    """Normalize a multiset of cyclic orders (each >= 2) to invariant factors.

    The result is ascending under divisibility.  Normalizing twice is a
    no-op, which the tests assert.
    """
    by_prime: dict[int, list[int]] = {}
    for t in orders:
        if t < 2:
            raise ValueError(f"cyclic order {t} is not >= 2")
        for p, e in _factorize(t).items():
            by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return ()
    for exps in by_prime.values():
        exps.sort(reverse=True)
    width = max(len(exps) for exps in by_prime.values())
    factors = []
    for slot in range(width):
        f = 1
        for p, exps in by_prime.items():
            if slot < len(exps):
                f *= p ** exps[slot]
        factors.append(f)
    return tuple(reversed(factors))


class FgAbGroup(Value):
    """A finitely generated abelian group in invariant-factor form."""

    __slots__ = ()

    def __new__(cls, rank: int = 0, torsion: Iterable[int] = ()) -> "FgAbGroup":
        if rank < 0:
            raise ValueError("rank must be non-negative")
        torsion = tuple(torsion)
        for t in torsion:
            if t < 2:
                raise ValueError(f"invariant factor {t} is not >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors {torsion} not ordered by divisibility")
        return tuple.__new__(cls, (rank, torsion))

    rank = property(itemgetter(0))
    torsion = property(itemgetter(1))

    @classmethod
    def from_orders(cls, rank: int = 0, orders: Iterable[int] = ()) -> "FgAbGroup":
        """Build from a free rank and an arbitrary multiset of cyclic orders.

        Order 0 counts as a free summand and order 1 is dropped; everything
        else is renormalized to invariant factors.
        """
        torsion_orders = []
        for t in orders:
            if t < 0:
                raise ValueError(f"negative cyclic order {t}")
            elif t == 0:
                rank += 1
            elif t > 1:
                torsion_orders.append(t)
        return cls(rank, invariant_factors(torsion_orders))

    @property
    def is_zero(self) -> bool:
        return self[0] == 0 and not self[1]  # rank 0, no torsion

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        return FgAbGroup.from_orders(self.rank + other.rank, self.torsion + other.torsion)

    __add__ = direct_sum

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_doc(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "FgAbGroup":
        return cls(int(doc["rank"]), tuple(int(t) for t in doc["torsion"]))


ZERO_GROUP = FgAbGroup()


def free_group(rank: int) -> FgAbGroup:
    return FgAbGroup(rank)


def cyclic(order: int) -> FgAbGroup:
    """Z/order, with Z/0 = Z and Z/1 = 0."""
    return FgAbGroup.from_orders(0, (order,)) if order != 0 else FgAbGroup(1)


class GradedGroup(Value):
    """A finitely supported map from integer degrees to FgAbGroup.

    Degrees that would carry the zero group are never stored, so equality of
    the sorted entry tuples is equality of graded groups.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, FgAbGroup], ...] = ()) -> "GradedGroup":
        seen = set()
        for degree, group in entries:
            if degree in seen:
                raise ValueError(f"duplicate degree {degree}")
            seen.add(degree)
            if group.is_zero:
                raise ValueError(f"zero group stored at degree {degree}")
        return tuple.__new__(cls, (tuple(sorted(entries)),))

    entries = property(itemgetter(0))

    @classmethod
    def from_dict(cls, mapping: Mapping[int, FgAbGroup]) -> "GradedGroup":
        return cls(tuple((k, g) for k, g in mapping.items() if not g.is_zero))

    def at(self, degree: int) -> FgAbGroup:
        for k, g in self.entries:
            if k == degree:
                return g
        return ZERO_GROUP

    def degrees(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def direct_sum(self, other: "GradedGroup") -> "GradedGroup":
        return graded_sum((self, other))

    __add__ = direct_sum

    def shift(self, s: int) -> "GradedGroup":
        return GradedGroup(tuple((k + s, g) for k, g in self.entries))

    def euler_char(self) -> int:
        """Alternating sum of ranks; torsion is invisible to it."""
        return sum((-1) ** k * rank for k, (rank, _) in self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return ", ".join(f"deg {k}: {g}" for k, g in self.entries)

    def to_doc(self) -> list:
        return [{"degree": k, **g.to_doc()} for k, g in self.entries]

    @classmethod
    def from_doc(cls, doc: Iterable[Mapping]) -> "GradedGroup":
        return cls(tuple((int(row["degree"]), FgAbGroup.from_doc(row)) for row in doc))


def graded_sum(groups: Iterable[GradedGroup]) -> GradedGroup:
    """Degreewise direct sum of any number of graded groups in one pass: ranks
    add, torsion orders pool, and each degree is normalized once."""
    ranks: dict[int, int] = {}
    orders: dict[int, list[int]] = {}
    for group in groups:
        for k, (rank, torsion) in group.entries:
            ranks[k] = ranks.get(k, 0) + rank
            orders.setdefault(k, []).extend(torsion)
    # stored groups are nonzero, so no sum of them is zero
    return GradedGroup(tuple((k, FgAbGroup(rank, invariant_factors(orders[k])))
                             for k, rank in ranks.items()))

