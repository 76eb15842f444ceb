"""Finitely generated abelian groups and graded stacks of them.

``FgAbGroup`` models ``Z^rank + Z/t1 + ... + Z/tk`` with the invariant-factor
normalization ``t1 | t2 | ... | tk`` (each ``ti >= 2``), which makes equality
testing canonical.  ``GradedGroup`` is a finitely supported map from integer
degrees to such groups; it is the value type of every cohomology computation
in this package.  All values are immutable.

Nothing here normalizes an arbitrary multiset of cyclic orders.  The only
torsion the package meets is Z/d, from the punctured cone over S for odd n,
and copies of one order are already invariant factors; the constructor
refuses any torsion that is not in that form.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Mapping


class FgAbGroup(namedtuple("FgAbGroup", ("rank", "torsion"))):
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

    @property
    def is_zero(self) -> bool:
        return self[0] == 0 and not self[1]  # rank 0, no torsion

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


def free_group(rank: int) -> FgAbGroup:
    return FgAbGroup(rank)


class GradedGroup(namedtuple("GradedGroup", ("entries",))):
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

    @classmethod
    def from_dict(cls, mapping: Mapping[int, FgAbGroup]) -> "GradedGroup":
        return cls(tuple((k, g) for k, g in mapping.items() if not g.is_zero))

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def shift(self, s: int) -> "GradedGroup":
        return GradedGroup(tuple((k + s, g) for k, g in self.entries))

    def euler_char(self) -> int:
        """Alternating sum of ranks; torsion is invisible to it."""
        return sum((-1) ** k * rank for k, (rank, _) in self.entries)

    def to_doc(self) -> list:
        return [{"degree": k, **g.to_doc()} for k, g in self.entries]


def graded_sum(groups: Iterable[GradedGroup]) -> GradedGroup:
    """Degreewise direct sum of any number of graded groups in one pass: ranks
    add and torsion orders pool, sorted.

    The pooled orders of each degree must already be invariant factors once
    sorted, as copies of one order are; anything else, such as Z/2 beside
    Z/3, is refused by the FgAbGroup constructor with a ValueError rather
    than normalized.
    """
    ranks: dict[int, int] = {}
    orders: dict[int, list[int]] = {}
    for group in groups:
        for k, (rank, torsion) in group.entries:
            ranks[k] = ranks.get(k, 0) + rank
            orders.setdefault(k, []).extend(torsion)
    # stored groups are nonzero, so no sum of them is zero
    return GradedGroup(tuple((k, FgAbGroup(rank, sorted(orders[k])))
                             for k, rank in ranks.items()))

