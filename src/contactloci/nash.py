"""Dlt, contact and essential m-valuations of the singularity.

The unrestricted contact locus decomposes over the exceptional m-divisors of
the minimal m-separating resolution, and each stratum is irreducible of
codimension m * nu/N = m + i(d - n).  Counting is purely arithmetic:

* the essential valuations are all floor(m/d) exceptional m-divisors;
* for d >= n the three families coincide;
* for d < n there are no dlt valuations and the only stratum of maximal
  dimension is the one of order 1, so E_{-1} carries the unique contact
  valuation as soon as m >= d.

The counts are meaningful for any n >= 2; the cohomology modules need
n >= 3 on top of this.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping

from .domain import CHAIN, Value
from .resolution import Divisor, exceptional_m_divisor, exceptional_m_divisors


def essential_valuations(n: int, d: int, m: int) -> tuple[Divisor, ...]:
    """All exceptional m-divisors, E_{-floor(m/d)} through E_{-1}."""
    CHAIN.check(n, d, m)
    return exceptional_m_divisors(n, d, m)


def contact_valuations(n: int, d: int, m: int) -> tuple[Divisor, ...]:
    """The m-divisors whose stratum closure is an irreducible component."""
    CHAIN.check(n, d, m)
    if d >= n:
        return exceptional_m_divisors(n, d, m)
    if m >= d:
        return (exceptional_m_divisor(n, d, m, -1),)
    return ()


def dlt_valuations(n: int, d: int, m: int) -> tuple[Divisor, ...]:
    """Empty when d < n, where every exceptional divisor has log discrepancy
    exceeding its multiplicity; all exceptional m-divisors when d >= n."""
    CHAIN.check(n, d, m)
    if d >= n:
        return exceptional_m_divisors(n, d, m)
    return ()


def stratum_codimension(n: int, d: int, m: int, i: int) -> int:
    """Codimension m + i(d - n) of the order-(-i) stratum of the unrestricted
    contact locus, checked against m * nu_i / N_i."""
    div = exceptional_m_divisor(n, d, m, i)
    codim = m + i * (d - n)
    if m * div.log_discrepancy != codim * div.multiplicity:
        raise AssertionError(f"codimension formulas disagree at i = {i}")
    return codim


_FAMILIES = ("essential", "contact", "dlt")


class ValuationReport(Value):
    __slots__ = ()

    def __new__(cls, n: int, d: int, m: int, essential: tuple[Divisor, ...],
                contact: tuple[Divisor, ...], dlt: tuple[Divisor, ...],
                codims: tuple[tuple[int, int], ...]) -> "ValuationReport":
        if not (set(div.pair for div in dlt) <= set(div.pair for div in contact)
                <= set(div.pair for div in essential)):
            raise ValueError("valuation families must be nested")
        if len(essential) != m // d:
            raise ValueError("wrong number of essential valuations")
        return tuple.__new__(cls, (n, d, m, essential, contact, dlt, codims))

    n = property(itemgetter(0))
    d = property(itemgetter(1))
    m = property(itemgetter(2))
    essential = property(itemgetter(3))
    contact = property(itemgetter(4))
    dlt = property(itemgetter(5))
    codims = property(itemgetter(6))  # (index i, codimension)

    def counts(self) -> tuple[int, int, int]:
        return len(self.dlt), len(self.contact), len(self.essential)

    def to_doc(self) -> dict:
        families = (self.essential, self.contact, self.dlt)
        return {"n": self.n, "d": self.d, "m": self.m,
                **{key: [div.to_doc() for div in divs] for key, divs in zip(_FAMILIES, families)},
                "codims": {str(i): c for i, c in self.codims}}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "ValuationReport":
        return cls(*(int(doc[key]) for key in ("n", "d", "m")),
                   *(tuple(map(Divisor.from_doc, doc[key])) for key in _FAMILIES),
                   tuple(sorted((int(i), int(c)) for i, c in doc["codims"].items())))


def valuation_report(n: int, d: int, m: int) -> ValuationReport:
    essential = essential_valuations(n, d, m)  # checks the domain first
    codims = tuple((i, stratum_codimension(n, d, m, i)) for i in range(-(m // d), 0))
    return ValuationReport(n, d, m, essential, contact_valuations(n, d, m),
                           dlt_valuations(n, d, m), codims)
