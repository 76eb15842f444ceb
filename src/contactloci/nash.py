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

from collections import namedtuple

from .resolution import Divisor, exceptional_m_divisors


class ValuationReport(namedtuple("ValuationReport", ("n", "d", "m", "essential"))):
    """The essential m-divisors E_{-floor(m/d)}, ..., E_{-1}; the contact and
    dlt families and the codimensions are read off them and (n, d, m)."""

    __slots__ = ()

    def __new__(cls, n: int, d: int, m: int,
                essential: tuple[Divisor, ...]) -> "ValuationReport":
        if len(essential) != m // d:
            raise ValueError("wrong number of essential valuations")
        return tuple.__new__(cls, (n, d, m, essential))

    @property
    def contact(self) -> tuple[Divisor, ...]:
        return self.essential if self.d >= self.n else self.essential[-1:]

    @property
    def dlt(self) -> tuple[Divisor, ...]:
        return self.essential if self.d >= self.n else ()

    @property
    def codims(self) -> tuple[tuple[int, int], ...]:
        """(index i, codimension m + i(d - n)) per essential divisor."""
        n, d, m = self[:3]
        return tuple((i, m + i * (d - n)) for i in range(-(m // d), 0))

    def counts(self) -> tuple[int, int, int]:
        return len(self.dlt), len(self.contact), len(self.essential)

    def to_doc(self) -> dict:
        return {"n": self.n, "d": self.d, "m": self.m,
                "essential": [div.to_doc() for div in self.essential],
                "contact": [div.to_doc() for div in self.contact],
                "dlt": [div.to_doc() for div in self.dlt],
                "codims": {str(i): c for i, c in self.codims}}


def valuation_report(n: int, d: int, m: int) -> ValuationReport:
    """The exceptional m-divisors E_{-floor(m/d)}, ..., E_{-1}, all essential,
    with the contact and dlt valuations among them and the codimension
    m + i(d - n) of each order-(-i) stratum, checked against m * nu_i / N_i."""
    report = ValuationReport(n, d, m, exceptional_m_divisors(n, d, m))  # checks the domain first
    for (i, codim), div in zip(report.codims, report.essential):
        if m * div.log_discrepancy != codim * div.multiplicity:
            raise AssertionError(f"codimension formulas disagree at i = {i}")
    return report
