"""First pages of the two spectral sequences and the fixed-point verdict.

Both pages are indexed here by the m-divisor index i in [-floor(m/d), -1]
(column) and the total degree s.  The fixed-point page places the homology of
the cyclic cover of E_i at total degree s = n - 1 - k - 2i(d - n), already in
the corrected grading; the order page places the compactly supported
cohomology of the order-(-i) stratum at its own degree.  Both sequences
degenerate at the first page in scope, so no differential machinery exists:
a page is its own limit.  Matching the two pages column by column under the
duality translation is a computable check, and two arithmetic membership
conditions decide when the fixed-point Floer cohomology of the m-th monodromy
iterate is determined by the contact cohomology.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple, Optional

from .contact import contact_cohomology, contact_euler, graded_pieces, piece_compact_cohomology
from .domain import COHOMOLOGY
from .surface import cover_homology, milnor_fiber_euler

if TYPE_CHECKING:
    from .groups import FgAbGroup, GradedGroup

COLOR_BLUE = "blue"
COLOR_ORANGE = "orange"
COLOR_YELLOW = "yellow"
COLOR_PINK = "pink"


class SpectralPage(namedtuple("SpectralPage", ("entries",))):
    """An E1 = Einfinity page: finitely many groups at (column, total degree).

    Columns are canonicalized to the m-divisor index i itself.  Any choice of
    ample divisor only reorders the genuine column positions monotonically
    and both sequences are degenerate, so nothing computed depends on the
    spacing.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[tuple[int, int], FgAbGroup], ...]) -> "SpectralPage":
        return tuple.__new__(cls, (tuple(sorted(entries)),))


def mclean_e1(n: int, d: int, m: int) -> SpectralPage:
    """First page of the fixed-point spectral sequence over the exceptional
    m-divisors (the strict transform never contributes)."""
    COHOMOLOGY.check(n, d, m)
    entries = []
    for i in range(-(m // d), 0):
        homology = cover_homology(n, d, i, m)
        for k, group in homology.entries:
            s = n - 1 - k - 2 * i * (d - n)
            entries.append(((i, s), group))
    return SpectralPage(tuple(entries))


def order_e1(n: int, d: int, m: int) -> SpectralPage:
    """First page of the order-filtration spectral sequence: column -rho
    holds the compactly supported cohomology of the order-rho stratum."""
    entries = []
    for piece in graded_pieces(n, d, m):
        profile = piece_compact_cohomology(piece, n, d)
        for s, group in profile.entries:
            entries.append(((-piece.rho, s), group))
    return SpectralPage(tuple(entries))


def comparison_shift(n: int, m: int) -> int:
    """Total-degree offset between the two pages: (n-1)(2m+1)."""
    return (n - 1) * (2 * m + 1)


def compare_pages(n: int, d: int, m: int) -> bool:
    """Whether the two first pages agree column by column up to the constant
    degree shift (n-1)(2m+1).

    The two sides are computed through independent routes (cover homology
    with the index arithmetic versus stratum cohomology with Thom shifts),
    so this checks all of the grading bookkeeping at once.
    """
    shift = comparison_shift(n, m)
    mclean = mclean_e1(n, d, m)
    order = order_e1(n, d, m)
    shifted = {(i, s + shift): group for (i, s), group in mclean.entries}
    return shifted == dict(order.entries)


class ConditionReport(NamedTuple):
    """The k in [1, m/d) at which a membership condition fails; it holds when
    there are none."""

    violating_k: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return not self.violating_k

    def to_doc(self) -> dict:
        return {"holds": self.holds, "violating_k": list(self.violating_k)}


def _violations(n: int, d: int, delta: int, k_max: int) -> tuple[int, ...]:
    """The k in [1, k_max] at which |2k(d-n) + delta| lies in {1, n-2, n-1,
    2n-3} (delta = 1, degeneration) or {0, n-2, n-1} (delta = 0, filtration)."""
    forbidden = {n - 2, n - 1, *((1, 2 * n - 3) if delta else (0,))}
    return tuple(k for k in range(1, k_max + 1) if abs(2 * k * (d - n) + delta) in forbidden)


def condition_degeneration(n: int, d: int, m: int) -> ConditionReport:
    """Membership scan deciding degeneration of the fixed-point sequence:
    2k(d-n) + 1 must avoid {+-1, +-(n-1), +-(n-2), +-(2n-3)} for every
    integer k in [1, m/d)."""
    return ConditionReport(_violations(n, d, 1, (m - 1) // d))


def condition_filtration(n: int, d: int, m: int) -> ConditionReport:
    """Membership scan deciding single-column support per total degree:
    2k(d-n) must avoid {0, +-(n-2), +-(n-1)} for every integer k in
    [1, m/d)."""
    return ConditionReport(_violations(n, d, 0, (m - 1) // d))


def floer_cohomology(n: int, d: int, m: int) -> Optional[GradedGroup]:
    """HF^.(phi^m, +) when the isomorphism theorem applies, else None.

    When both membership conditions hold, the Floer cohomology of the m-th
    monodromy iterate equals the contact cohomology shifted down by
    (n-1)(2m+1).  Outside that region nothing is claimed.
    """
    COHOMOLOGY.check(n, d, m)
    deg = condition_degeneration(n, d, m)
    filt = condition_filtration(n, d, m)
    if not (deg.holds and filt.holds):
        return None
    return contact_cohomology(n, d, m).shift(-comparison_shift(n, m))


class PairClass(NamedTuple):
    """Classification of (n, d) by which conditions can fail for some m: blue
    if neither, orange/yellow if only the filtration/degeneration condition,
    pink if both."""

    degeneration_violations: tuple[int, ...]
    filtration_violations: tuple[int, ...]

    @property
    def color(self) -> str:
        if self.degeneration_violations:
            return COLOR_PINK if self.filtration_violations else COLOR_YELLOW
        return COLOR_ORANGE if self.filtration_violations else COLOR_BLUE


def default_k_bound(n: int, d: int) -> int:
    """Smallest scan bound past which no new violation can appear.

    A violation needs |2k(d-n)| <= 2n-2, so k <= (n-1)/|d-n| when d != n;
    on the diagonal k = 1 already decides both conditions.
    """
    if d == n:
        return 1
    return max(1, (n - 1) // abs(d - n) + 1)


def classify_pair(n: int, d: int) -> PairClass:
    """The violations of both conditions for the pair (n, d), over every m:
    both scans stop at default_k_bound."""
    COHOMOLOGY.check(n, d)
    k_bound = default_k_bound(n, d)
    return PairClass(_violations(n, d, 1, k_bound), _violations(n, d, 0, k_bound))


def scatter_grid(n_range, d_range) -> list[tuple[int, int, PairClass]]:
    """classify_pair over a rectangular grid, row-major in (n, d)."""
    return [(n, d, classify_pair(n, d)) for n in n_range for d in d_range]


def lefschetz_closed_form(n: int, d: int, m: int) -> int:
    """Closed form of the Lefschetz number of the m-th monodromy iterate:
    0 unless d | m, in which case the iterate is isotopic to the identity
    and the number is chi of the Milnor fiber, 1 + (-1)^(n-1) (d-1)^n."""
    return 0 if m % d else milnor_fiber_euler(n, d)


def lefschetz_number(n: int, d: int, m: int) -> int:
    """Lefschetz number of the m-th monodromy iterate.

    Computed as the compactly supported Euler characteristic of X_m and
    cross-checked against lefschetz_closed_form.
    """
    chi = contact_euler(n, d, m)
    closed = lefschetz_closed_form(n, d, m)
    if chi != closed:
        raise AssertionError(f"Euler characteristic {chi} disagrees with closed form {closed}")
    return chi
