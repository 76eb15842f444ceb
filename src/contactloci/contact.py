"""Order stratification of the restricted contact locus X_m.

A jet of order rho with contact order exactly m exists only for
1 <= rho <= m/d.  Its lowest coefficient lands on the punctured cone
{h = 0} - {0}, or on the Milnor fiber {h = 1} when d*rho = m; the next
m - d*rho coefficients are cut down to moving hyperplanes and the last
(d-1)*rho coefficients are free.  Each stratum is therefore an iterated
affine bundle over its base, of fiber dimension
D_rho = (m - d*rho)(n-1) + (d-1)*rho*n, and contributes its base profile
shifted by 2*D_rho to compactly supported cohomology.  The order spectral
sequence degenerates for d >= 2 and the column extensions split, so the
total cohomology is the degreewise direct sum over strata.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, NamedTuple, Optional

from .domain import COHOMOLOGY
from .groups import GradedGroup, graded_sum
from .surface import (
    cone_compact_cohomology,
    euler_characteristic,
    milnor_fiber_compact_cohomology,
    milnor_fiber_euler,
)

BASE_CONE = "cone"
BASE_MILNOR_FIBER = "milnor_fiber"


class GradedPiece(NamedTuple):
    """One order stratum of X_m: the jets of order exactly rho."""

    rho: int
    base_kind: str
    hyperplane_vars: int
    free_vars: int
    fiber_dim: int
    total_dim: int

    def to_doc(self) -> dict:
        return self._asdict()


def graded_pieces(n: int, d: int, m: int) -> list[GradedPiece]:
    """One piece per jet order rho in [1, floor(m/d)]; empty when m < d."""
    COHOMOLOGY.check(n, d, m)
    pieces = []
    for rho in range(1, m // d + 1):
        hyperplane_vars = m - d * rho
        free_vars = (d - 1) * rho
        fiber_dim = hyperplane_vars * (n - 1) + free_vars * n
        pieces.append(GradedPiece(
            rho=rho,
            base_kind=BASE_MILNOR_FIBER if d * rho == m else BASE_CONE,
            hyperplane_vars=hyperplane_vars,
            free_vars=free_vars,
            fiber_dim=fiber_dim,
            total_dim=(n - 1) + fiber_dim,
        ))
    return pieces


def piece_compact_cohomology(piece: GradedPiece, n: int, d: int) -> GradedGroup:
    """H^._c of one stratum: the base profile shifted by twice the fiber
    dimension, via the Thom isomorphism of the iterated affine bundle."""
    if piece.base_kind == BASE_MILNOR_FIBER:
        base = milnor_fiber_compact_cohomology(n, d)
    else:
        base = cone_compact_cohomology(n, d)
    return base.shift(2 * piece.fiber_dim)


def contact_cohomology(n: int, d: int, m: int) -> GradedGroup:
    """H^._c(X_m) as the degreewise direct sum of the stratum profiles.

    The order spectral sequence degenerates at the first page for d >= 2, so
    this is the associated graded of the true group.  Whenever no total
    degree mixes a torsion-bearing stratum contribution with another stratum
    (always for n even, whose strata are torsion-free, and for n odd unless
    some k in [1, m/d) has 2k(d-n) in {0, n-1, 1-n}), every extension in the
    abutment filtration has a free quotient and splits, making the direct sum
    exact.  In the residual collision cases, which the filtration condition
    of the spectral module excludes anyway, the split form is the stated
    convention for reassembling the abutment.
    """
    return graded_sum(piece_compact_cohomology(piece, n, d) for piece in graded_pieces(n, d, m))


def contact_euler(n: int, d: int, m: int) -> int:
    """Compactly supported Euler characteristic of X_m."""
    return contact_cohomology(n, d, m).euler_char()


def contact_dimension(n: int, d: int, m: int) -> Optional[int]:
    """Largest stratum dimension, or None when the locus is empty."""
    pieces = graded_pieces(n, d, m)
    if not pieces:
        return None
    return max(piece.total_dim for piece in pieces)


BASIS_SURFACE = "S"
BASIS_MILNOR = "Mh"
_BASES = (BASIS_SURFACE, BASIS_MILNOR)


class MotivicClass(namedtuple("MotivicClass", ("terms",))):
    """Integer combination of L^e * [S] and L^e * [Mh], where L is the class
    of the affine line, as (basis, L exponent, coeff) terms.  The punctured
    cone never appears as a basis element: it is always expanded as
    (L - 1)[S]."""

    __slots__ = ()

    def __new__(cls, terms: tuple[tuple[str, int, int], ...] = ()) -> "MotivicClass":
        for basis, exp, coeff in terms:
            if basis not in _BASES:
                raise ValueError(f"unknown basis symbol {basis!r}")
            if exp < 0:
                raise ValueError("negative powers of L are not allowed")
            if coeff == 0:
                raise ValueError("zero terms must be dropped")
        keys = [(basis, exp) for basis, exp, _ in terms]
        if len(keys) != len(set(keys)):
            raise ValueError("duplicate terms")
        return tuple.__new__(cls, (tuple(sorted(terms)),))

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[str, int, int]]) -> "MotivicClass":
        acc: dict[tuple[str, int], int] = {}
        for basis, exp, coeff in terms:
            key = (basis, exp)
            acc[key] = acc.get(key, 0) + coeff
        return cls(tuple((basis, exp, c) for (basis, exp), c in acc.items() if c))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def specialize(self, lef: int, surface: int, milnor_fiber: int) -> int:
        """Evaluate by substituting integers for L, [S] and [Mh]."""
        values = {BASIS_SURFACE: surface, BASIS_MILNOR: milnor_fiber}
        return sum(coeff * lef ** exp * values[basis] for basis, exp, coeff in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for basis, exp, coeff in sorted(self.terms, key=lambda t: (t[0], -t[1])):
            lpart = "" if exp == 0 else ("L" if exp == 1 else f"L^{exp}")
            cpart = "" if coeff == 1 else ("-" if coeff == -1 else f"{coeff}*")
            chunks.append(f"{cpart}{lpart}[{basis}]")
        return " + ".join(chunks).replace("+ -", "- ")

    def to_doc(self) -> dict:
        return {"terms": [{"basis": basis, "L_exp": exp, "coeff": coeff}
                          for basis, exp, coeff in self.terms]}


def contact_class(n: int, d: int, m: int) -> MotivicClass:
    """Class of X_m in the Grothendieck ring of varieties.

    Each stratum is an affine bundle, so it contributes L^{D_rho} times its
    base class; the punctured cone is (L - 1)[S].
    """
    terms = []
    for piece in graded_pieces(n, d, m):
        if piece.base_kind == BASE_MILNOR_FIBER:
            terms.append((BASIS_MILNOR, piece.fiber_dim, 1))
        else:
            terms.append((BASIS_SURFACE, piece.fiber_dim + 1, 1))
            terms.append((BASIS_SURFACE, piece.fiber_dim, -1))
    return MotivicClass.from_terms(terms)


def order_counts(n: int, d: int, m: int, p: int, cone: int, milnor: int) -> tuple:
    """(rho, points over F_p) of each stratum of X_m, rho ascending: its base's points
    (cone on the punctured cone, milnor on the Milnor fiber) times p^{D_rho}."""
    return tuple((piece.rho, (milnor if piece.base_kind == BASE_MILNOR_FIBER else cone)
                  * p ** piece.fiber_dim) for piece in graded_pieces(n, d, m))


def euler_specialization(n: int, d: int, m: int) -> int:
    """contact_class evaluated at L = 1, [S] = chi(S), [Mh] = chi(M_h).

    Must agree with contact_euler; the tests quantify this over a grid.
    """
    return contact_class(n, d, m).specialize(1, euler_characteristic(n, d),
                                             milnor_fiber_euler(n, d))
