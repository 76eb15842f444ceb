"""Integer polynomials in several variables, as sparse exponent-vector terms,
and the inline grammar that ``verify --f`` reads.

Kept apart from the oracle so that a process parses its input without
compiling the counting code, and so that neither module is large to compile.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from typing import Mapping


class SparseIntPoly(namedtuple("SparseIntPoly", ("nvars", "terms"))):
    """Integer polynomial in nvars variables, as (exponent vector, coeff) terms."""

    __slots__ = ()

    def __new__(cls, nvars: int,
                terms: tuple[tuple[tuple[int, ...], int], ...]) -> "SparseIntPoly":
        if nvars < 1:
            raise ValueError("need at least one variable")
        seen = set()
        for exps, coeff in terms:
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if coeff == 0:
                raise ValueError("zero coefficients must be dropped")
            if exps in seen:
                raise ValueError(f"duplicate exponent vector {exps}")
            seen.add(exps)
        return tuple.__new__(cls, (nvars, tuple(sorted(terms))))

    @classmethod
    def from_terms(cls, nvars: int, terms) -> "SparseIntPoly":
        acc = Counter()
        for exps, coeff in terms:
            acc[tuple(exps)] += coeff
        return cls(nvars, tuple((e, c) for e, c in acc.items() if c))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def min_total_degree(self) -> int:
        if self.is_zero:
            raise ValueError("the zero polynomial has no order")
        return min(sum(exps) for exps, _ in self.terms)

    def is_homogeneous(self) -> bool:
        return len({sum(exps) for exps, _ in self.terms}) <= 1

    def initial_form(self) -> "SparseIntPoly":
        d = self.min_total_degree()
        return SparseIntPoly(self.nvars,
                             tuple(t for t in self.terms if sum(t[0]) == d))

    def partial(self, j: int) -> "SparseIntPoly":
        return SparseIntPoly.from_terms(self.nvars, [
            (exps[:j] + (exps[j] - 1,) + exps[j + 1:], coeff * exps[j])
            for exps, coeff in self.terms if exps[j]])

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for exps, coeff in sorted(self.terms, key=lambda t: tuple(-e for e in t[0])):
            factors = [] if coeff == 1 and any(exps) else [str(coeff)]
            factors += [f"x{j}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(exps) if e]
            chunks.append("*".join(factors))
        return " + ".join(chunks)

    def to_doc(self) -> dict:
        return {"n": self.nvars,
                "terms": [{"exps": list(exps), "coeff": coeff} for exps, coeff in self.terms]}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "SparseIntPoly":
        values = [doc["n"]] + [v for t in doc["terms"] for v in (*t["exps"], t["coeff"])]
        if any(type(v) is not int for v in values):  # no bool, float or str
            raise TypeError("n, exps and coeff must be JSON integers")
        return cls(doc["n"], tuple((tuple(t["exps"]), t["coeff"]) for t in doc["terms"]))


_TERM_RE = re.compile(r"\s*(?:([0-9]+)\s*\*\s*)?x([0-9]+)(?:\s*\^\s*([0-9]+))?\s*")
_SEP_RE = re.compile(r"\s*([+-])")


def read_terms(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Read the inline grammar: term ("+"|"-") term ..., with
    term := [coeff "*"] var ("^" int)? over variables x0, x1, ...

    Anything outside the grammar is rejected, digits other than ASCII 0-9
    included.  Returns the variable count, the largest index used plus one,
    and each term's (index, exponent, signed coefficient); no exponent
    vector is built, so a caller may cap the count first.
    """
    terms, pos, sign, max_index = [], 0, 1, -1
    while True:
        match = _TERM_RE.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"expected a term at position {pos} of {text!r}")
        coeff = int(match.group(1) or 1)
        index = int(match.group(2))
        exp = int(match.group(3) or 1)
        max_index = max(max_index, index)
        terms.append((index, exp, sign * coeff))
        pos = match.end()
        if pos == len(text):
            break
        sep = _SEP_RE.match(text, pos)
        if not sep:
            raise ValueError(f"expected '+' or '-' at position {pos} of {text!r}")
        sign = 1 if sep.group(1) == "+" else -1
        pos = sep.end()
    return max_index + 1, terms


def poly_of_terms(width: int, terms: list[tuple[int, int, int]]) -> SparseIntPoly:
    """The polynomial in width variables of read_terms' terms."""
    poly = SparseIntPoly.from_terms(
        width, [(tuple(exp * (j == index) for j in range(width)), coeff)
                for index, exp, coeff in terms])
    if poly.is_zero:
        raise ValueError("polynomial cancels to zero")
    return poly


def parse_poly(text: str) -> SparseIntPoly:
    """The polynomial that text spells in the inline grammar of read_terms."""
    return poly_of_terms(*read_terms(text))
