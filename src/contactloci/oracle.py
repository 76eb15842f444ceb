"""Brute-force verification layer over small prime fields.

Nothing here trusts the stratification theory.  Jets over F_p are enumerated
by solving the coefficient equations of f(gamma(t)) degree by degree, up to
symmetries of f checked mod p, and the per order counts are compared with the
predicted base-count times p^fiber products.  A Jacobian-ideal rank gives an
independent Milnor number.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import product
from math import comb, gcd, isqrt, prod
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .contact import BASE_MILNOR_FIBER, graded_pieces
from .domain import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    NonIsolatedSingularityError,
    NonSmoothReductionError,
    Value,
)


class SparseIntPoly(Value):
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

    nvars = property(itemgetter(0))
    terms = property(itemgetter(1))

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

    def evaluate_mod(self, point: Sequence[int], p: int) -> int:
        total = 0
        for exps, coeff in self[1]:  # the terms, by index: this runs once per point
            v = coeff % p
            for x, e in zip(point, exps):
                if e:
                    v = v * pow(x, e, p) % p
                    if v == 0:
                        break
            total += v
        return total % p

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


_TERM_RE = re.compile(r"\s*(?:(\d+)\s*\*\s*)?x(\d+)(?:\s*\^\s*(\d+))?\s*")
_SEP_RE = re.compile(r"\s*([+-])")


def parse_poly(text: str, nvars: Optional[int] = None) -> SparseIntPoly:
    """Parse the inline grammar: term ("+"|"-") term ..., with
    term := [coeff "*"] var ("^" int)? over variables x0, x1, ...

    Anything outside the grammar is rejected.  The variable count is the
    largest index used plus one unless given explicitly.
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
    width = nvars if nvars is not None else max_index + 1
    if max_index >= width:
        raise ValueError(f"variable x{max_index} exceeds the declared {width} variables")
    poly = SparseIntPoly.from_terms(
        width, [(tuple(exp * (j == index) for j in range(width)), coeff)
                for index, exp, coeff in terms])
    if poly.is_zero:
        raise ValueError("polynomial cancels to zero")
    return poly


def _require_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


class _WorkCounter:
    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.work = 0

    def charge(self, amount: int) -> None:
        self.work += amount
        if self.work > self.budget:
            raise BudgetExceededError(
                f"enumeration budget exceeded (more than {self.budget} candidates)")


def _symmetries(f: SparseIntPoly, p: int) -> list[tuple[list, list]]:
    """Scalings and scaled transpositions g(x)_i = scale[i] * x[perm[i]], as
    (perm, scale), with f(g(x)) = f(x) term by term mod p.  One transposition
    per pair: the scalings give the rest for diagonal f, and a subgroup only
    refines the orbits."""
    n = f.nvars
    reduced = {exps: c % p for exps, c in f.terms if c % p}
    found, pairs = [], set()
    for i, j, c, c2 in product(range(n), range(n), range(1, p), range(1, p)):
        if i < j and (i, j) not in pairs or i == j and c2 == 1 < c:
            perm, scale = list(range(n)), [1] * n
            perm[i], perm[j] = j, i
            scale[j], scale[i] = c2, c
            image = {tuple(exps[q] for q in perm):
                     c0 * prod(pow(s, e, p) for s, e in zip(scale, exps)) % p
                     for exps, c0 in reduced.items()}
            if image == reduced:
                found.append((perm, scale))
                pairs.add((i, j))
    return found


def _orbits(gens, n: int, p: int) -> list[tuple[tuple, int]]:
    """(first member, size) of each orbit of F_p^n under the group generated
    by gens, by closure with a seen-map."""
    maps = []
    for perm, scale in gens:
        # g(v) has index high[v_0..v_(n-2)] + low[v_(n-1)], v in product
        # order; v_k lands in coordinate perm^-1(k) = perm[k]
        tables = [[scale[i] * x % p * p ** (n - 1 - i) for x in range(p)] for i in perm]
        maps.append((list(map(sum, product(*tables[:-1]))), tables[-1]))
    seen = bytearray(p ** n)
    orbits = []
    for start, point in enumerate(product(range(p), repeat=n)):
        if not seen[start]:
            seen[start] = 1
            orbit = [start]
            for x in orbit:  # grows as walked
                x, v = divmod(x, p)
                for high, low in maps:
                    y = high[x] + low[v]
                    if not seen[y]:
                        seen[y] = 1
                        orbit.append(y)
            orbits.append((point, len(orbit)))
    return orbits


def singular_point_mod_p(h: SparseIntPoly, p: int) -> Optional[tuple[int, ...]]:
    """A common zero of the partials of h on F_p^n minus the origin, if any."""
    partials = [h.partial(j) for j in range(h.nvars)]
    for point in product(range(p), repeat=h.nvars):
        if any(point) and all(g.evaluate_mod(point, p) == 0 for g in partials):
            return point
    return None


def count_base(h: SparseIntPoly, p: int) -> tuple[int, int]:
    """Exact counts of {h = 0} minus the origin and of {h = 1} over F_p^n."""
    _require_prime(p)
    if not h.is_homogeneous() or h.is_zero or h.min_total_degree() < 1:
        raise ValueError("base counting expects a homogeneous form of positive degree")
    zeros = ones = 0
    for point in product(range(p), repeat=h.nvars):
        v = h.evaluate_mod(point, p)
        if v == 0:
            zeros += 1
        elif v == 1:
            ones += 1
    return zeros - 1, ones


class JetCountReport(NamedTuple):
    """Per-order jet counts over F_p next to the predicted bundle counts."""

    prime: int
    m: int
    total_count: int
    by_order: tuple[tuple[int, int], ...]
    cone_count: int
    milnor_count: int
    predicted_by_order: tuple[tuple[int, int], ...]

    @property
    def matches(self) -> bool:
        return dict(self.by_order) == dict(self.predicted_by_order)

    def to_doc(self) -> dict:
        return {"p": self.prime, "m": self.m, "total_count": self.total_count,
                "by_order": {str(rho): c for rho, c in self.by_order},
                "base_counts": {"cone": self.cone_count, "milnor": self.milnor_count},
                "predicted_by_order": {str(rho): c for rho, c in self.predicted_by_order}}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "JetCountReport":
        base = doc["base_counts"]
        return cls(int(doc["p"]), int(doc["m"]), int(doc["total_count"]),
                   _int_pairs(doc["by_order"]), int(base["cone"]), int(base["milnor"]),
                   _int_pairs(doc["predicted_by_order"]))


def _int_pairs(counts: Mapping) -> tuple:
    return tuple(sorted((int(k), int(v)) for k, v in counts.items()))


def _iter_affine_solutions(lin: list[int], rhs: int, p: int) -> Iterator[list[int]]:
    # all v with lin . v = rhs over F_p, assuming lin != 0
    pivot = next(j for j, c in enumerate(lin) if c)
    inv = pow(lin[pivot], p - 2, p)
    for rest in product(range(p), repeat=len(lin) - 1):
        v = list(rest)
        v.insert(pivot, 0)
        v[pivot] = (rhs - sum(a * b for a, b in zip(lin, v))) * inv % p
        yield v


def count_contact_jets(f: SparseIntPoly, m: int, p: int,
                       budget: int = DEFAULT_BUDGET) -> JetCountReport:
    """Count the m-jets gamma with gamma(0) = 0 and f(gamma) = t^m mod t^{m+1}
    over F_p, stratified by the order of gamma.

    The budget caps the candidate vectors enumerated, scans of F_p^n included,
    charged before each enumeration.  The initial form must be smooth mod p
    away from 0, which is checked first.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = f.nvars
    d = f.min_total_degree()
    h = f.initial_form()
    pieces = graded_pieces(n, d, m)  # also validates n >= 3, d >= 2
    counter = _WorkCounter(budget)
    if p > 1:
        # The two scans of F_p^n, and the orbit pass over it when there are
        # jets to count, charged before p is trial-divided; p^n is not formed
        # when its bit length alone puts it over the budget.
        counter.charge(budget + 1 if n * (p.bit_length() - 1) > budget.bit_length()
                       else (3 if m >= d else 2) * p ** n)
    _require_prime(p)
    witness = singular_point_mod_p(h, p)
    if witness is not None:
        raise NonSmoothReductionError(
            f"initial form is singular at {witness} over F_{p}; pick another prime")
    cone_count, milnor_count = count_base(h, p)

    by_order = Counter()
    kstar = m - d + 1
    f = SparseIntPoly(n, tuple(t for t in f.terms if sum(t[0]) <= m))  # rest: O(t^(m+1))
    one = [1] + [0] * m
    # (coeff, [(j, e), ...]) per term of f and its partials
    plans = [[(c % p, [(j, e) for j, e in enumerate(exps) if e]) for exps, c in g.terms]
             for g in [f] + [f.partial(j) for j in range(n)]]

    def coefficient(plan, pw, a: int) -> int:
        # [t^a] of the plan's polynomial, pw[j][e] = x_j^e
        total = 0
        for c, ((j, e), *rest) in plan:
            series = pw[j][e]
            for j, e in rest:
                b = pw[j][e]
                series = [sum(series[i] * b[q - i] for i in range(q + 1)) % p
                          for q in range(a + 1)]
            total += c * series[a]
        return total % p

    def extend(pw, v, k: int):
        # powers after v * t^k joins the prefix
        out = list(pw)
        for j, x in enumerate(v):
            if x:
                old = pw[j]
                out[j] = [one]
                for e in range(1, len(old)):
                    s = list(old[e])  # (s + x t^k)^e = sum_i C(e, i) x^i t^(ik) s^(e-i)
                    for i in range(1, e + 1):
                        if any(old[e - i]):
                            c = comb(e, i) * x ** i
                            s[i * k:] = [(a + c * b) % p for a, b in zip(s[i * k:], old[e - i])]
                    out[j].append(s)
        return out

    def record(rho: Optional[int], amount: int) -> None:
        if amount:
            if rho is None:
                raise AssertionError("counted jets of undetermined order")
            by_order[rho] += amount

    def descend(pw, k: int, rho: Optional[int], weight: int) -> None:
        alpha = k + d - 1
        target = 1 % p if alpha == m else 0
        free = weight * p ** (n * (m - k))
        if rho is None and k < max(kstar, 2):
            # Each symmetry g of f fixes the zero prefix and maps the subtree
            # of v onto that of g(v): one representative per orbit.
            count, candidates = len(orbits), orbits
        else:
            # For k >= 2 the level-k coefficient is affine in gamma_k: the part
            # quadratic in it has t-order >= 2k + d - 2 > alpha.
            lin = [coefficient(plan, pw, alpha - k) for plan in plans[1:]]
            rhs = (target - coefficient(plans[0], pw, alpha)) % p
            if k == kstar:
                return record(rho, (p ** (n - 1) if any(lin) else 0 if rhs else p ** n) * free)
            if any(lin):
                count, vectors = p ** (n - 1), _iter_affine_solutions(lin, rhs, p)
            else:
                count, vectors = (0, ()) if rhs else (p ** n, product(range(p), repeat=n))
            candidates = ((v, 1) for v in vectors)
        counter.charge(count)
        for v, size in candidates:
            child = extend(pw, v, k)
            if coefficient(plans[0], child, alpha) == target:
                v_rho = k if rho is None and any(v) else rho
                if k == kstar:
                    record(v_rho, size * free)
                else:
                    descend(child, k + 1, v_rho, weight * size)

    if m >= d:
        orbits = _orbits(_symmetries(f, p), n, p)
        descend([[one] + [[0] * (m + 1)] * max(exps[j] for exps, _ in f.terms)
                 for j in range(n)], 1, None, 1)
        del descend  # self-referencing: free its state now

    predicted = {}
    for piece in pieces:
        base = milnor_count if piece.base_kind == BASE_MILNOR_FIBER else cone_count
        predicted[piece.rho] = base * p ** piece.fiber_dim
        by_order.setdefault(piece.rho, 0)
    return JetCountReport(p, m, sum(by_order.values()), tuple(sorted(by_order.items())),
                          cone_count, milnor_count, tuple(sorted(predicted.items())))


def verify_stratification(f: SparseIntPoly, m: int, p: int,
                          budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the per-order counts equal the predicted bundle counts, with no
    jets outside the declared orders."""
    return count_contact_jets(f, m, p, budget).matches


def _monomials(nvars: int, degree: int) -> Iterator[tuple[int, ...]]:
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in _monomials(nvars - 1, degree - first):
            yield (first,) + rest


def _rank_sparse_int(rows: Iterator[dict]) -> int:
    """Rank over Q of integer rows given as {column: value} dicts."""
    pivots: dict = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = row
                break
            piv = pivots[col]
            g = gcd(row[col], piv[col])
            ma, mb = piv[col] // g, row[col] // g
            merged = {c: v * ma for c, v in row.items()}
            for c, v in piv.items():
                merged[c] = merged.get(c, 0) - v * mb
            row = {c: v for c, v in merged.items() if v}
            if row:
                shrink = gcd(*row.values())
                row = {c: v // shrink for c, v in row.items()}
    return len(pivots)


def milnor_number_oracle(h: SparseIntPoly, max_monomials: int = 20000) -> int:
    """Dimension of the Jacobian quotient of a homogeneous form, by exact
    linear algebra degree by degree.

    For an isolated singularity the quotient is supported in degrees up to
    n(d-2); a nonzero piece one degree past that bound proves the critical
    locus is positive-dimensional and raises NonIsolatedSingularityError.
    """
    if h.is_zero or not h.is_homogeneous():
        raise ValueError("expected a nonzero homogeneous form")
    n = h.nvars
    d = h.min_total_degree()
    if d < 1:
        raise ValueError("expected positive degree")
    if d == 1:
        return 0  # the gradient is a nonzero constant vector
    partials = [h.partial(j).terms for j in range(n)]
    top = n * (d - 2)
    total = 0
    for degree in range(top + 2):
        columns = comb(degree + n - 1, n - 1)
        if columns > max_monomials:
            raise BudgetExceededError(
                f"degree {degree} needs more than {max_monomials} monomials")
        shift = degree - (d - 1)
        # rows x^factor * dh/dx_j, streamed
        rows = ({tuple(a + b for a, b in zip(exps, factor)): coeff for exps, coeff in terms}
                for factor in (_monomials(n, shift) if shift >= 0 else ()) for terms in partials)
        dim = columns - _rank_sparse_int(rows)
        if degree > top and dim:
            raise NonIsolatedSingularityError(
                f"Jacobian quotient has dimension {dim} in degree {degree}")
        total += dim
    return total
