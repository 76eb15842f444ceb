"""Brute-force verification layer over small prime fields.

Nothing here trusts the stratification theory.  Jets over F_p are enumerated
by solving the coefficient equations of f(gamma(t)) degree by degree, up to
symmetries of f checked mod p; contact.order_counts predicts the per order
counts.  A Jacobian-ideal rank gives an independent Milnor number.  The two
errors defined here are ValueErrors: input that the oracle cannot count.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, compress, islice, product
from math import comb, factorial, gcd, isqrt, prod
from operator import add, getitem, mul, not_, or_
from typing import Iterator, NamedTuple, Optional

from .contact import order_counts
from .domain import COHOMOLOGY, DEFAULT_BUDGET, BudgetExceededError
from .poly import SparseIntPoly

# The search recurses once per level, and a node's tables read its ancestors'
# tables, so a deep search would outrun Python's recursion limit (about 240
# levels under pytest).  Past about a dozen levels the default budget is
# spent anyway: the search tree branches p^(n-1) or p^n ways at most levels.
MAX_JET_DEPTH = 100
MILNOR_MAX_MONOMIALS = 20000  # columns of one degree of the Jacobian matrix


class NonSmoothReductionError(ValueError):
    """The initial form is singular over the chosen prime field."""


class NonIsolatedSingularityError(ValueError):
    """The Jacobian quotient does not vanish past the socle degree bound."""


def _require_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


def _scalings(f: SparseIntPoly, p: int) -> list[set]:
    """S_i per coordinate: the c in 1..p-1 whose scaling x_i -> c x_i fixes
    f term by term mod p, those with c^e = 1 for the exponent e of x_i in
    every term nonzero mod p.  Each is a subgroup of the cyclic group F_p^*,
    with 1 in it.  As c^(p-1) = 1, c^e = 1 for every such e exactly when
    c^g = 1 for g the gcd of them and p - 1."""
    exponents = [exps for exps, c in f.terms if c % p]
    orders = [gcd(p - 1, *(exps[i] for exps in exponents)) for i in range(f.nvars)]
    return [{c for c in range(1, p) if pow(c, g, p) == 1} for g in orders]


def _symmetries(f: SparseIntPoly, p: int) -> tuple[list[set], list[list[int]]]:
    """(subgroups, blocks): the symmetries of f term by term mod p.

    subgroups is _scalings(f, p).  blocks partitions the coordinates, in
    order of least member, into classes whose plain transpositions map f's
    reduced terms onto themselves, each coefficient onto its own.  The
    permutations that fix f form a group, so those transpositions form an
    equivalence relation and one member of each block decides a coordinate's
    block.  A swap that needs a scale as well is left out: a subgroup of the
    symmetries only refines the orbits."""
    reduced = {exps: c % p for exps, c in f.terms if c % p}
    blocks = []
    for i in range(f.nvars):
        for block in blocks:
            j = block[0]  # j < i: swap the exponents of x_j and x_i
            if all(reduced.get((*exps[:j], exps[i], *exps[j + 1:i], exps[j], *exps[i + 1:])) == c
                   for exps, c in reduced.items()):
                block.append(i)
                break
        else:
            blocks.append([i])
    return _scalings(f, p), blocks


def _cosets(group: set, p: int) -> tuple[list[int], list[int]]:
    """(leasts, sizes) of F_p under the scalings by a subgroup S of F_p^*:
    the least member and the size of {0}, then of each coset x*S in order of
    least member."""
    leasts, seen = [0], set()
    for x in range(1, p):
        if x not in seen:  # x is the least of its coset
            seen.update(x * s % p for s in group)
            leasts.append(x)
    return leasts, [1] + [len(group)] * (len(leasts) - 1)


def _orbits(subgroups: list[set], blocks: list[list[int]], p: int) -> list[tuple[tuple, int]]:
    """(first member, size) of each orbit of F_p^n under the scalings in
    subgroups and the permutations of each block's coordinates, in product
    order of first members.

    The orbits of S = prod S_i are cells: products of {0} and cosets v S_i.
    The coordinates of a block share one S_i, so an orbit of the block's
    group is a multiset of its cosets: its first member is the cosets' least
    members in ascending order, and its size the number of arrangements
    times the product of the coset sizes.  The orbits of F_p^n are the
    products over blocks; without a block of two the cells are the orbits."""
    leasts, sizes = zip(*(_cosets(group, p) for group in subgroups))
    if all(len(block) == 1 for block in blocks):
        return list(zip(product(*leasts), map(prod, product(*sizes))))
    per_block = []
    for block in blocks:
        i = block[0]
        if any(subgroups[j] != subgroups[i] for j in block):
            raise AssertionError(f"block {block} holds coordinates of unequal scalings")
        block_orbits = []
        for cosets in combinations_with_replacement(range(len(leasts[i])), len(block)):
            arrangements = factorial(len(block)) // prod(map(factorial, Counter(cosets).values()))
            block_orbits.append(([leasts[i][c] for c in cosets],
                                 arrangements * prod(sizes[i][c] for c in cosets)))
        per_block.append(block_orbits)
    # position in the blocks' concatenation of each coordinate
    where = sorted(range(len(subgroups)), key=[i for block in blocks for i in block].__getitem__)
    orbits = []
    for choice in product(*per_block):
        flat = [x for values, _ in choice for x in values]
        orbits.append((tuple(flat[k] for k in where), prod(size for _, size in choice)))
    return sorted(orbits)


def _grid(h: SparseIntPoly, p: int) -> tuple[tuple[list[int], ...], tuple[list[int], ...]]:
    """(axes, sizes) of the cells of F_p^n under h's scalings: per
    coordinate, 0 and the least member of each coset of S_i, and the size of
    each.  A scaling that fixes h term by term maps the zeros of h, of h - 1
    and of each partial of h onto themselves, so each is a union of cells;
    a cell's least member, the grid point, is its first in product order."""
    return tuple(zip(*(_cosets(group, p) for group in _scalings(h, p))))


def _values(h: SparseIntPoly, axes, p: int) -> list[int]:
    """h mod p at every point of the grid prod axes, in product order.  Each
    term's vector over the grid is built once from per-axis power tables, and
    repeats along the axis of each coordinate the term lacks."""
    total = [0] * prod(map(len, axes))
    for exps, c in h.terms:
        vector = [c % p]
        for axis, e in zip(axes, exps):
            if e:
                row = [pow(x, e, p) for x in axis]
                vector = [a * b % p for a in vector for b in row]
            else:
                vector = [a for a in vector for _ in axis]
        total = list(map(add, total, vector))
    return [v % p for v in total]


def singular_point_mod_p(h: SparseIntPoly, p: int) -> Optional[tuple[int, ...]]:
    """The first common zero of the partials of h on F_p^n minus the origin,
    in product order, if any: the first such grid point of h's cells."""
    axes, _ = _grid(h, p)
    smooth = [1] + [0] * (prod(map(len, axes)) - 1)  # 0: every partial vanishes; origin skipped
    for j in range(h.nvars):
        smooth = list(map(or_, smooth, _values(h.partial(j), axes, p)))
    if 0 not in smooth:
        return None
    return next(islice(product(*axes), smooth.index(0), None))


def count_base(h: SparseIntPoly, p: int) -> tuple[int, int]:
    """Exact counts of {h = 0} minus the origin and of {h = 1} over F_p^n:
    the cell sizes summed over the grid points where h is 0 or 1."""
    _require_prime(p)
    if not h.is_homogeneous() or h.is_zero or h.min_total_degree() < 1:
        raise ValueError("base counting expects a homogeneous form of positive degree")
    axes, sizes = _grid(h, p)
    weights = [1]
    for row in sizes:
        weights = [a * b for a in weights for b in row]
    values = _values(h, axes, p)
    return (sum(compress(weights, map(not_, values))) - 1,
            sum(compress(weights, map((1).__eq__, values))))


class JetCountReport(NamedTuple):
    """Per-order jet counts over F_p next to the predicted bundle counts."""

    prime: int
    m: int
    by_order: tuple[tuple[int, int], ...]
    cone_count: int
    milnor_count: int
    predicted_by_order: tuple[tuple[int, int], ...]

    @property
    def total_count(self) -> int:
        return sum(count for _, count in self.by_order)

    @property
    def matches(self) -> bool:
        return dict(self.by_order) == dict(self.predicted_by_order)

    def to_doc(self) -> dict:
        return {"p": self.prime, "m": self.m, "total_count": self.total_count,
                "by_order": {str(rho): c for rho, c in self.by_order},
                "base_counts": {"cone": self.cone_count, "milnor": self.milnor_count},
                "predicted_by_order": {str(rho): c for rho, c in self.predicted_by_order}}


def _affine_solutions(lin: list[int], rhs: int, p: int) -> tuple[int, Iterator[tuple]]:
    # the number and a stream of the v with lin . v = rhs over F_p, solving for v[pivot]
    if not any(lin):
        return (0, ()) if rhs else (p ** len(lin), product(range(p), repeat=len(lin)))
    pivot = next(j for j, c in enumerate(lin) if c)
    inv, others = pow(lin[pivot], p - 2, p), lin[:pivot] + lin[pivot + 1:]
    return p ** (len(lin) - 1), ((*r[:pivot], (rhs - sum(map(mul, others, r))) * inv % p,
                                  *r[pivot:]) for r in product(range(p), repeat=len(lin) - 1))


def count_contact_jets(f: SparseIntPoly, m: int, p: int, budget: int = DEFAULT_BUDGET,
                       spent: Optional[list[int]] = None) -> JetCountReport:
    """Count the m-jets gamma with gamma(0) = 0 and f(gamma) = t^m mod t^{m+1}
    over F_p, stratified by the order of gamma.

    The budget caps the candidate vectors enumerated, each scan charged as
    p^n, and the split products of terms in several variables that their
    lookups sum, charged before each enumeration.  The units go to spent[0],
    so calls given the same list spend one budget.  A search deeper than
    MAX_JET_DEPTH levels, m - d + 1, is refused before any.  The initial
    form must be smooth mod p away from 0, which is checked first.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    n = f.nvars
    d = f.min_total_degree()
    h = f.initial_form()
    COHOMOLOGY.check(n, d, m)
    kstar = m - d + 1
    if kstar > MAX_JET_DEPTH:
        raise BudgetExceededError(
            f"jet search depth m - d + 1 = {kstar} is over the limit of {MAX_JET_DEPTH} "
            "levels, past any feasible budget")
    spent = [0] if spent is None else spent

    def charge(amount: int) -> None:
        spent[0] += amount
        if spent[0] > budget:
            raise BudgetExceededError(
                f"enumeration budget exceeded (more than {budget} candidates)")

    if p > 1:
        # p^n for each of the two scans, and a third p^n when there are jets
        # to count.  The scans read one point per cell and the orbits come
        # from cells, so these overstate both; they stay so that the exit-3
        # boundaries do not move.  Charged before p is trial-divided; p^n is
        # not formed when its bit length alone puts it over the budget.
        charge(budget + 1 if n * (p.bit_length() - 1) > budget.bit_length()
               else (3 if m >= d else 2) * p ** n)
    _require_prime(p)
    witness = singular_point_mod_p(h, p)
    if witness is not None:
        raise NonSmoothReductionError(
            f"initial form is singular at {witness} over F_{p}; pick another prime")
    cone_count, milnor_count = count_base(h, p)

    by_order = Counter()
    f = SparseIntPoly(n, tuple(t for t in f.terms if sum(t[0]) <= m))  # rest: O(t^(m+1))
    # (coeff, [(j, e), ...]) per term of f and its partials
    plans = [[(c % p, [(j, e) for j, e in enumerate(exps) if e]) for exps, c in g.terms]
             for g in [f] + [f.partial(j) for j in range(n)]]
    powers = [[pow(x, i, p) for i in range(m + 1)] for x in range(p)]

    def record(rho: Optional[int], amount: int) -> None:
        if amount:
            if rho is None:
                raise AssertionError("counted jets of undetermined order")
            by_order[rho] += amount

    def descend(prefix, k: int, rho: Optional[int], weight: int) -> None:
        # prefix(j, e, a) = [t^a] s_j^e, s = gamma_1 t + ... + gamma_(k-1) t^(k-1)
        alpha = k + d - 1
        target = 1 % p if alpha == m else 0
        free = weight * p ** (n * (m - k))
        tables = {}

        def table(j: int, e: int, a: int) -> list[int]:
            # [t^a] (s_j + x t^k)^e = sum_i C(e, i) x^i [t^(a-ik)] s_j^(e-i), x in F_p
            if (j, e, a) not in tables:
                poly = [comb(e, i) * prefix(j, e - i, a - i * k) for i in range(min(e, a // k) + 1)]
                tables[j, e, a] = [sum(map(mul, poly, xs)) % p for xs in powers]
            return tables[j, e, a]

        def at(plan, a: int):
            # (v -> [t^a] of the plan's polynomial at s + v t^k, split products per v):
            # one-variable terms summed into a row per variable, the others split over
            # a (a factor has order >= e; the last one takes what the others leave)
            rows, splits = [[0] * p] * n, []
            for c, factors in plan:
                if len(factors) == 1:
                    (j, e), = factors
                    rows[j] = list(map(add, rows[j], map(c.__mul__, table(j, e, a))))
                    continue
                *head, (_, e_last) = factors
                for bs in product(*(range(e, a + 1) for _, e in head)):
                    rest = a - sum(bs)
                    if rest >= e_last:
                        splits.append((c, [(j, table(j, e, b))
                                           for (j, e), b in zip(factors, (*bs, rest))]))
            if not splits:
                return lambda v: sum(map(getitem, rows, v)) % p, 0
            return (lambda v: (sum(map(getitem, rows, v))
                               + sum(c * prod(t[v[j]] for j, t in ts) for c, ts in splits)) % p,
                    len(splits))

        # [t^(d-1)] of the partials: at v = 0 the coefficients of gamma_k in this
        # level's equation, at v those of gamma_(k+1) in the next level's.  The
        # children are leaves when k + 1 = kstar: [t^m] f is affine in gamma_kstar.
        check, check_reads = at(plans[0], alpha)
        lin_at, lin_reads = zip(*(at(plan, d - 1) for plan in plans[1:]))
        leaf_f, leaf_reads = at(plans[0], m) if k + 1 == kstar else (None, 0)
        if rho is None:
            # Each symmetry g of f fixes the zero prefix and maps the subtree
            # of v onto that of g(v): one representative per orbit.
            count, candidates = len(orbits), orbits
        else:
            # For k >= 2 the level-k coefficient is affine in gamma_k: the part
            # quadratic in it has t-order >= 2k + d - 2 > alpha.  Its linear
            # part and constant are the tables at v = 0.
            count, vectors = _affine_solutions([g((0,) * n) for g in lin_at],
                                               (target - check((0,) * n)) % p, p)
            candidates = ((v, 1) for v in vectors)
        # a candidate costs one unit, and one more per split product it reads
        charge(count * (1 + check_reads + sum(lin_reads) + leaf_reads))
        for v, size in candidates:
            if check(v) == target:
                v_rho = k if rho is None and any(v) else rho
                if k == kstar:
                    record(v_rho, size * free)
                elif k + 1 == kstar:
                    solutions = (p ** (n - 1) if any(g(v) for g in lin_at)
                                 else 0 if (1 - leaf_f(v)) % p else p ** n)
                    record(v_rho, solutions * size * free // p ** n)
                else:
                    # the child's prefix powers are these tables at v
                    descend(lambda j, e, a, v=v: table(j, e, a)[v[j]], k + 1, v_rho, weight * size)

    if m >= d:
        orbits = _orbits(*_symmetries(f, p), p)
        descend(lambda j, e, a: int(e == a == 0), 1, None, 1)
        del descend  # self-referencing: free its state now

    predicted = order_counts(n, d, m, p, cone_count, milnor_count)
    for rho, _ in predicted:
        by_order.setdefault(rho, 0)
    return JetCountReport(p, m, tuple(sorted(by_order.items())),
                          cone_count, milnor_count, predicted)


def _rank_sparse_int(rows: Iterator[list]) -> int:
    """Rank over Q of integer rows given as their (column, value) pairs with
    nonzero values, in column order.  A pivot row is kept as such a tuple."""
    pivots: dict = {}
    for row in rows:
        while row:
            col, lead = row[0]
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = tuple(row)
                break
            g = gcd(lead, piv[0][1])
            ma, mb = piv[0][1] // g, lead // g
            merged = {c: v * ma for c, v in row}
            for c, v in piv:
                merged[c] = merged.get(c, 0) - v * mb
            row = sorted((c, v) for c, v in merged.items() if v)
            if row:
                shrink = gcd(*(v for _, v in row))
                row = [(c, v // shrink) for c, v in row]
    return len(pivots)


def milnor_number_oracle(h: SparseIntPoly) -> int:
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
        if columns > MILNOR_MAX_MONOMIALS:
            raise BudgetExceededError(
                f"degree {degree} needs more than {MILNOR_MAX_MONOMIALS} monomials")
        shift = degree - (d - 1)
        # rows x^factor * dh/dx_j, streamed.  A column is its exponent vector
        # read as digits in base degree + 1: small ints in place of tuples,
        # whose codes add under products and order as the vectors do.  So a
        # row is its partial's terms, coded and sorted once, shifted by the
        # factor's code (its variables' weights summed with repeats).
        weights = [(degree + 1) ** (n - 1 - i) for i in range(n)]
        coded = [sorted((sum(map(mul, exps, weights)), coeff) for exps, coeff in terms)
                 for terms in partials]
        factors = map(sum, combinations_with_replacement(weights, shift)) if shift >= 0 else ()
        rows = ([(key + factor, coeff) for key, coeff in terms]
                for factor in factors for terms in coded)
        dim = columns - _rank_sparse_int(rows)
        if degree > top and dim:
            raise NonIsolatedSingularityError(
                f"Jacobian quotient has dimension {dim} in degree {degree}")
        total += dim
    return total
