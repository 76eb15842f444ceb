"""The tests' second route to the cone's cohomology: the Milnor lattice.

The topology of the punctured cone over S depends only on (n, d), so take
the Fermat form x_1^d + ... + x_n^d.  Its Milnor fibre F is a bouquet of
(d-1)^n spheres of dimension n-1, and (Pham, 1965; Sebastiani-Thom,
Invent. Math. 15, 1971)

    H_(n-1)(F) = Z[t]/(1 + t + ... + t^(d-1)), tensored n times,

with the monodromy h multiplying each factor by t.  For n >= 3 the Wang
sequence of the Milnor fibration gives the link K its homology H_(n-2)(K) =
coker(h - 1) and H_(n-1)(K) = ker(h - 1), and Z in degrees 0 and 2n-3
(Milnor, "Singular Points of Complex Hypersurfaces", 1968).  The punctured
cone is K x R, so its compactly supported cohomology in degree k is
H^(k-1)(K): Z in degrees 1 and 2n-2, ker(h - 1) in degree n-1 and
coker(h - 1), torsion included, in degree n.  The Smith normal form of
h - 1 reads off both.

Nothing here reads the package: the lattice, the monodromy and the Smith
normal form are restated from the formulas above.
"""

from itertools import product


def monodromy_minus_one(n: int, d: int) -> list[dict[int, int]]:
    """The rows of h - 1 on the monomial basis t^a, 0 <= a_i <= d - 2, each
    {column: entry} without zeros: the row of t^a is the image of t^a under
    h = t_1 ... t_n, less t^a.  In each factor t * t^(d-2) = t^(d-1) is
    -(1 + t + ... + t^(d-2))."""
    width = d - 1
    rows = []
    for index, a in enumerate(product(range(width), repeat=n)):
        image = {0: 1}  # coordinates read as digits in base d - 1
        for e in a:
            factor = {e + 1: 1} if e + 1 < width else {k: -1 for k in range(width)}
            image = {code * width + k: v * w for code, v in image.items()
                     for k, w in factor.items()}
        image[index] = image.get(index, 0) - 1
        rows.append({code: v for code, v in image.items() if v})
    return rows


def _add(row: dict[int, int], other: dict[int, int], q: int) -> None:
    # row += q * other, keeping no zero entry
    for j, v in other.items():
        row[j] = row.get(j, 0) + q * v
        if not row[j]:
            del row[j]


def invariant_factors(rows: list[dict[int, int]]) -> list[int]:
    """The nonzero diagonal of the Smith normal form of the integer matrix
    with these sparse rows, each entry dividing the next.

    The textbook elimination: from an entry of least absolute value, row
    operations leave the other rows their remainders in its column, and
    column operations leave its row its remainders; a remainder becomes the
    next pivot, and a pivot that does not divide some entry of another row
    takes that row into its own.  A pivot alone in its row and column, and
    dividing every other entry, is an invariant factor."""
    rows = [dict(row) for row in rows]
    factors = []
    while True:
        rows = [row for row in rows if row]
        if not rows:
            return factors
        i, col = min(((i, j) for i, row in enumerate(rows) for j in row),
                     key=lambda ij: abs(rows[ij[0]][ij[1]]))
        while True:
            pivot_row = rows[i]
            a = pivot_row[col]
            for k, row in enumerate(rows):
                if k != i and row.get(col, 0) // a:
                    _add(row, pivot_row, -(row[col] // a))
            k = next((k for k, row in enumerate(rows) if k != i and col in row), None)
            if k is not None:  # a remainder below |a| in the column
                i = k
                continue
            # the column is clear elsewhere, so column operations change
            # only the pivot row: each of its entries becomes its remainder
            for j in [j for j in pivot_row if j != col]:
                pivot_row[j] %= a
                if not pivot_row[j]:
                    del pivot_row[j]
            j = next((j for j in pivot_row if j != col), None)
            if j is not None:  # a remainder below |a| in the row
                col = j
                continue
            other = next((row for row in rows if any(v % a for v in row.values())), None)
            if other is None:
                break
            _add(pivot_row, other, 1)
        factors.append(abs(a))
        del rows[i]


def cone_cohomology(n: int, d: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """H^._c of the punctured cone over S as {degree: (rank, torsion)}, the
    torsion in invariant-factor form and zero groups left out, from the
    Smith normal form of h - 1 on the Milnor lattice (n >= 3, d >= 2)."""
    factors = invariant_factors(monodromy_minus_one(n, d))
    c = (d - 1) ** n - len(factors)  # rank of ker(h - 1), and of coker(h - 1)
    groups = {1: (1, ()), n - 1: (c, ()), n: (c, tuple(f for f in factors if f > 1)),
              2 * n - 2: (1, ())}
    return {k: group for k, group in groups.items() if group != (0, ())}
