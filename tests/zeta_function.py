"""The tests' second route to X_m from the one-blow-up resolution: the motivic
zeta function and A'Campo's formula.

S is smooth, so blowing up the origin once is already a log resolution of
the cone.  It has two divisors, meeting along S: the exceptional E_0, the
projective space P^(n-1), with (N, nu) = (d, n), and the strict transform
with (N, nu) = (1, 1).  Over the origin E_0 minus S has the Milnor fibre
Mh as its d-fold cover, the intersection contributes (L - 1)[S], and the
strict transform alone misses the fibre over the origin.  So the motivic
zeta function (Denef-Loeser, "Motivic Igusa zeta functions",
J. Algebraic Geom. 7, 1998) is

    Z(T) = [Mh]*A + (L - 1)[S]*A*B,  A = sum_{a>=1} L^(-n*a) T^(d*a),
                                     B = sum_{b>=1} L^(-b) T^b,

and [X_m] = L^(n*m) * [T^m] Z.  A'Campo ("La fonction zeta d'une
monodromie", Comment. Math. Helv. 50, 1975) sums N * chi(E°) over the
divisors over the origin with N | m, which leaves d * chi(P^(n-1) - S):

    Lambda(h^m) = d * (n - chi(S)) when d | m, and 0 otherwise.

Nothing here reads the package: the resolution, chi(S) and the series are
restated from the formulas above.
"""

from math import comb


def _series(mult: int, disc: int, top: int) -> dict[int, dict[int, int]]:
    """sum_{k>=1} L^(-disc*k) T^(mult*k) up to T^top, as {T degree: {L exponent: coeff}}."""
    return {mult * k: {-disc * k: 1} for k in range(1, top // mult + 1)}


def _times(f: dict, g: dict, top: int) -> dict[int, dict[int, int]]:
    """The product of two such series, up to T^top."""
    out: dict[int, dict[int, int]] = {}
    for i, fi in f.items():
        for j, gj in g.items():
            if i + j <= top:
                cell = out.setdefault(i + j, {})
                for a, x in fi.items():
                    for b, y in gj.items():
                        cell[a + b] = cell.get(a + b, 0) + x * y
    return out


def zeta_class(n: int, d: int, m: int) -> dict[tuple[str, int], int]:
    """L^(n*m) * [T^m] Z(T) as {(basis, L exponent): coefficient}, zero terms
    dropped, with the bases "S" and "Mh" of contact.MotivicClass."""
    exceptional = _series(d, n, m)  # E_0: N = d, nu = n
    strict = _series(1, 1, m)  # the strict transform: N = 1, nu = 1
    terms: dict[tuple[str, int], int] = {}
    for exp, coeff in exceptional.get(m, {}).items():
        terms["Mh", n * m + exp] = coeff
    for exp, coeff in _times(exceptional, strict, m).get(m, {}).items():
        for e, c in ((exp + 1, coeff), (exp, -coeff)):  # times (L - 1)[S]
            key = ("S", n * m + e)
            terms[key] = terms.get(key, 0) + c
    return {key: coeff for key, coeff in terms.items() if coeff}


def surface_euler(n: int, d: int) -> int:
    """chi(S) for S of degree d in P^(n-1), from its Chern classes: the
    degree d times the coefficient of h^(n-2) in c(T_S) = (1 + h)^n / (1 + d*h)."""
    return d * sum(comb(n, n - 2 - j) * (-d) ** j for j in range(n - 1))


def a_campo_lefschetz(n: int, d: int, m: int) -> int:
    """Lambda(h^m) = d * chi(P^(n-1) - S) when d | m, else 0."""
    return d * (n - surface_euler(n, d)) if m % d == 0 else 0
