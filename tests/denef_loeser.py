"""The tests' Denef-Loeser route to the class of X_m, over the chain.

contact.contact_class sums the order strata of X_m.  Denef and Loeser
("Lefschetz numbers of iterates of the monodromy and truncated arcs",
Topology 41, 2002) read the same class off a log resolution: a stratum per
nonempty set I of divisors with sum_{i in I} k_i*N_i = m for some k_i >= 1,
weighted by L^(n*m - sum k_i*nu_i).  On the minimal m-separating chain no two
adjacent divisors have N_a + N_b <= m, so only single divisors with N | m
contribute, each with k = m/N:

    [X_m] = sum over N | m of [E~°] * L^(n*m - (m/N)*nu)

where [E~°] is the class of the N-fold cover of the open part of the divisor
over the origin: the Milnor fibre [Mh] for the first blow-up (0, 1), and the
C^x-bundle (L - 1)[S] over S for an intermediate divisor.  The strict
transform (1, 0) meets the fibre over the origin only inside the other
divisors, so it is left out.  This module reads build_minimal_resolution and
nothing else from the package.
"""

from contactloci.resolution import build_minimal_resolution


def denef_loeser_class(n: int, d: int, m: int) -> dict[tuple[str, int], int]:
    """[X_m] as {(basis, L exponent): coefficient}, zero terms dropped, with
    the bases "S" and "Mh" of contact.MotivicClass."""
    divisors = tuple(build_minimal_resolution(n, d, m))
    mults = [mult for _, mult, _ in divisors]
    if any(a + b <= m for a, b in zip(mults, mults[1:])):
        raise AssertionError(f"the chain for {(n, d, m)} is not {m}-separating")
    terms: dict[tuple[str, int], int] = {}
    for (kappa, r), mult, disc in divisors:
        if r == 0 or m % mult:  # the strict transform, or N does not divide m
            continue
        exp = n * m - m // mult * disc
        if kappa == 0:
            cover = (("Mh", exp, 1),)
        else:
            cover = (("S", exp + 1, 1), ("S", exp, -1))
        for basis, e, coeff in cover:
            terms[basis, e] = terms.get((basis, e), 0) + coeff
    return {key: coeff for key, coeff in terms.items() if coeff}
