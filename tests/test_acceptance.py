"""Exit criteria for the package, one test per criterion.

Every check is exact integer equality on the stated grid, with the stated
wall-clock bound.  Each test prints a single pass/fail line (visible with
pytest -s or in the failure report).
"""

import time
from itertools import product

from contactloci.contact import contact_cohomology, contact_euler, graded_pieces
from contactloci.groups import FgAbGroup, GradedGroup, free_group
from contactloci.nash import valuation_report
from contactloci.oracle import count_contact_jets, milnor_number_oracle
from contactloci.poly import parse_poly
from contactloci.resolution import (
    build_minimal_resolution,
    nef_fiber_identity,
    verify_minimality,
)
from contactloci.spectral import (
    classify_pair,
    compare_pages,
    comparison_shift,
    condition_degeneration,
    condition_filtration,
    default_k_bound,
    floer_cohomology,
)
from contactloci.surface import cover_homology, middle_rank
from milnor_lattice import cone_cohomology
from sternbrocot import parents_from_cf


def _report(number: int, name: str, failures: list, elapsed: float, bound: float) -> None:
    ok = not failures and elapsed < bound
    print(f"acceptance {number} ({name}): {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.2f}s / {bound:g}s]")
    assert not failures, f"criterion {number} ({name}): first failures {failures[:5]}"
    assert elapsed < bound, f"criterion {number} ({name}): {elapsed:.2f}s exceeds {bound}s"


def test_criterion_1_valuation_counts():
    start = time.perf_counter()
    failures = []
    for n, d, m in product(range(2, 7), range(1, 9), range(1, 49)):
        dlt, contact, essential = valuation_report(n, d, m).counts()
        if essential != m // d:
            failures.append((n, d, m, "essential"))
        if d < n:
            if dlt != 0 or contact != (1 if m >= d else 0):
                failures.append((n, d, m, "below"))
        elif not dlt == contact == essential:
            failures.append((n, d, m, "above"))
    _report(1, "valuation counts", failures, time.perf_counter() - start, 1.0)


def test_criterion_2_euler_identity():
    # the cohomology layer needs n >= 3 (the base hypersurface must be
    # connected), so the d >= 2 grid starts at n = 3
    start = time.perf_counter()
    failures = []
    for n, d, m in product(range(3, 7), range(2, 9), range(1, 49)):
        expected = 0 if m % d else 1 + (-1) ** (n - 1) * (d - 1) ** n
        if contact_euler(n, d, m) != expected:
            failures.append((n, d, m))
    for spot, expected in [((3, 2, 4), 2), ((3, 4, 8), 28), ((4, 3, 6), -15)]:
        if contact_euler(*spot) != expected:
            failures.append((spot, "spot"))
    _report(2, "Euler identity", failures, time.perf_counter() - start, 1.0)


def test_criterion_3_oracle_stratification():
    start = time.perf_counter()
    failures = []
    cases = [
        (parse_poly("x0^2+x1^2+x2^2"), 2),
        (parse_poly("x0^3+x1^3+x2^3"), 3),
        (parse_poly("x0^2+x1^2+x2^2+x0^3"), 2),
    ]
    for (poly, degree), m, p in product(cases, range(1, 5), (3, 5, 7)):
        if degree % p == 0:
            continue
        run_start = time.perf_counter()
        if not count_contact_jets(poly, m, p).matches:
            failures.append((str(poly), m, p))
        if time.perf_counter() - run_start >= 600:
            failures.append((str(poly), m, p, "over budget"))
    _report(3, "oracle stratification", failures, time.perf_counter() - start, 600.0)


def test_criterion_4_milnor_numbers():
    start = time.perf_counter()
    failures = []
    for d, n in product((2, 3, 4), (2, 3)):
        terms = []
        for j in range(n):
            exps = [0] * n
            exps[j] = d
            terms.append((tuple(exps), 1))
        from contactloci.oracle import SparseIntPoly
        fermat = SparseIntPoly(n, tuple(terms))
        if milnor_number_oracle(fermat) != (d - 1) ** n:
            failures.append((n, d))
    _report(4, "Milnor numbers", failures, time.perf_counter() - start, 10.0)


COLORS = {(True, True): "pink", (True, False): "yellow", (False, True): "orange",
          (False, False): "blue"}


def test_criterion_5_scatter_classification():
    start = time.perf_counter()
    failures = []
    for n, d in product(range(3, 41), range(2, 41)):
        cls = classify_pair(n, d)
        if (d > 2 * n - 2 or 2 <= d < n / 2) and cls.color != "blue":
            failures.append((n, d, cls.color, "theorem bound"))
        if n == d and cls.color != "pink":
            failures.append((n, d, cls.color, "diagonal"))
        # the conditions at m = d(2 bound + 1) scan k up to twice the bound
        m = d * (2 * default_k_bound(n, d) + 1)
        deg_fails = not condition_degeneration(n, d, m).holds
        filt_fails = not condition_filtration(n, d, m).holds
        if COLORS[deg_fails, filt_fails] != cls.color:
            failures.append((n, d, "unstable"))
    _report(5, "scatter classification", failures, time.perf_counter() - start, 1.0)


def test_criterion_6_page_comparison():
    start = time.perf_counter()
    failures = []
    for n, d, m in product(range(3, 7), range(2, 7), range(1, 31)):
        if not compare_pages(n, d, m):
            failures.append((n, d, m))
        for piece in graded_pieces(n, d, m):
            i = -piece.rho
            if 2 * piece.fiber_dim != 2 * m * (n - 1) - 2 * i * (d - n):
                failures.append((n, d, m, i, "shift identity"))
    _report(6, "page comparison", failures, time.perf_counter() - start, 5.0)


def test_criterion_7_cover_homology_profiles():
    start = time.perf_counter()
    failures = []
    expected = {
        (3, 4): GradedGroup.from_dict({0: free_group(1), 1: FgAbGroup(6, (4,)),
                                       2: free_group(6), 3: free_group(1)}),
        (4, 2): GradedGroup.from_dict({0: free_group(1), 2: free_group(1),
                                       3: free_group(1), 5: free_group(1)}),
        (3, 2): GradedGroup.from_dict({0: free_group(1), 1: FgAbGroup(0, (2,)),
                                       3: free_group(1)}),
    }
    for (n, d), profile in expected.items():
        if cover_homology(n, d, -1, 3 * d + 1) != profile:
            failures.append((n, d))
    _report(7, "cover homology profiles", failures, time.perf_counter() - start, 5.0)


def test_criterion_8_middle_rank_and_floer_property():
    start = time.perf_counter()
    failures = []
    for d in range(1, 11):
        if middle_rank(3, d) != (d - 1) * (d - 2):
            failures.append((3, d))
    for (n, d), expected in [((4, 2), 2), ((4, 3), 7), ((5, 2), 0), ((5, 3), 10)]:
        if middle_rank(n, d) != expected:
            failures.append((n, d))
    # the Milnor lattice's rank c in degree n - 1 is b for odd n, b - 1 for even n
    for n, d in product(range(3, 9), range(2, 6)):
        if (d - 1) ** n <= 64:
            c = cone_cohomology(n, d).get(n - 1, (0, ()))[0]
            if c + (n % 2 == 0) != middle_rank(n, d):
                failures.append((n, d, "lattice"))
    # the Floer value is exactly the shifted contact cohomology when and only
    # when both condition reports hold
    for n, d, m in product(range(3, 6), range(2, 7), range(1, 21)):
        determined = (condition_degeneration(n, d, m).holds
                      and condition_filtration(n, d, m).holds)
        hf = floer_cohomology(n, d, m)
        if (hf is not None) != determined:
            failures.append((n, d, m, "gate"))
        elif hf is not None:
            if hf != contact_cohomology(n, d, m).shift(-comparison_shift(n, m)):
                failures.append((n, d, m, "value"))
    _report(8, "middle rank and Floer property", failures, time.perf_counter() - start, 10.0)


def test_criterion_9_resolution_invariants():
    start = time.perf_counter()
    failures = []
    n_values = range(2, 7)
    for d in range(1, 9):
        for m in range(1, 61):
            chain = build_minimal_resolution(2, d, m)  # pair layout depends only on (d, m)
            if not verify_minimality(chain):
                failures.append((d, m, "closed form"))
                continue
            pairs = [div.pair for div in chain]
            mults = [k + r * d for k, r in pairs]
            for idx in range(len(pairs) - 1):
                (k1, r1), (k2, r2) = pairs[idx], pairs[idx + 1]
                if abs(k1 * r2 - k2 * r1) != 1:
                    failures.append((d, m, "farey", pairs[idx]))
                if mults[idx] + mults[idx + 1] <= m:
                    failures.append((d, m, "separating", pairs[idx]))
            for idx in range(1, len(pairs) - 1):
                k, r = pairs[idx]
                (kl, rl), (kh, rh) = parents_from_cf(k, r)
                ks, rs = pairs[idx - 1]
                kss, rss = pairs[idx + 1]
                n_left, rem_a = divmod(ks - kl, k)
                n_left_r, rem_b = divmod(rs - rl, r)
                n_right, rem_c = divmod(kss - kh, k)
                n_right_r, rem_d = divmod(rss - rh, r)
                if (rem_a or rem_b or rem_c or rem_d or n_left != n_left_r
                        or n_right != n_right_r or n_left < 0 or n_right < 0):
                    failures.append((d, m, "blowup counts", (k, r)))
                    continue
                factor = 1 + n_left + n_right
                if (kl + d * rl) + (kh + d * rh) != k + d * r:
                    failures.append((d, m, "mediant additivity N", (k, r)))
                if (ks + d * rs) + (kss + d * rss) != factor * (k + d * r):
                    failures.append((d, m, "nef N", (k, r)))
                for n in n_values:
                    if (kl + n * rl) + (kh + n * rh) != k + n * r:
                        failures.append((n, d, m, "mediant additivity nu", (k, r)))
                    if (ks + n * rs) + (kss + n * rss) != factor * (k + n * r):
                        failures.append((n, d, m, "nef nu", (k, r)))
    # spot-check the same facts through the public operations
    for n, d, m in [(3, 2, 12), (4, 5, 23), (6, 8, 60), (2, 1, 15)]:
        chain = build_minimal_resolution(n, d, m)
        for div in chain.intermediate_divisors():
            if not nef_fiber_identity(chain, div.pair):
                failures.append((n, d, m, "nef op", div.pair))
    _report(9, "resolution invariants", failures, time.perf_counter() - start, 5.0)
