"""Seeded job lists for the three workloads, how to run each job, and the
correctness gate each result must pass.

A job is plain data.  ``run_job`` performs the timed calls; ``check_job``
compares the result against an independent route afterwards, outside the
timed region.  Checks return ``None`` when the result is correct and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass

# --- job description -------------------------------------------------------


@dataclass(frozen=True)
class Job:
    kind: str
    args: tuple
    anchor: bool = False

    @property
    def label(self) -> str:
        if self.kind == "cli":
            return "contactloci " + " ".join(self.args[0])
        return f"{self.kind}{self.args}"


# Exit codes from the documented contract of the command line (1 is a
# verification mismatch, which no job here should produce).
EXIT_OK, EXIT_USAGE, EXIT_BUDGET = 0, 2, 3

# Inputs whose documented exit code the program does not meet yet.  They run
# every round and are reported by name, apart from ``failed``.
KNOWN_DEFECTS = {
    ("verify", "--f", '{"n":3}', "--m", "4", "--primes", "5"):
        "a JSON polynomial without 'terms' raises KeyError: exit 1 with a "
        "traceback instead of exit 2",
}

QUADRIC = "x0^2+x1^2+x2^2"
CUBIC = "x0^3+x1^3+x2^3"
QUATERNARY = "x0^2+x1^2+x2^2+x3^2"
LOWSYM = "x0^2+x1^2+x2^2+x0^3+2*x1^3"


# --- exact-sweep -------------------------------------------------------------

# Both parities of n: odd n carries torsion through groups.invariant_factors.
N_ODD = (3, 5, 7, 9)
N_EVEN = (4, 6, 8)

# Pairs (n, d) whose two degeneration conditions hold for every m, so
# floer_cohomology always computes the full contact cohomology.
ALWAYS_DETERMINED = ((3, 5), (3, 6), (3, 7), (3, 8), (4, 7), (4, 8), (5, 2), (6, 2),
                     (7, 2), (7, 3), (8, 2), (8, 3), (9, 2), (9, 3), (9, 4), (9, 6))


def m_for_divisors(divisors: int, d: int) -> int:
    """m whose chain has about this many divisors: the intermediate pairs
    are the coprime (kappa, r) >= 1 with kappa + r*d <= m, about
    3 m^2 / (pi^2 d) of them."""
    return max(d + 1, round(math.pi * math.sqrt(divisors * d / 3)))


def _n(rng: random.Random, slot: int) -> int:
    return rng.choice(N_ODD if slot % 2 == 0 else N_EVEN)


def _off_diagonal(rng: random.Random, slot: int) -> tuple[int, int]:
    """(n, d) with |d - n| >= 2, so consecutive strata do not pile onto the
    same degrees and the stratum sum keeps its full quadratic cost."""
    while True:
        n, d = _n(rng, slot), rng.randint(2, 8)
        if abs(d - n) >= 2:
            return n, d


def exact_sweep(rng: random.Random, smoke: bool) -> list[Job]:
    """Four anchors, which the latency metrics leave out, and seeded jobs
    in cost bands, so that the median and the tail job land inside a band
    of equal-cost jobs whatever the seed draws:

    - 4 jobs of 0.1-3 s: a ~10^5-divisor chain, and one cohomology, euler
      and floer job with 500 strata;
    - 10 chains of 3000 divisors, holding the tail job;
    - 2 pages jobs of 1500 strata;
    - 14 chains of 800 divisors, holding the median job;
    - 16 jobs under 10 ms: valuation reports, small stratum sums and pages,
      and floer scans that stop at the conditions.
    """
    scale = 0.02 if smoke else 1.0

    def size(value: int) -> int:
        return max(4, int(value * scale))

    def resolve(divisors: int) -> Job:
        d = rng.randint(2, 8)
        return Job("resolve", (rng.randint(2, 9), d, m_for_divisors(size(divisors), d)))

    def strata(kind: str, count: int, slot: int, divides: bool = False) -> Job:
        n, d = _off_diagonal(rng, slot)
        residue = 0 if divides else rng.randint(0, d - 1)
        return Job(kind, (n, d, size(count) * d + residue))

    jobs = [
        Job("resolve.build", (3, 2, 400), anchor=True),
        Job("cohomology", (5, 2, 400 if smoke else 4000), anchor=True),
        Job("pages", (5, 2, 2000), anchor=True),
        Job("scatter", (size(200), size(200)), anchor=True),
        resolve(90_000),
        strata("cohomology", 500, rng.randint(0, 1)),
        strata("euler", 500, rng.randint(0, 1), divides=True),
    ]
    n, d = rng.choice(ALWAYS_DETERMINED)
    jobs.append(Job("floer", (n, d, size(500) * d + rng.randint(0, d - 1))))
    jobs += [resolve(3_000) for _ in range(10)]
    jobs += [strata("pages", 1500, slot) for slot in range(2)]
    jobs += [resolve(800) for _ in range(14)]
    for slot in range(2):
        jobs.append(strata("cohomology", 60, slot))
        jobs.append(strata("euler", 60, slot, divides=slot == 0))
        jobs.append(strata("pages", 200, slot))
        # d in {n, n-1} violates the degeneration condition at k = 1, so
        # floer_cohomology returns after the two scans.
        n = rng.randint(3, 8)
        d = n if slot == 0 else max(2, n - 1)
        jobs.append(Job("floer", (n, d, size(2000) * d)))
    for count in (1000, 1000, 600, 600, 400, 400, 200, 200):
        d = rng.randint(2, 8)
        jobs.append(Job("nash", (rng.randint(2, 9), d, size(count) * d + rng.randint(0, d - 1))))
    rng.shuffle(jobs)
    return jobs


# --- oracle-verify -----------------------------------------------------------

# (m, prime) choices per form and cost band, measured on a 2-core x86 box:
# small 69-76 ms, quaternary 120-180 ms, medium 0.3-0.48 s.  The seed picks
# one choice per slot.  With the counts below the median seeded job is the
# small quadric count, where the base scan over F_p^n is a large share, and
# the tail job is one of nine quadric counts at p = 7.  The anchors cover
# 1.5-14 s.
SMALL, QUAT, MEDIUM = "small", "quaternary", "medium"
JET_CHOICES = {
    (QUADRIC, SMALL): ((4, 5),),
    (CUBIC, SMALL): ((3, 13),),
    (LOWSYM, SMALL): ((3, 13),),
    (QUATERNARY, QUAT): ((3, 7), (4, 3)),
    (QUADRIC, MEDIUM): ((4, 7),),
    (CUBIC, MEDIUM): ((5, 7),),
    (LOWSYM, MEDIUM): ((4, 7),),
}
JET_SLOTS = ((QUADRIC, SMALL),) * 4 + ((CUBIC, SMALL),) * 4 + ((LOWSYM, SMALL),) * 4 \
    + ((QUATERNARY, QUAT),) * 2 \
    + ((QUADRIC, MEDIUM),) * 9 + ((CUBIC, MEDIUM),) * 2 + ((LOWSYM, MEDIUM),) * 2
# Diagonal forms a0 x0^d + ... have an isolated singularity with Milnor
# number (d-1)^n for any nonzero coefficients.
# All stay under 25 ms, below the jet counts.
MILNOR_SHAPES = ((3, 3), (3, 4), (3, 5), (3, 6), (4, 2), (4, 3), (4, 4), (5, 3),
                 (5, 4), (6, 2), (6, 3))


def oracle_verify(rng: random.Random, smoke: bool) -> list[Job]:
    if smoke:
        jobs = [Job("jets", (QUADRIC, 4, 5), anchor=True), Job("jets", (LOWSYM, 3, 5))]
        jobs += [Job("milnor", ("x0^3+2*x1^3+x2^3",)) for _ in range(3)]
        rng.shuffle(jobs)
        return jobs
    jobs = [
        Job("jets", (QUADRIC, 5, 5), anchor=True),
        Job("jets", (QUADRIC, 5, 7), anchor=True),
        Job("jets", (CUBIC, 6, 5), anchor=True),
    ]
    for form, band in JET_SLOTS:
        m, p = rng.choice(JET_CHOICES[form, band])
        jobs.append(Job("jets", (form, m, p)))
    for n, d in MILNOR_SHAPES:
        # The grammar has no leading sign, so the first coefficient is positive.
        coeffs = [rng.choice((1, 2, 3))] + [rng.choice((1, 1, 2, 3, -1, 5)) for _ in range(n - 1)]
        text = "".join(("-" if c < 0 else "+") + (f"{abs(c)}*" if abs(c) != 1 else "") + f"x{j}^{d}"
                       for j, c in enumerate(coeffs))
        jobs.append(Job("milnor", (text[1:],)))
    rng.shuffle(jobs)
    return jobs


# --- cli-batch ---------------------------------------------------------------

def _ndm(rng: random.Random, n_min: int, d_min: int) -> list[str]:
    n = rng.randint(n_min, 5)
    d = rng.randint(d_min, 5)
    return ["--n", str(n), "--d", str(d), "--m", str(rng.randint(3, 12))]


VERIFY_MENU = ((QUADRIC, 4, "3,5"), (QUADRIC, 3, "3,5,7"), (CUBIC, 4, "5,7"),
               (CUBIC, 3, "5"), (LOWSYM, 3, "3,5"), (LOWSYM, 4, "3"))


def cli_batch(rng: random.Random, smoke: bool) -> list[Job]:
    specs: list[tuple[list[str], int]] = []
    for fmt in ("text", "json"):
        for _ in range(1 if smoke else 2):
            f, m, primes = rng.choice(VERIFY_MENU)
            for argv in (["resolve", *_ndm(rng, 2, 1)],
                         ["cohomology", *_ndm(rng, 3, 2)],
                         ["floer", *_ndm(rng, 3, 2)],
                         ["nash", *_ndm(rng, 2, 1)],
                         ["euler", *_ndm(rng, 3, 2)],
                         ["verify", "--f", f, "--m", str(m), "--primes", primes]):
                specs.append(([*argv, "--format", fmt], EXIT_OK))
    for fmt in ("text", "json", "csv", "svg"):
        size = [str(rng.randint(10, 40)), str(rng.randint(10, 40))]
        specs.append((["scatter", "--nmax", size[0], "--dmax", size[1], "--format", fmt], EXIT_OK))
    specs += [
        (["cohomology", "--n", "2", "--d", str(rng.randint(2, 6)), "--m", "5"], EXIT_USAGE),
        (["resolve", "--n", "3", "--d", "0", "--m", str(rng.randint(3, 9))], EXIT_USAGE),
        (["scatter", "--nmax", str(rng.randint(201, 900)), "--dmax", "10"], EXIT_USAGE),
        (["verify", "--f", QUADRIC, "--m", "4", "--primes", rng.choice(("4", "9", "15"))], EXIT_USAGE),
        (["verify", "--f", "x0^2+", "--m", "4", "--primes", "5"], EXIT_USAGE),
        (["floer", "--n", "3", "--d", str(rng.randint(2, 6))], EXIT_USAGE),
        (["verify", "--f", QUADRIC, "--m", "5", "--primes", "5", "--budget", "10"], EXIT_BUDGET),
    ]
    specs += [(list(argv), EXIT_USAGE) for argv in KNOWN_DEFECTS]
    jobs = [Job("cli", (tuple(argv), code)) for argv, code in specs]
    jobs.append(Job("cli", (("cohomology", "--n", "3", "--d", "5", "--m", "5"), EXIT_OK), anchor=True))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "exact-sweep": exact_sweep,
    "oracle-verify": oracle_verify,
    "cli-batch": cli_batch,
}


def build_jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), smoke)


# --- running -----------------------------------------------------------------

def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, root: str, env: dict):
    # No timeout: with one, the final wait polls with sleeps of up to 50 ms,
    # which would land in the measured latency.
    proc = subprocess.run([sys.executable, "-m", "contactloci", *argv], cwd=root, env=env,
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_job(cl, job: Job, tracer, root: str, env: dict):
    """The timed part of a job.  Library calls go through the package
    namespace so that the tracer's wrappers see them."""
    kind, a = job.kind, job.args
    if kind == "resolve.build":
        return cl.build_minimal_resolution(*a)
    if kind == "resolve":
        chain = cl.build_minimal_resolution(*a)
        mlist = cl.m_divisors(chain)
        minimal = cl.verify_minimality(chain)
        nef = all(cl.nef_fiber_identity(chain, div.pair) for div in chain.intermediate_divisors())
        return chain, mlist, minimal, nef
    if kind == "cohomology":
        return cl.contact_cohomology(*a), cl.contact_class(*a), cl.contact_dimension(*a)
    if kind == "pages":
        return cl.compare_pages(*a)
    if kind == "floer":
        return cl.condition_degeneration(*a), cl.condition_filtration(*a), cl.floer_cohomology(*a)
    if kind == "euler":
        return cl.lefschetz_number(*a)
    if kind == "nash":
        return cl.valuation_report(*a)
    if kind == "scatter":
        width, height = a
        return cl.scatter_grid(range(3, 3 + width), range(2, 2 + height))
    if kind == "jets":
        form, m, p = a
        return cl.count_contact_jets(cl.parse_poly(form), m, p)
    if kind == "milnor":
        return cl.milnor_number_oracle(cl.parse_poly(a[0]))
    if kind == "cli":
        return tracer.span("process." + a[0][0], run_cli, a[0], root, env)
    raise ValueError(f"unknown job kind {kind}")


def lefschetz_closed_form(n: int, d: int, m: int) -> int:
    return 0 if m % d else 1 + (-1) ** (n - 1) * (d - 1) ** n


def check_job(cl, job: Job, result):
    kind, a = job.kind, job.args
    from contactloci.contact import euler_specialization

    if kind == "resolve.build":
        return None if cl.verify_minimality(result) else "chain differs from its closed form"
    if kind == "resolve":
        chain, mlist, minimal, nef = result
        if not minimal:
            return "chain differs from its closed form"
        if not nef:
            return "nef fiber identity fails"
        if len(mlist.entries) != a[2] // a[1] + 1:
            return "wrong number of m-divisors"
        return None
    if kind == "cohomology":
        total, cls, dim = result
        if total.euler_char() != euler_specialization(*a):
            return "chi_c differs from the class specialisation"
        if (dim is None) != (a[2] < a[1]):
            return "dimension missing or spurious"
        return None
    if kind == "pages":
        return None if result else "fixed-point and order pages differ"
    if kind == "floer":
        n, d, m = a
        deg, filt, hf = result
        if (hf is None) == (deg.holds and filt.holds):
            return "floer determined-ness disagrees with the conditions"
        if hf is not None:
            shift = (n - 1) * (2 * m + 1)
            if hf.euler_char() != (-1) ** shift * lefschetz_closed_form(n, d, m):
                return "chi(HF) differs from the Lefschetz closed form"
        return None
    if kind == "euler":
        if result != lefschetz_closed_form(*a):
            return "chi_c differs from the Lefschetz closed form"
        if result != euler_specialization(*a):
            return "chi_c differs from the class specialisation"
        return None
    if kind == "nash":
        n, d, m = a
        if len(result.essential) != m // d:
            return "wrong number of essential valuations"
        for (i, codim), div in zip(result.codims, result.essential):
            if m * div.log_discrepancy != codim * div.multiplicity:
                return f"codimension at i={i} disagrees with m*nu/N"
        return None
    if kind == "scatter":
        return _check_scatter(cl, a, result)
    if kind == "jets":
        return None if result.matches else "jet counts differ from the predicted bundle counts"
    if kind == "milnor":
        poly = cl.parse_poly(a[0])
        want = (poly.min_total_degree() - 1) ** poly.nvars
        return None if result == want else f"Milnor number {result}, expected {want}"
    if kind == "cli":
        return _check_cli(job, result)
    raise ValueError(f"unknown job kind {kind}")


def _check_scatter(cl, size, rows):
    width, height = size
    if len(rows) != width * height:
        return "grid has the wrong number of cells"
    # A colour claims which condition can fail for some m; test it on one m
    # past the scan bound, through the per-m condition functions.
    for n, d, cls in rows[:: max(1, len(rows) // 40)]:
        k = 1 if d == n else (n - 1) // abs(d - n) + 1
        m = d * (k + 1)
        deg_fails = not cl.condition_degeneration(n, d, m).holds
        filt_fails = not cl.condition_filtration(n, d, m).holds
        want = {(True, True): "pink", (True, False): "yellow",
                (False, True): "orange", (False, False): "blue"}[deg_fails, filt_fails]
        if cls.color != want:
            return f"({n}, {d}) coloured {cls.color}, conditions say {want}"
    return None


def _check_cli(job: Job, result):
    argv, expected = job.args
    code, out, err = result
    if b"Traceback" in err:
        return f"traceback on stderr (exit {code})"
    if code != expected:
        return f"exit {code}, contract says {expected}"
    if code != EXIT_OK:
        return None if err.startswith((b"error:", b"usage:")) else "no error message"
    if not out:
        return "empty output"
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        try:
            doc = json.loads(out)
        except ValueError:
            return "output is not JSON"
        if argv[0] == "euler" and not doc["match"]:
            return "euler reports a mismatch"
        if argv[0] == "verify" and not doc["all_match"]:
            return "verify reports a mismatch"
    return None
