"""Command-line front end.

One executable, subcommand style, every numeric parameter an explicit flag.
Default output is human-readable text; --format json is the stable machine
interface and the scatter command also emits CSV or a dependency-free SVG.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input (outside the
domain table), 3 budget exceeded (the oracle's budget, a work cap of the
domain table checked before any work starts, or an integer too long to print
in any subcommand's finished document, checked before anything is rendered).

Each handler imports the layers it runs, so a process loads only those: an
input rejected by the domain table exits before any layer is loaded.  It
returns (document, text-lines function, matched); main checks, renders, writes.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING, Optional

from .domain import (
    CHAIN,
    CLI_MAX_DEGREES,
    CLI_MAX_DIGITS,
    CLI_MAX_DIVISORS,
    CLI_MAX_MILNOR_BITS,
    CLI_MAX_STRATA,
    CLI_MAX_STRATA_BITS,
    COHOMOLOGY,
    DEFAULT_BUDGET,
    M_MIN,
    SCATTER_MAX,
    BudgetExceededError,
)

if TYPE_CHECKING:
    from .groups import GradedGroup
    from .poly import SparseIntPoly

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# scatter class -> (SVG fill, legend label), in legend order
SCATTER_CLASSES = {
    "blue": ("#4477aa", "isomorphism proved"),
    "orange": ("#ee7733", "filtration condition can fail"),
    "yellow": ("#ddcc33", "degeneration condition can fail"),
    "pink": ("#ee77aa", "both conditions can fail"),
}


def _max_digits() -> int:
    """The digits of the longest integer the command line reads or prints:
    CLI_MAX_DIGITS, or the interpreter's own limit when that is lower.  A
    limit of 0 is none, and 3.10.0-3.10.6 have none to read."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(CLI_MAX_DIGITS, limit) if limit else CLI_MAX_DIGITS


def integer(text: str, flag: str = "argument") -> int:
    """Every integer the command line reads: blanks around, an optional sign, then
    at most _max_digits() ASCII digits.  argparse names this function when it refuses."""
    match = re.fullmatch(r"\s*([+-]?([0-9]+))\s*", text)
    if not match:
        raise ValueError(f"{flag}: {text.strip()!r} is not an integer")
    cap = _max_digits()
    if len(match[2]) > cap:
        raise ValueError(f"{flag} holds an integer of more than {cap} digits")
    return int(match[1])


def _write(args, payload: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(payload)


def _check_output(doc) -> None:
    """Refuse a document that holds an integer Python would not print, one of
    more than _max_digits() digits; text prints only what the document holds."""
    cap = _max_digits()
    limit, stack = 10 ** cap, [doc]
    while stack:  # containers only: each one's leaves are tested in place
        item = stack.pop()
        for value in item.values() if isinstance(item, dict) else item:
            if isinstance(value, int):
                if abs(value) >= limit:
                    raise BudgetExceededError(
                        f"output: an integer of more than {cap} digits is over "
                        "the command-line cap")
            elif isinstance(value, (dict, list)):
                stack.append(value)


def _graded_lines(profile: GradedGroup, label: str) -> list[str]:
    lines = [label]
    if profile.is_zero:
        lines.append("  (zero)")
    for degree, group in profile.entries:
        lines.append(f"  degree {degree}: {group}")
    return lines


def cmd_resolve(args):
    from .resolution import build_minimal_resolution, m_divisors

    chain = build_minimal_resolution(args.n, args.d, args.m)
    doc = chain.to_doc()
    doc["m_divisors"] = m_divisors(chain).to_doc()

    def text():
        # the rows of the document, so that text and JSON print one set of values
        lines = [f"minimal {args.m}-separating resolution for n={args.n}, d={args.d}, m={args.m}",
                 "chain (left to right):",
                 "  kappa  r      N     nu  kind"]
        lines += map("  {kappa:>5}  {r:<4} {N:>4} {nu:>6}  {kind}".format_map, doc["divisors"])
        lines.append("m-divisors (multiplicity divides m):")
        lines.append("      i  kappa  r      N     nu  exceptional")
        for row in doc["m_divisors"]:
            lines.append("  {i:>5}  {kappa:>5}  {r:<4} {N:>4} {nu:>6}  ".format_map(row)
                         + ("yes" if row["exceptional"] else "no"))
        return lines

    return doc, text, True


def cmd_cohomology(args):
    from .contact import (
        contact_class,
        contact_cohomology,
        contact_dimension,
        graded_pieces,
        piece_compact_cohomology,
    )

    n, d, m = args.n, args.d, args.m
    pieces = graded_pieces(n, d, m)
    profiles = [piece_compact_cohomology(piece, n, d) for piece in pieces]
    total = contact_cohomology(n, d, m)
    cls = contact_class(n, d, m)
    doc = {
        "n": n, "d": d, "m": m,
        "pieces": [{**piece.to_doc(), "cohomology": profile.to_doc()}
                   for piece, profile in zip(pieces, profiles)],
        "total": total.to_doc(),
        "euler": total.euler_char(),
        "dimension": contact_dimension(n, d, m),
        "motivic_class": cls.to_doc(),
    }

    def text():
        lines = [f"compactly supported cohomology of the contact locus, n={n}, d={d}, m={m}"]
        if not pieces:
            lines.append("empty locus: m < d")
        for piece, profile in zip(pieces, profiles):
            lines.extend(_graded_lines(
                profile,
                f"order {piece.rho} stratum ({piece.base_kind}, fiber dim {piece.fiber_dim}, "
                f"total dim {piece.total_dim}):"))
        lines.extend(_graded_lines(total, "total:"))
        lines.append(f"euler characteristic: {total.euler_char()}")
        lines.append(f"class: {cls}")
        return lines

    return doc, text, True


def cmd_floer(args):
    from .spectral import (
        comparison_shift,
        condition_degeneration,
        condition_filtration,
        floer_cohomology,
    )

    n, d, m = args.n, args.d, args.m
    deg = condition_degeneration(n, d, m)
    filt = condition_filtration(n, d, m)
    profile = floer_cohomology(n, d, m)
    doc = {
        "n": n, "d": d, "m": m,
        "condition_degeneration": deg.to_doc(),
        "condition_filtration": filt.to_doc(),
        "determined": profile is not None,
        "shift": comparison_shift(n, m),
        "floer": None if profile is None else profile.to_doc(),
    }

    def text():
        lines = [f"fixed-point Floer cohomology of the iterate m={m}, n={n}, d={d}",
                 f"degeneration condition: {'holds' if deg.holds else 'fails at k = ' + str(list(deg.violating_k))}",
                 f"filtration condition:   {'holds' if filt.holds else 'fails at k = ' + str(list(filt.violating_k))}"]
        if profile is None:
            lines.append("not determined by the isomorphism theorem for these parameters")
        else:
            lines.extend(_graded_lines(profile, f"HF (shift {comparison_shift(n, m)}):"))
        return lines

    return doc, text, True


def cmd_nash(args):
    from .nash import valuation_report

    report = valuation_report(args.n, args.d, args.m)

    def text():
        dlt, contact, essential = report.counts()
        lines = [f"m-valuations for n={args.n}, d={args.d}, m={args.m}",
                 f"counts: dlt={dlt}, contact={contact}, essential={essential}"]
        for name, divisors in (("essential", report.essential), ("contact", report.contact),
                               ("dlt", report.dlt)):
            parts = ", ".join(f"{div.pair} N={div.multiplicity} nu={div.log_discrepancy}"
                              for div in divisors)
            lines.append(f"{name}: {parts or 'none'}")
        for i, codim in report.codims:
            lines.append(f"codim of the order-{-i} stratum (i={i}): {codim}")
        return lines

    return report.to_doc(), text, True


def cmd_euler(args):
    from .contact import contact_euler
    from .spectral import lefschetz_closed_form

    n, d, m = args.n, args.d, args.m
    chi = contact_euler(n, d, m)
    closed = lefschetz_closed_form(n, d, m)
    match = chi == closed
    doc = {"n": n, "d": d, "m": m, "chi": chi, "lefschetz": closed, "match": match}
    return doc, lambda: [f"chi_c(X_m) = {chi}",
                         f"Lefschetz number of the m-th iterate = {closed}",
                         f"match: {'yes' if match else 'NO'}"], match


def _scatter_svg(rows, n_max: int, d_max: int) -> list[str]:
    n0, d0 = COHOMOLOGY.n_min, COHOMOLOGY.d_min
    cell = 12
    left, bottom, top, right = 40, 30, 14, 150
    width = left + (n_max - n0 + 1) * cell + right
    height = top + (d_max - d0 + 1) * cell + bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for n, d, cls in rows:
        x = left + (n - n0) * cell
        y = top + (d_max - d) * cell
        parts.append(f'<rect x="{x}" y="{y}" width="{cell - 1}" height="{cell - 1}" '
                     f'fill="{SCATTER_CLASSES[cls.color][0]}"><title>n={n}, d={d}: '
                     f'{cls.color}</title></rect>')
    axis_y = top + (d_max - d0 + 1) * cell + 12
    for n in range(n0, n_max + 1, 5):
        x = left + (n - n0) * cell
        parts.append(f'<text x="{x}" y="{axis_y}" font-size="9">{n}</text>')
    for d in range(d0, d_max + 1, 5):
        y = top + (d_max - d) * cell + 9
        parts.append(f'<text x="{left - 24}" y="{y}" font-size="9">{d}</text>')
    parts.append(f'<text x="{left}" y="{axis_y + 14}" font-size="10">n (variables)</text>')
    parts.append(f'<text x="4" y="{top - 2}" font-size="10">d (degree)</text>')
    legend_x = left + (n_max - n0 + 1) * cell + 12
    for row, (fill, label) in enumerate(SCATTER_CLASSES.values()):
        y = top + row * 16
        parts.append(f'<rect x="{legend_x}" y="{y}" width="10" height="10" fill="{fill}"/>')
        parts.append(f'<text x="{legend_x + 14}" y="{y + 9}" font-size="9">{label}</text>')
    parts.append("</svg>")
    return parts


def cmd_scatter(args):
    n0, d0 = COHOMOLOGY.n_min, COHOMOLOGY.d_min
    for name, low, value in (("nmax", n0, args.nmax), ("dmax", d0, args.dmax)):
        if not low <= value <= SCATTER_MAX:
            raise ValueError(f"{name} must lie in [{low}, {SCATTER_MAX}]")
    from .spectral import scatter_grid

    rows = scatter_grid(range(n0, args.nmax + 1), range(d0, args.dmax + 1))
    doc = {"rows": [{"n": n, "d": d, "class": cls.color} for n, d, cls in rows]}

    def text():
        if args.format == "svg":
            return _scatter_svg(rows, args.nmax, args.dmax)
        if args.format == "csv":
            return ["n,d,class", *(f"{n},{d},{cls.color}" for n, d, cls in rows)]
        return ["   n    d  class", *(f"{n:>4} {d:>4}  {cls.color}" for n, d, cls in rows)]

    return doc, text, True


def _load_poly(spec: str, budget: int) -> SparseIntPoly:
    """The polynomial of verify --f, in at most as many variables as the n that
    cohomology accepts.  Once the inline grammar has accepted the text, and
    before it builds an exponent vector, the variable count is checked
    against that cap and against the oracle's first charge,
    2 * p^n >= 2^(n+1) candidates: over any budget of n bits."""
    from .poly import SparseIntPoly, poly_of_terms, read_terms

    max_vars = CLI_MAX_DEGREES // 2
    spec = spec.strip()
    if spec.startswith("{"):
        import json
        try:
            poly = SparseIntPoly.from_doc(json.loads(spec))
        except (KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise ValueError(f"malformed polynomial document: {exc!r}") from None
        _check_cap("variables", poly.nvars, max_vars)
        return poly
    nvars, terms = read_terms(spec)
    _check_cap("variables", nvars, max_vars)
    if nvars >= budget.bit_length():
        raise BudgetExceededError(f"enumeration budget exceeded (more than {budget} candidates)")
    return poly_of_terms(nvars, terms)


def cmd_verify(args):
    cap = _max_digits()
    if re.search(f"[0-9]{{{cap + 1}}}", args.f):  # Python reads no such int
        raise ValueError(f"--f holds an integer of more than {cap} digits")
    primes = [integer(chunk, "--primes") for chunk in filter(str.strip, args.primes.split(","))]
    if not primes:
        raise ValueError("no primes given")
    # what the oracle would refuse before its first charge, refused before --f is read
    if args.m < M_MIN:
        raise ValueError(f"m must be >= {M_MIN}")
    if args.budget < 0:
        raise ValueError("budget must be >= 0")
    low = next((p for p in primes if p < 2), None)
    if low is not None:
        raise ValueError(f"{low} is not prime")
    poly = _load_poly(args.f, args.budget)
    _check_size("verify", COHOMOLOGY, poly.nvars, poly.min_total_degree(), args.m)
    from .oracle import count_contact_jets  # only once the input is known to be valid

    spent = [0]  # one budget for all primes
    reports = [count_contact_jets(poly, args.m, p, args.budget, spent) for p in primes]
    all_match = all(report.matches for report in reports)
    doc = {
        "f": poly.to_doc(),
        "m": args.m,
        "reports": [report.to_doc() for report in reports],
        "all_match": all_match,
    }

    def text():
        lines = [f"jet counts for f = {poly}, m = {args.m}"]
        for report in reports:
            lines.append(f"p = {report.prime}: total {report.total_count} "
                         f"(cone base {report.cone_count}, fiber base {report.milnor_count})")
            predicted = dict(report.predicted_by_order)
            for rho, count in report.by_order:
                want = predicted.get(rho)
                verdict = "ok" if want == count else f"MISMATCH (predicted {want})"
                lines.append(f"  order {rho}: counted {count}, predicted {want}: {verdict}")
            if not report.by_order:
                lines.append("  empty locus (m below the degree)")
        lines.append("verdict: " + ("all counts match" if all_match else "MISMATCH"))
        return lines

    return doc, text, all_match


def _add_ndm(sub, domain) -> None:
    sub.add_argument("--n", type=integer, required=True,
                     help=f"number of variables (>= {domain.n_min})")
    sub.add_argument("--d", type=integer, required=True,
                     help=f"degree of the initial form (>= {domain.d_min})")
    sub.add_argument("--m", type=integer, required=True, help=f"contact order (>= {M_MIN})")
    sub.set_defaults(domain=domain)


def _check_cap(what: str, size: int, cap: int) -> None:
    if size > cap:
        shown = size if size < 10 ** _max_digits() else "a number too long to print"
        raise BudgetExceededError(f"{what}: {shown} is over the command-line cap of {cap}")


def _check_size(command: str, domain, n: int, d: int, m: int) -> None:
    """Reject (n, d, m) outside the subcommand's domain, then inputs whose
    closed-form size is over a cap, before any work starts."""
    domain.check(n, d, m)
    q = m // d
    divisors = q * m - d * q * (q + 1) // 2 if command == "resolve" else 0
    degrees = 2 * n if command in ("cohomology", "floer", "euler") else 0
    milnor_bits = n * (d - 2).bit_length() + 1 if degrees and m >= d else 0
    strata_bits = q * milnor_bits if command in ("cohomology", "floer") else 0
    for what, size, cap in (("strata", q, CLI_MAX_STRATA),
                            ("chain divisors (upper bound)", divisors, CLI_MAX_DIVISORS),
                            ("degrees of S (2n)", degrees, CLI_MAX_DEGREES),
                            ("bits of (d-1)^n (upper bound)", milnor_bits, CLI_MAX_MILNOR_BITS),
                            ("strata times bits of (d-1)^n", strata_bits, CLI_MAX_STRATA_BITS)):
        _check_cap(what, size, cap)


def _add_output(sub, choices=("text", "json")) -> None:
    sub.add_argument("--format", choices=choices, default="text")
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactloci",
        description="Exact invariants of contact loci of semihomogeneous singularities.")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, handler, domain, summary in (
            ("resolve", cmd_resolve, CHAIN, "minimal m-separating resolution chain"),
            ("cohomology", cmd_cohomology, COHOMOLOGY, "H_c of the restricted contact locus"),
            ("floer", cmd_floer, COHOMOLOGY, "Floer cohomology of the m-th monodromy iterate"),
            ("nash", cmd_nash, CHAIN, "dlt, contact and essential m-valuations"),
            ("euler", cmd_euler, COHOMOLOGY, "Euler characteristic versus Lefschetz number")):
        sub = subs.add_parser(name, help=summary)
        _add_ndm(sub, domain)
        _add_output(sub)
        sub.set_defaults(handler=handler)

    scatter = subs.add_parser("scatter", help="classify (n, d) pairs on a grid")
    scatter.add_argument("--nmax", type=integer, required=True)
    scatter.add_argument("--dmax", type=integer, required=True)
    _add_output(scatter, choices=("text", "json", "csv", "svg"))
    scatter.set_defaults(handler=cmd_scatter)

    verify = subs.add_parser("verify", help="finite-field jet counts against predictions")
    verify.add_argument("--f", required=True,
                        help="polynomial, inline grammar (e.g. 'x0^2+x1^2+x2^2') or JSON document")
    verify.add_argument("--m", type=integer, required=True)
    verify.add_argument("--primes", required=True, help="comma-separated primes, e.g. 3,5,7")
    verify.add_argument("--budget", type=integer, default=DEFAULT_BUDGET,
                        help="cap on enumerated candidate vectors")
    _add_output(verify)
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if hasattr(args, "domain"):
            _check_size(args.command, args.domain, args.n, args.d, args.m)
        doc, text, ok = args.handler(args)
        _check_output(doc)  # before text(): an f-string refuses such an int too
        if args.format == "json":
            import json  # text output never loads it
            _write(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")
        else:
            _write(args, "\n".join(text()) + "\n")
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_MISMATCH


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
