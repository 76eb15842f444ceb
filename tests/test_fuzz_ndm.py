"""Fuzzing the (n, d, m) subcommands against the exit-code contract.

Whatever the integers, `resolve`, `cohomology`, `floer`, `nash` and `euler`
must end with exit 0, 2 or 3, never with an uncaught exception, and every
nonzero exit must say `error:`.  Exit 2 means an input outside the domain
table, and only that.  n and d reach 10^4, where the Milnor
number (d-1)^n outgrows Python's 4300-digit limit on int-to-str conversion,
n also takes 4300 digits, so that the log discrepancies of resolve and nash
outgrow it, and odd n also meets large prime d, whose torsion Z/d no trial
division would normalise in time.  m stays within a few multiples of d, so that an
accepted input runs in well under a second, or lies far over the strata cap.
n is sometimes spelled as Python's int() would read it but the command line
does not, with a digit-group underscore or a non-ASCII digit: exit 2.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from contactloci.cli import main
from contactloci.domain import CHAIN, COHOMOLOGY

DOMAINS = {"resolve": CHAIN, "nash": CHAIN, "cohomology": COHOMOLOGY, "floer": COHOMOLOGY,
           "euler": COHOMOLOGY}

sizes = st.one_of(st.integers(-2, 12), st.integers(0, 10 ** 4))
LARGE_PRIMES = (1_000_000_000_039, 10 ** 20 + 39, 2 ** 61 - 1, 2 ** 127 - 1)
odd_n_large_prime_d = st.tuples(st.integers(1, 6).map(lambda k: 2 * k + 1),
                                st.sampled_from(LARGE_PRIMES))
# n of 4300 digits prints, but the divisors of resolve and nash hold larger integers
huge_n = st.tuples(st.integers(5 * 10 ** 4299, 10 ** 4300 - 1), st.integers(-2, 12))


@st.composite
def triples(draw):
    """(n, d, m): m small, near a small multiple of d (so the locus is often
    nonempty and d often divides m), or far over the strata cap."""
    n, d = draw(st.one_of(st.tuples(sizes, sizes), odd_n_large_prime_d, huge_n))
    m = draw(st.one_of(st.integers(-2, 60),
                       st.builds(lambda k, r: d * k + r, st.integers(0, 3), st.integers(-1, 1)),
                       st.just(10 ** 9)))
    return n, d, m


# the digit zero of the Arabic-Indic, Devanagari and fullwidth blocks
NON_ASCII_ZEROS = (0x660, 0x966, 0xFF10)


@st.composite
def spellings(draw, n):
    """str(n), or n with an underscore between two digits (a leading 0 for
    one digit), or with one digit in another script: each one that int()
    reads as n."""
    sign, digits = ("-", str(n)[1:]) if n < 0 else ("", str(n))
    kind = draw(st.sampled_from(["plain", "plain", "underscore", "non-ascii"]))
    if kind == "underscore":
        digits = digits if len(digits) > 1 else "0" + digits
        i = draw(st.integers(1, len(digits) - 1))
        return sign + digits[:i] + "_" + digits[i:]
    if kind == "non-ascii":
        i = draw(st.integers(0, len(digits) - 1))
        zero = draw(st.sampled_from(NON_ASCII_ZEROS))
        return sign + digits[:i] + chr(zero + int(digits[i])) + digits[i + 1:]
    return str(n)


@settings(max_examples=150)
@given(command=st.sampled_from(["resolve", "cohomology", "floer", "nash", "euler"]),
       ndm=triples(), fmt=st.sampled_from(["text", "json"]), data=st.data())
def test_ndm_subcommands_meet_the_exit_code_contract(command, ndm, fmt, data):
    n, d, m = ndm
    spelled = data.draw(spellings(n))
    argv = [command, "--n", spelled, "--d", str(d), "--m", str(m), "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), argv
    domain = DOMAINS[command]
    invalid = spelled != str(n) or n < domain.n_min or d < domain.d_min or m < 1
    assert (code == 2) == invalid, argv
    assert "Traceback" not in err.getvalue(), argv
    assert "set_int_max_str_digits" not in err.getvalue(), argv
    if code:
        assert "error:" in err.getvalue(), argv
