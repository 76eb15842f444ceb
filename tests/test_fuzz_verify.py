"""Fuzzing `verify` inputs against the exit-code contract.

Whatever the polynomial text, JSON document, contact order, prime list and
budget, the command line must end with exit 0, 2 or 3, never with an
uncaught exception (which is what a traceback on stderr would be), and every
nonzero exit must say `error:`.  Exit 1, a count that differs from its
prediction, is a bug here: every polynomial either input grammar accepts is a
sum of pure powers c * x_j^e, so a reduction that passes the smoothness check
has an exact prediction.  Examples stay small: primes <= 13 and
budget <= 10^5, and m <= 4 or m up to 5 * 10^4, where the jet search is
refused by its depth or the strata cap unless m is small.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from contactloci.cli import main

# mostly small variable indices, sometimes very large ones
var_index = st.one_of(st.integers(0, 3), st.integers(0, 3), st.sampled_from([5, 40, 99999, 10 ** 7]))
# JSON values of the wrong type next to the integers the document wants
odd_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=32),
                       st.booleans(), st.none(), st.text(alphabet="0123a", max_size=3))


@st.composite
def forms(draw):
    """(n, [(j, e, c), ...]) for the sum of the c * x_j^e: a diagonal form of
    degree d, sometimes plus pure powers of higher degree."""
    n, d = draw(st.sampled_from([3, 3, 3, 4])), draw(st.integers(2, 3))
    powers = {(j, d): draw(st.integers(1, 4)) for j in range(n)}
    for _ in range(draw(st.integers(0, 2))):
        powers[draw(st.integers(0, n - 1)), draw(st.integers(d + 1, 6))] = draw(st.integers(1, 3))
    return n, [(j, e, c) for (j, e), c in powers.items()]


@st.composite
def inline_polys(draw):
    if draw(st.booleans()):
        return "+".join(f"{c}*x{j}^{e}" for j, e, c in draw(forms())[1])
    terms = []
    for position in range(draw(st.integers(1, 5))):
        coeff = draw(st.one_of(st.none(), st.integers(0, 30)))
        exp = draw(st.one_of(st.none(), st.integers(0, 6)))
        term = ("" if coeff is None else f"{coeff}*") + f"x{draw(var_index)}" \
            + ("" if exp is None else f"^{exp}")
        terms.append(("" if position == 0 else draw(st.sampled_from("+-"))) + term)
    return "".join(terms)


@st.composite
def json_polys(draw):
    n, powers = draw(forms())
    if draw(st.integers(0, 3)) == 0:  # widen with unused variables
        n = draw(st.sampled_from([5, 40]))
    doc = {"n": n, "terms": [{"exps": [e * (k == j) for k in range(n)], "coeff": c}
                             for j, e, c in powers]}
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # corrupt a value or drop a key
        target = draw(st.sampled_from(doc["terms"]))
        where = draw(st.sampled_from(["n", "exps", "coeff", "drop"]))
        if where == "n":
            doc["n"] = draw(st.one_of(st.integers(-1, 3), odd_values))
        elif where == "exps" and "exps" in target:
            target["exps"][draw(st.integers(0, n - 1))] = draw(odd_values)
        elif where == "coeff":
            target["coeff"] = draw(st.one_of(st.integers(-2, 2), odd_values))
        elif where == "drop":
            target.pop(draw(st.sampled_from(["exps", "coeff"])), None)
    return json.dumps(doc)


garbage_polys = st.text(alphabet="x0123^+-* {}[]:,\"n", max_size=24)

good_primes = st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=2)
primes = st.one_of(good_primes.map(lambda ps: ",".join(map(str, ps))),
                   st.sampled_from(["", ",", "a", "1", "-3", "9", "5,,7", " 3",
                                    "1_3", "\u0663", "5,1_1"]))


@settings(max_examples=150)
@given(f=st.one_of(inline_polys(), json_polys(), garbage_polys),
       m=st.one_of(st.integers(0, 4), st.integers(0, 5 * 10 ** 4)),
       prime_list=primes, budget=st.one_of(st.integers(0, 10 ** 5), st.just(10 ** 5)),
       fmt=st.sampled_from(["text", "json"]))
def test_verify_meets_the_exit_code_contract(f, m, prime_list, budget, fmt):
    argv = ["verify", "--f", f, "--m", str(m), "--primes", prime_list, "--budget", str(budget),
            "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (code, argv)
    assert "Traceback" not in err.getvalue(), argv
    assert "set_int_max_str_digits" not in err.getvalue(), argv
    if code:
        assert "error:" in err.getvalue(), argv
