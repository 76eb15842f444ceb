import json
import sys
import time

import pytest

from contactloci import cli, oracle, spectral
from contactloci.cli import main
from contactloci.contact import contact_cohomology, contact_euler
from contactloci.domain import CHAIN, COHOMOLOGY, BudgetExceededError
from contactloci.oracle import MAX_JET_DEPTH, JetCountReport
from contactloci.resolution import build_minimal_resolution


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_resolve_text(capsys):
    code, out, _ = run(capsys, "resolve", "--n", "3", "--d", "2", "--m", "4")
    assert code == 0
    assert "first_exceptional" in out and "strict_transform" in out
    assert out.count("intermediate") == 2


def test_resolve_json_round_trips(capsys):
    code, out, _ = run(capsys, "resolve", "--n", "3", "--d", "2", "--m", "4",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [row["i"] for row in doc.pop("m_divisors")] == [-2, -1, 0]
    assert doc == build_minimal_resolution(3, 2, 4).to_doc()
    assert len(doc["divisors"]) == 4


def test_resolve_mismatch_exit_code(capsys, monkeypatch):
    # a closed-form count that disagrees with the chain's length exits 1
    from contactloci import resolution

    monkeypatch.setattr(resolution, "verify_minimality", lambda chain: False)
    for argv in ((), ("--format", "json")):
        code, out, _ = run(capsys, "resolve", "--n", "3", "--d", "2", "--m", "4", *argv)
        assert code == 1 and "strict_transform" in out


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "resolve", "--n", "1", "--d", "2", "--m", "4")
    assert code == 2
    assert "n must be >= 2" in err
    code, out, err = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", "4",
                         "--primes", "5", "--budget", "-1")
    assert code == 2 and out == ""
    assert err == "error: budget must be >= 0\n"


def test_unknown_flags_exit_code(capsys):
    assert main(["resolve", "--bogus"]) == 2


def test_cohomology_text(capsys):
    code, out, _ = run(capsys, "cohomology", "--n", "3", "--d", "5", "--m", "5")
    assert code == 0
    assert "degree 26: Z^64" in out
    assert "degree 28: Z" in out


def test_cohomology_empty_locus_note(capsys):
    code, out, _ = run(capsys, "cohomology", "--n", "3", "--d", "5", "--m", "4")
    assert code == 0
    assert "m < d" in out


def test_cohomology_rejects_degree_one(capsys):
    code, _, err = run(capsys, "cohomology", "--n", "3", "--d", "1", "--m", "3")
    assert code == 2
    assert "d >= 2" in err


def test_cohomology_json_total_parses(capsys):
    code, out, _ = run(capsys, "cohomology", "--n", "3", "--d", "2", "--m", "4",
                       "--format", "json")
    doc = json.loads(out)
    assert doc["total"] == contact_cohomology(3, 2, 4).to_doc()
    assert {row["degree"]: row["rank"] for row in doc["total"]}[14] == 1
    assert doc["euler"] == 2


def test_floer_determined(capsys):
    code, out, _ = run(capsys, "floer", "--n", "3", "--d", "5", "--m", "5")
    assert code == 0
    assert "degree 4: Z^64" in out


def test_floer_not_determined(capsys):
    code, out, _ = run(capsys, "floer", "--n", "3", "--d", "3", "--m", "9")
    assert code == 0
    assert "not determined" in out


def test_nash_text(capsys):
    code, out, _ = run(capsys, "nash", "--n", "3", "--d", "2", "--m", "4")
    assert code == 0
    assert "counts: dlt=0, contact=1, essential=2" in out


def test_euler_match(capsys):
    code, out, _ = run(capsys, "euler", "--n", "4", "--d", "3", "--m", "6")
    assert code == 0
    assert "-15" in out and "match: yes" in out


def test_euler_mismatch_exit_code(capsys, monkeypatch):
    # a Lefschetz number off by one exercises the failure path
    monkeypatch.setattr(spectral, "lefschetz_closed_form",
                        lambda n, d, m: contact_euler(n, d, m) + 1)
    argv = ("euler", "--n", "4", "--d", "3", "--m", "6")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "match: NO" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert '"match": false' in out


def test_scatter_csv(capsys):
    code, out, _ = run(capsys, "scatter", "--nmax", "10", "--dmax", "10",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,d,class"
    assert len(lines) == 1 + 8 * 9
    rows = {tuple(line.split(",")[:2]): line.split(",")[2] for line in lines[1:]}
    assert rows[("3", "3")] == "pink"
    assert rows[("3", "5")] == "blue"
    for (n, d), color in rows.items():
        if int(d) > 2 * int(n) - 2:
            assert color == "blue"


def test_scatter_svg(capsys):
    code, out, _ = run(capsys, "scatter", "--nmax", "6", "--dmax", "6",
                       "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")
    assert out.count("<rect") >= 4 * 5
    assert cli.SCATTER_CLASSES["pink"][0] in out


def test_scatter_bounds(capsys):
    code, _, err = run(capsys, "scatter", "--nmax", "300", "--dmax", "10")
    assert code == 2
    assert "nmax" in err


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", "3",
                       "--primes", "3,5")
    assert code == 0
    assert "all counts match" in out


def test_verify_accepts_json_polynomial(capsys):
    doc = json.dumps({"n": 3, "terms": [
        {"exps": [2, 0, 0], "coeff": 1},
        {"exps": [0, 2, 0], "coeff": 1},
        {"exps": [0, 0, 2], "coeff": 1},
    ]})
    code, out, _ = run(capsys, "verify", "--f", doc, "--m", "2", "--primes", "3")
    assert code == 0
    assert "all counts match" in out


def test_verify_budget_exit_code(capsys):
    # with p = 10007 the budget must stop the run before it scans F_p^3, and
    # a prime near 10^20 or a 401-digit p before trial division of p
    for prime in ("7", "10007", "100000000000000000039", "1" + "0" * 399 + "1"):
        code, _, err = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", "4",
                           "--primes", prime, "--budget", "10")
        assert code == 3
        assert "budget" in err
    # a third p^n is charged with the two scans: 3 * 101^3 > 2.5 * 10^6
    started = time.perf_counter()
    code, _, err = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", "2",
                       "--primes", "101", "--budget", "2500000")
    assert time.perf_counter() - started < 1
    assert code == 3 and "budget" in err
    # one budget for all primes: the quadric at m = 4 spends 7,604 units per
    # p = 13, so two copies of 13 need 15,208
    for budget, message in (("15207", "more than 15207 candidates"), ("15208", "")):
        code, _, err = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", "4",
                           "--primes", "13,13", "--budget", budget)
        assert code == (3 if message else 0) and message in err, budget
    # the same two primes at the default budget
    for prime in ("100000000000000000039", "1" + "0" * 399 + "1"):
        code, _, err = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", "2",
                           "--primes", prime)
        assert code == 3
        assert "budget" in err
    # 5^10000 candidates, at the most variables verify accepts: the message
    # must not try to print that number, and a 401-digit p must not be raised
    # to the 10000th power either
    for prime in ("5", "1" + "0" * 399 + "1"):
        code, _, err = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2+x9999^3", "--m", "3",
                           "--primes", prime)
        assert code == 3
        assert "budget" in err and len(err) < 200
    # a term in several variables: every candidate sums split products, which
    # are charged, so the search stops at the budget within a second
    mixed = json.dumps({"n": 3, "terms": [{"exps": exps, "coeff": 1} for exps in
                                          ([3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 1])]})
    for m in ("15", "30", "101"):
        started = time.perf_counter()
        code, _, err = run(capsys, "verify", "--f", mixed, "--m", m, "--primes", "5",
                           "--budget", "20000")
        assert time.perf_counter() - started < 1, m
        assert code == 3 and "budget" in err, m


def test_verify_names_a_witness_off_the_axes(capsys):
    # (x0 - x1)^2 + x2^2 is singular along x0 = x1, x2 = 0: the first such
    # point in product order, (1, 1, 0), is the least of its scaling cell
    doc = json.dumps({"n": 3, "terms": [{"exps": exps, "coeff": c} for exps, c in
                                        (([2, 0, 0], 1), ([1, 1, 0], -2), ([0, 2, 0], 1),
                                         ([0, 0, 2], 1))]})
    code, out, err = run(capsys, "verify", "--f", doc, "--m", "3", "--primes", "13")
    assert code == 2 and out == ""
    assert err == "error: initial form is singular at (1, 1, 0) over F_13; pick another prime\n"


def test_verify_names_a_prime_that_is_no_integer(capsys):
    # Python's int() reads digit-group underscores and non-ASCII digits
    # (Arabic-Indic and fullwidth three here); the command line does not
    for primes, chunk in (("5.0", "5.0"), ("5,x", "x"), ("5, 7e1", "7e1"), ("1_3", "1_3"),
                          ("\u0663", "\u0663"), ("\uff13", "\uff13")):
        code, out, err = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", "3",
                             "--primes", primes)
        assert code == 2 and out == "", primes
        assert err == f"error: --primes: '{chunk}' is not an integer\n", primes


# flag -> an argv that gives it the value "{}"
INTEGER_FLAGS = {
    "--n": ("resolve", "--n", "{}", "--d", "2", "--m", "4"),
    "--d": ("cohomology", "--n", "3", "--d", "{}", "--m", "4"),
    "--m": ("nash", "--n", "3", "--d", "2", "--m", "{}"),
    "--nmax": ("scatter", "--nmax", "{}", "--dmax", "5"),
    "--dmax": ("scatter", "--nmax", "5", "--dmax", "{}"),
    "--budget": ("verify", "--f", "x0^2+x1^2+x2^2", "--m", "3", "--primes", "3",
                 "--budget", "{}"),
}


@pytest.mark.parametrize("spelling", ["1_0", "\u0663"])
@pytest.mark.parametrize("flag", list(INTEGER_FLAGS))
def test_integer_flags_take_ascii_digits_only(capsys, flag, spelling):
    argv = [spelling if arg == "{}" else arg for arg in INTEGER_FLAGS[flag]]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: argument {flag}: invalid integer value: {spelling!r}\n" in err
    assert "Traceback" not in err


def test_an_over_long_integer_flag_is_refused_by_the_reader(capsys):
    # Python 3.10.7+ int() refuses 4301 digits too, but 3.10.0-3.10.6 reads them
    code, out, err = run(capsys, "resolve", "--n", "9" * 4301, "--d", "2", "--m", "4")
    assert code == 2 and out == ""
    assert "error: argument --n: invalid integer value" in err
    assert "set_int_max_str_digits" not in err and "Traceback" not in err


def test_verify_reads_ascii_variable_indices_only(capsys):
    f = "x\u0660^2+x1^2+x2^2"  # Arabic-Indic zero
    code, out, err = run(capsys, "verify", "--f", f, "--m", "3", "--primes", "3")
    assert code == 2 and out == ""
    assert err == f"error: expected a term at position 0 of {f!r}\n"


def test_verify_caps_only_text_the_grammar_accepts(capsys):
    # an index that the grammar would never read counts for no cap: each of
    # these once exited 3, over the variable cap or the budget's first charge
    for f, position in (("hello x99999", 0), ("x0^2+)x30^2", 5)):
        started = time.perf_counter()
        code, out, err = run(capsys, "verify", "--f", f, "--m", "3", "--primes", "3")
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert err == f"error: expected a term at position {position} of {f!r}\n"


def test_integers_take_a_sign_and_surrounding_blanks(capsys):
    plain = run(capsys, "resolve", "--n", "3", "--d", "2", "--m", "4")
    for n in ("+3", " 3", "3 ", "03"):
        assert run(capsys, "resolve", "--n", n, "--d", "2", "--m", "4") == plain, n
    plain = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", "3", "--primes", "3,5")
    assert plain[0] == 0
    for primes in ("3, 5", " 3 , 5 ", "+3,+5"):
        assert run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", "3",
                   "--primes", primes) == plain, primes


def test_verify_refuses_too_many_variables(capsys):
    # the n bound of cohomology, floer and euler, 10,000, checked before the
    # inline parser builds an exponent vector as long as the largest index
    for f in ("x0^2+x1^2+x10000000^2", "x0^2+x1^2+x10000^2",
              json.dumps({"n": 10001, "terms": [{"exps": [2] + [0] * 10000, "coeff": 1}]})):
        started = time.perf_counter()
        code, _, err = run(capsys, "verify", "--f", f, "--m", "4", "--primes", "5")
        assert time.perf_counter() - started < 1
        assert code == 3 and "variables" in err and "cap of 10000" in err


def test_large_prime_degree_runs_without_factoring(capsys):
    # the torsion Z/d of an odd-n stratum is normalised without factoring d
    for command in ("cohomology", "euler", "floer"):
        started = time.perf_counter()
        code, out, err = run(capsys, command, "--n", "3", "--d", "100000000000000000039",
                             "--m", "100000000000000000040")
        assert time.perf_counter() - started < 2, command
        assert code == 0 and err == "", command
        assert command != "cohomology" or "Z/100000000000000000039" in out


def test_deep_jet_search_is_refused(capsys):
    # m - d + 1 levels past the limit exit 3 at once, where the recursive
    # search used to end in a RecursionError traceback
    for m in ("250", "1000", "40000", str(MAX_JET_DEPTH + 2)):
        started = time.perf_counter()
        code, out, err = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", m,
                             "--primes", "3")
        assert time.perf_counter() - started < 1, m
        assert code == 3 and out == "", m
        assert err.startswith("error:") and f"= {int(m) - 1} " in err, m
        assert "Traceback" not in err


def test_verify_bad_poly_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--f", "x0 + nonsense", "--m", "2",
                       "--primes", "3")
    assert code == 2


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    # force a count mismatch to exercise the failure path
    def fake_count(poly, m, p, budget=None, spent=None):
        return JetCountReport(prime=p, m=m, by_order=((1, 1),), cone_count=0, milnor_count=0,
                              predicted_by_order=((1, 2),))

    monkeypatch.setattr(oracle, "count_contact_jets", fake_count)
    code, out, _ = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", "2",
                       "--primes", "3")
    assert code == 1
    assert "MISMATCH" in out
    code, out, _ = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", "2",
                       "--primes", "3", "--format", "json")
    assert code == 1
    assert json.loads(out)["all_match"] is False


def test_output_file(tmp_path, capsys):
    target = tmp_path / "chain.json"
    code, out, _ = run(capsys, "resolve", "--n", "3", "--d", "2", "--m", "4",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["m"] == 4


def test_deterministic_output(capsys):
    first = run(capsys, "cohomology", "--n", "3", "--d", "4", "--m", "8",
                "--format", "json")
    second = run(capsys, "cohomology", "--n", "3", "--d", "4", "--m", "8",
                 "--format", "json")
    assert first == second
    a = run(capsys, "scatter", "--nmax", "12", "--dmax", "12", "--format", "csv")
    b = run(capsys, "scatter", "--nmax", "12", "--dmax", "12", "--format", "csv")
    assert a == b


def test_verify_malformed_json_polynomial_exit_code(capsys):
    for doc in ['{"n":3}', '{"n":3,"terms":5}', '{"n":3,"terms":[1]}',
                '{"n":null,"terms":[]}', '{"n":1e400,"terms":[]}',
                '{"n":3,"terms":[{"exps":[2,0,0]}]}', '{"n":3,"terms":[{"exps":3,"coeff":1}]}',
                '{"n":"a","terms":[]}', '{"n":3,']:
        code, out, err = run(capsys, "verify", "--f", doc, "--m", "4", "--primes", "5")
        assert code == 2, doc
        assert err.startswith("error:") and out == "", doc
    # only JSON integers count: no float, bool or string is rounded or cast
    for doc in ['{"n":3,"terms":[{"exps":[2,0,0],"coeff":1.5},{"exps":[0,2,0.9],"coeff":1},'
                '{"exps":[0,0,2],"coeff":true}]}',
                '{"n":3,"terms":[{"exps":[2,0,0],"coeff":1},{"exps":[0,2,0],"coeff":1},'
                '{"exps":[0,0,2],"coeff":true}]}',
                '{"n":3,"terms":[{"exps":[2,0,0],"coeff":1},{"exps":[0,2.0,0],"coeff":1},'
                '{"exps":[0,0,2],"coeff":1}]}',
                '{"n":3.0,"terms":[{"exps":[2,0,0],"coeff":1}]}',
                '{"n":true,"terms":[{"exps":[2],"coeff":1}]}',
                '{"n":3,"terms":[{"exps":[2,0,0],"coeff":"1"}]}',
                '{"n":3,"terms":[{"exps":["2",0,0],"coeff":1}]}']:
        code, out, err = run(capsys, "verify", "--f", doc, "--m", "3", "--primes", "5")
        assert code == 2, doc
        assert err.startswith("error: malformed polynomial document") and out == "", doc


def test_unwritable_output_path_exit_code(tmp_path, capsys):
    for target in (tmp_path / "missing" / "chain.json", tmp_path):
        code, out, err = run(capsys, "resolve", "--n", "3", "--d", "2", "--m", "4",
                             "--out", str(target))
        assert code == 2
        assert err.startswith("error: cannot write") and out == ""


def test_work_caps_stop_before_work(capsys, tmp_path):
    started = time.perf_counter()
    code, out, err = run(capsys, "resolve", "--n", "3", "--d", "1", "--m", "3000")
    assert time.perf_counter() - started < 1
    assert code == 3 and out == "" and err.startswith("error:")
    # m // d strata: 20000 is the cap
    for argv, want in ((("floer", "--n", "3", "--d", "3", "--m", "60002"), 0),
                       (("floer", "--n", "3", "--d", "3", "--m", "60003"), 3),
                       (("nash", "--n", "2", "--d", "1", "--m", "20001"), 3),
                       (("euler", "--n", "3", "--d", "2", "--m", "40002"), 3)):
        code, _, err = run(capsys, *argv)
        assert code == want, argv
        assert ("cap" in err) == (want == 3), argv
    # the 2n degrees of S: 20000 is the cap, so n = 10000 runs and n = 10001 does not
    for command in ("cohomology", "floer", "euler"):
        for n, want in (("10000", 0), ("10001", 3), ("1000000000", 3)):
            started = time.perf_counter()
            code, _, err = run(capsys, command, "--n", n, "--d", "2", "--m", "4")
            assert time.perf_counter() - started < 1, (command, n)
            assert code == want and ("cap" in err) == (want == 3), (command, n)
    # the chain bound q*m - d*q*(q+1)/2 with q = m // d: 249571 for m = 707, d = 1
    code, _, _ = run(capsys, "resolve", "--n", "3", "--d", "1", "--m", "707",
                     "--out", str(tmp_path / "chain.txt"))
    assert code == 0
    code, _, err = run(capsys, "resolve", "--n", "3", "--d", "1", "--m", "708")
    assert code == 3 and "250278" in err
    # a bound too long to print: 36 * 10^4299 for m = 9 * 10^4299, d = 10^4299
    code, _, err = run(capsys, "resolve", "--n", "3", "--d", "1" + "0" * 4299,
                       "--m", "9" + "0" * 4299)
    assert code == 3 and "cap" in err and "set_int_max_str_digits" not in err
    # verify takes d from the polynomial: m // 2 strata for a quadric.  Just
    # under the cap the strata are built and the budget stops the count.
    for m, cap in (("2000000", True), ("40001", False)):
        started = time.perf_counter()
        code, out, err = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", m,
                             "--primes", "5", "--budget", "10")
        assert time.perf_counter() - started < 1, m
        assert code == 3 and out == "", m
        assert ("cap" in err) == cap and ("budget" in err) != cap, m


def test_output_cap_stops_before_work(capsys):
    # integers over Python's 4300-digit str limit exit 3 before anything is
    # printed, after the capped work of at most a second
    for argv in (("euler", "--n", "3000", "--d", "3000", "--m", "3000"),
                 ("cohomology", "--n", "3000", "--d", "3000", "--m", "3000"),
                 ("floer", "--n", "3001", "--d", "3000", "--m", "3000"),
                 ("cohomology", "--n", "10", "--d", "10" * 1000, "--m", "10" * 1000)):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - started < 1, argv
        assert code == 3 and out == "", argv
        assert err.startswith("error: output") and "set_int_max_str_digits" not in err, argv
    # the largest integer of each of these fits: a 4295-digit Milnor number,
    # 4300-digit ranks of a cone stratum, chi = 0, an empty locus, and a
    # floer input the theorem does not determine
    for argv in (("cohomology", "--n", "3000", "--d", "28", "--m", "28"),
                 ("cohomology", "--n", "3005", "--d", "28", "--m", "29"),
                 ("euler", "--n", "3000", "--d", "3000", "--m", "3001"),
                 ("cohomology", "--n", "3000", "--d", "3000", "--m", "5"),
                 ("floer", "--n", "3000", "--d", "3000", "--m", "6000")):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
    assert len(str(27 ** 3000)) == 4295


NINES = "9" * 4300  # the longest integer Python prints, 10^4300 - 1


def test_output_cap_is_checked_on_the_document(capsys):
    # 27^3004 has 4300 digits and 27^3005 has 4301
    assert len(str(27 ** 3004)) == 4300
    for n, want in (("3004", 0), ("3005", 3)):
        code, out, err = run(capsys, "cohomology", "--n", n, "--d", "28", "--m", "28")
        assert code == want and (out == "") == (want == 3), n
    # a 4300-digit n prints, but nu = kappa + r*n and the codimensions of
    # nash do not
    for command in ("nash", "resolve"):
        for fmt in ("text", "json"):
            started = time.perf_counter()
            code, out, err = run(capsys, command, "--n", NINES, "--d", "2", "--m", "4",
                                 "--format", fmt)
            assert time.perf_counter() - started < 1, (command, fmt)
            assert code == 3 and out == "", (command, fmt)
            assert err.startswith("error: output") and "set_int_max_str_digits" not in err


class Wide(int):
    pass


def test_output_cap_reaches_nested_integers(capsys, monkeypatch):
    # dict -> list -> dict, the shape of scatter's rows, holding an integer
    # over the cap of either sign or of an int subclass; one under it prints
    for value, want in ((10 ** 4300, 3), (-10 ** 4300, 3), (Wide(10 ** 4300), 3),
                        (int(NINES), 0), (-int(NINES), 0)):
        doc = {"rows": [{"n": 3, "d": 2, "class": "red"}, {"n": 4, "d": value}]}
        monkeypatch.setattr(cli, "cmd_scatter", lambda args: (doc, lambda: ["row"], True))
        code, out, err = run(capsys, "scatter", "--nmax", "3", "--dmax", "2")
        assert code == want and (out == "") == (want == 3), (value < 0, type(value))
        if want == 3:
            assert err.startswith("error: output") and "set_int_max_str_digits" not in err


def test_verify_output_cap(capsys):
    # the one order count of the degree-716 Fermat form at m = 716 over F_101
    # has 4304 digits, and at 715 it has 4298
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", "--f", "x0^716+x1^716+x2^716", "--m", "716",
                             "--primes", "101", "--format", fmt)
        assert code == 3 and out == "", fmt
        assert err.startswith("error: output") and "set_int_max_str_digits" not in err, fmt
    code, out, _ = run(capsys, "verify", "--f", "x0^715+x1^715+x2^715", "--m", "715",
                       "--primes", "101")
    assert code == 0 and out.endswith("verdict: all counts match\n")


def test_verify_deeply_nested_json_polynomial_exit_code(capsys):
    # json.loads recurses once per bracket and gives up past the recursion limit
    doc = '{"n":' + "[" * 20_000 + "]" * 20_000 + "}"
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", "--f", doc, "--m", "3", "--primes", "3",
                             "--format", fmt)
        assert code == 2 and out == "", fmt
        assert err.startswith("error: malformed polynomial document"), fmt


def test_strata_times_milnor_bits_cap(capsys, monkeypatch):
    # cohomology and floer at (4999, 3, 12000): 4000 strata times the 5000
    # bits of 2^4999, counted as 4999 * bitlength(1) + 1
    assert 4000 * 5000 == cli.CLI_MAX_STRATA_BITS
    for command in ("cohomology", "floer"):
        cli._check_size(command, COHOMOLOGY, 4999, 3, 12000)
    # euler prints no rank per stratum, below d there are no bits, and
    # (d-1)^n = 1 for d = 2 is counted as one bit
    cli._check_size("euler", COHOMOLOGY, 10000, 3, 60000)
    cli._check_size("cohomology", COHOMOLOGY, 10000, 3, 2)
    cli._check_size("cohomology", COHOMOLOGY, 10000, 2, 40000)
    for command, ndm in (("cohomology", (4999, 3, 12003)), ("floer", (5000, 3, 12000))):
        with pytest.raises(BudgetExceededError, match="strata times bits of"):
            cli._check_size(command, COHOMOLOGY, *ndm)
    # about 246 million characters of ranks without the cap
    for fmt in ("text", "json"):
        started = time.perf_counter()
        code, out, err = run(capsys, "cohomology", "--n", "10000", "--d", "3", "--m", "60000",
                             "--format", fmt)
        assert time.perf_counter() - started < 1, fmt
        assert code == 3 and out == "" and err.startswith("error: strata times bits"), fmt
    # no (n, d, m) within the other caps gives the cap plus one, so the cap
    # moves one below the product
    monkeypatch.setattr(cli, "CLI_MAX_STRATA_BITS", 4000 * 5000 - 1)
    with pytest.raises(BudgetExceededError, match="20000000 is over the command-line cap"):
        cli._check_size("cohomology", COHOMOLOGY, 4999, 3, 12000)


def test_milnor_number_cap_stops_before_work(capsys):
    # (d-1)^n has about 1.3 * 10^8 bits here, though euler prints chi = 0
    started = time.perf_counter()
    code, out, err = run(capsys, "euler", "--n", "10000", "--d", str(10 ** 4000),
                         "--m", str(10 ** 4000 + 1))
    assert time.perf_counter() - started < 1
    assert code == 3 and out == "" and "(d-1)^n" in err and "cap of 1000000" in err


def test_verify_refuses_a_first_charge_over_the_budget(capsys):
    # 2 * 3^10000 candidates: refused from the largest index, before the
    # parser builds 10^4 exponent vectors of length 10^4
    squares = "+".join(f"x{j}^2" for j in range(10000))
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "--f", squares, "--m", "3", "--primes", "3")
    assert time.perf_counter() - started < 1
    assert code == 3 and out == "" and "budget" in err
    # 30 variables against a budget of 10, which has 4 bits; a negative
    # budget and a first prime below 2 are still invalid input
    squares = "+".join(f"x{j}^2" for j in range(30))
    for primes, budget, want, message in (("3", "10", 3, "budget exceeded"),
                                          ("1", "10", 2, "1 is not prime"),
                                          ("3", "-1", 2, "budget must be >= 0")):
        code, _, err = run(capsys, "verify", "--f", squares, "--m", "3", "--primes", primes,
                           "--budget", budget)
        assert code == want and message in err, (primes, budget)


def test_verify_refuses_an_invalid_budget_prime_or_m_before_reading_f(capsys):
    # each once built the 10,000-variable polynomial first: 12-17 s and about
    # 780 MB, and m = 0 then exited 3 on the budget's first charge
    squares = "+".join(f"x{j}^2" for j in range(10000))
    for m, primes, budget, message in (("3", "3", "-1", "budget must be >= 0"),
                                       ("3", "1", "10", "1 is not prime"),
                                       ("0", "3", "10", "m must be >= 1")):
        started = time.perf_counter()
        code, out, err = run(capsys, "verify", "--f", squares, "--m", m, "--primes", primes,
                             "--budget", budget)
        assert time.perf_counter() - started < 1, message
        assert code == 2 and out == "" and err == f"error: {message}\n"


def test_over_long_input_integers_name_their_argument(capsys):
    long = "1" * 4401
    for flag, value in (("--f", f"x0^2+x1^2+{long}*x2^2"), ("--f", f"x0^2+x1^2+x2^{long}"),
                        ("--f", f"x0^2+x1^2+x{long}^2"),
                        ("--f", '{"n":3,"terms":[{"exps":[2,0,0],"coeff":%s}]}' % long),
                        ("--primes", f"5,{long}")):
        argv = {"--f": "x0^2+x1^2+x2^2", "--primes": "5", flag: value}
        code, out, err = run(capsys, "verify", "--f", argv["--f"], "--m", "4",
                             "--primes", argv["--primes"])
        assert code == 2 and out == "", value[:20]
        assert err == f"error: {flag} holds an integer of more than 4300 digits\n", value[:20]


@pytest.fixture
def digit_limit():
    # sets the interpreter's int-str digit limit for one test, then restores it
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-str digit limit")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def test_a_lowered_digit_limit_lowers_the_input_cap(capsys, digit_limit):
    # 640 digits is Python's least limit: over it, int() refuses to read
    digit_limit(640)
    long = "1" * 700
    for flag, value in (("--f", f"x0^2+x1^2+{long}*x2^2"),
                        ("--f", '{"n":3,"terms":[{"exps":[2,0,0],"coeff":%s}]}' % long),
                        ("--primes", f"5,{long}")):
        argv = {"--f": "x0^2+x1^2+x2^2", "--primes": "5", flag: value}
        code, out, err = run(capsys, "verify", "--f", argv["--f"], "--m", "4",
                             "--primes", argv["--primes"])
        assert code == 2 and out == "", value[:20]
        assert err == f"error: {flag} holds an integer of more than 640 digits\n", value[:20]
    code, out, err = run(capsys, "resolve", "--n", "9" * 641, "--d", "2", "--m", "4")
    assert code == 2 and out == "" and "error: argument --n: invalid integer value" in err
    assert "set_int_max_str_digits" not in err


def test_a_lowered_digit_limit_lowers_the_output_cap(capsys, digit_limit):
    digit_limit(640)
    big = str(10 ** 250)
    code, out, err = run(capsys, "euler", "--n", "3", "--d", big, "--m", big)
    assert code == 3 and out == ""
    assert err == ("error: output: an integer of more than 640 digits is over "
                   "the command-line cap\n")
    # a cap's message shows no size the interpreter would refuse to print
    code, out, err = run(capsys, "cohomology", "--n", "9" * 640, "--d", "2", "--m", "4")
    assert code == 3 and out == ""
    assert err.startswith("error: degrees of S (2n): a number too long to print is over")
    # the longest integer the interpreter prints still prints
    code, out, err = run(capsys, "nash", "--n", "9" * 640, "--d", "2", "--m", "1")
    assert code == 0 and "9" * 640 in out


def test_no_digit_limit_keeps_the_cap_of_4300(capsys, digit_limit):
    digit_limit(0)  # 0 lifts the interpreter's limit
    code, out, err = run(capsys, "verify", "--f", "x0^2+x1^2+x2^2", "--m", "4",
                         "--primes", "1" * 4301)
    assert code == 2 and err == "error: --primes holds an integer of more than 4300 digits\n"


def test_help_text_reads_the_domain_table(capsys):
    for command, domain in (("resolve", CHAIN), ("nash", CHAIN), ("cohomology", COHOMOLOGY),
                            ("floer", COHOMOLOGY), ("euler", COHOMOLOGY)):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert f"number of variables (>= {domain.n_min})" in out
        assert f"degree of the initial form (>= {domain.d_min})" in out
