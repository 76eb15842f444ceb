import pytest

from contactloci import resolution
from contactloci.nash import ValuationReport, valuation_report
from contactloci.resolution import CoprimePair, Divisor, build_minimal_resolution

GRID = [(n, d, m) for n in (2, 3, 4, 6) for d in (1, 2, 3, 4, 7) for m in range(1, 25)]


def tuples(divisors):
    return [div.pair for div in divisors]


def test_essential_examples():
    assert tuples(valuation_report(3, 2, 4).essential) == [(0, 1), (2, 1)]
    assert valuation_report(3, 2, 1).essential == ()
    assert tuples(valuation_report(3, 4, 8).essential) == [(0, 1), (4, 1)]


def test_contact_examples():
    assert tuples(valuation_report(3, 2, 4).contact) == [(2, 1)]
    assert tuples(valuation_report(3, 4, 8).contact) == [(0, 1), (4, 1)]
    assert valuation_report(3, 2, 1).contact == ()


def test_dlt_examples():
    assert valuation_report(3, 2, 4).dlt == ()
    assert tuples(valuation_report(3, 4, 8).dlt) == [(0, 1), (4, 1)]
    assert tuples(valuation_report(3, 3, 7).dlt) == [(1, 2), (4, 1)]


def test_codimension_examples():
    assert dict(valuation_report(3, 2, 4).codims)[-1] == 5
    assert dict(valuation_report(3, 4, 8).codims)[-2] == 6
    # on the diagonal d = n the codimension is m for every stratum
    assert valuation_report(4, 4, 8).codims == ((-2, 8), (-1, 8))


def test_report_builds_each_m_divisor_once(monkeypatch):
    built = []

    def counting(n, d, m, i, build=resolution._m_divisor):
        built.append(i)
        return build(n, d, m, i)

    monkeypatch.setattr(resolution, "_m_divisor", counting)
    valuation_report(3, 2, 9)
    valuation_report(3, 4, 9)
    assert built == [-4, -3, -2, -1, -2, -1]


def test_report_rejects_parameters_outside_the_domain():
    for bad in ((1, 2, 4), (2, 0, 4), (2, 2, 0)):
        with pytest.raises(ValueError):
            valuation_report(*bad)


def test_report_counts_examples():
    assert valuation_report(3, 2, 4).counts() == (0, 1, 2)
    assert valuation_report(3, 4, 8).counts() == (2, 2, 2)
    assert valuation_report(3, 2, 1).counts() == (0, 0, 0)


def test_counts_over_grid():
    for n, d, m in GRID:
        dlt, contact, essential = valuation_report(n, d, m).counts()
        assert essential == m // d, (n, d, m)
        if d < n:
            assert dlt == 0
            assert contact == (1 if m >= d else 0)
        else:
            assert dlt == contact == essential


def test_families_are_nested():
    for n, d, m in GRID:
        report = valuation_report(n, d, m)
        essential = set(tuples(report.essential))
        contact = set(tuples(report.contact))
        dlt = set(tuples(report.dlt))
        assert dlt <= contact <= essential


def test_codimension_monotonicity():
    for n, d, m in GRID:
        report = valuation_report(n, d, m)
        codims = [c for _, c in sorted(report.codims)]
        if len(codims) < 2:
            continue
        deltas = [b - a for a, b in zip(codims, codims[1:])]
        if d >= n:
            assert all(delta >= 0 for delta in deltas)
        else:
            assert all(delta < 0 for delta in deltas)
            assert dict(report.codims)[-1] <= m - d + n


def test_reported_divisors_live_on_the_chain():
    for n, d, m in [(3, 2, 10), (3, 4, 12), (4, 4, 8), (2, 3, 9)]:
        chain = build_minimal_resolution(n, d, m)
        chain_pairs = {div.pair for div in chain}
        report = valuation_report(n, d, m)
        for div in report.essential:
            assert div.pair in chain_pairs
            assert m % div.multiplicity == 0


def test_counting_works_for_two_variables():
    # n = 2 is accepted for counting; the topology modules require n >= 3
    assert valuation_report(2, 3, 7).counts() == (2, 2, 2)
    assert valuation_report(2, 1, 5).counts() == (0, 1, 5)


def test_report_round_trip():
    # the document the nash command prints rebuilds the report
    report = valuation_report(3, 4, 12)
    doc = report.to_doc()

    def divisors(rows):
        return tuple(Divisor(CoprimePair(row["kappa"], row["r"]), row["N"], row["nu"])
                     for row in rows)

    rebuilt = ValuationReport(doc["n"], doc["d"], doc["m"], divisors(doc["essential"]))
    assert rebuilt == report and rebuilt.to_doc() == doc
