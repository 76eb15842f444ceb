"""Value semantics of the library's immutable result types.

Every type is built twice by independent calls, so the two values are equal
without being the same object.  Equal values hash equal, survive pickle,
deepcopy and, where the type reads one back, their JSON documents, reject
assignment, and stay truthy when empty.  The constructor checks keep their messages.
"""

import copy
import pickle

import pytest

from contactloci.contact import GradedPiece, MotivicClass, contact_class, graded_pieces
from contactloci.domain import Domain
from contactloci.groups import FgAbGroup, GradedGroup
from contactloci.nash import ValuationReport, valuation_report
from contactloci.oracle import JetCountReport, count_contact_jets
from contactloci.poly import SparseIntPoly, parse_poly
from contactloci.resolution import (
    CoprimePair,
    Divisor,
    MDivisorList,
    ResolutionChain,
    build_minimal_resolution,
    m_divisors,
)
from contactloci.spectral import (
    ConditionReport,
    PairClass,
    SpectralPage,
    classify_pair,
    condition_degeneration,
    mclean_e1,
)
from contactloci.surface import HypersurfaceData, hypersurface_data

# type -> (a builder called twice, the field names in declaration order, then
# the attributes that the fields determine)
VALUES = {
    Domain: (lambda: Domain(3, 2, "a reason"), ("n_min", "d_min", "d_reason")),
    FgAbGroup: (lambda: FgAbGroup(2, [2, 4]), ("rank", "torsion")),
    GradedGroup: (lambda: GradedGroup(((3, FgAbGroup(1)), (0, FgAbGroup(0, (2,))))),
                  ("entries",)),
    GradedPiece: (lambda: graded_pieces(3, 2, 4)[0],
                  ("rho", "base_kind", "hyperplane_vars", "free_vars", "fiber_dim", "total_dim")),
    MotivicClass: (lambda: contact_class(3, 2, 4), ("terms",)),
    HypersurfaceData: (lambda: hypersurface_data.__wrapped__(3, 4),
                       ("n", "d", "middle", "milnor", "euler")),
    ResolutionChain: (lambda: build_minimal_resolution(3, 2, 12), ("n", "d", "m", "divisors")),
    MDivisorList: (lambda: m_divisors(build_minimal_resolution(3, 2, 12)), ("entries",)),
    SpectralPage: (lambda: mclean_e1(3, 2, 6), ("entries",)),
    ConditionReport: (lambda: condition_degeneration(3, 3, 9), ("violating_k", "holds")),
    PairClass: (lambda: classify_pair(3, 3),
                ("degeneration_violations", "filtration_violations", "color")),
    ValuationReport: (lambda: valuation_report(3, 2, 4),
                      ("n", "d", "m", "essential", "contact", "dlt", "codims")),
    SparseIntPoly: (lambda: parse_poly("x0^2+x1^2+2*x2^3"), ("nvars", "terms")),
    JetCountReport: (lambda: count_contact_jets(parse_poly("x0^2+x1^2+x2^2"), 3, 3),
                     ("prime", "m", "by_order", "cone_count", "milnor_count",
                      "predicted_by_order", "total_count")),
}

# A resolution chain keeps a lookup table beside its divisors; equality does
# not need a hash, and nothing hashes a chain.
UNHASHED = {ResolutionChain}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_type_semantics(cls):
    build, fields = VALUES[cls]
    a, b = build(), build()
    assert type(a) is cls and a == b and a is not b
    if cls not in UNHASHED:
        assert hash(a) == hash(b)
    if hasattr(cls, "from_doc"):
        assert cls.from_doc(a.to_doc()) == a
    for clone in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(clone) is cls and clone == a
    for name in fields:
        getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        a.no_such_field = 1
    assert a == b


def test_empty_values_are_truthy():
    for empty in (FgAbGroup(), GradedGroup(), MotivicClass()):
        assert empty and empty.is_zero


def test_chain_iterates_and_measures_its_divisors():
    chain = build_minimal_resolution(3, 2, 12)
    assert len(chain) == len(chain.divisors) and list(chain) == list(chain.divisors)
    assert ResolutionChain(3, 2, 12, chain.divisors) == chain
    assert ResolutionChain(3, 2, 13, chain.divisors) != chain


def test_constructors_normalise():
    assert FgAbGroup(1, [2, 4]).torsion == (2, 4)
    g = GradedGroup(((3, FgAbGroup(1)), (0, FgAbGroup(2))))
    assert g.entries == ((0, FgAbGroup(2)), (3, FgAbGroup(1)))
    assert MotivicClass((("S", 2, 1), ("Mh", 0, 1))).terms == (("Mh", 0, 1), ("S", 2, 1))
    assert SparseIntPoly(2, (((0, 2), 1), ((2, 0), 1))).terms == (((0, 2), 1), ((2, 0), 1))
    page = SpectralPage((((-1, 5), FgAbGroup(1)), ((-2, 3), FgAbGroup(1))))
    assert page.entries == (((-2, 3), FgAbGroup(1)), ((-1, 5), FgAbGroup(1)))
    assert GradedGroup().entries == () and FgAbGroup() == FgAbGroup(0, ())


DIV_FIRST = Divisor.for_params(CoprimePair(0, 1), 3, 2)

CHECKS = [
    (lambda: FgAbGroup(-1), "rank must be non-negative"),
    (lambda: FgAbGroup(0, (1,)), "invariant factor 1 is not >= 2"),
    (lambda: FgAbGroup(0, (4, 2)), r"invariant factors \(4, 2\) not ordered by divisibility"),
    (lambda: GradedGroup(((1, FgAbGroup(1)), (1, FgAbGroup(2)))), "duplicate degree 1"),
    (lambda: GradedGroup(((2, FgAbGroup()),)), "zero group stored at degree 2"),
    (lambda: MotivicClass((("X", 0, 1),)), "unknown basis symbol 'X'"),
    (lambda: MotivicClass((("S", -1, 1),)), "negative powers of L are not allowed"),
    (lambda: MotivicClass((("S", 0, 0),)), "zero terms must be dropped"),
    (lambda: MotivicClass((("S", 0, 1), ("S", 0, 2))), "duplicate terms"),
    (lambda: SparseIntPoly(0, ()), "need at least one variable"),
    (lambda: SparseIntPoly(2, (((1,), 1),)), r"exponent vector \(1,\) has wrong length"),
    (lambda: SparseIntPoly(1, (((-1,), 1),)), "negative exponent"),
    (lambda: SparseIntPoly(1, (((1,), 0),)), "zero coefficients must be dropped"),
    (lambda: SparseIntPoly(1, (((1,), 1), ((1,), 2))), r"duplicate exponent vector \(1,\)"),
    (lambda: ValuationReport(3, 2, 4, (DIV_FIRST,)), "wrong number of essential valuations"),
]


@pytest.mark.parametrize("make, message", CHECKS, ids=[message for _, message in CHECKS])
def test_constructor_checks_keep_their_messages(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()
