"""The library's records: immutable values, equal and hashed by value,
validated where their constructors validate, printed as they always were."""

import pytest

from graphpotentials.algebra import LaurentPoly, RationalExpr
from graphpotentials.graphs import ColoredGraph, Edge, Leaf, Vertex, theta_graph
from graphpotentials.mutation import MutationCertificate, mutate
from graphpotentials.periods import PeriodSequence
from graphpotentials.potential import PotentialBundle, graph_potential
from graphpotentials.tqft import BoundaryState, necklace_state

AB = ("a", "b")


def poly(terms):
    return LaurentPoly(AB, terms)


# record type -> a builder of equal, freshly made values for a key, and
# whether the value can be hashed (a dict or a list field cannot)
RECORDS = {
    Vertex: (lambda k: Vertex("v", k), True),
    Edge: (lambda k: Edge("e", ("a", f"b{k}")), True),
    Leaf: (lambda k: Leaf("x", "v", ("out", "in")[k]), True),
    ColoredGraph: (lambda k: theta_graph(k), True),
    PotentialBundle: (lambda k: graph_potential(theta_graph(k)), False),
    MutationCertificate: (lambda k: mutate(graph_potential(theta_graph(k)), "a")[1], True),
    BoundaryState: (lambda k: necklace_state(1, k, 4), False),
    PeriodSequence: (lambda k: PeriodSequence(2, (1, k, 2), "g2e0"), True),
    RationalExpr: (lambda k: RationalExpr(poly({(1, 0): 1}), poly({(0, 1): k + 1})), True),
}


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def record(request):
    return request.param


def test_equal_by_value(record):
    make, hashable = RECORDS[record]
    x, y, other = make(0), make(0), make(1)
    assert type(x) is record
    assert x is not y and x == y and not x != y
    assert x != other
    if hashable:
        assert hash(x) == hash(y)
        assert len({x, y, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(x)


def test_fields_cannot_be_assigned(record):
    x = RECORDS[record][0](0)
    field = next(iter(getattr(record, "_fields", None) or record.__slots__))
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        x.extra = 1


def test_records_print_as_before():
    assert repr(Vertex("v", 1)) == "Vertex(id='v', color=1)"
    assert repr(Edge("e", ("a", "b"))) == "Edge(id='e', ends=('a', 'b'))"
    assert repr(Leaf("x", "v", "in")) == "Leaf(id='x', vertex='v', orientation='in')"
    assert repr(PeriodSequence(1, (1, 0))) == \
        "PeriodSequence(order=1, pi=(1, 0), graph_fingerprint=None)"


def test_replace_makes_a_new_record():
    g = theta_graph()
    moved = g._replace(vertices=tuple(v._replace(color=1) for v in g.vertices))
    assert [v.color for v in moved.vertices] == [1, 1] and moved.edges == g.edges
    assert [v.color for v in g.vertices] == [0, 0]


@pytest.mark.parametrize("build,error,match", [
    (lambda: PeriodSequence(2, (1, 0)), ValueError, "need 3 values, got 2"),
    (lambda: PeriodSequence(1, (2, 0)), ValueError, r"pi\[0\] must be 1"),
    (lambda: PeriodSequence(-1, ()), ValueError, "order >= 0"),
    (lambda: PeriodSequence(0.0, (1,)), ValueError, "order >= 0"),
    (lambda: PeriodSequence(True, (1, 0)), ValueError, "order >= 0"),
    (lambda: PeriodSequence(1, (1, 0.5)), ValueError, "pi holds a float"),
    (lambda: PeriodSequence(1, (1, False)), ValueError, "pi holds a bool"),
    (lambda: RationalExpr(poly({(1, 0): 1}), LaurentPoly(("a",), {(0,): 1})), ValueError,
     "must share variables"),
    (lambda: RationalExpr(poly({(1, 0): 1}), LaurentPoly.zero(AB)), ZeroDivisionError,
     "zero denominator"),
], ids=["period-length", "period-pi0", "period-negative-order", "period-float-order",
        "period-bool-order", "period-float-value", "period-bool-value", "rexpr-vars",
        "rexpr-zero"])
def test_validating_constructors_refuse(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_period_sequence_keeps_a_tuple():
    seq = PeriodSequence(1, [1, 0])
    assert seq.pi == (1, 0) and type(seq.pi) is tuple
    assert hash(seq) == hash(PeriodSequence(1, (1, 0)))


def test_potential_is_the_sum_on_every_read():
    bundle = graph_potential(theta_graph(1))
    total = bundle.potential
    assert total == bundle.potential and total is not bundle.potential
    assert total.vars == bundle.variables
