"""The library's records: immutable values, equal and hashed by value,
validated where their constructors validate, printed as they always were;
the one rule for an integer argument, ``_record.checked_int``, and the one
judge of an exact value, ``_record.scalar``."""

from fractions import Fraction

import numpy as np
import pytest

from graphpotentials._record import checked_int, scalar
from graphpotentials.algebra import LaurentPoly, RationalExpr, ts_exp
from graphpotentials.graphs import (
    ColoredGraph,
    Edge,
    Leaf,
    Vertex,
    dumbbell_graph,
    enumerate_trivalent,
    mgamma_member,
    necklace_graph,
    theta_graph,
)
from graphpotentials.mutation import MutationCertificate, mutate
from graphpotentials.periods import PeriodSequence, constant_terms_of_powers, walk_terms
from graphpotentials.potential import (
    PotentialBundle,
    graph_potential,
    quadrivalent_potential,
    vertex_potential,
)
from graphpotentials.tqft import (
    BoundaryState,
    bessel,
    flip_operator,
    k_state,
    kernel_trace,
    necklace_state,
    t1_kernel,
    trace_formula_table,
    trace_periods,
    wdvv_check,
)

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
    assert x != "other" and x.__eq__(object()) is NotImplemented
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
    with pytest.raises(AttributeError):
        delattr(x, field)


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
    (lambda: PeriodSequence(-1, ()), ValueError, "order must be an int >= 0"),
    (lambda: PeriodSequence(0.0, (1,)), ValueError, "order must be an int >= 0"),
    (lambda: PeriodSequence(True, (1, 0)), ValueError, "order must be an int >= 0"),
    (lambda: PeriodSequence(1, (1, 0.5)), ValueError, "pi holds a float"),
    (lambda: RationalExpr(poly({(1, 0): 1}), LaurentPoly(("a",), {(0,): 1})), ValueError,
     "must share variables"),
    (lambda: RationalExpr(poly({(1, 0): 1}), LaurentPoly.zero(AB)), ZeroDivisionError,
     "zero denominator"),
], ids=["period-length", "period-pi0", "period-negative-order", "period-float-order",
        "period-bool-order", "period-float-value", "rexpr-vars", "rexpr-zero"])
def test_validating_constructors_refuse(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_period_sequence_takes_a_bool_as_its_int():
    seq = PeriodSequence(1, (1, False))
    assert seq.pi == (1, 0) and [type(x) for x in seq.pi] == [int, int]


# an entry that takes an exact value -> how it keeps one (mgamma_member: whether
# it is a member), and how it refuses one
EXACT_ENTRIES = {
    "LaurentPoly.constant": (lambda v: LaurentPoly.constant(("a",), v).terms[(0,)],
                             TypeError, "expected an int or Fraction coefficient, got "),
    "PeriodSequence": (lambda v: PeriodSequence(1, (1, v)).pi[1], ValueError, "pi holds a "),
    "BoundaryState": (lambda v: BoundaryState(0, ("a",), [{(0,): v}]).terms[0][(0,)],
                      ValueError, r"term \(0,\) is "),
    # theta's vertex sums are 3v, integral at v = 1 only
    "mgamma_member": (lambda v: mgamma_member(theta_graph(), dict.fromkeys("abc", v)),
                      ValueError, "weight of edge 'a' is "),
}
EXACT_VALUES = {"int": 1, "bool": True, "fraction": Fraction(1, 2), "float": 0.5, "str": "1",
                "int64": np.int64(1)}


@pytest.mark.parametrize("value", list(EXACT_VALUES))
@pytest.mark.parametrize("entry", list(EXACT_ENTRIES))
def test_every_exact_value_has_one_judge(entry, value):
    # each entry accepts what scalar accepts and keeps the judged value;
    # BoundaryState takes an exact int only, as a bool prints as True
    keep, error, match = EXACT_ENTRIES[entry]
    v = EXACT_VALUES[value]
    if scalar(v) is None or (entry == "BoundaryState" and type(v) is not int):
        with pytest.raises(error, match=match + type(v).__name__):
            keep(v)
    else:
        want = scalar(v) == 1 if entry == "mgamma_member" else scalar(v)
        got = keep(v)
        assert got == want and type(got) is type(want)


def test_period_sequence_keeps_a_tuple():
    seq = PeriodSequence(1, [1, 0])
    assert seq.pi == (1, 0) and type(seq.pi) is tuple
    assert hash(seq) == hash(PeriodSequence(1, (1, 0)))


def test_potential_is_the_sum_on_every_read():
    bundle = graph_potential(theta_graph(1))
    total = bundle.potential
    assert total == bundle.potential and total is not bundle.potential
    assert total.vars == bundle.variables


W_X = LaurentPoly(("x",), {(1,): 1, (-1,): 1})
OPEN_G1 = necklace_graph(1, open_ends=True)
QUAD = ("a", "b", "c", "d")

# every order, parity, genus, flip count and kernel mode argument of the
# library: (what the message names, the call with that argument set to the
# value, the refused values: a bool, a float and one out of range)
INTEGER_SITES = {
    "PeriodSequence-order": ("order", lambda v: PeriodSequence(v, (1,)), (True, 0.0, -1)),
    "walk_terms-order": ("order", lambda v: walk_terms([W_X], v), (True, 2.0, -1)),
    "constant_terms_of_powers-order": ("order", lambda v: constant_terms_of_powers(W_X, v),
                                       (True, 2.0, -1)),
    "k_state-order": ("order", lambda v: k_state(OPEN_G1, v), (True, 2.0, -1)),
    "ts_exp-order": ("order", lambda v: ts_exp(W_X, v), (True, 2.5, -1)),
    "power": ("power", lambda v: W_X ** v, (True, 2.0, -1)),
    "bessel-order": ("order", bessel, (True, 2.0, -1)),
    "BoundaryState-order": ("order", lambda v: BoundaryState(v, ("x", "y"), [{}, {}]), (True, 1.0, -1)),
    "flip_operator-order": ("order", flip_operator, (True, 2.0, -1)),
    "t1_kernel-order": ("order", t1_kernel, (True, 2.0, -1)),
    "kernel_trace-flips": ("flips", lambda v: kernel_trace(t1_kernel(4), v), (True, 1.0, -1)),
    "entry-mode-i": ("mode", lambda v: t1_kernel(4).entry(v, 1), (True, 1.0, 5)),
    "entry-mode-j": ("mode", lambda v: t1_kernel(4).entry(1, v), (False, 0.0, -5)),
    "trace_periods-parity": ("parity", lambda v: trace_periods(3, v, 4), (True, 1.0, 2)),
    "trace_periods-genus": ("genus", lambda v: trace_periods(v, 1, 4), (True, 2.5, 1)),
    "trace_formula_table-g_max": ("g_max", lambda v: trace_formula_table(v, 4), (True, 3.5, 1)),
    "necklace_state-parity": ("parity", lambda v: necklace_state(2, v, 4), (True, 1.0, -1)),
    "necklace_state-genus": ("genus", lambda v: necklace_state(v, 1, 4), (True, 2.5, 0)),
    "wdvv_check-parity": ("parity", lambda v: wdvv_check(v, 4), (True, 1.0, 2)),
    "vertex_potential-parity": ("parity", lambda v: vertex_potential(("a", "b", "c"), v),
                                (True, 1.0, 2)),
    "quadrivalent_potential-parity": ("parity", lambda v: quadrivalent_potential(QUAD, "z", v),
                                      (True, 1.0, 2)),
    "theta_graph-parity": ("parity", theta_graph, (True, 1.5, 2)),
    "dumbbell_graph-parity": ("parity", dumbbell_graph, (True, 1.0, 3)),
    "necklace_graph-parity": ("parity", lambda v: necklace_graph(3, parity=v), (True, 1.0, 2)),
    "necklace_graph-genus": ("genus", necklace_graph, (True, 2.5, 1)),
    "open-necklace_graph-genus": ("genus", lambda v: necklace_graph(v, open_ends=True),
                                  (True, 1.0, 0)),
    "enumerate_trivalent-genus": ("genus", enumerate_trivalent, (True, 3.0, 7)),
    "enumerate_trivalent-leaves": ("leaves", lambda v: enumerate_trivalent(1, v), (True, 2.0, -1)),
}


@pytest.mark.parametrize("what,call,value", [
    pytest.param(what, call, value, id=f"{site}-{value!r}")
    for site, (what, call, values) in INTEGER_SITES.items() for value in values])
def test_integer_arguments_follow_one_rule(what, call, value):
    with pytest.raises(ValueError, match=f"^{what} must be an int .*, got {value!r}$"):
        call(value)


def test_checked_int_returns_an_int_in_range():
    assert checked_int(3, 0, what="order") == 3
    assert checked_int(1, 0, 1, what="parity") == 1
    with pytest.raises(ValueError, match="^parity must be an int from 0 to 1, got 2$"):
        checked_int(2, 0, 1, what="parity")
    with pytest.raises(ValueError, match="^genus must be an int >= 2, got 1.0$"):
        checked_int(1.0, 2, what="genus")
