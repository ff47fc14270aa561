"""Graph potentials of colored trivalent graphs.

Each vertex of color c contributes the sum of the four sign-monomials
``x1^(+-1) x2^(+-1) x3^(+-1)`` over its three incident slots whose number
of inverted slots is congruent to c mod 2.  A loop occupies two slots with
the same variable, so its exponents add; coinciding sign-monomials merge
into a single term with coefficient 2.  Leaves contribute their own
variable, inverted when the stored orientation disagrees with the default
for the vertex color (out at color 0, in at color 1).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Mapping, NamedTuple, Sequence

from .algebra import LaurentPoly, sum_over
from .graphs import ColoredGraph, Vertex, genus, require_valid, vertex_slots

DEFAULT_ORIENTATION = {0: "out", 1: "in"}


# the sign patterns of each parity: an even or odd number of inverted slots
_SIGNS = {p: tuple(s for s in product((1, -1), repeat=3) if s.count(-1) % 2 == p) for p in (0, 1)}


def vertex_potential(slots: Sequence[str], parity: int) -> LaurentPoly:
    """Potential of a single trivalent vertex with the given slot variables.

    ``slots`` has length 3; a repeated variable encodes a loop.  The result
    lives over the distinct slot variables.
    """
    if len(slots) != 3:
        raise ValueError(f"a trivalent vertex has 3 slots, got {len(slots)}")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    vs = tuple(sorted(set(slots)))
    at = [vs.index(v) for v in slots]
    terms: dict[tuple, int] = {}
    for signs in _SIGNS[parity]:
        e = [0] * len(vs)
        for i, s in zip(at, signs):
            e[i] += s
        key = tuple(e)
        terms[key] = terms.get(key, 0) + 1  # counts, never zero
    return LaurentPoly._raw(vs, terms)


class PotentialBundle(NamedTuple):
    """A graph, its :func:`vertex_slots` table and the potential built from that
    table, split by vertex: ``per_vertex[v]`` lives over the sorted distinct
    slot variables of v, leaf signs applied.  ``variables`` (the internal edge
    and leaf ids) and ``potential``, the sum over them, are built on every read."""

    graph: ColoredGraph
    slots: Mapping[str, list[tuple]]
    per_vertex: Mapping[str, LaurentPoly]

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted([e.id for e in self.graph.edges] + [x.id for x in self.graph.leaves]))

    @property
    def potential(self) -> LaurentPoly:
        return sum_over(self.variables, self.per_vertex.values())


def graph_potential(g: ColoredGraph) -> PotentialBundle:
    require_valid(g)
    slots = vertex_slots(g)
    return PotentialBundle(g, slots, _vertex_potentials(g, slots, g.vertices))


def moved_bundle(bundle: PotentialBundle, moved: ColoredGraph,
                 changed: Sequence[str]) -> tuple[PotentialBundle, bool]:
    """The bundle of ``moved``, a graph that a move made from ``bundle.graph``
    and that differs from it at the vertices ``changed`` alone, and whether it
    does.

    Only the potentials at ``changed`` are built; every other vertex keeps its
    potential from ``bundle``.  That is right exactly when the returned bool
    holds: every other vertex has the same color, the same row of
    :func:`vertex_slots` and the same orientations of its leaves in both
    graphs, read off ``bundle.slots`` and a fresh table of ``moved`` that the
    moved bundle keeps, so that the check does not rest on the move code.
    """
    require_valid(moved)
    slots = vertex_slots(moved)
    rebuilt = _vertex_potentials(moved, slots, (v for v in moved.vertices if v.id in changed))
    out = PotentialBundle(moved, slots, {**bundle.per_vertex, **rebuilt})
    return out, _vertex_data(bundle, changed) == _vertex_data(out, changed)


def _vertex_potentials(g: ColoredGraph, slots: Mapping[str, list[tuple]],
                       vertices: Iterable[Vertex]) -> dict[str, LaurentPoly]:
    """The potentials of ``vertices``, vertices of g, from g's slot table."""
    orientation = {x.id: x.orientation for x in g.leaves}
    per_vertex = {}
    for v in vertices:
        w = vertex_potential([s[1] for s in slots[v.id]], v.color)
        for s in slots[v.id]:
            if s[0] == "leaf" and orientation[s[1]] != DEFAULT_ORIENTATION[v.color]:
                w = w.negate_var(s[1])
        per_vertex[v.id] = w
    return per_vertex


def _vertex_data(bundle: PotentialBundle, changed: Sequence[str]):
    """What the potentials of the vertices outside ``changed`` are built
    from: their colors, their slots and the orientations of their leaves."""
    return ({v.id: v.color for v in bundle.graph.vertices if v.id not in changed},
            {v: row for v, row in bundle.slots.items() if v not in changed},
            {x.id: x.orientation for x in bundle.graph.leaves if x.vertex not in changed})


def quadrivalent_potential(slots: Sequence[str], z: str, parity: int) -> LaurentPoly:
    """Potential of a quadrivalent vertex split along a fresh edge z.

    Equals ``mu * z**-1 + z`` where mu is the product of the mutation
    factors for the given parity:

    * parity 0: (ab+cd)(ad+bc)(ac+bd)(1+abcd) / (abcd)^2
    * parity 1: (a+bcd)(b+acd)(c+abd)(d+abc) / (abcd)^2

    Slot variables may repeat; z must be distinct from all of them.
    """
    if len(slots) != 4:
        raise ValueError(f"a quadrivalent vertex has 4 slots, got {len(slots)}")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if z in slots:
        raise ValueError(f"the split variable {z!r} collides with a slot")
    target = tuple(sorted(set(slots) | {z}))
    a, b, c, d = (LaurentPoly.variable(target, s) for s in slots)
    if parity == 0:
        mu = (a * b + c * d) * (a * d + b * c) * (a * c + b * d) \
            * (LaurentPoly.one(target) + a * b * c * d)
    else:
        mu = (a + b * c * d) * (b + a * c * d) * (c + a * b * d) * (d + a * b * c)
    for s in slots:
        mu = mu * LaurentPoly.variable(target, s, -2)
    return mu * LaurentPoly.variable(target, z, -1) + LaurentPoly.variable(target, z)


def grassmannian_limit(g: ColoredGraph, distinguished: Mapping[str, str]) -> LaurentPoly:
    """Degenerate the potential of a genus-0 uncolored graph.

    Every vertex must name one incident slot variable as distinguished.
    Per vertex the slots (x, y, z) with x distinguished are rescaled by an
    auxiliary variable tau as x -> tau/x, y -> y/tau, z -> z/tau; the
    result is the tau^0 part of tau times the rescaled potential, taken of
    the graph's own potential, leaf orientations included.  On all-out
    leaves three of the four sign-monomials of each vertex survive.
    """
    bundle = graph_potential(g)
    if genus(g) != 0:
        raise ValueError("the degeneration is defined for genus-0 graphs")
    if any(v.color != 0 for v in g.vertices):
        raise ValueError("the degeneration is defined for uncolored graphs")
    unknown = sorted(set(distinguished) - set(bundle.per_vertex))
    if unknown:
        raise ValueError(f"distinguished slots name no vertex: {', '.join(unknown)}")
    surviving = []
    for vid, w in bundle.per_vertex.items():
        marked = distinguished.get(vid)
        if marked is None:
            raise ValueError(f"vertex {vid}: no distinguished slot")
        if marked not in w.vars:
            raise ValueError(f"vertex {vid}: {marked!r} is not an incident slot")
        i = w.vars.index(marked)
        terms = {}
        for e, c in w.terms.items():
            # tau-degree of tau times the rescaled monomial
            k = 1 + e[i] - (sum(e) - e[i])
            if k < 0:
                raise ArithmeticError("negative tau power; the limit does not exist")
            if k == 0:
                terms[e[:i] + (-e[i],) + e[i + 1:]] = c
        surviving.append(LaurentPoly(w.vars, terms))
    return sum_over(bundle.variables, surviving)
