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
from typing import Mapping, NamedTuple, Sequence

from .algebra import LaurentPoly, sum_over
from .graphs import ORIENTATIONS, ColoredGraph, genus, moved_vertices, require_valid, vertex_slots

DEFAULT_ORIENTATION = dict(enumerate(ORIENTATIONS))  # out at color 0, in at color 1


# the sign patterns of each parity: an even or odd number of inverted slots
_SIGNS = {p: tuple(s for s in product((1, -1), repeat=3) if s.count(-1) % 2 == p) for p in (0, 1)}


def vertex_potential(slots: Sequence[str], parity: int) -> LaurentPoly:
    """Potential of a single trivalent vertex with the given slot variables.

    ``slots`` has length 3; a repeated variable encodes a loop.  The result
    lives over the distinct slot variables.
    """
    if len(slots) != 3:
        raise ValueError(f"a trivalent vertex has 3 slots, got {len(slots)}")
    if type(parity) is not int or parity not in (0, 1):
        raise ValueError(f"parity must be the int 0 or 1, got {parity!r}")
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
    """A graph and its potential split by vertex: ``per_vertex[v]`` lives over
    the sorted distinct slot variables of v, leaf signs applied.  ``variables``
    (the internal edge and leaf ids) and ``potential``, the sum over them, are
    built on every read."""

    graph: ColoredGraph
    per_vertex: Mapping[str, LaurentPoly]

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted([e.id for e in self.graph.edges] + [x.id for x in self.graph.leaves]))

    @property
    def potential(self) -> LaurentPoly:
        return sum_over(self.variables, self.per_vertex.values())


def graph_potential(g: ColoredGraph) -> PotentialBundle:
    require_valid(g)
    return PotentialBundle(g, _vertex_potentials(g))


def moved_bundle(bundle: PotentialBundle, moved: ColoredGraph,
                 changed: Sequence[str]) -> tuple[PotentialBundle, bool]:
    """The bundle of ``moved``, a graph that a move made from ``bundle.graph``
    and that differs from it at the vertices ``changed`` alone, and whether it
    does: whether :func:`moved_vertices` of the two graphs, a check that does
    not rest on the move code, lies within ``changed``.

    Only the potentials at ``changed`` are built, and they refuse a degree,
    color or orientation that ``validate`` would; every other vertex keeps
    its potential from ``bundle``, which is right exactly when the bool holds.
    """
    diff = moved_vertices(bundle.graph, moved)
    out = PotentialBundle(moved, {**bundle.per_vertex, **_vertex_potentials(moved, changed)})
    return out, diff is not None and diff <= set(changed)


def _vertex_potentials(g: ColoredGraph, vids: Sequence[str] | None = None
                       ) -> dict[str, LaurentPoly]:
    """The potentials of g's vertices ``vids``, by default of all of them,
    from their rows of :func:`vertex_slots`.  A leaf's variable is inverted
    unless its orientation is its vertex color's default, ORIENTATIONS[color]."""
    slots = vertex_slots(g, vids)
    default_color = {x.id: ORIENTATIONS.index(x.orientation) for x in g.leaves}  # raises on others
    per_vertex = {}
    for v in (v for v in g.vertices if v.id in slots):
        w = vertex_potential([s[1] for s in slots[v.id]], v.color)
        for s in slots[v.id]:
            if s[0] == "leaf" and default_color[s[1]] != v.color:
                w = w.negate_var(s[1])
        per_vertex[v.id] = w
    return per_vertex


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
