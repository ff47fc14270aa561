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

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

from .algebra import LaurentPoly
from .graphs import ColoredGraph, genus, require_valid, vertex_slots

DEFAULT_ORIENTATION = {0: "out", 1: "in"}


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
    pos = {v: i for i, v in enumerate(vs)}
    terms: dict[tuple, int] = {}
    for signs in product((1, -1), repeat=3):
        if sum(s == -1 for s in signs) % 2 != parity:
            continue
        e = [0] * len(vs)
        for v, s in zip(slots, signs):
            e[pos[v]] += s
        key = tuple(e)
        terms[key] = terms.get(key, 0) + 1
    return LaurentPoly(vs, terms)


@dataclass(frozen=True)
class PotentialBundle:
    """A graph together with its potential, split by vertex.

    All polynomials live over the full variable tuple (every internal edge
    id and leaf id of the graph); ``potential`` is the sum of the
    ``per_vertex`` values.
    """

    graph: ColoredGraph
    variables: tuple[str, ...]
    per_vertex: Mapping[str, LaurentPoly]
    potential: LaurentPoly


def graph_potential(g: ColoredGraph) -> PotentialBundle:
    require_valid(g)
    variables = tuple(sorted([e.id for e in g.edges] + [x.id for x in g.leaves]))
    orientation = {x.id: x.orientation for x in g.leaves}
    slots = vertex_slots(g)
    per_vertex = {}
    total = LaurentPoly.zero(variables)
    for v in g.vertices:
        w = vertex_potential([s[1] for s in slots[v.id]], v.color)
        for s in slots[v.id]:
            if s[0] == "leaf" and orientation[s[1]] != DEFAULT_ORIENTATION[v.color]:
                w = w.negate_var(s[1])
        w = w.embed(variables)
        per_vertex[v.id] = w
        total = total + w
    return PotentialBundle(g, variables, per_vertex, total)


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
    slots = vertex_slots(g)
    surviving = {}
    for vid, w in bundle.per_vertex.items():
        marked = distinguished.get(vid)
        if marked is None:
            raise ValueError(f"vertex {vid}: no distinguished slot")
        if marked not in [s[1] for s in slots[vid]]:
            raise ValueError(f"vertex {vid}: {marked!r} is not an incident slot")
        i = bundle.variables.index(marked)
        for e, c in w.terms.items():
            # tau-degree of tau times the rescaled monomial; only the slots of vid occur in e
            k = 1 + e[i] - (sum(e) - e[i])
            if k < 0:
                raise ArithmeticError("negative tau power; the limit does not exist")
            if k == 0:
                key = e[:i] + (-e[i],) + e[i + 1:]
                surviving[key] = surviving.get(key, 0) + c
    return LaurentPoly(bundle.variables, surviving)
