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
from .graphs import ColoredGraph, genus, require_valid

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
    per_vertex = {}
    total = LaurentPoly.zero(variables)
    for v in g.vertices:
        slots = []
        for e in g.edges:
            for end in e.ends:
                if end == v.id:
                    slots.append(e.id)
        leaf_slots = [x for x in g.leaves if x.vertex == v.id]
        slots.extend(x.id for x in leaf_slots)
        w = vertex_potential(slots, v.color)
        for x in leaf_slots:
            if x.orientation != DEFAULT_ORIENTATION[v.color]:
                w = w.negate_var(x.id)
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
    gen = ("qa", "qb", "qc", "qd")
    a, b, c, d = (LaurentPoly.variable(gen, v) for v in gen)

    def mono(*exps):
        return LaurentPoly(gen, {tuple(exps): 1})

    if parity == 0:
        mu = (a * b + c * d) * (a * d + b * c) * (a * c + b * d) \
            * (LaurentPoly.one(gen) + a * b * c * d)
    else:
        mu = (a + b * c * d) * (b + a * c * d) * (c + a * b * d) * (d + a * b * c)
    mu = mu * mono(-2, -2, -2, -2)
    mapping = {gv: (1, {sv: 1}) for gv, sv in zip(gen, slots)}
    target = tuple(sorted(set(slots) | {z}))
    mu = mu.substitute_monomial(mapping, target)
    return mu * LaurentPoly.variable(target, z, -1) + LaurentPoly.variable(target, z)


def grassmannian_limit(g: ColoredGraph, distinguished: Mapping[str, str]) -> LaurentPoly:
    """Degenerate the potential of a genus-0 uncolored graph.

    Every vertex must name one incident slot variable as distinguished.
    Per vertex the slots (x, y, z) with x distinguished are rescaled by an
    auxiliary variable tau as x -> tau/x, y -> y/tau, z -> z/tau; the
    result is the tau^0 part of tau times the rescaled potential.  Three of
    the four sign-monomials of each vertex survive.
    """
    require_valid(g)
    if genus(g) != 0:
        raise ValueError("the degeneration is defined for genus-0 graphs")
    if any(v.color != 0 for v in g.vertices):
        raise ValueError("the degeneration is defined for uncolored graphs")
    variables = tuple(sorted([e.id for e in g.edges] + [x.id for x in g.leaves]))
    tau = "_tau"
    while tau in variables:
        tau = "_" + tau
    augmented = tuple(sorted(variables + (tau,)))
    acc = LaurentPoly.zero(augmented)
    for v in g.vertices:
        slots = []
        for e in g.edges:
            for end in e.ends:
                if end == v.id:
                    slots.append(e.id)
        slots.extend(x.id for x in g.leaves if x.vertex == v.id)
        marked = distinguished.get(v.id)
        if marked is None:
            raise ValueError(f"vertex {v.id}: no distinguished slot")
        if marked not in slots:
            raise ValueError(f"vertex {v.id}: {marked!r} is not an incident slot")
        w = vertex_potential(slots, 0)
        mapping = {}
        for s in set(slots):
            if s == marked:
                mapping[s] = (1, {s: -1, tau: 1})
            else:
                mapping[s] = (1, {s: 1, tau: -1})
        acc = acc + w.substitute_monomial(mapping, augmented)
    tau_idx = augmented.index(tau)
    surviving = {}
    for e, c in acc.terms.items():
        k = e[tau_idx] + 1  # multiply by tau
        if k < 0:
            raise ArithmeticError("negative tau power; the limit does not exist")
        if k == 0:
            key = tuple(x for i, x in enumerate(e) if i != tau_idx)
            surviving[key] = c
    return LaurentPoly(variables, surviving)


def newton_support(p: LaurentPoly) -> list[tuple[int, ...]]:
    """Sorted exponent vectors of the nonzero terms."""
    return p.support()
