"""Period sequences: constant terms of powers of a graph potential.

pi_k = [W^k]_0 is computed by brute force, by gluing: W comes as pieces, a
graph potential as its vertex potentials (a bare polynomial is split by its
terms' variables), and exp(tW) is the product of the pieces' exp(tw), each
kept d!-scaled (degree d is w^d).  Two series glue by weighing degree d_a of
one by C(d, d_a) and taking the constant term in their shared variables, as
vertex states glue along edges: :func:`contract`, which also composes the
kernels of ``tqft`` and joins two leaves of a state.  The cost grows with
the open legs of the widest glued state and the order, not with the whole
graph.  ``tqft.trace_periods`` checks this only brute-force engine in the same
integers, from the closed-form Bessel kernel, not from the vertex potentials.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from heapq import heappop, heappush
from operator import add, itemgetter, neg
from typing import Iterable, Iterator

from ._record import Record, checked_int, scalar

# algebra, graphs and potential are imported where they are used, so that the
# trace formula's commands, which load this module for contract, load none of
# them through it


class PeriodSequence(Record):
    """pi_0..pi_order, pi_0 = 1, order = len(pi) - 1, and the fingerprint of
    the graph they belong to, if any.  The values are exact, each judged by
    ``_record.scalar`` (a bool is kept as its int), and are kept as a tuple."""

    __slots__ = ("order", "pi", "graph_fingerprint")

    def __init__(self, pi: Iterable, graph_fingerprint: str | None = None):
        given = tuple(pi)
        pi = tuple(map(scalar, given))
        if None in pi:
            raise ValueError(f"pi holds a {type(given[pi.index(None)]).__name__}, "
                             "need int or Fraction")
        if pi[:1] != (1,):  # an empty pi too
            raise ValueError("pi[0] must be 1")
        self._set(len(pi) - 1, pi, graph_fingerprint)


def _pieces(p: LaurentPoly) -> list[LaurentPoly]:
    """p's terms as pieces over their own variables: a term joins the smallest maximal
    support that holds it, so that no term starts a piece of its own and pieces stay narrow."""
    from .algebra import LaurentPoly

    groups: dict[tuple, dict] = {}  # a piece's variable indices -> its terms
    for e in sorted(p.terms, key=lambda e: -sum(map(bool, e))):  # the widest terms first
        s = tuple(i for i, x in enumerate(e) if x)
        at = min((t for t in groups if set(s) <= set(t)), key=len, default=s)
        groups.setdefault(at, {})[tuple(e[i] for i in at)] = p.terms[e]
    return [LaurentPoly._raw(tuple(p.vars[i] for i in at), terms) for at, terms in groups.items()]


def _prune(terms: dict, room: int, limits: list) -> dict:
    """Nonzero terms whose every leg j, bounded by b in W, can cancel: |k[j]| <= b * room."""
    lim = [(j, b * room) for j, b in limits]
    return {k: c for k, c in terms.items() if c and all(-m <= k[j] <= m for j, m in lim)}


def _exp(local: frozenset, legs: tuple, bounds: tuple, order: int) -> list:
    """The d!-scaled exp(tw) of a piece: w^d, constant off its legs; kept ones have bound None."""
    limits = [(j, b) for j, b in enumerate(bounds) if b is not None]
    inner = [j for j in range(len(bounds)) if j not in legs]
    power, out = {(0,) * len(bounds): 1}, []
    for d in range(order + 1):
        if d:
            nxt: dict[tuple, int] = {}
            for e, c in power.items():
                for f, k in local:
                    g = tuple(map(add, e, f))
                    nxt[g] = nxt.get(g, 0) + c * k
            power = _prune(nxt, order - d, limits)
        out.append({tuple(g[j] for j in legs): c for g, c in power.items()
                    if not any(g[j] for j in inner)} if inner else power)
    return out


def _pick(at: list):
    """The exponents at positions ``at`` of a key: a bare int for one leg, else a tuple."""
    return itemgetter(*at or [slice(0)])  # no legs: k[:0], the empty tuple


def _joined(acc: dict, na: int, nb: int) -> dict:
    """acc[x][z] keyed by x's legs then z's, zeros left out; a one-leg key is bare."""
    if na == nb == 1:
        return {(x, z): c for x, r in acc.items() for z, c in r.items() if c}
    if na == 1:
        acc = {(x,): r for x, r in acc.items()}
    if nb == 1:
        return {x + (z,): c for x, r in acc.items() for z, c in r.items() if c}
    return {x + z: c for x, r in acc.items() for z, c in r.items() if c}


def contract(a: tuple, b: tuple, bound: dict) -> tuple:
    """Glue two states (legs, order + 1 degree dicts each) along the legs they share.

    Degree d sums C(d, d_a) times an entry of a at d_a times one of b at
    d - d_a over the pairs whose shared exponents cancel; zero sums are left
    out.  The legs are a's open ones, then b's; a leg v in ``bound`` keeps the
    exponents that the remaining degrees, each moving v by bound[v], can cancel.
    """
    (la, ta), (lb, tb) = a, b
    if len(ta) != len(tb):
        raise ValueError(f"orders differ: {len(ta) - 1} and {len(tb) - 1}")
    order = len(ta) - 1
    shared = [v for v in la if v in lb]
    ra, rb = ([j for j, v in enumerate(legs) if v not in shared] for legs in (la, lb))
    (sa, xa), (sb, xb) = ((_pick([legs.index(v) for v in shared]), _pick(r))
                          for legs, r in ((la, ra), (lb, rb)))
    negate = neg if len(shared) == 1 else (lambda s: tuple(map(neg, s)))
    gb = [{} for _ in tb]  # b by negated shared exponents -> [(rest exponents, c)]
    for g, t in zip(gb, tb):
        for s, xc in zip(map(negate, map(sb, t)), zip(map(xb, t), t.values())):
            g.setdefault(s, []).append(xc)
    sp = [list(zip(map(sa, t), map(xa, t), t.values())) for t in ta]
    out = []
    for d in range(order + 1):
        acc: dict = {}  # a's rest -> b's rest -> c
        for da in range(d + 1):
            if not (sp[da] and gb[d - da]):
                continue
            w, y = math.comb(d, da), gb[d - da]
            for s, x, ca in sp[da]:
                row = y.get(s)
                if row:
                    cw = w * ca
                    r = acc.get(x)
                    if r is None:
                        r = acc[x] = {}
                    for z, cb in row:
                        r[z] = r.get(z, 0) + cw * cb
        out.append(_joined(acc, len(ra), len(rb)))
    legs = tuple(la[j] for j in ra) + tuple(lb[j] for j in rb)
    limits = [(j, bound[v]) for j, v in enumerate(legs) if v in bound]
    return legs, [_prune(t, order - d, limits) for d, t in enumerate(out)] if limits else out


def _gluing_order(legs: list[tuple]) -> Iterator[int]:
    """Indices of the pieces with these legs in the greedy order: next the one
    that leaves the fewest open legs, the first of a tie.  Gluing L legs, s of
    them open, opens L - 2s more, the key of a heap.  A leg is in at most two
    pieces, so a gluing lowers only the key of the other one at each leg, by 2."""
    holders: dict[str, list[int]] = {}
    for i, at in enumerate(legs):
        for v in at:
            holders.setdefault(v, []).append(i)
    key: list[int | None] = [len(at) for at in legs]  # None once glued
    heap = sorted((k, i) for i, k in enumerate(key))  # a sorted list is a heap
    while heap:
        k, i = heappop(heap)
        if k != key[i]:
            continue  # glued already, or its key has fallen since
        key[i] = None
        yield i
        for v in legs[i]:
            for j in holders[v]:
                if key[j] is not None:
                    key[j] -= 2
                    heappush(heap, (key[j], j))


def walk_terms(pieces: Iterable[LaurentPoly], order: int, kept: tuple[str, ...] = ()) -> list[dict]:
    """Terms of W^d constant in every variable not in ``kept``, d = 0..order,
    for W the sum of ``pieces``, each a polynomial over its own variables.

    Degree d maps the kept variables' exponents, in ``kept`` order, to exact
    coefficients of the pieces' types (ints for vertex potentials); nothing
    kept gives the periods.  Pieces are joined until no summed-out variable
    is in three and no kept one in two, then glued one at a time, next the
    one that leaves the fewest open legs.
    """
    from .algebra import sum_over

    checked_int(order, 0, what="order")
    pieces, keep = list(pieces), set(kept)
    while True:
        held = Counter(v for p in pieces for v in p.vars)
        v = next((v for v, n in held.items() if n > (1 if v in keep else 2)), None)
        if v is None:
            break
        group = [p for p in pieces if v in p.vars]
        pieces = [p for p in pieces if v not in p.vars]
        pieces.append(sum_over(sorted({u for p in group for u in p.vars}), group))
    if not keep <= held.keys() or len(keep) < len(kept):
        raise ValueError(f"kept variables must be distinct variables of the pieces, got {kept}")
    bound: dict[str, int] = {}  # the largest |exponent| of each summed-out variable
    for p in pieces:
        for j, v in enumerate(p.vars):
            if v not in keep:
                bound[v] = max(bound.get(v, 0), max((abs(e[j]) for e in p.terms), default=0))
    exp, series = cache(_exp), []  # one series per shape
    for p in pieces:
        legs = tuple(j for j, v in enumerate(p.vars) if v in keep or held[v] == 2)
        series.append((tuple(p.vars[j] for j in legs), exp(
            frozenset(p.terms.items()), legs, tuple(bound.get(v) for v in p.vars), order)))
    state = ((), [{(): 1}] + [{} for _ in range(order)])
    for i in _gluing_order([legs for legs, _ in series]):
        state = contract(state, series[i], bound)
    perm = [state[0].index(v) for v in kept]
    return [{tuple(k[j] for j in perm): c for k, c in t.items()} for t in state[1]]


def _check_backend(backend: str) -> None:
    if backend not in ("auto", "pure"):
        raise ValueError(f"backend {backend!r}: the only brute-force engine is 'auto' or 'pure'")


def constant_terms_of_powers(p: LaurentPoly, order: int, backend: str = "auto") -> list:
    """[p^k]_0 for k = 0..order, exactly.  ``backend`` is checked, not chosen:
    "auto" and "pure" both name :func:`walk_terms`, any other name raises ValueError."""
    _check_backend(backend)
    return [t.get((), 0) for t in walk_terms(_pieces(p), order)]


def periods_of_graph(g: ColoredGraph, order: int, method: str = "brute",
                     backend: str = "auto") -> PeriodSequence:
    """Period sequence of a closed connected colored graph.

    ``method="brute"`` expands powers of the potential; ``method="tqft"``
    reads the trace formula's integers, ``tqft.trace_periods``, at the
    graph's genus and coloring parity.
    Both agree; the tests cross-validate them.  ``backend`` is checked as
    in :func:`constant_terms_of_powers`.
    """
    from .graphs import homology_ranks_f2, require_valid

    if method not in ("brute", "tqft"):
        raise ValueError(f"unknown method {method!r}")
    _check_backend(backend)
    if method == "brute":
        from .potential import graph_potential

        pieces = graph_potential(g).per_vertex.values()  # validates g
    else:
        require_valid(g)
    if g.leaves:
        raise ValueError("periods are defined for leafless graphs")
    h0, h1 = homology_ranks_f2(g)
    if h0 != 1:
        raise ValueError("periods are defined for connected graphs")
    parity = g.coloring_parity()
    fp = f"g{h1}e{parity}"  # the genus and the coloring parity
    if method == "brute":
        return PeriodSequence((t.get((), 0) for t in walk_terms(pieces, order)), fp)
    from .tqft import trace_periods

    return PeriodSequence(trace_periods(h1, parity, order), fp)
