"""Period sequences: constant terms of powers of a graph potential.

pi_k = [W^k]_0 is computed by brute force, by gluing: the terms of W split
into pieces, a graph potential into its vertices, and exp(tW) is the product
of the pieces' exp(tw), each kept d!-scaled (degree d is w^d).  Two series
glue by weighing degree d_a of one by C(d, d_a) and taking the constant term
in their shared variables, as vertex states glue along edges: :func:`contract`,
which also composes the kernels of ``tqft``.  The cost grows with the open
legs of the widest glued state and the order, not with the whole graph.  The
trace formula checks this only brute-force engine from the closed-form Bessel
kernel, not from the vertex potentials.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
from operator import add, itemgetter, neg

from .algebra import LaurentPoly, TSeries
from .graphs import ColoredGraph, genus, homology_ranks_f2, require_valid
from .potential import graph_potential


@dataclass(frozen=True)
class PeriodSequence:
    order: int
    pi: tuple[int, ...]
    graph_fingerprint: str | None = None

    def __post_init__(self):
        if len(self.pi) != self.order + 1:
            raise ValueError(f"need {self.order + 1} values, got {len(self.pi)}")
        if self.pi[0] != 1:
            raise ValueError("pi[0] must be 1")


def _pieces(p: LaurentPoly, kept: set) -> tuple[dict, Counter]:
    """p's terms as pieces keyed by their variables, and how many pieces hold
    each variable.  A term joins a maximal variable set of a term; pieces are
    joined until no summed-out variable is in three pieces, no kept one in two."""
    supports = {frozenset(i for i, x in enumerate(e) if x) for e in p.terms}
    pieces: dict[frozenset, dict] = {s: {} for s in supports if not any(s < t for t in supports)}
    for e, c in p.terms.items():
        pieces[next(s for s in pieces if s >= {i for i, x in enumerate(e) if x})][e] = c
    while True:
        held = Counter(v for s in pieces for v in s)
        v = next((v for v, n in held.items() if n > (1 if v in kept else 2)), None)
        if v is None:
            return pieces, held
        group = [s for s in pieces if v in s]
        pieces[frozenset().union(*group)] = {e: c for s in group for e, c in pieces.pop(s).items()}


def _prune(terms: dict, room: int, limits: list) -> dict:
    """Nonzero terms whose every leg j, bounded by b in p, can cancel: |k[j]| <= b * room."""
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


def contract(a: tuple, b: tuple, order: int, bound: dict) -> tuple:
    """Glue two states (legs, order + 1 degree dicts) along the legs they share.

    Degree d sums C(d, d_a) times an entry of a at d_a times one of b at
    d - d_a over the pairs whose shared exponents cancel; zero sums are left
    out.  The legs are a's open ones, then b's; a leg v in ``bound`` keeps the
    exponents that the remaining degrees, each moving v by bound[v], can cancel.
    """
    (la, ta), (lb, tb) = a, b
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


def walk_terms(p: LaurentPoly, order: int, kept: tuple[str, ...] = ()) -> list[dict]:
    """Terms of p^d constant in every variable not in ``kept``, d = 0..order.

    Degree d maps the exponents of the kept variables, in ``p.vars`` order,
    to exact coefficients of the types ``p`` holds: ints for a graph
    potential.  Nothing kept gives the periods, the leaf variables kept a
    boundary state, and the four-point check keeps four.  The pieces are
    glued one at a time, next the one that leaves the fewest open legs.
    """
    if order < 0 or not set(kept) <= set(p.vars):
        raise ValueError(f"need an order >= 0 and kept variables of {p.vars}, got {order}, {kept}")
    keep = {p.vars.index(v) for v in kept}
    bound = {i: max((abs(e[i]) for e in p.terms), default=0)
             for i in range(len(p.vars)) if i not in keep}
    pieces, held = _pieces(p, keep)
    exp, series = cache(_exp), []  # one series per shape
    for s, terms in pieces.items():
        at = sorted(s)
        legs = tuple(j for j, i in enumerate(at) if i in keep or held[i] == 2)
        local = frozenset((tuple(e[i] for i in at), c) for e, c in terms.items())
        series.append((tuple(at[j] for j in legs),
                       exp(local, legs, tuple(bound.get(i) for i in at), order)))
    absent = tuple(i for i in sorted(keep) if not held[i])  # kept, but in no term
    state = (absent, [{(0,) * len(absent): 1}] + [{} for _ in range(order)])
    while series:
        i = min(range(len(series)), key=lambda i: len(set(state[0]) ^ set(series[i][0])))
        state = contract(state, series.pop(i), order, bound)
    perm = [state[0].index(i) for i in sorted(keep)]
    return [{tuple(k[j] for j in perm): c for k, c in t.items()} for t in state[1]]


def _check_backend(backend: str) -> None:
    if backend not in ("auto", "pure"):
        raise ValueError(f"unknown backend {backend!r}: the exact dict walk is the "
                         "only brute-force engine, named 'auto' or 'pure'")


def constant_terms_of_powers(p: LaurentPoly, order: int, backend: str = "auto") -> list:
    """[p^k]_0 for k = 0..order, exactly.  ``backend`` is checked, not chosen:
    "auto" and "pure" both name :func:`walk_terms`, any other name raises ValueError."""
    _check_backend(backend)
    return [t.get((), 0) for t in walk_terms(p, order)]


def periods_bruteforce(p: LaurentPoly, order: int,
                       fingerprint: str | None = None) -> PeriodSequence:
    return PeriodSequence(order, tuple(constant_terms_of_powers(p, order)), fingerprint)


def periods_from_laplace(hat: TSeries) -> tuple[int, ...]:
    """pi_k = k! * pi_hat_k for a Laplace-transformed period series.

    Raises ArithmeticError when some pi_k is not an integer.
    """
    pi = []
    for k, c in enumerate(hat.coeffs):
        v = c * math.factorial(k)
        if v.denominator != 1:
            raise ArithmeticError(f"period {k} is not integral: {v}")
        pi.append(v.numerator)
    return tuple(pi)


def graph_fingerprint(g: ColoredGraph) -> str:
    return f"g{genus(g)}e{g.coloring_parity()}"


def periods_of_graph(g: ColoredGraph, order: int, method: str = "brute",
                     backend: str = "auto") -> PeriodSequence:
    """Period sequence of a closed connected colored graph.

    ``method="brute"`` expands powers of the potential; ``method="tqft"``
    evaluates the trace formula at the graph's genus and coloring parity.
    Both agree; the tests cross-validate them.  ``backend`` is checked as
    in :func:`constant_terms_of_powers`.
    """
    _check_backend(backend)
    if method == "brute":
        potential = graph_potential(g).potential  # validates g
    else:
        require_valid(g)
    if g.leaves:
        raise ValueError("periods are defined for leafless graphs")
    h0, h1 = homology_ranks_f2(g)
    if h0 != 1:
        raise ValueError("periods are defined for connected graphs")
    fp = graph_fingerprint(g)
    if method == "brute":
        return periods_bruteforce(potential, order, fp)
    if method == "tqft":
        from .tqft import trace_formula

        hat = trace_formula(h1, g.coloring_parity(), order)
        return PeriodSequence(order, periods_from_laplace(hat), fp)
    raise ValueError(f"unknown method {method!r}")
