"""Bessel kernels, boundary states, and the trace formula for periods.

The open genus-1 two-leaf graph has boundary state
``T1(x, y) = B(t(x+y)) * B(t(x^-1+y^-1))`` with ``B(z) = sum z^(2m)/(m!)^2``.
Composing two states along a shared boundary circle takes the constant
term in the glued variable, which in Fourier modes contracts mode i with
mode -i.  With A the coefficient matrix of T1 (A[i, j] = [x^i y^j] T1) and
S the mode-flip matrix (S[i, j] = 1 iff j = -i), composing p with q is
p S q (:func:`kernel_compose`).  The chain of n beads is the composition
power A^[n] = A^n S^(n-1), and the closed genus-g graph of parity eps glues
the ends of A^[g-1] with 1 + eps flips: its Laplace-transformed periods are

    pi_hat(g, eps) = tr(S^(1+eps) A^[g-1]) = tr(A^(g-1) S^(g-1+eps)).

The flip count is forced by the recursion and is cross-validated against
brute-force periods in the tests.  No factor is ever flipped: A^[2m] is
A^[m] composed with itself and A^[m+1] is A^[m] composed with A, so A^[n]
comes by repeated squaring (:func:`_by_squaring`), one product per bit of
n after the first and one more per further bit set.  T1 is invariant under
(x, y) -> (1/x, 1/y), so A[i, j] = A[-i, -j] and AS = SA: the flip that odd
parity adds to an open necklace is the view :func:`_flipped`, never a
product.  A trace never forms the last product: A^[g-1] is
A^[ceil((g-1)/2)] composed with A^[floor((g-1)/2)], and one pass over the
pairs of their entries sums both closures (:func:`_pair_traces`).  The
table builds A, A^[2], ..., A^[floor(g_max/2)], one product each and only
the last two kept, and reads both parities of every genus from one pairing.

One record, :class:`BoundaryState`, holds every state in the walk's format:
at t^d, leaf exponents map to d! times the coefficient, a Python ``int``,
zeros left out.  A kernel is the state on legs (x, y), its exponents the
modes.  The scaling keeps every intermediate an integer: a scaled T1 entry
is a multinomial times a binomial and the scaled product rule only
multiplies by binomials.  The traces of these integers are the periods,
:func:`trace_periods`.

Almost every entry of a kernel is zero: an entry of a power of A vanishes
unless i = j (mod 2), and at t^d unless |i|, |j| <= d.  A product is the
walk's gluing ``periods.contract`` on p's legs (x, z) and q's (z, y): it
visits stored entries only, assuming no zero pattern (S is nonzero on its
whole antidiagonal at t^0).  A closing pairing meets little of a power:
at t^(d_a) it meets modes of the other factor at t^(d_b), d_a + d_b <= K,
so within K - d_a.  The traces cut A and every product to the entries whose
two modes are within K - d at t^d (:func:`_cut`, the walk's
``periods._prune`` with bound 1 on each leg); a product takes its row from
its left factor and its column from its right one, so nothing cut is
needed later.  Open-necklace states keep full powers.  Brute force still
checks the trace formula: the two glue different states, vertex states and
powers of the closed-form T1.

Brute-force states are ``periods.walk_terms`` of the vertex potentials,
an open-necklace state is a kernel power, and two leaves join by
contraction with the cylinder state S; only a closed state's series and
the Laplace view :func:`trace_formula` divide by d!.
The four-point function is the state of the two-vertex graph with four
leaves.  Nothing here needs numpy: only the ``mats`` view of a two-leg
state, kept for the benchmark's traced runs, loads it.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._record import Record, checked_int, scalar
from .periods import _prune, contract, walk_terms


def _scaled_series(scaled) -> tuple:
    """The truncated series whose t^d coefficient, entry d, is the d-th of
    ``scaled`` over d!, a ``Fraction``."""
    from fractions import Fraction

    return tuple(Fraction(c, math.factorial(d)) for d, c in enumerate(scaled))


def bessel(order: int) -> tuple:
    """B(z) = sum z^(2m) / (m!)^2 truncated at the given order: d! times its
    t^d coefficient is C(d, d/2) at even d."""
    checked_int(order, 0, what="order")
    return _scaled_series(0 if d % 2 else math.comb(d, d // 2) for d in range(order + 1))


class BoundaryState(Record):
    """The state of an open graph in the walk's integers: ``terms[d]`` maps
    leaf exponents, in ``leaf_vars`` order, to d! times the coefficient of
    t^d, an ``int``, zeros left out.  Every exponent lies in -order..order,
    and in a graph's state every leaf exponent at t^d is at most d in
    absolute value.

    A kernel is the state on legs ("x", "y"): entry (i, j) is the
    coefficient of x^i y^j.  Every kernel built here has empty odd degrees
    and, at t^d, no entry with i + j odd or max(|i|, |j|) > d.
    """

    __slots__ = ("order", "leaf_vars", "terms")

    def __init__(self, order: int, leaf_vars: Sequence[str], terms: Sequence[dict]):
        checked_int(order, 0, what="order")
        if len(terms) != order + 1:
            raise ValueError(f"need {order + 1} degree dicts, got {len(terms)}")
        leaf_vars = tuple(leaf_vars)
        if len(set(leaf_vars)) != len(leaf_vars):  # glue would sum out every copy of a name
            raise ValueError(f"repeated leaf names in {leaf_vars}")
        for t in terms:
            if type(t) is not dict:
                raise ValueError(f"degree entry {t!r} is {type(t).__name__}, need dict")
            for key, v in t.items():
                # exponents pair by key: 0.5 would meet nothing, True prints as True
                if (type(key) is not tuple or len(key) != len(leaf_vars)
                        or any(type(e) is not int or abs(e) > order for e in key)):
                    raise ValueError(f"exponents {key!r} out of range: need ints in "
                                     f"-{order}..{order}, one per leaf of {leaf_vars}")
                # fixed-width numbers wrap or round without notice, and True prints as True
                if type(scalar(v)) is not int or type(v) is bool:
                    raise ValueError(f"term {key} is {type(v).__name__}, need int")
        self._set(order, leaf_vars, [{k: c for k, v in t.items() if (c := scalar(v))}
                                     for t in terms])

    @classmethod
    def _raw(cls, order: int, leaf_vars: tuple[str, ...], terms: list[dict]) -> BoundaryState:
        # internal: exponents in range, all ints, no zeros
        state = cls.__new__(cls)
        state._set(order, leaf_vars, terms)
        return state

    @property
    def size(self) -> int:
        return 2 * self.order + 1

    def _require_kernel(self) -> None:
        if len(self.leaf_vars) != 2:
            raise ValueError(f"a kernel needs two leaves, got {self.leaf_vars}")

    @property
    def mats(self) -> tuple:
        """A kernel's even t-degrees as numpy object arrays, (i, j) at t^d in
        ``mats[d // 2][D + i, D + j]``, built on every read.  No library path
        reads it: the benchmark's traced runs and the tests' dense oracle do."""
        import numpy as np

        self._require_kernel()
        D = self.order
        out = []
        for t in self.terms[::2]:
            m = np.zeros((self.size, self.size), dtype=object)
            for (i, j), v in t.items():
                m[D + i, D + j] = v
            out.append(m)
        return tuple(out)

    def entry(self, i: int, j: int) -> tuple:
        """Series of a kernel's (i, j) coefficient, unscaled; each mode an int
        in -order..order."""
        self._require_kernel()
        for mode in (i, j):
            checked_int(mode, -self.order, self.order, what="mode")
        return _scaled_series(t.get((i, j), 0) for t in self.terms)

    def scalar_series(self) -> tuple:
        """The state of a closed-up graph as a plain rational series."""
        if self.leaf_vars:
            raise ValueError(f"state still has open leaves {self.leaf_vars}")
        return _scaled_series(t.get((), 0) for t in self.terms)


def flip_operator(order: int) -> BoundaryState:
    """S with S[i, j] = 1 iff j = -i, concentrated in t-degree 0: as a kernel
    sum_i x^i y^-i, the state of a cylinder, and the identity for
    :func:`kernel_compose`."""
    checked_int(order, 0, what="order")
    terms = [{} for _ in range(order + 1)]
    terms[0] = {(i, -i): 1 for i in range(-order, order + 1)}
    return BoundaryState._raw(order, ("x", "y"), terms)


def t1_kernel(order: int) -> BoundaryState:
    """Coefficient matrix of T1(x, y) = B(t(x+y)) B(t(x^-1+y^-1)).

    Built from the closed form: at t^d, d = 2m + 2n, the term x^a y^(2m-a)
    of (x+y)^(2m) and x^-c y^-(2n-c) of (1/x+1/y)^(2n) meet at
    (i, j) = (a - c, 2(m - n) - i), so i + j fixes m and, by Vandermonde's
    identity, the scaled entry is d! / (m! m! n! n!) C(d, 2n + i) for
    -2n <= i <= 2m.  The tests check this against the direct series-product
    construction.
    """
    checked_int(order, 0, what="order")
    terms = [{} for _ in range(order + 1)]
    for d in range(0, order + 1, 2):
        row = [math.comb(d, k) for k in range(d + 1)]
        acc = terms[d]
        for m in range(d // 2 + 1):
            n = d // 2 - m
            # d! / (m! m! n! n!) = C(d, 2m) C(2m, m) C(2n, n)
            base = row[2 * m] * math.comb(2 * m, m) * math.comb(2 * n, n)
            for i in range(-2 * n, 2 * m + 1):
                acc[(i, 2 * (m - n) - i)] = base * row[2 * n + i]
    return BoundaryState._raw(order, ("x", "y"), terms)


def kernel_compose(p: BoundaryState, q: BoundaryState) -> BoundaryState:
    """Compose two kernels along a shared boundary circle: [p(x, z) q(z, y)]_{z^0}
    pairs mode k of p's second variable with mode -k of q's first, the matrix
    product p S q.  The flip kernel itself is the identity."""
    p._require_kernel()
    q._require_kernel()
    if p.order != q.order:
        raise ValueError("kernel orders differ")
    return BoundaryState._raw(p.order, *contract((("x", "z"), p.terms), (("z", "y"), q.terms),
                                                p.order, {}))


def kernel_matmul(p: BoundaryState, q: BoundaryState) -> BoundaryState:
    """Plain matrix product of coefficient matrices: p composed with S q."""
    q._require_kernel()  # before the flip reads q's keys as pairs
    return kernel_compose(p, _flipped(q))


def kernel_trace(p: BoundaryState, flips: int) -> tuple[int, ...]:
    """tr(S^flips p) of the stored integers, d! times the trace at t^d: the entries
    at (i, i), or at (i, -i) when the flip count is odd, since (S p)[i, i] = p[-i, i]."""
    p._require_kernel()
    s = -1 if checked_int(flips, 0, what="flips") % 2 else 1
    modes = range(-p.order, p.order + 1)
    return tuple(sum(t.get((i, s * i), 0) for i in modes) for t in p.terms)


def _flipped(p: BoundaryState) -> BoundaryState:
    """S p: row i of a kernel moved to -i, every entry kept."""
    return BoundaryState._raw(p.order, p.leaf_vars, [{(-i, j): v for (i, j), v in t.items()}
                                                     for t in p.terms])


def _cut(p: BoundaryState) -> BoundaryState:
    """p without its entries at t^d with a mode beyond order - d, which no
    closing pairing meets: ``periods._prune`` with bound 1 on each leg."""
    return BoundaryState._raw(p.order, p.leaf_vars, [_prune(t, p.order - d, [(0, 1), (1, 1)])
                                                     for d, t in enumerate(p.terms)])


def _by_squaring(a: BoundaryState, n: int, trim=lambda p: p) -> BoundaryState:
    """A^[n] = a^n S^(n-1) for n >= 1, each product passed through ``trim``:
    over the bits of n after the first, compose the power with itself, then
    with a where the bit is set."""
    power = a
    for bit in bin(n)[3:]:
        power = trim(kernel_compose(power, power))
        if bit == "1":
            power = trim(kernel_compose(power, a))
    return power


def _pair_traces(p: BoundaryState, q: BoundaryState) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """tr(S p S q) and tr(p S q), p composed with q closed with 1 and 2 flips,
    without forming p S q: t^d sums C(d, d_a) p[i, j] q[-j, -i], and
    p[i, j] q[-j, i] for the second, over p's entries at t^(d_a) and q's at
    t^(d - d_a), walking the smaller of the two and looking up the other."""
    p._require_kernel()
    q._require_kernel()
    order = p.order
    one, two = [0] * (order + 1), [0] * (order + 1)
    for da, tp in enumerate(p.terms):
        if not tp:
            continue
        for db in range(order - da + 1):
            tq = q.terms[db]
            if not tq:
                continue
            # tr(SpSq) = tr(SqSp), and tr(pSq) = tr(qSp) as AS = SA: either factor may walk
            walk, look = (tp, tq) if len(tp) <= len(tq) else (tq, tp)
            s1 = s2 = 0
            for (i, j), v in walk.items():
                w = look.get((-j, -i))
                if w is not None:
                    s1 += v * w
                w = look.get((-j, i))
                if w is not None:
                    s2 += v * w
            w = math.comb(da + db, da)
            one[da + db] += w * s1
            two[da + db] += w * s2
    return tuple(one), tuple(two)


def trace_periods(g: int, parity: int, order: int) -> tuple[int, ...]:
    """Periods pi_0..pi_order of the closed genus-g graph of the given
    parity: A^[g-1] of the d!-scaled kernels closed with 1 + parity flips,
    paired as A^[ceil((g-1)/2)] composed with A^[floor((g-1)/2)]."""
    n = checked_int(g, 2, what="genus") - 1
    checked_int(parity, 0, 1, what="parity")
    a = t1_kernel(order)
    if n == 1:
        return kernel_trace(a, 1 + parity)
    a = _cut(a)
    low = _by_squaring(a, n // 2, _cut)
    high = _cut(kernel_compose(low, a)) if n % 2 else low
    return _pair_traces(high, low)[parity]


def trace_formula(g: int, parity: int, order: int) -> tuple:
    """Laplace-transformed period series tr(A^(g-1) S^(g-1+parity)), pi_d / d! at t^d."""
    return _scaled_series(trace_periods(g, parity, order))


def trace_formula_table(g_max: int, order: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """trace_periods for every genus 2..g_max and both parities: genus
    n + 1 pairs A^[ceil(n/2)] with A^[floor(n/2)], so the powers come one
    product at a time, up to A^[floor(g_max/2)], and only the last two are kept."""
    checked_int(g_max, 2, what="g_max")
    a = t1_kernel(order)
    traces = kernel_trace(a, 1), kernel_trace(a, 2)  # the closures of A for n = 1
    low = high = a = _cut(a)  # A^[floor(n/2)] and A^[ceil(n/2)]
    table = {}
    for n in range(1, g_max):
        if n > 1:
            if n % 2:
                # looked up by module name, so a wrapper (perfbench/tracing.py,
                # the tests) sees every product
                high = _cut(kernel_compose(high, a))
            else:
                low = high
            traces = _pair_traces(high, low)
        for parity in (0, 1):
            table[(n + 1, parity)] = traces[parity]
    return table


# ---------------------------------------------------------------------------
# boundary states
# ---------------------------------------------------------------------------


def necklace_state(g: int, parity: int, order: int) -> BoundaryState:
    """State T_g(x, y^(+-1)) of the open genus-g necklace, via kernel powers.

    The chain of g doubled-edge beads composes to A^[g] = A^g S^(g-1), in
    full; odd parity inverts the second variable, one more flip on the
    right.  That flip is the view :func:`_flipped`, row i moved to -i: T1
    is invariant under (x, y) -> (1/x, 1/y), so S commutes with A^[g] and
    the row flip equals the column flip of the chain's right end.  Equals
    the brute-force k_state of the matching open necklace graph.
    """
    checked_int(g, 1, what="genus")
    checked_int(parity, 0, 1, what="parity")
    power = _by_squaring(t1_kernel(order), g)
    return _flipped(power) if parity else power


def k_state(g: ColoredGraph, order: int) -> BoundaryState:
    """Boundary state of an open graph by expansion of exp(t W).

    Degree d holds the constant term, in every internal-edge variable, of
    W^d: ``periods.walk_terms`` glues the states of the vertex potentials
    along the internal edges, never summing W, and keeps the leaf variables.
    A closed graph's periods are the state of a graph with no leaves.
    """
    # imported at the call, so a wrapper of graph_potential sees it
    from .potential import graph_potential

    pieces = graph_potential(g).per_vertex.values()
    leaf_vars = tuple(sorted(x.id for x in g.leaves))
    return BoundaryState._raw(order, leaf_vars, walk_terms(pieces, order, leaf_vars))


def glue(state: BoundaryState, leaf_a: str, leaf_b: str) -> BoundaryState:
    """Join two leaves of a state: set both variables to a common circle
    variable and take its constant term, pairing mode i with mode -i."""
    if leaf_a == leaf_b:
        raise ValueError("cannot glue a leaf to itself")
    for name in (leaf_a, leaf_b):
        if name not in state.leaf_vars:
            raise ValueError(f"unknown leaf variable {name!r}")
    # the cylinder's state on (leaf_a, leaf_b) pairs mode i of one with -i of the other
    cylinder = flip_operator(state.order).terms
    return BoundaryState._raw(state.order, *contract((state.leaf_vars, state.terms),
                                                     ((leaf_a, leaf_b), cylinder), state.order, {}))


# ---------------------------------------------------------------------------
# the four-point symmetry check
# ---------------------------------------------------------------------------


def wdvv_check(parity: int, order: int) -> bool:
    """Whether the four-point function is symmetric in its four slots.

    M4(x1, x2, x3, x4) is the k_state of the two-vertex graph of coloring
    parity ``parity``: vertex a of color ``parity`` holds leaves x1 and x2,
    vertex b of color 0 holds x3 and x4, edge m joins them, and every leaf
    has its vertex's default orientation.  Inverting one slot flips a vertex
    potential's parity, w_0(x3, x4, m) = w_1(x3, x4, 1/m), so the two
    parities' states differ.  M4 must be invariant under all 24 slot
    permutations, which (12) and (1234) generate.
    """
    from .graphs import ORIENTATIONS, make_graph

    checked_int(parity, 0, 1, what="parity")
    out_a, out_b = ORIENTATIONS[parity], ORIENTATIONS[0]
    g = make_graph([("a", parity), ("b", 0)], [("m", "a", "b")],
                   [("x1", "a", out_a), ("x2", "a", out_a), ("x3", "b", out_b), ("x4", "b", out_b)])
    # k_state is looked up by module name, so a wrapper sees the call
    terms = k_state(g, order).terms
    return all({tuple(e[i] for i in perm): c for e, c in t.items()} == t
               for perm in ((1, 0, 2, 3), (1, 2, 3, 0)) for t in terms)
