"""Bessel kernels, boundary states, and the trace formula for periods.

The open genus-1 two-leaf graph has boundary state
``T1(x, y) = B(t(x+y)) * B(t(x^-1+y^-1))`` with ``B(z) = sum z^(2m)/(m!)^2``.
Composing two states along a shared boundary circle takes the constant
term in the glued variable, which in Fourier modes contracts mode i with
mode -i.  With A the coefficient matrix of T1 (A[i, j] = [x^i y^j] T1) and
S the mode-flip matrix (S[i, j] = 1 iff j = -i), composition is the matrix
product with one S inserted, so the chain of g beads has matrix
A^g S^(g-1) and the closed genus-g graph of parity eps has Laplace-
transformed period series

    pi_hat(g, eps) = tr(A^(g-1) S^(g-1+eps)).

The exponent g-1+eps is forced by the recursion and is cross-validated
against brute-force periods in the tests.

Every chain is therefore a power of A with at most one flip.  T1 is
invariant under (x, y) -> (1/x, 1/y), so AS = SA, and S^2 = 1: the flips
of a chain move to its end and cancel in pairs.  One generator yields the
powers A, A^2, ..., one product at a time, and a flip negates one mode of
every entry of a power, never a product.

Kernels and boundary states share one format, the walk's: at t^d, mode or
leaf exponents map to d! times the coefficient, a Python ``int``, zeros left
out.  The scaling keeps every intermediate an integer: the scaled T1
entries are multinomial sums and the scaled product rule only multiplies by
binomials.

Almost every entry of a kernel is zero: an entry of a power of A vanishes
unless i = j (mod 2), and at t^d unless |i|, |j| <= d.  The product is a
sparse contraction over the stored entries, so it never visits those zeros,
nor assumes them: S is nonzero on its whole antidiagonal at t^0.

Brute-force states are ``periods.walk_terms`` itself, the open-necklace
states wrap a kernel power's entries, and gluing adds integers; only a
closed state's scalar series divides by d!.  The four-point function is the
state of the two-vertex graph with four leaves.  Nothing here needs numpy:
only a kernel's ``mats`` view, kept for the benchmark's traced runs, loads
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

from .algebra import TSeries
from .graphs import ColoredGraph, make_graph
from .periods import walk_terms
from .potential import DEFAULT_ORIENTATION, graph_potential


def _scaled_series(order: int, scaled) -> TSeries:
    """The series whose t^d coefficient is the d-th of ``scaled`` over d!."""
    return TSeries(order, tuple(Fraction(c, math.factorial(d)) for d, c in enumerate(scaled)))


def bessel(order: int) -> TSeries:
    """B(z) = sum z^(2m) / (m!)^2 truncated at the given order: d! times its
    t^d coefficient is C(d, d/2) at even d."""
    return _scaled_series(order, (0 if d % 2 else math.comb(d, d // 2) for d in range(order + 1)))


class KernelMatrix:
    """Two-boundary kernel in Fourier modes -D..D, truncated at t^D.

    Kept as boundary states are: ``terms[d]`` maps a mode pair (i, j) to d!
    times the coefficient of x^i y^j t^d, an ``int``, zeros left out.  Every
    kernel built here has empty odd degrees and, at t^d, no entry with
    i + j odd or max(|i|, |j|) > d.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: Sequence[dict]):
        if len(terms) != order + 1:
            raise ValueError(f"need {order + 1} degree dicts, got {len(terms)}")
        for t in terms:
            for (i, j), v in t.items():
                if max(abs(i), abs(j)) > order:
                    raise ValueError(f"mode ({i}, {j}) out of range for order {order}")
                if type(v) is not int:  # fixed-width numbers wrap or round without notice
                    raise ValueError(f"entry ({i}, {j}) is {type(v).__name__}, need int")
        self.order = order
        self.terms = [{k: v for k, v in t.items() if v} for t in terms]

    @classmethod
    def _raw(cls, order: int, terms: list[dict]) -> KernelMatrix:
        # internal: terms already in range, all ints, no zeros
        k = cls.__new__(cls)
        k.order = order
        k.terms = terms
        return k

    @property
    def size(self) -> int:
        return 2 * self.order + 1

    @property
    def mats(self) -> tuple:
        """The even t-degrees as numpy object arrays, entry (i, j) at t^d in
        ``mats[d // 2][D + i, D + j]``, built on every read.

        No library path reads this view.  It keeps the benchmark's traced
        runs (``perfbench/tracing.py``) and the tests' dense oracle working,
        and goes with ROADMAP direction 1's benchmark change, after which
        the benchmark reads run records instead.
        """
        import numpy as np

        D = self.order
        out = []
        for t in self.terms[::2]:
            m = np.zeros((self.size, self.size), dtype=object)
            for (i, j), v in t.items():
                m[D + i, D + j] = v
            out.append(m)
        return tuple(out)

    def entry(self, i: int, j: int) -> TSeries:
        """Series of the (i, j) coefficient, unscaled."""
        D = self.order
        if abs(i) > D or abs(j) > D:
            raise IndexError(f"mode ({i}, {j}) out of range for order {D}")
        return _scaled_series(D, (t.get((i, j), 0) for t in self.terms))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KernelMatrix):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms


def flip_operator(order: int) -> KernelMatrix:
    """S with S[i, j] = 1 iff j = -i, concentrated in t-degree 0.

    As a kernel this is sum_i x^i y^-i, the state of a cylinder, and it is
    the identity for :func:`kernel_compose`.
    """
    terms = [{} for _ in range(order + 1)]
    terms[0] = {(i, -i): 1 for i in range(-order, order + 1)}
    return KernelMatrix._raw(order, terms)


def t1_kernel(order: int) -> KernelMatrix:
    """Coefficient matrix of T1(x, y) = B(t(x+y)) B(t(x^-1+y^-1)).

    Built from the closed form: the scaled (i, j) entry at t^(2m+2n)
    collects C(2m, a) C(2n, c) (2m+2n)! / (m! m! n! n!) over a - c = i,
    (2m - a) - (2n - c) = j.  The tests check this against the direct
    series-product construction.
    """
    D = order
    terms = [{} for _ in range(D + 1)]
    for d in range(0, D + 1, 2):
        acc = terms[d]
        for m in range(d // 2 + 1):
            n = d // 2 - m
            base = math.factorial(d) // (math.factorial(m) ** 2 * math.factorial(n) ** 2)
            for a in range(2 * m + 1):
                for c in range(2 * n + 1):
                    key = (a - c, (2 * m - a) - (2 * n - c))
                    acc[key] = acc.get(key, 0) + base * math.comb(2 * m, a) * math.comb(2 * n, c)
    return KernelMatrix._raw(D, terms)


def _product(p: KernelMatrix, q: KernelMatrix) -> KernelMatrix:
    """Matrix product of two kernels: at t^d, with d!-scaled entries, the
    sum over a of C(d, a) p_a q_(d-a).

    A sparse contraction over the stored entries only: each degree block of
    q is grouped by its row k, and each entry (i, k) of p's block meets the
    entries (k, j) of that row.  For powers of A this skips the two zero
    patterns, entries with i != j (mod 2) and, at t^d, with |i| or |j| > d,
    without assuming them: S, at t^0, is nonzero on its whole antidiagonal.
    """
    if p.order != q.order:
        raise ValueError("kernel orders differ")
    q_rows = []
    for t in q.terms:
        rows: dict[int, list] = {}
        for (k, j), w in t.items():
            rows.setdefault(k, []).append((j, w))
        q_rows.append(rows)
    out = []
    for d in range(p.order + 1):
        acc: dict[int, dict[int, int]] = {}  # row i -> column j -> entry
        for a in range(d + 1):
            pa, rows = p.terms[a], q_rows[d - a]
            if not (pa and rows):
                continue
            c = math.comb(d, a)
            for (i, k), v in pa.items():
                row = rows.get(k)
                if row:
                    cv = c * v
                    r = acc.setdefault(i, {})
                    for j, w in row:
                        r[j] = r.get(j, 0) + cv * w
        out.append({(i, j): v for i, r in acc.items() for j, v in r.items() if v})
    return KernelMatrix._raw(p.order, out)


def kernel_compose(p: KernelMatrix, q: KernelMatrix) -> KernelMatrix:
    """Compose two kernels along a shared boundary circle.

    [p(x, z) q(z, y)]_{z^0}: mode i of p's second variable pairs with mode
    -i of q's first, so the product is p S q, and S q maps (i, j) to (-i, j).
    The flip kernel itself is the identity of this product.
    """
    flipped = [{(-i, j): v for (i, j), v in t.items()} for t in q.terms]
    return _product(p, KernelMatrix._raw(q.order, flipped))


def kernel_matmul(p: KernelMatrix, q: KernelMatrix) -> KernelMatrix:
    """Plain matrix product of coefficient matrices (no flip inserted)."""
    return _product(p, q)


def kernel_trace(p: KernelMatrix, flips: int) -> TSeries:
    """tr(S^flips p) as a scalar series: the entries at (i, i), or at
    (i, -i) when the flip count is odd, since (S p)[i, i] = p[-i, i]."""
    s = -1 if flips % 2 else 1
    modes = range(-p.order, p.order + 1)
    return _scaled_series(p.order, (sum(t.get((i, s * i), 0) for i in modes) for t in p.terms))


def _powers(order: int) -> Iterator[KernelMatrix]:
    """A, A^2, A^3, ... for the T1 kernel A, one kernel_matmul per step,
    taken only when the next power is asked for."""
    a = t1_kernel(order)
    power = a
    while True:
        yield power
        # looked up by module name, so a wrapper (perfbench/tracing.py, the
        # tests) sees every product
        power = kernel_matmul(power, a)


def _power(order: int, n: int) -> KernelMatrix:
    """A^n for n >= 1, in n - 1 products."""
    return next(islice(_powers(order), n - 1, None))


def trace_formula(g: int, parity: int, order: int) -> TSeries:
    """Laplace-transformed period series tr(A^(g-1) S^(g-1+parity))."""
    if g < 2:
        raise ValueError("the trace formula needs genus >= 2")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    return kernel_trace(_power(order, g - 1), g - 1 + parity)


def trace_formula_table(g_max: int, order: int) -> dict[tuple[int, int], TSeries]:
    """trace_formula for every genus 2..g_max and both parities, sharing
    the accumulated kernel powers."""
    if g_max < 2:
        raise ValueError("need g_max >= 2")
    table = {}
    # range first: zip stops before asking for a power past A^(g_max-1)
    for g, power in zip(range(2, g_max + 1), _powers(order)):
        for parity in (0, 1):
            table[(g, parity)] = kernel_trace(power, g - 1 + parity)
    return table


# ---------------------------------------------------------------------------
# boundary states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryState:
    """The state of an open graph in the walk's integers: ``terms[d]`` maps
    leaf exponents, in ``leaf_vars`` order, to d! times the coefficient of
    t^d, zeros left out.  At t^d every leaf exponent is at most d in
    absolute value."""

    order: int
    leaf_vars: tuple[str, ...]
    terms: list[dict]

    def scalar_series(self) -> TSeries:
        """The state of a closed-up graph as a plain rational series."""
        if self.leaf_vars:
            raise ValueError(f"state still has open leaves {self.leaf_vars}")
        return _scaled_series(self.order, (t.get((), 0) for t in self.terms))


def necklace_state(g: int, parity: int, order: int) -> BoundaryState:
    """State T_g(x, y^(+-1)) of the open genus-g necklace, via kernel powers.

    The chain of g doubled-edge beads composes to A^g S^(g-1); odd parity
    inverts the second variable, one more flip on the right.  As AS = SA
    and S^2 = 1 this is A^g, with column j moved to -j when g - 1 + parity
    is odd.  Equals the brute-force k_state of the matching open necklace
    graph.
    """
    if g < 1:
        raise ValueError("need genus >= 1")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    terms = _power(order, g).terms
    if (g - 1 + parity) % 2:
        terms = [{(i, -j): v for (i, j), v in t.items()} for t in terms]
    return BoundaryState(order, ("x", "y"), terms)


def k_state(g: ColoredGraph, order: int) -> BoundaryState:
    """Boundary state of an open graph by direct expansion of exp(t W).

    Degree d holds the constant term, in every internal-edge variable, of
    W^d: ``periods.walk_terms`` glues the vertex states along the internal
    edges and keeps the leaf variables.  A closed graph's periods are the
    state of a graph with no leaves.
    """
    # graph_potential is looked up by module name, so a wrapper sees the call
    potential = graph_potential(g).potential
    leaf_vars = tuple(sorted(x.id for x in g.leaves))  # in potential.vars order: both sorted
    return BoundaryState(order, leaf_vars, walk_terms(potential, order, leaf_vars))


def glue(state: BoundaryState, leaf_a: str, leaf_b: str) -> BoundaryState:
    """Join two leaves of a state: set both variables to a common circle
    variable and take its constant term, pairing mode i with mode -i."""
    if leaf_a == leaf_b:
        raise ValueError("cannot glue a leaf to itself")
    for name in (leaf_a, leaf_b):
        if name not in state.leaf_vars:
            raise ValueError(f"unknown leaf variable {name!r}")
    ia = state.leaf_vars.index(leaf_a)
    ib = state.leaf_vars.index(leaf_b)
    keep = [i for i in range(len(state.leaf_vars)) if i not in (ia, ib)]
    out = []
    for t in state.terms:
        acc: dict[tuple, int] = {}
        for e, c in t.items():
            if e[ia] + e[ib] == 0:
                key = tuple(e[i] for i in keep)
                acc[key] = acc.get(key, 0) + c
        out.append({e: c for e, c in acc.items() if c})
    return BoundaryState(state.order, tuple(state.leaf_vars[i] for i in keep), out)


# ---------------------------------------------------------------------------
# the four-point symmetry check
# ---------------------------------------------------------------------------


def wdvv_check(parity: int, order: int) -> bool:
    """Whether the four-point function is symmetric in its four slots.

    M4(x1, x2, x3, x4) is the k_state of the two-vertex graph: vertex a of
    color ``parity`` holds leaves x1 and x2, vertex b of color 1 - parity
    holds x3 and x4, edge m joins them, and every leaf has its vertex's
    default orientation.  Inverting one slot flips a vertex potential's
    parity, so w_p(x3, x4, 1/m) = w_(1-p)(x3, x4, m): M4 pairs two copies
    of exp(t w_p) along m.  It must be invariant under all 24 slot
    permutations, which (12) and (1234) generate.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    out_a, out_b = DEFAULT_ORIENTATION[parity], DEFAULT_ORIENTATION[1 - parity]
    g = make_graph([("a", parity), ("b", 1 - parity)], [("m", "a", "b")],
                   [("x1", "a", out_a), ("x2", "a", out_a), ("x3", "b", out_b), ("x4", "b", out_b)])
    # k_state is looked up by module name, so a wrapper sees the call
    terms = k_state(g, order).terms
    return all({tuple(e[i] for i in perm): c for e, c in t.items()} == t
               for perm in ((1, 0, 2, 3), (1, 2, 3, 0)) for t in terms)
