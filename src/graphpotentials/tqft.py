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
powers A, A^2, ..., one product at a time, and a flip is a reversed view
of the rows or columns of a power, never a product.

All matrices are stored per t-degree d with entries scaled by d!, which
keeps every intermediate an integer: the scaled T1 entries are multinomial
sums and the scaled product rule only multiplies by binomials.

The stored matrices are almost all zero: an entry of a power of A vanishes
unless i = j (mod 2), and at t^d unless |i|, |j| <= d.  The product
multiplies each pair of degree blocks only over its nonzero rows, columns
and shared modes, one mode parity at a time.  It reads these windows from
the data rather than from the two rules, because not every kernel obeys
them: S is nonzero on its whole antidiagonal at t^0.

A boundary state is kept as the walk and the kernels keep it: at t^d, leaf
exponents map to d! times the coefficient, an integer.  Brute-force states
are ``periods.walk_terms`` itself, kernel states copy the nonzero entries,
and gluing adds integers; only a closed state's scalar series divides by d!.
The four-point function is the state of the two-vertex graph with four
leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .algebra import TSeries
from .graphs import ColoredGraph, make_graph
from .periods import walk_terms
from .potential import DEFAULT_ORIENTATION, graph_potential

if TYPE_CHECKING:
    import numpy as np


_ZERO = Fraction(0)  # shared by every odd degree: the `kernel` command builds (2D + 1)^2 series


def _even_series(order: int, f: Callable) -> TSeries:
    """The series with f(u) at t^(2u) and 0 at every odd degree."""
    return TSeries(order, tuple(_ZERO if d % 2 else f(d // 2) for d in range(order + 1)))


def bessel(order: int) -> TSeries:
    """B(z) = sum z^(2m) / (m!)^2 truncated at the given order."""
    return _even_series(order, lambda m: Fraction(1, math.factorial(m) ** 2))


class KernelMatrix:
    """Two-boundary kernel in Fourier modes -D..D, truncated at t^D.

    Entry (i, j) at t^d is stored in ``mats[d // 2][D + i, D + j]`` scaled
    by d!, as a Python integer in an object array; odd t-degrees vanish
    identically for every kernel built here, as do entries with i + j odd
    or max(|i|, |j|) > d.
    """

    __slots__ = ("order", "mats")

    def __init__(self, order: int, mats: Sequence[np.ndarray]):
        size = 2 * order + 1
        if len(mats) != order // 2 + 1:
            raise ValueError(f"need {order // 2 + 1} degree matrices, got {len(mats)}")
        for m in mats:
            if m.shape != (size, size):
                raise ValueError(f"matrix shape {m.shape} does not match order {order}")
            if m.dtype != object:  # fixed-width entries wrap or round without notice
                raise ValueError(f"matrix dtype is {m.dtype}, need object (exact integers)")
        self.order = order
        self.mats = tuple(mats)

    @property
    def size(self) -> int:
        return 2 * self.order + 1

    def entry(self, i: int, j: int) -> TSeries:
        """Series of the (i, j) coefficient, unscaled."""
        D = self.order
        if abs(i) > D or abs(j) > D:
            raise IndexError(f"mode ({i}, {j}) out of range for order {D}")
        return _even_series(D, lambda u: Fraction(int(self.mats[u][D + i, D + j]),
                                                  math.factorial(2 * u)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KernelMatrix):
            return NotImplemented
        return self.order == other.order and all(
            (a == b).all() for a, b in zip(self.mats, other.mats))


def _zero_mats(order: int) -> list[np.ndarray]:
    import numpy as np  # here, where every KernelMatrix starts: states and walks need none

    size = 2 * order + 1
    return [np.zeros((size, size), dtype=object) for _ in range(order // 2 + 1)]


def flip_operator(order: int) -> KernelMatrix:
    """S with S[i, j] = 1 iff j = -i, concentrated in t-degree 0.

    As a kernel this is sum_i x^i y^-i, the state of a cylinder, and it is
    the identity for :func:`kernel_compose`.
    """
    mats = _zero_mats(order)
    size = 2 * order + 1
    for i in range(size):
        mats[0][i, size - 1 - i] = 1
    return KernelMatrix(order, mats)


def t1_kernel(order: int) -> KernelMatrix:
    """Coefficient matrix of T1(x, y) = B(t(x+y)) B(t(x^-1+y^-1)).

    Built from the closed form: the scaled (i, j) entry at t^(2m+2n)
    collects C(2m, a) C(2n, c) (2m+2n)! / (m! m! n! n!) over a - c = i,
    (2m - a) - (2n - c) = j.  The tests check this against the direct
    series-product construction.
    """
    D = order
    mats = _zero_mats(D)
    for u in range(D // 2 + 1):
        d = 2 * u
        arr = mats[u]
        for m in range(u + 1):
            n = u - m
            base = math.factorial(d) // (math.factorial(m) ** 2 * math.factorial(n) ** 2)
            for a in range(2 * m + 1):
                for c in range(2 * n + 1):
                    i = a - c
                    j = (2 * m - a) - (2 * n - c)
                    arr[D + i, D + j] += base * math.comb(2 * m, a) * math.comb(2 * n, c)
    return KernelMatrix(D, mats)


def _product(p: KernelMatrix, q: KernelMatrix) -> KernelMatrix:
    """Matrix product of two kernels: at t^d, with d!-scaled entries, the
    sum over even a of C(d, a) p_a q_(d-a).

    Each pair of degree blocks is multiplied only over its nonzero support.
    It contracts over the modes k where p_a has a nonzero column and
    q_(d-a) a nonzero row, one parity class of k at a time, and for each
    class keeps only the rows of p_a and the columns of q_(d-a) that are
    nonzero there.  For powers of A this skips the two zero patterns:
    entries vanish unless i = j (mod 2), and at t^d unless |i|, |j| <= d.
    The windows are read from the data, not from those two rules, so the
    product stays exact for every kernel: S, at t^0, is nonzero on its whole
    antidiagonal.
    """
    if p.order != q.order:
        raise ValueError("kernel orders differ")
    p_nz = [m != 0 for m in p.mats]
    q_nz = [m != 0 for m in q.mats]
    p_cols = [nz.any(axis=0) for nz in p_nz]
    q_rows = [nz.any(axis=1) for nz in q_nz]
    out = _zero_mats(p.order)
    for u, acc in enumerate(out):
        for a in range(u + 1):
            b = u - a
            shared = (p_cols[a] & q_rows[b]).nonzero()[0]
            for k in (shared[shared % 2 == 0], shared[shared % 2 == 1]):
                if k.size:
                    rows = p_nz[a][:, k].any(axis=1).nonzero()[0]
                    cols = q_nz[b][k].any(axis=0).nonzero()[0]
                    block = p.mats[a][rows[:, None], k] @ q.mats[b][k[:, None], cols]
                    acc[rows[:, None], cols] += math.comb(2 * u, 2 * a) * block
    return KernelMatrix(p.order, out)


def kernel_compose(p: KernelMatrix, q: KernelMatrix) -> KernelMatrix:
    """Compose two kernels along a shared boundary circle.

    [p(x, z) q(z, y)]_{z^0}: mode i of p's second variable pairs with mode
    -i of q's first, so the product is p S q, with S q a row-reversed view
    of q.  The flip kernel itself is the identity of this product.
    """
    return _product(p, KernelMatrix(q.order, [m[::-1] for m in q.mats]))


def kernel_matmul(p: KernelMatrix, q: KernelMatrix) -> KernelMatrix:
    """Plain matrix product of coefficient matrices (no flip inserted)."""
    return _product(p, q)


def kernel_trace(p: KernelMatrix, flips: int) -> TSeries:
    """tr(S^flips p) as a scalar series; S p is a row-reversed view of p."""
    mats = [m[::-1] for m in p.mats] if flips % 2 else p.mats
    return _even_series(p.order, lambda u: Fraction(int(mats[u].trace()), math.factorial(2 * u)))


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
        return TSeries(self.order, tuple(Fraction(t.get((), 0), math.factorial(d))
                                         for d, t in enumerate(self.terms)))


def necklace_state(g: int, parity: int, order: int) -> BoundaryState:
    """State T_g(x, y^(+-1)) of the open genus-g necklace, via kernel powers.

    The chain of g doubled-edge beads composes to A^g S^(g-1); odd parity
    inverts the second variable, one more flip on the right.  As AS = SA
    and S^2 = 1 this is A^g with one column-reversed view when g - 1 +
    parity is odd.  Equals the brute-force k_state of the matching open
    necklace graph.
    """
    if g < 1:
        raise ValueError("need genus >= 1")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    mats = _power(order, g).mats
    if (g - 1 + parity) % 2:
        mats = [m[:, ::-1] for m in mats]  # right action of S: j -> -j
    terms = [{(i - order, j - order): int(v)
              for i, row in enumerate(mats[d // 2]) for j, v in enumerate(row) if v}
             if d % 2 == 0 else {} for d in range(order + 1)]
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
