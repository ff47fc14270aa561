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

All matrices are stored per t-degree d with entries scaled by d!, which
keeps every intermediate an integer: the scaled T1 entries are multinomial
sums and the scaled product rule only multiplies by binomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

from .algebra import LaurentPoly, TSeries, pairing_in_var, ts_exp
from .graphs import ColoredGraph
from .periods import _monomials, _walk
from .potential import graph_potential, vertex_potential


def bessel(order: int) -> TSeries:
    """B(z) = sum z^(2m) / (m!)^2 truncated at the given order."""
    coeffs = []
    for d in range(order + 1):
        if d % 2 == 0:
            m = d // 2
            coeffs.append(Fraction(1, math.factorial(m) ** 2))
        else:
            coeffs.append(Fraction(0))
    return TSeries(order, tuple(coeffs))


class KernelMatrix:
    """Two-boundary kernel in Fourier modes -D..D, truncated at t^D.

    Entry (i, j) at t^d is stored in ``mats[d // 2][D + i, D + j]`` scaled
    by d!; odd t-degrees vanish identically for every kernel built here,
    as do entries with i + j odd or max(|i|, |j|) > d.
    """

    __slots__ = ("order", "mats")

    def __init__(self, order: int, mats: Sequence[np.ndarray]):
        size = 2 * order + 1
        if len(mats) != order // 2 + 1:
            raise ValueError(f"need {order // 2 + 1} degree matrices, got {len(mats)}")
        for m in mats:
            if m.shape != (size, size):
                raise ValueError(f"matrix shape {m.shape} does not match order {order}")
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
        coeffs = []
        for d in range(D + 1):
            if d % 2 == 0:
                v = self.mats[d // 2][D + i, D + j]
                coeffs.append(Fraction(int(v), math.factorial(d)))
            else:
                coeffs.append(Fraction(0))
        return TSeries(D, tuple(coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KernelMatrix):
            return NotImplemented
        return self.order == other.order and all(
            (a == b).all() for a, b in zip(self.mats, other.mats))

    def __hash__(self):
        return hash((self.order, tuple(tuple(map(int, m.flat)) for m in self.mats)))


def _flip_rows(m: np.ndarray) -> np.ndarray:
    # left action of S: (S m)[i, j] = m[-i, j]
    return m[::-1, :]


def _zero_mats(order: int) -> list[np.ndarray]:
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


@lru_cache(maxsize=8)  # bounded: a long-lived process may ask for many orders
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


def t1_kernel_direct(order: int) -> KernelMatrix:
    """T1 by multiplying the two Bessel series; cross-check for t1_kernel."""
    vs = ("x", "y")
    plus = LaurentPoly(vs, {(1, 0): 1, (0, 1): 1})
    minus = LaurentPoly(vs, {(-1, 0): 1, (0, -1): 1})

    def bessel_of(p: LaurentPoly) -> TSeries:
        coeffs = []
        for d in range(order + 1):
            if d % 2 == 0:
                m = d // 2
                coeffs.append(p ** (2 * m) * Fraction(1, math.factorial(m) ** 2))
            else:
                coeffs.append(LaurentPoly.zero(vs))
        return TSeries(order, tuple(coeffs))

    prod = bessel_of(plus) * bessel_of(minus)
    D = order
    mats = _zero_mats(D)
    for u in range(D // 2 + 1):
        d = 2 * u
        for (i, j), c in prod.coeffs[d].terms.items():
            v = c * math.factorial(d)
            if v.denominator != 1:
                raise ArithmeticError("scaled entry is not integral")
            mats[u][D + i, D + j] = v.numerator
    return KernelMatrix(D, mats)


def _convolve(p: KernelMatrix, q: KernelMatrix, insert_flip: bool) -> KernelMatrix:
    if p.order != q.order:
        raise ValueError("kernel orders differ")
    D = p.order
    out = _zero_mats(D)
    for u in range(D // 2 + 1):
        d = 2 * u
        acc = None
        for a_half in range(u + 1):
            a = 2 * a_half
            left = p.mats[a_half]
            right = q.mats[u - a_half]
            if insert_flip:
                right = _flip_rows(right)
            term = math.comb(d, a) * (left @ right)
            acc = term if acc is None else acc + term
        out[u] = acc
    return KernelMatrix(D, out)


def kernel_compose(p: KernelMatrix, q: KernelMatrix) -> KernelMatrix:
    """Compose two kernels along a shared boundary circle.

    [p(x, z) q(z, y)]_{z^0}: mode i of p's second variable pairs with mode
    -i of q's first, so the matrix product carries one flip between the
    factors.  The flip kernel itself is the identity of this product.
    """
    return _convolve(p, q, insert_flip=True)


def kernel_matmul(p: KernelMatrix, q: KernelMatrix) -> KernelMatrix:
    """Plain matrix product of coefficient matrices (no flip inserted)."""
    return _convolve(p, q, insert_flip=False)


def kernel_trace(p: KernelMatrix, flips: int) -> TSeries:
    """tr(p S^flips) as a scalar series."""
    D = p.order
    size = p.size
    coeffs = []
    for d in range(D + 1):
        if d % 2 == 0:
            m = p.mats[d // 2]
            if flips % 2:
                t = sum(int(m[i, size - 1 - i]) for i in range(size))
            else:
                t = sum(int(m[i, i]) for i in range(size))
            coeffs.append(Fraction(t, math.factorial(d)))
        else:
            coeffs.append(Fraction(0))
    return TSeries(D, tuple(coeffs))


def trace_formula(g: int, parity: int, order: int) -> TSeries:
    """Laplace-transformed period series tr(A^(g-1) S^(g-1+parity))."""
    if g < 2:
        raise ValueError("the trace formula needs genus >= 2")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    a = t1_kernel(order)
    power = a
    for _ in range(g - 2):
        power = kernel_matmul(power, a)
    return kernel_trace(power, (g - 1 + parity) % 2)


def trace_formula_table(g_max: int, order: int) -> dict[tuple[int, int], TSeries]:
    """trace_formula for every genus 2..g_max and both parities, sharing
    the accumulated kernel powers."""
    if g_max < 2:
        raise ValueError("need g_max >= 2")
    a = t1_kernel(order)
    table = {}
    power = a
    for g in range(2, g_max + 1):
        for parity in (0, 1):
            table[(g, parity)] = kernel_trace(power, (g - 1 + parity) % 2)
        if g < g_max:
            power = kernel_matmul(power, a)
    return table


# ---------------------------------------------------------------------------
# boundary states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryState:
    """Truncated series whose coefficients are Laurent polynomials in the
    leaf variables of an open graph; at t^d every leaf exponent is bounded
    by d in absolute value."""

    order: int
    leaf_vars: tuple[str, ...]
    value: TSeries

    def scalar_series(self) -> TSeries:
        """The state of a closed-up graph as a plain rational series."""
        if self.leaf_vars:
            raise ValueError(f"state still has open leaves {self.leaf_vars}")
        return self.value.map_coeffs(lambda p: p.constant_coefficient())


def _state_from_matrix(kernel: KernelMatrix, names: tuple[str, str] = ("x", "y")) -> BoundaryState:
    D = kernel.order
    coeffs = []
    for d in range(D + 1):
        if d % 2 == 0:
            m = kernel.mats[d // 2]
            terms = {}
            fact = math.factorial(d)
            for i in range(-D, D + 1):
                for j in range(-D, D + 1):
                    v = m[D + i, D + j]
                    if v:
                        terms[(i, j)] = Fraction(int(v), fact)
            coeffs.append(LaurentPoly(names, terms))
        else:
            coeffs.append(LaurentPoly.zero(names))
    return BoundaryState(D, names, TSeries(D, tuple(coeffs)))


def necklace_state(g: int, parity: int, order: int) -> BoundaryState:
    """State T_g(x, y^(+-1)) of the open genus-g necklace, via kernel powers.

    The chain of g doubled-edge beads composes to A^g S^(g-1); odd parity
    inverts the second variable, one more flip on the right.  Equals the
    brute-force k_state of the matching open necklace graph.
    """
    if g < 1:
        raise ValueError("need genus >= 1")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    a = t1_kernel(order)
    power = a
    for _ in range(g - 1):
        power = kernel_compose(power, a)
    if parity:
        D = order
        mats = [m[:, ::-1] for m in power.mats]  # right action of S: j -> -j
        power = KernelMatrix(D, mats)
    return _state_from_matrix(power)


def k_state(g: ColoredGraph, order: int) -> BoundaryState:
    """Boundary state of an open graph by direct expansion of exp(t W).

    Coefficient of t^d is the constant term, in every internal-edge
    variable, of W^d / d!.  It is computed by the walk that gives periods,
    with the leaf variables kept rather than summed out: degree d pairs the
    half-powers W^ceil(d/2) and W^floor(d/2) on opposite internal-edge
    exponents and multiplies them on the leaf exponents.  A closed graph's
    period is the state of a graph with no leaves.
    """
    bundle = graph_potential(g)
    leaf_vars = tuple(sorted(x.id for x in g.leaves))
    names = bundle.variables  # sorted, so the leaves stay in leaf_vars order
    perm = sorted(range(len(names)), key=lambda i: names[i] in leaf_vars)
    monomials = [(tuple(e[i] for i in perm), c) for e, c in _monomials(bundle.potential)]
    coeffs = []
    for d, terms in enumerate(_walk(monomials, len(names), order, len(leaf_vars))):
        fact = math.factorial(d)
        coeffs.append(LaurentPoly(leaf_vars, {e: Fraction(c, fact) for e, c in terms.items()}))
    return BoundaryState(order, leaf_vars, TSeries(order, tuple(coeffs)))


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
    names = tuple(state.leaf_vars[i] for i in keep)

    def glue_poly(p: LaurentPoly) -> LaurentPoly:
        terms = {}
        for e, c in p.terms.items():
            if e[ia] + e[ib] == 0:
                key = tuple(e[i] for i in keep)
                terms[key] = terms.get(key, 0) + c
        return LaurentPoly(names, terms)

    return BoundaryState(state.order, names, state.value.map_coeffs(glue_poly))


# ---------------------------------------------------------------------------
# the four-point symmetry check
# ---------------------------------------------------------------------------


def wdvv_check(parity: int, order: int, drop_monomial: int | None = None) -> bool:
    """Whether the glued four-point function is symmetric in its four slots.

    M3 = exp(t W(x1, x2, m)) for the vertex potential of the given parity;
    pairing two copies along m gives M4(x1, x2, x3, x4), which must be
    invariant under all 24 slot permutations.  ``drop_monomial`` removes
    one term of the vertex potential first (by sorted support index) and
    makes the check fail, which guards the test against vacuity.
    """
    w = vertex_potential(("s1", "s2", "s3"), parity)
    if drop_monomial is not None:
        supp = w.support()
        e = supp[drop_monomial % len(supp)]
        w = w - LaurentPoly(w.vars, {e: w.terms[e]})
    f = ts_exp(w.rename_vars({"s1": "x1", "s2": "x2", "s3": "m"}), order)
    h = ts_exp(w.rename_vars({"s1": "x3", "s2": "x4", "s3": "m"}), order)
    m4 = pairing_in_var(f, h, "m")
    names = ("x1", "x2", "x3", "x4")
    for perm in permutations(names):
        if perm == names:
            continue
        mapping = dict(zip(names, perm))
        permuted = m4.map_coeffs(lambda p: p.rename_vars(mapping))
        if permuted != m4:
            return False
    return True
