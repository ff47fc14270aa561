import json
import math
import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from graphpotentials import periods, potential, tqft
from graphpotentials._record import checked_int
from graphpotentials.algebra import LaurentPoly, pairing_in_var, ts_exp
from graphpotentials.graphs import (
    ORIENTATIONS,
    Leaf,
    dumbbell_graph,
    enumerate_trivalent,
    graph_from_json,
    necklace_graph,
    theta_graph,
    with_colors,
)
from graphpotentials.periods import periods_of_graph, walk_terms
from graphpotentials.potential import graph_potential, vertex_potential
from graphpotentials.tqft import (
    BoundaryState,
    bessel,
    flip_operator,
    glue,
    k_state,
    kernel_compose,
    kernel_matmul,
    kernel_trace,
    necklace_state,
    t1_kernel,
    trace_formula,
    trace_formula_table,
    trace_periods,
    wdvv_check,
)
from test_periods import naive_walk

XY = ("x", "y")
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name: str):
    return graph_from_json(json.loads((FIXTURES / name).read_text()))


def xy(terms):
    return LaurentPoly(XY, {tuple(e): Fraction(c) for e, c in terms.items()})


def series_product(f, g) -> tuple:
    """The product of two truncated series, truncated to the shorter one."""
    return tuple(sum((f[a] * g[d - a] for a in range(1, d + 1)), f[0] * g[d])
                 for d in range(min(len(f), len(g))))


def bessel_of(p: LaurentPoly, order: int) -> tuple[LaurentPoly, ...]:
    """B(t * p) as a series with Laurent-polynomial coefficients."""
    coeffs = [LaurentPoly.zero(p.vars) for _ in range(order + 1)]
    m = 0
    while 2 * m <= order:
        power = p ** (2 * m)
        coeffs[2 * m] = power.__class__(power.vars, {
            e: c / Fraction(factorial(m)) ** 2 for e, c in power.terms.items()})
        m += 1
    return tuple(coeffs)


def t1_kernel_direct(order: int) -> BoundaryState:
    """T1 by multiplying the two Bessel series: the oracle for t1_kernel."""
    prod = series_product(bessel_of(xy({(1, 0): 1, (0, 1): 1}), order),
                          bessel_of(xy({(-1, 0): 1, (0, -1): 1}), order))
    terms = [{} for _ in range(order + 1)]
    for d, t in enumerate(terms):
        for e, c in prod[d].terms.items():
            v = c * factorial(d)
            assert v.denominator == 1, "scaled entry is not integral"
            t[e] = v.numerator
    return BoundaryState(XY, terms)


def as_series(state) -> tuple[LaurentPoly, ...]:
    """A state's terms as a series of Laurent polynomials, divided by d!."""
    return tuple(LaurentPoly(state.leaf_vars, {e: Fraction(c, factorial(d)) for e, c in t.items()})
                 for d, t in enumerate(state.terms))


class TestBessel:
    def test_series_coefficients(self):
        s = bessel(8)
        expected = [Fraction(1), 0, Fraction(1), 0, Fraction(1, 4), 0,
                    Fraction(1, 36), 0, Fraction(1, 576)]
        assert list(s) == expected

    def test_denominators_are_square_factorials(self):
        s = bessel(12)
        for m in range(7):
            assert s[2 * m] == Fraction(1, factorial(m) ** 2)


class TestSeriesViews:
    """A truncated series is a tuple whose entry d is the coefficient of t^d."""

    @pytest.mark.parametrize("order", [0, 1, 6])
    def test_views_are_tuples_of_order_plus_one(self, order):
        closed = glue(necklace_state(2, 1, order), "x", "y")
        w = vertex_potential(("p", "q", "m"), 0)
        for series in (bessel(order), trace_formula(3, 1, order), t1_kernel(order).entry(0, 0),
                       closed.scalar_series(), ts_exp(w, order)):
            assert type(series) is tuple and len(series) == order + 1
        for g, parity in ((2, 0), (3, 1), (4, 0)):
            pi = trace_periods(g, parity, order)
            hat = trace_formula(g, parity, order)
            assert all(hat[k] * factorial(k) == pi[k] for k in range(order + 1))


class TestT1Kernel:
    def test_closed_form_equals_direct_product(self):
        for order in (*range(17), 24):
            assert t1_kernel(order) == t1_kernel_direct(order)

    def test_sample_entries(self):
        # checked by expanding B(t(x+y)) B(t(1/x+1/y)) term by term
        a = t1_kernel(6)
        assert a.entry(0, 0) == (1, 0, 0, 0, 6, 0, 0)
        assert a.entry(1, 1) == (0, 0, 2, 0, 0, 0, 5)
        assert a.entry(1, -1) == (0, 0, 0, 0, 4, 0, 0)
        assert a.entry(2, 0) == (0, 0, 1, 0, 0, 0, Fraction(15, 4))
        assert a.entry(2, 2) == (0, 0, 0, 0, Fraction(3, 2), 0, 0)

    def test_symmetry_and_flip_invariance(self):
        a = t1_kernel(12)
        for i in range(-12, 13):
            for j in range(-12, 13):
                assert a.entry(i, j) == a.entry(j, i)
                assert a.entry(i, j) == a.entry(-i, -j)

    def test_parity_and_support_vanishing(self):
        a = t1_kernel(10)
        for i in range(-10, 11):
            for j in range(-10, 11):
                e = a.entry(i, j)
                for k, c in enumerate(e):
                    if c == 0:
                        continue
                    assert k % 2 == 0
                    assert (i + j) % 2 == 0
                    assert max(abs(i), abs(j)) <= k

    def test_entry_outside_range_raises(self):
        a = t1_kernel(4)
        with pytest.raises(ValueError, match="^mode must be an int from -4 to 4, got 5$"):
            a.entry(5, 0)

    def test_writing_a_returned_kernel_changes_no_later_result(self):
        want = trace_formula(2, 0, 4)
        for t in t1_kernel(4).terms:
            t[(0, 0)] = 99
        assert trace_formula(2, 0, 4) == want


def dense_product(p: BoundaryState, q: BoundaryState) -> BoundaryState:
    """The product over full dense numpy matrices of the ``mats`` view: at
    t^d, with d!-scaled entries, the sum over even a of C(d, a) p_a q_(d-a).
    Oracle for kernel_matmul and kernel_compose, which run on
    periods.contract, on kernels with empty odd degrees."""
    if p.order != q.order:
        raise ValueError("kernel orders differ")
    D = p.order
    pm, qm = p.mats, q.mats
    terms = [{} for _ in range(D + 1)]
    for u in range(D // 2 + 1):
        acc = pm[0] @ qm[u]
        for a in range(1, u + 1):
            acc += comb(2 * u, 2 * a) * (pm[a] @ qm[u - a])
        terms[2 * u] = {(i - D, j - D): v for (i, j), v in np.ndenumerate(acc)}
    return BoundaryState(XY, terms)


def random_kernel(order: int, rng: random.Random, density: float) -> BoundaryState:
    """Signed entries anywhere in the even degrees, odd i + j and |i|, |j| > d
    included."""
    modes = range(-order, order + 1)
    terms = [{} for _ in range(order + 1)]
    for t in terms[::2]:
        for i in modes:
            for j in modes:
                if rng.random() < density:
                    t[(i, j)] = rng.randint(-2 ** 70, 2 ** 70)
    return BoundaryState(XY, terms)


def power_of_a(order: int, n: int) -> BoundaryState:
    """A^n for n >= 1: the library's unpruned composition power by repeated
    squaring, A^n S^(n-1), flipped when n is even."""
    power = tqft._by_squaring(t1_kernel(order), n)
    return tqft._flipped(power) if n % 2 == 0 else power


class TestProduct:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_powers_of_a(self, n):
        a = t1_kernel(12)
        assert power_of_a(12, n) == dense_product(power_of_a(12, n - 1), a)

    def test_flip_on_either_side(self):
        # S is nonzero on its whole antidiagonal at t^0, outside |i|, |j| <= 0
        s = flip_operator(12)
        for x in (t1_kernel(12), power_of_a(12, 3), s):
            assert kernel_matmul(x, s) == dense_product(x, s)
            assert kernel_matmul(s, x) == dense_product(s, x)

    def test_compose_on_reversed_views(self):
        a = t1_kernel(10)
        a3 = power_of_a(10, 3)
        s = flip_operator(10)
        for p, q in ((a, a), (a3, a), (a, s), (s, a3)):
            flipped = BoundaryState(XY, [{(-i, j): v for (i, j), v in t.items()} for t in q.terms])
            assert kernel_compose(p, q) == dense_product(p, flipped)

    def test_zero_kernel(self):
        zero = BoundaryState(XY, [{} for _ in range(9)])
        a = t1_kernel(8)
        for p, q in ((zero, a), (a, zero), (zero, zero)):
            assert kernel_matmul(p, q) == dense_product(p, q) == zero

    @pytest.mark.parametrize("order", [0, 5, 8])
    @pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
    def test_random_kernels(self, order, density):
        rng = random.Random(f"{order}:{density}")
        for _ in range(3):
            p = random_kernel(order, rng, density)
            q = random_kernel(order, rng, density)
            assert kernel_matmul(p, q) == dense_product(p, q)

    def test_table_matches_dense_chain(self):
        a = t1_kernel(16)
        power = a
        table = trace_formula_table(12, 16)
        for g in range(2, 13):
            for parity in (0, 1):
                assert table[(g, parity)] == kernel_trace(power, g - 1 + parity)
            power = dense_product(power, a)

    @pytest.mark.parametrize("product", [kernel_matmul, kernel_compose])
    def test_orders_must_match(self, product):
        # the contraction runs over one order's degrees: a shorter factor
        # would truncate the result without notice
        with pytest.raises(ValueError, match="orders differ"):
            product(t1_kernel(4), t1_kernel(6))
        with pytest.raises(ValueError, match="orders differ"):
            product(t1_kernel(6), t1_kernel(4))

    def test_cancelled_entries_left_out(self):
        # (0, 0) sums 1 * 1 + 1 * -1: a zero, which the format leaves out
        p = BoundaryState(XY, [{(0, 0): 1, (0, 1): 1}, {}, {}])
        q = BoundaryState(XY, [{(0, 0): 1, (1, 0): -1}, {}, {}])
        assert kernel_matmul(p, q).terms == [{}, {}, {}]


def wrong_weight(n: int, k: int) -> int:
    return math.comb(n, k) + (0 < k < n)


class TestIndependentChecks:
    """Kernel products and the walk run on one contraction, periods.contract.
    With its binomial weight wrong, each check on its own must fail: the
    oracles compute without it, and brute force and the trace formula glue
    different states in a different order."""

    def kernels(self):
        a = t1_kernel(8)
        return kernel_matmul(a, a) == dense_product(a, a)

    def walk(self):
        # v0 v1 + 1/v0 and v2 / v1 + 1/v2: two pieces, glued along v1
        pieces = [LaurentPoly(("v0", "v1"), {(1, 1): 1, (-1, 0): 1}),
                  LaurentPoly(("v1", "v2"), {(-1, 1): 1, (0, -1): 1})]
        monomials = [((1, 1, 0), 1), ((-1, 0, 0), 1), ((0, -1, 1), 1), ((0, 0, -1), 1)]
        return walk_terms(pieces, 6) == naive_walk(monomials, 3, 6, 0)

    def brute_against_trace(self, parity):
        g = necklace_graph(4, parity=parity)
        return periods_of_graph(g, 8, method="brute").pi == periods_of_graph(g, 8, method="tqft").pi

    @pytest.mark.parametrize("check", ["kernels", "walk", "brute_against_trace-0",
                                       "brute_against_trace-1"])
    def test_each_check_sees_a_wrong_weight(self, check, monkeypatch):
        name, _, parity = check.partition("-")
        run = getattr(self, name)
        args = (int(parity),) if parity else ()
        assert run(*args)
        monkeypatch.setattr(periods, "math", SimpleNamespace(**{**vars(math), "comb": wrong_weight}))
        assert not run(*args)


class TestKernelMatrix:
    """A kernel is the state on legs (x, y): the constructor's checks on two
    legs, and the matrix view that only a two-leg state has."""

    @pytest.mark.parametrize("value", [float(2 ** 40), np.int64(2 ** 40), True],
                             ids=["float64", "int64", "bool"])
    def test_fixed_width_entries_rejected(self, value):
        # int64 would wrap 2**40 * 2**40 to 0, a float would round it, and a
        # bool prints as True
        terms = [{(0, 0): value}] + [{} for _ in range(4)]
        with pytest.raises(ValueError, match="need int"):
            BoundaryState(XY, terms)

    def test_degree_count_and_mode_range_checked(self):
        # the order is the last degree, so no degree at all is the one count refused,
        # and the modes are bounded by that order
        with pytest.raises(ValueError, match="^need at least one degree dict, got none$"):
            BoundaryState(XY, [])
        assert BoundaryState(XY, [{(0, 4): 1}] + [{} for _ in range(4)]).order == 4
        with pytest.raises(ValueError, match="out of range"):
            BoundaryState(XY, [{(0, 4): 1}] + [{} for _ in range(3)])

    @pytest.mark.parametrize("mode", [(0.5, 0), (0, 1.0), (True, 0), (0, False), ("0", 0)],
                             ids=["float", "integral-float", "bool", "bool-false", "str"])
    def test_modes_must_be_ints(self, mode):
        # 0.5 or "0" never pairs in a contraction, and 1.0 or True pairs as 1
        # but prints otherwise
        with pytest.raises(ValueError, match="need ints"):
            BoundaryState(XY, [{mode: 1}, {}, {}])

    def test_zeros_left_out_and_terms_copied(self):
        terms = [{(0, 0): 0, (1, 1): 2}, {}, {}]
        k = BoundaryState(XY, terms)
        terms[0][(1, 1)] = 3
        assert k.terms == [{(1, 1): 2}, {}, {}]

    def test_mats_view_holds_the_even_degrees(self):
        a = t1_kernel(6)
        mats = a.mats
        assert len(mats) == 4 and all(m.shape == (13, 13) and m.dtype == object for m in mats)
        for d in range(0, 7, 2):
            for i in range(-6, 7):
                for j in range(-6, 7):
                    assert mats[d // 2][6 + i, 6 + j] == a.terms[d].get((i, j), 0)


class TestBoundaryState:
    """One record holds the states on any number of legs, kernels included."""

    # name -> (the t^0 entry on n legs, the refusal), at order 2
    REFUSED = {
        "wrong-arity": (lambda n: {(0,) * (n + 1): 1}, "out of range"),
        "float-exponent": (lambda n: {(0.0,) * n: 1}, "need ints"),
        "bool-exponent": (lambda n: {(True,) * n: 1}, "need ints"),
        "beyond-order": (lambda n: {(3,) + (0,) * (n - 1): 1}, "out of range"),
        "float-value": (lambda n: {(0,) * n: 1.0}, "need int"),
        "int64-value": (lambda n: {(0,) * n: np.int64(1)}, "need int"),
        # a degree is read by its items: an int has none
        "int-degree": (lambda n: 1, "need dict"),
    }

    @pytest.mark.parametrize("legs", [("a",), ("a", "b", "c")], ids=["1-leg", "3-leg"])
    @pytest.mark.parametrize("refused", list(REFUSED))
    def test_constructor_refuses(self, legs, refused):
        entry, match = self.REFUSED[refused]
        n = len(legs)
        BoundaryState(legs, [{(0,) * n: 1}, {}, {}])
        with pytest.raises(ValueError, match=match):
            BoundaryState(legs, [entry(n), {}, {}])

    def test_a_glued_kernel_is_its_flipped_trace(self):
        a = t1_kernel(12)
        closed = glue(a, "x", "y")
        assert closed.leaf_vars == ()
        assert tuple(t.get((), 0) for t in closed.terms) == kernel_trace(a, 1)

    def test_open_genus_one_necklace_is_the_kernel(self):
        assert necklace_state(1, 0, 8) == t1_kernel(8)

    def test_kernel_views_need_two_legs(self):
        state = BoundaryState(("a", "b", "c"), [{(0, 0, 0): 1}, {}])
        assert state.size == 3
        with pytest.raises(ValueError, match="two leaves"):
            state.mats
        with pytest.raises(ValueError, match="two leaves"):
            state.entry(0, 0)
        with pytest.raises(ValueError, match=r"^state still has open leaves \('a', 'b', 'c'\)$"):
            state.scalar_series()

    @pytest.mark.parametrize("operation", [
        lambda s, a: kernel_compose(s, a),
        lambda s, a: kernel_compose(a, s),
        lambda s, a: kernel_matmul(s, a),
        lambda s, a: kernel_matmul(a, s),
        lambda s, a: kernel_trace(s, 0),
        lambda s, a: kernel_trace(s, 1),
        lambda s, a: tqft._pair_traces(s, a),
        lambda s, a: tqft._pair_traces(a, s),
    ], ids=["compose-left", "compose-right", "matmul-left", "matmul-right",
            "trace", "flipped-trace", "pair-left", "pair-right"])
    def test_kernel_operations_need_two_legs(self, operation):
        # unchecked, a product pairs a 3-leg key by its first two exponents
        # and a trace reads no entry of it
        state = BoundaryState(("a", "b", "c"), [{(0, 0, 0): 1}, {}, {(1, 0, -1): 2}])
        with pytest.raises(ValueError, match="two leaves"):
            operation(state, t1_kernel(2))

    def test_constructor_refuses_repeated_leaf_names(self):
        # glue would sum out every copy of "a" and leave no leaf open
        with pytest.raises(ValueError, match="repeated leaf names"):
            BoundaryState(("a", "a", "b"), [{(0, 0, 0): 1}, {(1, 0, -1): 2}])

    @pytest.mark.parametrize("build", [
        lambda: t1_kernel(6),
        lambda: flip_operator(6),
        lambda: necklace_state(2, 1, 6),
        lambda: k_state(necklace_graph(2, open_ends=True, parity=1), 6),
        lambda: glue(k_state(fixture("tripod.json"), 6), "X", "Y"),
    ], ids=["t1_kernel", "flip_operator", "necklace_state", "k_state", "glue"])
    def test_built_states_pass_the_constructor(self, build):
        # the library builds states past the constructor's checks; each one
        # passes them, and its order is its last degree
        state = build()
        assert BoundaryState(state.leaf_vars, state.terms) == state
        assert state.order == len(state.terms) - 1 == 6


class TestOperators:
    def test_flip_is_an_involution(self):
        # as a plain matrix S^2 = I; under composition (which inserts one
        # more flip) S o S = S
        s = flip_operator(6)
        one = kernel_matmul(s, s)
        for i in range(-6, 7):
            for j in range(-6, 7):
                expect = 1 if (i == j) else 0
                assert one.entry(i, j)[0] == expect
        assert kernel_compose(s, s) == s

    def test_flip_is_the_compose_identity(self):
        a = t1_kernel(8)
        s = flip_operator(8)
        assert kernel_compose(a, s) == a
        assert kernel_compose(s, a) == a

    def test_compose_commutes_with_flip(self):
        a = t1_kernel(8)
        s = flip_operator(8)
        assert kernel_compose(a, s) == kernel_compose(s, a)

    def test_compose_is_associative(self):
        a = t1_kernel(6)
        s = flip_operator(6)
        for p, q, r in ((a, a, a), (a, s, a), (s, a, s)):
            assert kernel_compose(kernel_compose(p, q), r) == \
                kernel_compose(p, kernel_compose(q, r))

    def test_trace_with_and_without_flip(self):
        a = t1_kernel(6)
        # tr(A S) sums the antidiagonal, tr(A) the diagonal
        t_diag = kernel_trace(a, 0)
        t_anti = kernel_trace(a, 1)
        diag = sum((a.entry(i, i)[6] for i in range(-6, 7)), Fraction(0))
        anti = sum((a.entry(i, -i)[6] for i in range(-6, 7)), Fraction(0))
        # the trace of the stored integers: d! times the coefficient
        assert t_diag[6] == diag * factorial(6)
        assert t_anti[6] == anti * factorial(6)


class TestTraceFormula:
    def test_genus2_odd_is_central_binomial_cubed(self):
        # pi_2d = C(2d, d)^3 (Coates, Corti, Galkin, Kasprzyk, arXiv:1303.3288)
        t = trace_formula(2, 1, 64)
        for k in range(65):
            assert t[k] == (Fraction(comb(k, k // 2) ** 3, factorial(k)) if k % 2 == 0 else 0)

    def test_genus2_even_is_its_closed_form(self):
        # pi_4n = 16^n (4n)!/(n!)^4 and every other pi_k is 0, from the trace
        # formula to K = 64 and by brute force on both genus-2 graphs to K = 16
        even = tuple(16 ** (k // 4) * factorial(k) // factorial(k // 4) ** 4 if k % 4 == 0 else 0
                     for k in range(65))
        assert trace_periods(2, 0, 64) == even
        for g in (theta_graph(), dumbbell_graph()):
            assert periods_of_graph(g, 16, method="brute").pi == even[:17]

    def test_genus2_even_anchors(self):
        t = trace_formula(2, 0, 12)
        table = {0: 1, 4: 384, 8: 645120, 12: 1513881600}
        for k in range(13):
            assert t[k] * factorial(k) == table.get(k, 0)
        # in closed form pi_4m = C(4m, 2m) 16^m C(2m, m)^2, and 0 elsewhere
        even = tuple(comb(k, k // 2) * 16 ** (k // 4) * comb(k // 2, k // 4) ** 2
                     if k % 4 == 0 else 0 for k in range(65))
        assert trace_periods(2, 0, 64) == trace_formula_table(3, 64)[(2, 0)] == even

    def test_genus_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            trace_formula(1, 0, 4)

    # genus -> (products for one trace, products for the table up to it):
    # A^(g-1) is paired as A^ceil((g-1)/2) times A^floor((g-1)/2), the
    # second by squaring, the first one product more when g - 1 is odd
    # (g = 16: A^7 from A, A^2, A^3, A^6, A^7, then A^8); the table builds
    # A^1..A^floor(g/2), one product each
    PRODUCTS = {2: (0, 0), 3: (0, 0), 4: (1, 1), 7: (2, 2), 8: (3, 3), 16: (5, 7), 25: (4, 11)}

    @pytest.mark.parametrize("g", [2, 3, 4, 7, 8, 16, 25])
    def test_one_product_per_genus_step(self, g, monkeypatch):
        # the products are counted through the module name, where a wrapper
        # (perfbench/tracing.py) sees each one
        from graphpotentials import tqft

        real = tqft.kernel_compose
        calls = []

        def counting(p, q):
            calls.append(1)
            return real(p, q)

        monkeypatch.setattr(tqft, "kernel_compose", counting)
        single, table = self.PRODUCTS[g]
        for parity in (0, 1):
            calls.clear()
            trace_formula(g, parity, 6)
            assert len(calls) == single
        calls.clear()
        trace_formula_table(g, 6)
        assert len(calls) == table

    def test_table_matches_single_calls(self):
        # at g_max = 2 and 3 the table's loop body runs zero times and once
        for g_max in (2, 3, 5):
            table = trace_formula_table(g_max, 8)
            assert list(table) == [(g, p) for g in range(2, g_max + 1) for p in (0, 1)]
            for g, parity in table:
                assert table[(g, parity)] == trace_periods(g, parity, 8)

    def test_genus3_against_direct_expansion(self):
        from graphpotentials.potential import graph_potential
        from graphpotentials.periods import constant_terms_of_powers

        for parity in (0, 1):
            g = necklace_graph(3, parity=parity)
            w = graph_potential(g).potential
            brute = constant_terms_of_powers(w, 8)
            t = trace_formula(3, parity, 8)
            for k in range(9):
                assert t[k] * factorial(k) == brute[k]


class TestTracePeriods:
    """The trace formula's periods are the kernels' integers on every route."""

    @pytest.mark.parametrize("order", [0, 1, 12])
    def test_routes_agree_in_ints(self, order):
        table = trace_formula_table(8, order)
        for g in range(2, 9):
            for parity in (0, 1):
                pi = trace_periods(g, parity, order)
                graph = periods_of_graph(necklace_graph(g, parity=parity), order, "tqft").pi
                assert len(pi) == order + 1 and pi[0] == 1
                assert table[(g, parity)] == graph == pi
                for route in (pi, table[(g, parity)], graph):
                    assert all(type(x) is int for x in route)
                # the Laplace view, read as hat[d] * d! by the benchmark's checks
                hat = trace_formula(g, parity, order)
                assert tuple(hat[d] * factorial(d) for d in range(order + 1)) == pi

    @pytest.mark.parametrize("call,args", [
        (bessel, (-1,)),
        (t1_kernel, (-1,)),
        (flip_operator, (-1,)),
        (necklace_state, (2, 0, -1)),
        (trace_periods, (3, 0, -1)),
        (trace_formula, (3, 0, -1)),
        (trace_formula_table, (3, -1)),
        (lambda g, order: periods_of_graph(g, order, "tqft"), (necklace_graph(3), -1)),
    ], ids=["bessel", "t1_kernel", "flip_operator", "necklace_state", "trace_periods",
            "trace_formula", "trace_formula_table", "periods_of_graph"])
    def test_negative_order_raises(self, call, args):
        with pytest.raises(ValueError, match="order must be an int >= 0"):
            call(*args)

    @pytest.mark.parametrize("order", [-2, 2.0, True, "3", None])
    @pytest.mark.parametrize("builder", [t1_kernel, flip_operator])
    def test_builders_refuse_what_kernel_matrix_refuses(self, builder, order):
        # a kernel's order is its length, so a builder's order follows the one rule
        with pytest.raises(ValueError) as refused:
            checked_int(order, 0, what="order")
        with pytest.raises(ValueError) as built:
            builder(order)
        assert str(built.value) == str(refused.value)


def composed_chain(order: int, beads: int) -> list[BoundaryState]:
    """A, A o A, A o A o A, ... up to ``beads`` factors: the chain of
    kernel_compose calls, A^k S^(k-1), a flip between every two factors and
    no pruning.  The oracle for powers by squaring and paired traces."""
    a = t1_kernel(order)
    chain = [a]
    while len(chain) < beads:
        chain.append(kernel_compose(chain[-1], a))
    return chain


class TestSquaringAndPairing:
    """trace_periods and the table against the chain:
    tr(A^(g-1) S^(g-1+parity)) is the chain of g - 1 factors with 1 + parity
    more flips."""

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 8, 13, 16, 21, 24])
    def test_trace_periods_match_the_chain(self, order):
        chain = composed_chain(order, 24)
        for g in range(2, 26):
            for parity in (0, 1):
                want = kernel_trace(chain[g - 2], 1 + parity)
                assert trace_periods(g, parity, order) == want, (g, parity)

    @pytest.mark.parametrize("g_max", [2, 3, 7, 12, 25])
    def test_table_matches_the_chain(self, g_max):
        for order in (0, 1, 8, 13, 24):
            chain = composed_chain(order, g_max - 1)
            table = trace_formula_table(g_max, order)
            # the CSV columns follow this order
            assert list(table) == [(g, p) for g in range(2, g_max + 1) for p in (0, 1)]
            assert table == {(g, p): kernel_trace(chain[g - 2], 1 + p) for g, p in table}

    @pytest.mark.parametrize("m,n", [(1, 2), (1, 4), (2, 5), (3, 4)])
    def test_pair_traces_walk_either_factor(self, m, n):
        # A^m and A^n store different numbers of entries at a degree, so the
        # two orders walk different factors wherever the sizes differ
        p, q = power_of_a(16, m), power_of_a(16, n)
        whole = kernel_compose(p, q)
        assert tqft._pair_traces(p, q) == tqft._pair_traces(q, p) \
            == (kernel_trace(whole, 1), kernel_trace(whole, 2))

    @pytest.mark.parametrize("order", [12, 16])
    def test_cut_keeps_only_the_modes_a_pairing_meets(self, order):
        # at t^d a power has no mode beyond d, so a pairing within the order
        # meets no entry of the other factor with a mode beyond K - d
        a = t1_kernel(order)
        p, q = tqft._by_squaring(a, 3), tqft._by_squaring(a, 2)
        cut = tqft._cut(p)
        for d, (t, kept) in enumerate(zip(p.terms, cut.terms)):
            assert kept == {(i, j): v for (i, j), v in t.items() if max(abs(i), abs(j)) <= order - d}
        assert sum(map(len, cut.terms)) < sum(map(len, p.terms))
        assert tqft._pair_traces(cut, tqft._cut(q)) == tqft._pair_traces(cut, q) \
            == tqft._pair_traces(p, q)


class TestBoundaryStates:
    @pytest.mark.parametrize("g,parity", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_k_state_matches_kernel_power(self, g, parity):
        open_graph = necklace_graph(g, open_ends=True, parity=parity)
        assert k_state(open_graph, 6) == necklace_state(g, parity, 6)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_k_state_of_open_genus3_necklace(self, parity):
        open_graph = necklace_graph(3, open_ends=True, parity=parity)
        assert k_state(open_graph, 8) == necklace_state(3, parity, 8)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_necklace_state_is_the_composed_chain(self, parity):
        # A o A o ... o A (each o inserts a flip), then one right flip for
        # odd parity: pins necklace_state's A^g S^(g-1+parity), built by
        # squaring, without k_state
        order = 10
        a = t1_kernel(order)
        chain = a
        for g in range(1, 12):
            if g > 1:
                chain = kernel_compose(chain, a)
            expect = kernel_matmul(chain, flip_operator(order)) if parity else chain
            state = necklace_state(g, parity, order)
            assert state.leaf_vars == XY
            assert state.terms == expect.terms, g

    def test_bessel_product_for_open_genus_one(self):
        # two pairs of pants glued along two of their boundaries
        state = necklace_state(1, 1, 8)
        left = bessel_of(xy({(1, 0): 1, (0, -1): 1}), 8)
        right = bessel_of(xy({(-1, 0): 1, (0, 1): 1}), 8)
        assert as_series(state) == series_product(left, right)

    def test_even_open_genus_one(self):
        state = necklace_state(1, 0, 8)
        left = bessel_of(xy({(1, 0): 1, (0, 1): 1}), 8)
        right = bessel_of(xy({(-1, 0): 1, (0, -1): 1}), 8)
        assert as_series(state) == series_product(left, right)

    @pytest.mark.parametrize("g,parity", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_glue_closes_the_necklace(self, g, parity):
        state = necklace_state(g, parity, 8)
        closed = glue(state, "x", "y")
        assert closed.leaf_vars == ()
        assert closed.scalar_series() == trace_formula(g + 1, parity, 8)

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_walk_and_kernel_states_close_to_the_trace(self, g, parity):
        state = k_state(necklace_graph(g, open_ends=True, parity=parity), 12)
        assert state == necklace_state(g, parity, 12)
        assert glue(state, "x", "y").scalar_series() == trace_formula(g + 1, parity, 12)

    @pytest.mark.parametrize("name", ["necklace_open_g1.json", "caterpillar.json",
                                      "tripod.json", "theta_colored.json"])
    def test_k_state_coefficients_are_ints(self, name):
        state = k_state(fixture(name), 8)
        assert all(type(c) is int for t in state.terms for c in t.values())

    def test_k_state_of_closed_graph_is_scalar(self):
        state = k_state(theta_graph(), 6)
        assert state.leaf_vars == ()
        assert state.scalar_series() == trace_formula(2, 0, 6)

    def test_k_state_of_caterpillar_pairs_two_vertices(self):
        # two pants glued along m: the edge variable enters the second
        # vertex inverted, and its constant term pairs the two exponentials
        left = ts_exp(vertex_potential(("p", "q", "m"), 0), 6)
        right = ts_exp(vertex_potential(("r", "s", "m"), 0).negate_var("m"), 6)
        state = k_state(fixture("caterpillar.json"), 6)
        assert as_series(state) == pairing_in_var(left, right, "m")
        assert len(state.terms[6]) == 256

    def test_k_state_without_internal_edges_is_the_exponential(self):
        # every variable is kept, so the walk may prune nothing
        tripod = fixture("tripod.json")
        state = k_state(tripod, 6)
        assert state.leaf_vars == ("X", "Y", "Z")
        assert as_series(state) == ts_exp(graph_potential(tripod).potential, 6)

    def test_glue_leaves_out_cancelled_terms(self):
        state = BoundaryState(("a", "b", "c"), [{}, {(1, -1, 0): 2, (2, -2, 0): -2, (1, 0, 1): 5}, {}])
        assert glue(state, "a", "b") == BoundaryState(("c",), [{}, {}, {}])

    def test_glue_requires_existing_leaves(self):
        state = necklace_state(1, 0, 4)
        with pytest.raises(ValueError):
            glue(state, "x", "nope")


def two_leaf_classes(genus: int):
    """(parity, open graph) for every class of ``enumerate_trivalent(genus,
    leaves=2)`` at both parities: v0 is colored for parity 1, and the leaves
    l0 and l1 become x and y, each at its vertex's default orientation."""
    for uncolored in enumerate_trivalent(genus, leaves=2):
        for parity in (0, 1):
            g = with_colors(uncolored, {"v0": parity})
            yield parity, g._replace(leaves=tuple(
                Leaf(x, leaf.vertex, ORIENTATIONS[g.color(leaf.vertex)])
                for x, leaf in zip(XY, g.leaves)))


class TestOpenGraphStates:
    """The state of an open graph depends only on its genus and parity: every
    two-leaf class of genus g - 1 has the open necklace's state, which
    ``necklace_state`` builds as a power of T1, not by the walk."""

    # g -> the two-leaf classes of genus g - 1, one colored graph per parity each
    CLASSES = {2: 2, 3: 9, 4: 49}

    @pytest.mark.parametrize("genus", sorted(CLASSES))
    def test_two_leaf_states_are_the_necklace_states(self, genus):
        # at K = 8 >= 2 (genus - 1) the two parities' states differ
        want = {p: necklace_state(genus - 1, p, 8) for p in (0, 1)}
        assert want[0] != want[1]
        graphs = list(two_leaf_classes(genus - 1))
        assert len(graphs) == 2 * self.CLASSES[genus]
        for parity, open_graph in graphs:
            assert k_state(open_graph, 8) == want[parity], (parity, open_graph)


class TestParityVisibility:
    """Below these orders the two parities cannot be told apart, so a check
    that should see the parity must run at least that far."""

    def test_necklace_states_differ_from_order_2g(self):
        for g in range(1, 7):
            for order in range(2, 13):
                same = necklace_state(g, 0, order) == necklace_state(g, 1, order)
                assert same == (order < 2 * g), (g, order)

    def test_trace_periods_differ_from_order_2g_minus_2(self):
        table = trace_formula_table(14, 24)
        for g in range(2, 15):
            for order in range(25):
                same = table[(g, 0)][:order + 1] == table[(g, 1)][:order + 1]
                assert same == (order < 2 * g - 2), (g, order)


def drop_term(w, drop_monomial):
    """w without its term at sorted support index ``drop_monomial``; None keeps w."""
    if drop_monomial is None:
        return w
    e = w.support()[drop_monomial % len(w.terms)]
    return w - LaurentPoly(w.vars, {e: w.terms[e]})


def corrupt_vertex_potential(monkeypatch, drop_monomial):
    """Make every graph potential, the four-point graph's too, see vertex
    potentials without one term."""
    monkeypatch.setattr(potential, "vertex_potential",
                        lambda slots, parity: drop_term(vertex_potential(slots, parity), drop_monomial))


def four_point_pair(parity, drop_monomial=None):
    """w_p(x1, x2, m) and w_0(x3, x4, m), each corrupted as the graph's."""
    return (drop_term(vertex_potential(("x1", "x2", "m"), parity), drop_monomial),
            drop_term(vertex_potential(("x3", "x4", "m"), 0), drop_monomial))


def series_wdvv_check(parity, order, drop_monomial=None):
    """The four-point check on the series engine: pair exp(t w(x1, x2, m))
    with exp(t w(x3, x4, 1/m)) along m and apply all 24 permutations of M4's
    variables."""
    left, right = four_point_pair(parity, drop_monomial)
    m4 = pairing_in_var(ts_exp(left, order), ts_exp(right.negate_var("m"), order), "m")
    return all(LaurentPoly(p.vars, {tuple(e[i] for i in perm): c for e, c in p.terms.items()}) == p
               for perm in permutations(range(4)) for p in m4)


class TestWdvv:
    @pytest.mark.parametrize("parity", [0, 1])
    def test_four_point_symmetry(self, parity):
        assert wdvv_check(parity, 6)

    @pytest.mark.parametrize("drop", [0, 1, 2, 3])
    def test_corrupted_potential_fails(self, drop, monkeypatch):
        corrupt_vertex_potential(monkeypatch, drop)
        assert not wdvv_check(1, 6)
        # without term 2 or 3, two color-0 vertices still give a symmetric state
        assert wdvv_check(0, 6) == (drop in (2, 3))

    @pytest.mark.parametrize("order", [5, 8])  # 5: the odd-degree pairing of the walk
    @pytest.mark.parametrize("parity", [0, 1])
    def test_verdicts_match_series_engine(self, order, parity):
        for drop in (None, 0, 1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                corrupt_vertex_potential(mp, drop)
                assert wdvv_check(parity, order) == series_wdvv_check(parity, order, drop)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_four_point_graph_pairs_two_copies_of_one_vertex(self, parity, monkeypatch):
        # vertex b has color 0: a copy of vertex a at parity 0, and at parity 1
        # a copy with m inverted, the other color
        seen = []
        monkeypatch.setattr(tqft, "k_state", lambda g, order: seen.append(g) or k_state(g, order))
        assert wdvv_check(parity, 4)
        left, right = four_point_pair(parity)
        twin = vertex_potential(("x3", "x4", "m"), parity)
        assert right == (twin.negate_var("m") if parity else twin)
        names = ("m", "x1", "x2", "x3", "x4")
        assert graph_potential(seen[0]).potential == left.embed(names) + right.embed(names)

    def test_the_two_parities_check_different_states(self, monkeypatch):
        states = []
        monkeypatch.setattr(tqft, "k_state",
                            lambda g, order: states.append(k_state(g, order)) or states[-1])
        assert wdvv_check(0, 4) and wdvv_check(1, 4)
        assert len(states) == 2 and states[0] != states[1]

    @pytest.mark.parametrize("parity", [0, 1])
    def test_walk_terms_are_the_series_pairing(self, parity):
        names = ("x1", "x2", "x3", "x4")
        left, right = four_point_pair(parity)
        terms = walk_terms([left, right], 8, names)
        m4 = pairing_in_var(ts_exp(left, 8), ts_exp(right.negate_var("m"), 8), "m")
        for d, t in enumerate(terms):
            assert LaurentPoly(names, {e: Fraction(c, factorial(d)) for e, c in t.items()}) == m4[d]
