import json
import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest

from graphpotentials import potential, tqft
from graphpotentials.algebra import LaurentPoly, TSeries, pairing_in_var, ts_exp
from graphpotentials.graphs import graph_from_json, necklace_graph, theta_graph
from graphpotentials.periods import walk_terms
from graphpotentials.potential import graph_potential, vertex_potential
from graphpotentials.tqft import (
    BoundaryState,
    KernelMatrix,
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
    wdvv_check,
)

XY = ("x", "y")
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name: str):
    return graph_from_json(json.loads((FIXTURES / name).read_text()))


def xy(terms):
    return LaurentPoly(XY, {tuple(e): Fraction(c) for e, c in terms.items()})


def bessel_of(p: LaurentPoly, order: int) -> TSeries:
    """B(t * p) as a series with Laurent-polynomial coefficients."""
    coeffs = [LaurentPoly.zero(p.vars) for _ in range(order + 1)]
    m = 0
    while 2 * m <= order:
        power = p ** (2 * m)
        coeffs[2 * m] = power.__class__(power.vars, {
            e: c / Fraction(factorial(m)) ** 2 for e, c in power.terms.items()})
        m += 1
    return TSeries.from_list(coeffs)


def t1_kernel_direct(order: int) -> KernelMatrix:
    """T1 by multiplying the two Bessel series: the oracle for t1_kernel."""
    prod = bessel_of(xy({(1, 0): 1, (0, 1): 1}), order) * bessel_of(xy({(-1, 0): 1, (0, -1): 1}), order)
    terms = [{} for _ in range(order + 1)]
    for d, t in enumerate(terms):
        for e, c in prod[d].terms.items():
            v = c * factorial(d)
            assert v.denominator == 1, "scaled entry is not integral"
            t[e] = v.numerator
    return KernelMatrix(order, terms)


def as_series(state) -> TSeries:
    """A state's terms as a series of Laurent polynomials, divided by d!."""
    return TSeries(state.order, tuple(
        LaurentPoly(state.leaf_vars, {e: Fraction(c, factorial(d)) for e, c in t.items()})
        for d, t in enumerate(state.terms)))


class TestBessel:
    def test_series_coefficients(self):
        s = bessel(8)
        expected = [Fraction(1), 0, Fraction(1), 0, Fraction(1, 4), 0,
                    Fraction(1, 36), 0, Fraction(1, 576)]
        assert list(s.coeffs) == expected

    def test_denominators_are_square_factorials(self):
        s = bessel(12)
        for m in range(7):
            assert s.coeffs[2 * m] == Fraction(1, factorial(m) ** 2)


class TestT1Kernel:
    def test_closed_form_equals_direct_product(self):
        for order in (8, 12):
            assert t1_kernel(order) == t1_kernel_direct(order)

    def test_sample_entries(self):
        # checked by expanding B(t(x+y)) B(t(1/x+1/y)) term by term
        a = t1_kernel(6)
        assert a.entry(0, 0).coeffs == (1, 0, 0, 0, 6, 0, 0)
        assert a.entry(1, 1).coeffs == (0, 0, 2, 0, 0, 0, 5)
        assert a.entry(1, -1).coeffs == (0, 0, 0, 0, 4, 0, 0)
        assert a.entry(2, 0).coeffs == (0, 0, 1, 0, 0, 0, Fraction(15, 4))
        assert a.entry(2, 2).coeffs == (0, 0, 0, 0, Fraction(3, 2), 0, 0)

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
                for k, c in enumerate(e.coeffs):
                    if c == 0:
                        continue
                    assert k % 2 == 0
                    assert (i + j) % 2 == 0
                    assert max(abs(i), abs(j)) <= k

    def test_entry_outside_range_raises(self):
        a = t1_kernel(4)
        with pytest.raises(IndexError):
            a.entry(5, 0)

    def test_writing_a_returned_kernel_changes_no_later_result(self):
        want = trace_formula(2, 0, 4)
        for t in t1_kernel(4).terms:
            t[(0, 0)] = 99
        assert trace_formula(2, 0, 4) == want


def dense_product(p: KernelMatrix, q: KernelMatrix) -> KernelMatrix:
    """The product over full dense numpy matrices of the ``mats`` view: at
    t^d, with d!-scaled entries, the sum over even a of C(d, a) p_a q_(d-a).
    Oracle for tqft._product on kernels with empty odd degrees."""
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
    return KernelMatrix(D, terms)


def random_kernel(order: int, rng: random.Random, density: float) -> KernelMatrix:
    """Signed entries anywhere in the even degrees, odd i + j and |i|, |j| > d
    included."""
    modes = range(-order, order + 1)
    terms = [{} for _ in range(order + 1)]
    for t in terms[::2]:
        for i in modes:
            for j in modes:
                if rng.random() < density:
                    t[(i, j)] = rng.randint(-2 ** 70, 2 ** 70)
    return KernelMatrix(order, terms)


class TestProduct:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_powers_of_a(self, n):
        a = t1_kernel(12)
        assert tqft._power(12, n) == dense_product(tqft._power(12, n - 1), a)

    def test_flip_on_either_side(self):
        # S is nonzero on its whole antidiagonal at t^0, outside |i|, |j| <= 0
        s = flip_operator(12)
        for x in (t1_kernel(12), tqft._power(12, 3), s):
            assert kernel_matmul(x, s) == dense_product(x, s)
            assert kernel_matmul(s, x) == dense_product(s, x)

    def test_compose_on_reversed_views(self):
        a = t1_kernel(10)
        a3 = tqft._power(10, 3)
        s = flip_operator(10)
        for p, q in ((a, a), (a3, a), (a, s), (s, a3)):
            flipped = KernelMatrix(q.order, [{(-i, j): v for (i, j), v in t.items()} for t in q.terms])
            assert kernel_compose(p, q) == dense_product(p, flipped)

    def test_zero_kernel(self):
        zero = KernelMatrix(8, [{} for _ in range(9)])
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


    def test_cancelled_entries_left_out(self):
        # (0, 0) sums 1 * 1 + 1 * -1: a zero, which the format leaves out
        p = KernelMatrix(2, [{(0, 0): 1, (0, 1): 1}, {}, {}])
        q = KernelMatrix(2, [{(0, 0): 1, (1, 0): -1}, {}, {}])
        assert kernel_matmul(p, q).terms == [{}, {}, {}]


class TestKernelMatrix:
    @pytest.mark.parametrize("value", [float(2 ** 40), np.int64(2 ** 40), True],
                             ids=["float64", "int64", "bool"])
    def test_fixed_width_entries_rejected(self, value):
        # int64 would wrap 2**40 * 2**40 to 0, a float would round it, and a
        # bool prints as True
        terms = [{(0, 0): value}] + [{} for _ in range(4)]
        with pytest.raises(ValueError, match="need int"):
            KernelMatrix(4, terms)

    def test_degree_count_and_mode_range_checked(self):
        with pytest.raises(ValueError, match="degree dicts"):
            KernelMatrix(4, [{} for _ in range(3)])
        with pytest.raises(ValueError, match="out of range"):
            KernelMatrix(4, [{(0, 5): 1}] + [{} for _ in range(4)])

    def test_zeros_left_out_and_terms_copied(self):
        terms = [{(0, 0): 0, (1, 1): 2}, {}, {}]
        k = KernelMatrix(2, terms)
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


class TestOperators:
    def test_flip_is_an_involution(self):
        # as a plain matrix S^2 = I; under composition (which inserts one
        # more flip) S o S = S
        s = flip_operator(6)
        one = kernel_matmul(s, s)
        for i in range(-6, 7):
            for j in range(-6, 7):
                expect = 1 if (i == j) else 0
                assert one.entry(i, j).coeffs[0] == expect
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
        diag = sum((a.entry(i, i).coeffs[6] for i in range(-6, 7)), Fraction(0))
        anti = sum((a.entry(i, -i).coeffs[6] for i in range(-6, 7)), Fraction(0))
        assert t_diag.coeffs[6] == diag
        assert t_anti.coeffs[6] == anti


class TestTraceFormula:
    def test_genus2_odd_is_central_binomial_cubed(self):
        t = trace_formula(2, 1, 16)
        for n in range(9):
            assert t.coeffs[2 * n] == Fraction(comb(2 * n, n) ** 3, factorial(2 * n))

    def test_genus2_even_anchors(self):
        t = trace_formula(2, 0, 12)
        table = {0: 1, 4: 384, 8: 645120, 12: 1513881600}
        for k in range(13):
            assert t.coeffs[k] * factorial(k) == table.get(k, 0)

    def test_genus_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            trace_formula(1, 0, 4)

    @pytest.mark.parametrize("g", [2, 3, 4, 7])
    def test_one_product_per_genus_step(self, g, monkeypatch):
        # the power loop draws A^(g-1) in g - 2 products, and calls them
        # through the module name so that a wrapper sees each one
        from graphpotentials import tqft

        real = tqft.kernel_matmul
        calls = []

        def counting(p, q):
            calls.append(1)
            return real(p, q)

        monkeypatch.setattr(tqft, "kernel_matmul", counting)
        for parity in (0, 1):
            calls.clear()
            trace_formula(g, parity, 6)
            assert len(calls) == g - 2
        calls.clear()
        trace_formula_table(g, 6)
        assert len(calls) == g - 2

    def test_table_matches_single_calls(self):
        table = trace_formula_table(5, 8)
        for g in range(2, 6):
            for parity in (0, 1):
                assert table[(g, parity)] == trace_formula(g, parity, 8)

    def test_genus3_against_direct_expansion(self):
        from graphpotentials.potential import graph_potential
        from graphpotentials.periods import periods_bruteforce

        for parity in (0, 1):
            g = necklace_graph(3, parity=parity)
            w = graph_potential(g).potential
            brute = periods_bruteforce(w, 8)
            t = trace_formula(3, parity, 8)
            for k in range(9):
                assert t.coeffs[k] * factorial(k) == brute.pi[k]


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
        # odd parity: pins necklace_state's A^g S^(g-1+parity) without k_state
        order = 10
        a = t1_kernel(order)
        chain = a
        for g in range(1, 6):
            if g > 1:
                chain = kernel_compose(chain, a)
            expect = kernel_matmul(chain, flip_operator(order)) if parity else chain
            state = necklace_state(g, parity, order)
            assert state.leaf_vars == XY
            for d in range(order + 1):
                terms = state.terms[d]
                for i in range(-order, order + 1):
                    for j in range(-order, order + 1):
                        assert terms.get((i, j), 0) == expect.entry(i, j).coeffs[d] * factorial(d)

    def test_bessel_product_for_open_genus_one(self):
        # two pairs of pants glued along two of their boundaries
        state = necklace_state(1, 1, 8)
        left = bessel_of(xy({(1, 0): 1, (0, -1): 1}), 8)
        right = bessel_of(xy({(-1, 0): 1, (0, 1): 1}), 8)
        assert as_series(state) == left * right

    def test_even_open_genus_one(self):
        state = necklace_state(1, 0, 8)
        left = bessel_of(xy({(1, 0): 1, (0, 1): 1}), 8)
        right = bessel_of(xy({(-1, 0): 1, (0, -1): 1}), 8)
        assert as_series(state) == left * right

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
        state = BoundaryState(1, ("a", "b", "c"), [{}, {(1, -1, 0): 2, (2, -2, 0): -2, (1, 0, 1): 5}])
        assert glue(state, "a", "b") == BoundaryState(1, ("c",), [{}, {}])

    def test_glue_requires_existing_leaves(self):
        state = necklace_state(1, 0, 4)
        with pytest.raises(ValueError):
            glue(state, "x", "nope")


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
    """w_p(x1, x2, m) and w_(1-p)(x3, x4, m), each corrupted as the graph's."""
    return (drop_term(vertex_potential(("x1", "x2", "m"), parity), drop_monomial),
            drop_term(vertex_potential(("x3", "x4", "m"), 1 - parity), drop_monomial))


def series_wdvv_check(parity, order, drop_monomial=None):
    """The four-point check on the series engine: pair exp(t w(x1, x2, m))
    with exp(t w(x3, x4, 1/m)) along m and apply all 24 permutations of M4's
    variables."""
    left, right = four_point_pair(parity, drop_monomial)
    m4 = pairing_in_var(ts_exp(left, order), ts_exp(right.negate_var("m"), order), "m")
    return all(LaurentPoly(p.vars, {tuple(e[i] for i in perm): c for e, c in p.terms.items()}) == p
               for perm in permutations(range(4)) for p in m4.coeffs)


class TestWdvv:
    @pytest.mark.parametrize("parity", [0, 1])
    def test_four_point_symmetry(self, parity):
        assert wdvv_check(parity, 6)

    @pytest.mark.parametrize("drop", [0, 1, 2, 3])
    def test_corrupted_potential_fails(self, drop, monkeypatch):
        corrupt_vertex_potential(monkeypatch, drop)
        assert not wdvv_check(0, 6)

    @pytest.mark.parametrize("order", [5, 8])  # 5: the odd-degree pairing of the walk
    @pytest.mark.parametrize("parity", [0, 1])
    def test_verdicts_match_series_engine(self, order, parity):
        for drop in (None, 0, 1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                corrupt_vertex_potential(mp, drop)
                assert wdvv_check(parity, order) == series_wdvv_check(parity, order, drop)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_four_point_graph_pairs_two_copies_of_one_vertex(self, parity, monkeypatch):
        # the other color with m inverted is the same vertex potential
        seen = []
        monkeypatch.setattr(tqft, "k_state", lambda g, order: seen.append(g) or k_state(g, order))
        assert wdvv_check(parity, 4)
        left, right = four_point_pair(parity)
        assert right == vertex_potential(("x3", "x4", "m"), parity).negate_var("m")
        names = ("m", "x1", "x2", "x3", "x4")
        assert graph_potential(seen[0]).potential == left.embed(names) + right.embed(names)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_walk_terms_are_the_series_pairing(self, parity):
        names = ("x1", "x2", "x3", "x4")
        left, right = four_point_pair(parity)
        big = left.embed(("m",) + names) + right.embed(("m",) + names)
        terms = walk_terms(big, 8, names)
        m4 = pairing_in_var(ts_exp(left, 8), ts_exp(right.negate_var("m"), 8), "m")
        for d, t in enumerate(terms):
            assert LaurentPoly(names, {e: Fraction(c, factorial(d)) for e, c in t.items()}) == m4[d]
