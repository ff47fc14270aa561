import json
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import pytest

from graphpotentials import tqft
from graphpotentials.algebra import LaurentPoly, TSeries, pairing_in_var, ts_exp
from graphpotentials.graphs import graph_from_json, necklace_graph, theta_graph
from graphpotentials.periods import walk_terms
from graphpotentials.potential import graph_potential, vertex_potential
from graphpotentials.tqft import (
    bessel,
    flip_operator,
    glue,
    k_state,
    kernel_compose,
    kernel_matmul,
    kernel_trace,
    necklace_state,
    t1_kernel,
    t1_kernel_direct,
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
        assert t1_kernel(8) == t1_kernel_direct(8)

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
        for m in t1_kernel(4).mats:
            m[4, 4] = 99
        assert trace_formula(2, 0, 4) == want


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
                terms = state.value[d].terms
                for i in range(-order, order + 1):
                    for j in range(-order, order + 1):
                        assert terms.get((i, j), 0) == expect.entry(i, j).coeffs[d]

    def test_bessel_product_for_open_genus_one(self):
        # two pairs of pants glued along two of their boundaries
        state = necklace_state(1, 1, 8)
        left = bessel_of(xy({(1, 0): 1, (0, -1): 1}), 8)
        right = bessel_of(xy({(-1, 0): 1, (0, 1): 1}), 8)
        assert state.value == left * right

    def test_even_open_genus_one(self):
        state = necklace_state(1, 0, 8)
        left = bessel_of(xy({(1, 0): 1, (0, 1): 1}), 8)
        right = bessel_of(xy({(-1, 0): 1, (0, -1): 1}), 8)
        assert state.value == left * right

    @pytest.mark.parametrize("g,parity", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_glue_closes_the_necklace(self, g, parity):
        state = necklace_state(g, parity, 8)
        closed = glue(state, "x", "y")
        assert closed.leaf_vars == ()
        assert closed.scalar_series() == trace_formula(g + 1, parity, 8)

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
        assert state.value == pairing_in_var(left, right, "m")
        assert len(state.value[6].terms) == 256

    def test_k_state_without_internal_edges_is_the_exponential(self):
        # every variable is kept, so the walk may prune nothing
        tripod = fixture("tripod.json")
        state = k_state(tripod, 6)
        assert state.leaf_vars == ("X", "Y", "Z")
        assert state.value == ts_exp(graph_potential(tripod).potential, 6)

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


def vertex_w(parity, drop_monomial=None):
    return drop_term(vertex_potential(("s1", "s2", "s3"), parity), drop_monomial)


def corrupt_vertex_potential(monkeypatch, drop_monomial):
    """Make wdvv_check see the vertex potential without one term."""
    monkeypatch.setattr(tqft, "vertex_potential",
                        lambda slots, parity: drop_term(vertex_potential(slots, parity), drop_monomial))


def series_wdvv_check(parity, order, drop_monomial=None):
    """The four-point check on the series engine: pair exp(t w(x1, x2, m))
    with exp(t w(x3, x4, m)) along m and permute the variables of M4."""
    w = vertex_w(parity, drop_monomial)
    f = ts_exp(w.rename_vars({"s1": "x1", "s2": "x2", "s3": "m"}), order)
    h = ts_exp(w.rename_vars({"s1": "x3", "s2": "x4", "s3": "m"}), order)
    m4 = pairing_in_var(f, h, "m")
    names = ("x1", "x2", "x3", "x4")
    return all(m4.map_coeffs(lambda p: p.rename_vars(dict(zip(names, perm)))) == m4
               for perm in permutations(names))


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
    def test_walk_terms_are_the_series_pairing(self, parity):
        names = ("x1", "x2", "x3", "x4")
        w = vertex_w(parity)
        left = w.rename_vars({"s1": "x1", "s2": "x2", "s3": "m"})
        right = w.rename_vars({"s1": "x3", "s2": "x4", "s3": "m"})
        big = left.embed(("m",) + names) + right.negate_var("m").embed(("m",) + names)
        terms = walk_terms(big, 8, names)
        m4 = pairing_in_var(ts_exp(left, 8), ts_exp(right, 8), "m")
        for d, t in enumerate(terms):
            assert LaurentPoly(names, {e: Fraction(c, factorial(d)) for e, c in t.items()}) == m4[d]
