from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphpotentials.algebra import LaurentPoly
from graphpotentials.graphs import dumbbell_graph, necklace_graph, theta_graph, with_colors
from graphpotentials.periods import (
    PeriodSequence,
    _walk,
    constant_terms_of_powers,
    graph_fingerprint,
    periods_bruteforce,
    periods_of_graph,
    walk_terms,
)

# nonzero entries of the two genus-2 period sequences through k = 12
GENUS2_EVEN = {0: 1, 4: 384, 8: 645120, 12: 1513881600}
GENUS2_ODD = {0: 1, 2: 8, 4: 216, 6: 8000, 8: 343000, 10: 16003008, 12: 788889024}


def expand(nonzero, order):
    return tuple(nonzero.get(k, 0) for k in range(order + 1))


def xy_poly(terms):
    return LaurentPoly(("x", "y"), {tuple(e): Fraction(c) for e, c in terms.items()})


class TestBruteForce:
    def test_constant_polynomial(self):
        p = LaurentPoly.constant(("x",), 1)
        seq = periods_bruteforce(p, 5)
        assert seq.pi == (1, 1, 1, 1, 1, 1)

    def test_single_variable_binomials(self):
        # (x + 1/x)^k has constant term C(k, k/2) for even k
        p = xy_poly({(1, 0): 1, (-1, 0): 1})
        seq = periods_bruteforce(p, 8)
        assert seq.pi == (1, 0, 2, 0, 6, 0, 20, 0, 70)

    def test_two_variables(self):
        # (x + y + 1/(xy))^{3k} picks the multinomial (3k; k,k,k)
        p = LaurentPoly(("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(1),
                                     (-1, -1): Fraction(1)})
        seq = periods_bruteforce(p, 6)
        assert seq.pi == (1, 0, 0, 6, 0, 0, 90)

    def test_fractional_coefficients_use_exact_path(self):
        p = LaurentPoly(("x",), {(1,): Fraction(1, 2), (-1,): Fraction(2)})
        seq = periods_bruteforce(p, 4)
        # constant terms of (x/2 + 2/x)^k, exact rationals required
        assert seq.pi == (1, 0, 2, 0, 6)

    def test_sequence_validates_leading_one(self):
        with pytest.raises(ValueError):
            PeriodSequence(order=1, pi=(2, 0), graph_fingerprint="")


class TestBackends:
    @pytest.mark.parametrize("backend", ["pure", "auto"])
    def test_backends_agree_on_theta(self, backend):
        from graphpotentials.potential import graph_potential

        w = graph_potential(theta_graph()).potential
        assert tuple(constant_terms_of_powers(w, 10, backend=backend)) == expand(GENUS2_EVEN, 10)

    def test_numba_backend_raises(self):
        # the exact walk is the only engine; "numba" names the removed dense
        # stencil and must fail loudly, as any other unknown name does
        p = LaurentPoly(("x",), {(1,): Fraction(1, 2), (-1,): Fraction(2)})
        with pytest.raises(ValueError, match="only brute-force engine"):
            constant_terms_of_powers(p, 4, backend="numba")
        with pytest.raises(ValueError, match="only brute-force engine"):
            periods_of_graph(theta_graph(), 4, "brute", backend="numba")

    def test_overflow_falls_back_to_exact(self):
        # W(1)^order is far past int64; the walk keeps exact Python integers
        big = 1 << 40
        p = LaurentPoly(("x",), {(1,): Fraction(big), (-1,): Fraction(big)})
        got = constant_terms_of_powers(p, 4, backend="auto")
        assert got[4] == 6 * big ** 4

    def test_pruning_matches_unpruned_walk(self):
        # direct dict exponentiation without any support bound
        w = xy_poly({(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 2, (2, 0): 3})
        order = 7
        acc = {(0, 0): Fraction(1)}
        naive = [Fraction(1)]
        for _ in range(order):
            nxt = {}
            for e1, c1 in acc.items():
                for e2, c2 in w.terms.items():
                    key = (e1[0] + e2[0], e1[1] + e2[1])
                    nxt[key] = nxt.get(key, Fraction(0)) + c1 * c2
            acc = nxt
            naive.append(acc.get((0, 0), Fraction(0)))
        got = constant_terms_of_powers(w, order, backend="pure")
        assert got == naive


def naive_walk(monomials, nvars, order, kept):
    """Every power of W expanded in full, then the terms constant in the
    first nvars - kept exponents read off each one."""
    n = nvars - kept
    power = {(0,) * nvars: 1}
    out = []
    for d in range(order + 1):
        if d:
            nxt = {}
            for e, c in power.items():
                for me, mc in monomials:
                    f = tuple(a + b for a, b in zip(e, me))
                    nxt[f] = nxt.get(f, 0) + c * mc
            power = nxt
        terms = {}
        for e, c in power.items():
            if not any(e[:n]):
                terms[e[n:]] = terms.get(e[n:], 0) + c
        out.append({k: c for k, c in terms.items() if c})
    return out


@st.composite
def walks(draw):
    """(monomials, nvars, order, kept) for a random small Laurent polynomial."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(*[st.integers(min_value=-3, max_value=3)] * nvars)
    coeffs = st.one_of(st.integers(min_value=-3, max_value=3),
                       st.fractions(min_value=-2, max_value=2, max_denominator=3))
    terms = draw(st.dictionaries(exps, coeffs.filter(bool), min_size=1, max_size=4))
    return (list(terms.items()), nvars, draw(st.integers(min_value=0, max_value=7)),
            draw(st.integers(min_value=0, max_value=nvars)))


class TestWalk:
    @given(walks())
    @settings(max_examples=150, deadline=None)
    @example(([((1, -1), 1), ((-2, 1), Fraction(1, 2))], 2, 0, 0))
    @example(([((1, -1), 1), ((-1, 1), 2), ((0, 3), -1)], 2, 1, 1))
    @example(([((3, -3, 1), 1), ((-3, 3, -1), 1)], 3, 7, 1))
    def test_matches_naive_expansion(self, case):
        # an off-by-one where the half-powers meet, at ceil(d/2) and
        # floor(d/2), shows at odd d; with kept variables the trace formula,
        # which checks closed graphs only, cannot see it
        monomials, nvars, order, kept = case
        assert _walk(monomials, nvars, order, kept) == naive_walk(monomials, nvars, order, kept)

    def test_entry_keeps_named_variables_in_place(self):
        # the kept variables a and c are not last; keys list them in p.vars order
        p = LaurentPoly(("a", "b", "c"), {(1, -1, 0): 1, (0, 1, -1): 2, (-1, 2, 1): 3})
        bac = [((e[1], e[0], e[2]), int(c)) for e, c in p.terms.items()]
        got = walk_terms(p, 6, ("a", "c"))
        assert got == naive_walk(bac, 3, 6, 2)
        assert all(type(c) is int for t in got for c in t.values())
        assert walk_terms(p, 6) == naive_walk(bac, 3, 6, 0)

    def test_entry_refuses_unknown_kept_variable(self):
        with pytest.raises(ValueError):
            walk_terms(xy_poly({(1, -1): 1}), 2, ("z",))


class TestGraphPeriods:
    def test_theta_matches_table(self):
        seq = periods_of_graph(theta_graph(), 12, method="brute")
        assert seq.pi == expand(GENUS2_EVEN, 12)

    def test_theta_colored_matches_table(self):
        seq = periods_of_graph(theta_graph(1), 12, method="brute")
        assert seq.pi == expand(GENUS2_ODD, 12)

    def test_dumbbell_same_periods_as_theta(self):
        for parity, table in ((0, GENUS2_EVEN), (1, GENUS2_ODD)):
            seq = periods_of_graph(dumbbell_graph(parity), 12, method="brute")
            assert seq.pi == expand(table, 12)

    def test_tqft_method_agrees(self):
        for parity, table in ((0, GENUS2_EVEN), (1, GENUS2_ODD)):
            seq = periods_of_graph(necklace_graph(2, parity=parity), 12, method="tqft")
            assert seq.pi == expand(table, 12)

    def test_tqft_works_for_any_genus2_representative(self):
        # the trace computation keys on genus and coloring parity only
        seq = periods_of_graph(with_colors(theta_graph(), {"v1": 1}), 8, method="tqft")
        assert seq.pi == expand(GENUS2_ODD, 8)

    def test_open_graph_rejected(self):
        g = necklace_graph(2, open_ends=True)
        with pytest.raises(ValueError):
            periods_of_graph(g, 4)

    def test_odd_periods_vanish(self):
        for g in (theta_graph(), theta_graph(1), necklace_graph(3)):
            seq = periods_of_graph(g, 9, method="brute")
            assert all(seq.pi[k] == 0 for k in range(1, 10, 2))

    @pytest.mark.parametrize("genus,order", [(4, 10), (5, 12)])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_necklace_matches_trace_formula(self, genus, order, parity):
        g = necklace_graph(genus, parity=parity)
        brute = periods_of_graph(g, order, method="brute")
        assert brute.pi == periods_of_graph(g, order, method="tqft").pi
        assert any(brute.pi[1:])

    def test_fingerprint(self):
        assert graph_fingerprint(theta_graph()) == "g2e0"
        assert graph_fingerprint(dumbbell_graph(1)) == "g2e1"
        seq = periods_of_graph(theta_graph(1), 4)
        assert seq.graph_fingerprint == "g2e1"
