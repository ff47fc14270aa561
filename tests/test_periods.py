import random
from fractions import Fraction
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphpotentials import periods
from graphpotentials.algebra import LaurentPoly
from graphpotentials.graphs import (
    dumbbell_graph,
    enumerate_trivalent,
    make_graph,
    necklace_graph,
    theta_graph,
    with_colors,
)
from graphpotentials.periods import (
    PeriodSequence,
    constant_terms_of_powers,
    contract,
    periods_of_graph,
    walk_terms,
)
from graphpotentials.potential import PotentialBundle, graph_potential
from graphpotentials.tqft import k_state, necklace_state, trace_formula_table, wdvv_check

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
        seq = constant_terms_of_powers(p, 5)
        assert seq == [1, 1, 1, 1, 1, 1]

    def test_single_variable_binomials(self):
        # (x + 1/x)^k has constant term C(k, k/2) for even k
        p = xy_poly({(1, 0): 1, (-1, 0): 1})
        seq = constant_terms_of_powers(p, 8)
        assert seq == [1, 0, 2, 0, 6, 0, 20, 0, 70]

    def test_two_variables(self):
        # (x + y + 1/(xy))^{3k} picks the multinomial (3k; k,k,k)
        p = LaurentPoly(("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(1),
                                     (-1, -1): Fraction(1)})
        seq = constant_terms_of_powers(p, 6)
        assert seq == [1, 0, 0, 6, 0, 0, 90]

    def test_fractional_coefficients_use_exact_path(self):
        p = LaurentPoly(("x",), {(1,): Fraction(1, 2), (-1,): Fraction(2)})
        seq = constant_terms_of_powers(p, 4)
        # constant terms of (x/2 + 2/x)^k, exact rationals required
        assert seq == [1, 0, 2, 0, 6]

    def test_sequence_validates_leading_one(self):
        with pytest.raises(ValueError):
            PeriodSequence(pi=(2, 0), graph_fingerprint="")


class TestBackends:
    @pytest.mark.parametrize("backend", ["pure", "auto"])
    def test_backends_agree_on_theta(self, backend):
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


def one_piece_each(monomials, nvars, order, kept):
    """A walk case with each monomial its own piece, over the variables it
    involves: (pieces, nvars, order, kept), a piece as (indices, terms)."""
    pieces = []
    for e, c in monomials:
        at = tuple(i for i, x in enumerate(e) if x)
        pieces.append((at, {tuple(e[i] for i in at): c}))
    return pieces, nvars, order, kept


@st.composite
def piece_lists(draw):
    """(pieces, nvars, order, kept): up to four small polynomials, each over
    up to three of the variables v0, v1, ... and holding up to three terms, so
    that pieces may share every variable, hold none or hold no term."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    coeffs = st.one_of(st.integers(min_value=-3, max_value=3),
                       st.fractions(min_value=-2, max_value=2, max_denominator=3))
    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = tuple(sorted(draw(st.sets(st.integers(min_value=0, max_value=nvars - 1),
                                       max_size=3))))
        exps = st.tuples(*[st.integers(min_value=-3, max_value=3)] * len(at))
        pieces.append((at, draw(st.dictionaries(exps, coeffs.filter(bool), max_size=3))))
    return (pieces, nvars, draw(st.integers(min_value=0, max_value=7)),
            draw(st.integers(min_value=0, max_value=nvars)))


# the vertex potentials of color 0 and 1 over one slot triple: the theta graph's
# two vertices are the first twice, or one of each when it is colored
THETA_PIECES = [((0, 1, 2), {(1, 1, 1): 1, (1, -1, -1): 1, (-1, 1, -1): 1, (-1, -1, 1): 1}),
                ((0, 1, 2), {(-1, -1, -1): 1, (-1, 1, 1): 1, (1, -1, 1): 1, (1, 1, -1): 1})]


def in_greedy_order(run):
    """``run()`` with spies on the walk's gluing order and on ``contract``: the
    pieces must be glued as the reference scan below glues them, each time the
    first of the remaining pieces that leaves the fewest open legs."""
    asked, glued = [], []

    def order_spy(legs):
        asked.append(list(legs))
        return real_order(legs)

    def contract_spy(a, b, bound):
        glued.append((a[0], b[0]))
        return real_contract(a, b, bound)

    real_order, real_contract = periods._gluing_order, periods.contract
    with patch.object(periods, "_gluing_order", order_spy), \
            patch.object(periods, "contract", contract_spy):
        result = run()
    (series,) = asked
    state, want = (), []
    while series:
        i = min(range(len(series)), key=lambda i: len(set(state) ^ set(series[i])))
        legs = series.pop(i)
        want.append((state, legs))
        state = tuple(v for v in state if v not in legs) + tuple(v for v in legs if v not in state)
    assert glued == want
    return result


class TestWalk:
    @given(piece_lists())
    @settings(max_examples=150, deadline=None)
    @example(one_piece_each([((1, -1), 1), ((-2, 1), Fraction(1, 2))], 2, 0, 0))
    @example(one_piece_each([((1, -1), 1), ((-1, 1), 2), ((0, 3), -1)], 2, 1, 1))
    @example(one_piece_each([((3, -3, 1), 1), ((-3, 3, -1), 1)], 3, 7, 1))
    # v0 in three pieces, v0*v1 + v2/v0 + v0*v3: joined before it is summed out
    @example(one_piece_each([((1, 1, 0, 0), 1), ((-1, 0, 1, 0), 1), ((1, 0, 0, 1), 2)], 4, 6, 3))
    # kept v2 in two pieces, v0*v2 + v2/v1 + 1/v0 + v1: joined, never summed out
    @example(one_piece_each([((1, 0, 1), 1), ((0, -1, 1), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1)],
                            3, 6, 1))
    @example(one_piece_each([], 2, 4, 1))  # the zero polynomial: only W^0 = 1 survives
    @example(one_piece_each([((0, 0), 3)], 2, 4, 1))  # a constant piece, over no variable
    # v1, shared by v0*v1^3 + 1/v0 and v2/v1^3 + 1/v2, has exponents up to 3:
    # a leg of exponent 3 at d = order - 1 can still cancel
    @example(one_piece_each([((1, 3, 0), 1), ((-1, 0, 0), 1), ((0, -3, 1), 2), ((0, 0, -1), 1)],
                            3, 4, 0))
    @example((THETA_PIECES[:1] * 2, 3, 6, 0))  # theta: two pieces glued along three legs
    @example((THETA_PIECES, 3, 8, 0))  # the colored theta
    @example((THETA_PIECES, 3, 4, 1))  # kept v2 in two pieces over one variable set
    # a constant piece, and an empty one that alone holds the summed-out v1
    @example(([((), {(): 2}), ((1,), {}), ((0,), {(1,): 1, (-1,): 3})], 2, 5, 0))
    def test_matches_naive_expansion(self, case):
        # the last ``kept`` of the variables v0, v1, ... are kept; with kept
        # variables the trace formula, which checks closed graphs only,
        # cannot see a fault here
        pieces, nvars, order, kept = case
        names = tuple(f"v{i}" for i in range(nvars))
        held = {i for at, _ in pieces for i in at}
        # a kept variable must be a piece's: an empty piece holds the others
        lonely = tuple(i for i in range(nvars - kept, nvars) if i not in held)
        pieces = pieces + [(lonely, {})] if lonely else pieces
        polys = [LaurentPoly(tuple(names[i] for i in at), terms) for at, terms in pieces]
        monomials = [(tuple(dict(zip(at, e)).get(i, 0) for i in range(nvars)), c)
                     for at, terms in pieces for e, c in terms.items()]
        got = in_greedy_order(lambda: walk_terms(polys, order, names[nvars - kept:]))
        assert got == naive_walk(monomials, nvars, order, kept)

    @pytest.mark.parametrize("genus", [2, 3, 4, 5])
    def test_graphs_glue_in_greedy_order(self, genus):
        for g in enumerate_trivalent(genus):
            for parity in (0, 1):
                pieces = graph_potential(with_colors(g, {"v0": parity})).per_vertex.values()
                in_greedy_order(lambda: walk_terms(pieces, 2))

    def test_entry_keeps_named_variables_in_place(self):
        # keys list the kept variables c and a as ``kept`` names them
        p = LaurentPoly(("a", "b", "c"), {(1, -1, 0): 1, (0, 1, -1): 2, (-1, 2, 1): 3})
        bca = [((e[1], e[2], e[0]), int(c)) for e, c in p.terms.items()]
        got = walk_terms([p], 6, ("c", "a"))
        assert got == naive_walk(bca, 3, 6, 2)
        assert all(type(c) is int for t in got for c in t.values())
        assert walk_terms([p], 6) == naive_walk(bca, 3, 6, 0)

    def test_entry_refuses_unknown_kept_variable(self):
        with pytest.raises(ValueError):
            walk_terms([xy_poly({(1, -1): 1})], 2, ("z",))

    def test_entry_refuses_repeated_kept_variable_and_negative_order(self):
        with pytest.raises(ValueError):
            walk_terms([xy_poly({(1, -1): 1})], 2, ("x", "x"))
        with pytest.raises(ValueError):
            walk_terms([xy_poly({(1, -1): 1})], -1)


def naive_contract(a, b, bound):
    """Every entry of a against every entry of b, both of order K: the pairs
    whose shared exponents sum to zero add C(d, d_a) c_a c_b at degree
    d = d_a + d_b <= K, zero sums and, on a leg bounded by m, exponents past
    m * (K - d) are left out.  Keys list a's open legs, then b's.  Also
    returns how many sums cancelled to zero."""
    (la, ta), (lb, tb) = a, b
    order = len(tb) - 1
    rest_a = [v for v in la if v not in lb]
    rest_b = [v for v in lb if v not in la]
    out = [{} for _ in range(order + 1)]
    for da, x in enumerate(ta):
        for db, y in enumerate(tb[:order + 1 - da]):
            for ka, ca in x.items():
                for kb, cb in y.items():
                    ea, eb = dict(zip(la, ka)), dict(zip(lb, kb))
                    if any(ea[v] + eb[v] for v in la if v in lb):
                        continue
                    key = tuple(ea[v] for v in rest_a) + tuple(eb[v] for v in rest_b)
                    t = out[da + db]
                    t[key] = t.get(key, 0) + comb(da + db, da) * ca * cb
    legs = tuple(rest_a + rest_b)
    zeros = sum(not c for t in out for c in t.values())
    kept = [{k: c for k, c in t.items() if c and all(
        abs(e) <= bound[v] * (order - d) for v, e in zip(legs, k) if v in bound)}
        for d, t in enumerate(out)]
    return (legs, kept), zeros


def random_state(rng, legs, order, entries):
    """Integer states on ``legs``: exponents in -1..1, coefficients in -2..2,
    so that many pairs meet and some sums cancel."""
    degrees = [{} for _ in range(order + 1)]
    for _ in range(entries):
        key = tuple(rng.randint(-1, 1) for _ in legs)
        degrees[rng.randint(0, order)][key] = rng.choice((-2, -1, 1, 2))
    return legs, degrees


class TestContract:
    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("nshared", [0, 1, 2, 3])
    def test_matches_pairwise_oracle(self, nshared, bounded):
        rng = random.Random(f"{nshared}:{bounded}")
        zeros = 0
        for _ in range(40):
            order = rng.randint(0, 3)
            shared = [f"s{i}" for i in range(nshared)]
            la = shared + [f"a{i}" for i in range(rng.randint(0, 2))]
            lb = shared + [f"b{i}" for i in range(rng.randint(0, 2))]
            rng.shuffle(la)
            rng.shuffle(lb)
            a = random_state(rng, tuple(la), order, rng.randint(0, 20))
            b = random_state(rng, tuple(lb), order, rng.randint(0, 20))
            bound = {v: rng.randint(0, 2) for v in la + lb if bounded and v not in shared}
            want, cancelled = naive_contract(a, b, bound)
            zeros += cancelled
            legs, got = contract(a, b, bound)
            # a's open legs in a's order, then b's in b's
            assert legs == tuple(v for v in la if v not in shared) + \
                tuple(v for v in lb if v not in shared)
            assert (legs, got) == want
        assert zeros > 0  # some sums cancelled, and were left out

    @pytest.mark.parametrize("bound", [{}, {"u": 1, "v": 2}])
    def test_orders_must_match(self, bound):
        # either side with fewer degrees would be cut short or read past its end
        short = (("u", "x"), [{}, {(1, 1): 3}])
        long = (("x", "v"), [{}, {(-1, 1): 5}, {}])
        for a, b in ((short, long), (long, short)):
            with pytest.raises(ValueError, match="orders differ: "):
                contract(a, b, bound)

    def test_weight_and_leg_order(self):
        # u * x at degree 1 meets v / x at degree 1: C(2, 1) * 3 * 5 at t^2
        a = (("u", "x"), [{}, {(1, 1): 3}, {}])
        b = (("x", "v"), [{}, {(-1, 1): 5}, {}])
        assert contract(a, b, {}) == (("u", "v"), [{}, {}, {(1, 1): 30}])
        assert contract(b, a, {}) == (("v", "u"), [{}, {}, {(1, 1): 30}])


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

    def test_disconnected_graph_rejected(self):
        two = make_graph([("u1", 0), ("u2", 0), ("w1", 0), ("w2", 0)],
                         [(e + c, c + "1", c + "2") for c in "uw" for e in "abc"])
        for method in ("brute", "tqft"):
            with pytest.raises(ValueError, match="^periods are defined for connected graphs$"):
                periods_of_graph(two, 4, method)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="^unknown method 'trace'$"):
            periods_of_graph(theta_graph(), 4, method="trace")
        # a lone vertex of degree 0 is no valid graph: the method is checked first
        with pytest.raises(ValueError, match="^unknown method 'foo'$"):
            periods_of_graph(make_graph([("a", 0)], []), 2, method="foo")

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

    @pytest.mark.parametrize("which", ["necklace", 0, 194, 387])
    def test_genus6_matches_trace_formula_table(self, which):
        # the first, a middle and the last of the 388 genus-6 classes; CI
        # checks all of them at the same order
        table = trace_formula_table(6, 12)
        g0 = necklace_graph(6) if which == "necklace" else enumerate_trivalent(6)[which]
        for parity in (0, 1):
            g = with_colors(g0, {g0.vertices[0].id: parity})
            assert periods_of_graph(g, 12, method="brute").pi == table[(6, parity)]

    def test_graph_path_never_reads_the_full_potential(self, monkeypatch):
        # brute force, k_state and the four-point check glue the vertex potentials
        def refuse(bundle):
            raise AssertionError("the full potential was read")

        monkeypatch.setattr(PotentialBundle, "potential", property(refuse))
        with pytest.raises(AssertionError):
            graph_potential(theta_graph()).potential
        assert periods_of_graph(theta_graph(1), 12, method="brute").pi == expand(GENUS2_ODD, 12)
        open_graph = necklace_graph(2, open_ends=True, parity=1)
        assert k_state(open_graph, 6) == necklace_state(2, 1, 6)
        assert wdvv_check(0, 6) and wdvv_check(1, 6)

    @pytest.mark.parametrize("genus", [3, 4])
    def test_whole_potential_matches_vertex_pieces(self, genus):
        # the bare polynomial is split by term support, the graph by vertex
        for g0 in enumerate_trivalent(genus):
            for parity in (0, 1):
                g = with_colors(g0, {g0.vertices[0].id: parity})
                assert tuple(constant_terms_of_powers(graph_potential(g).potential, 10)) == \
                    periods_of_graph(g, 10, method="brute").pi

    def test_fingerprint(self):
        assert periods_of_graph(theta_graph(), 0).graph_fingerprint == "g2e0"
        assert periods_of_graph(dumbbell_graph(1), 0).graph_fingerprint == "g2e1"
        seq = periods_of_graph(theta_graph(1), 4)
        assert seq.graph_fingerprint == "g2e1"

    @pytest.mark.parametrize("method", ["brute", "tqft"])
    def test_fingerprint_reads_the_homology_once(self, method, monkeypatch):
        from graphpotentials import graphs

        real = graphs.homology_ranks_f2
        calls = []
        monkeypatch.setattr(graphs, "homology_ranks_f2", lambda g: calls.append(g) or real(g))
        assert periods_of_graph(necklace_graph(3, parity=1), 4, method).graph_fingerprint == "g3e1"
        assert len(calls) == 1
