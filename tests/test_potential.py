import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from graphpotentials.algebra import LaurentPoly
from graphpotentials.graphs import (
    ORIENTATIONS,
    coloring_boundary_move,
    dumbbell_graph,
    enumerate_trivalent,
    graph_from_json,
    make_graph,
    necklace_graph,
    theta_graph,
    vertex_slots,
    with_colors,
)
from graphpotentials.potential import (
    grassmannian_limit,
    graph_potential,
    moved_bundle,
    quadrivalent_potential,
    vertex_potential,
)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def P(variables, terms):
    return LaurentPoly(tuple(variables), {tuple(e): Fraction(c) for e, c in terms.items()})


def embed_and_add(g):
    """The oracle: every vertex potential at its vertex's color, each leaf
    against that color's default orientation inverted by ``negate_var``, and
    the copies embedded into the full variable tuple of the graph and added.
    Returns the vertex potentials and the sum."""
    variables = tuple(sorted([e.id for e in g.edges] + [x.id for x in g.leaves]))
    orientation = {x.id: x.orientation for x in g.leaves}
    per_vertex, total = {}, LaurentPoly.zero(variables)
    for v, slots in vertex_slots(g).items():
        w = vertex_potential([s[1] for s in slots], g.color(v))
        for s in slots:
            if s[0] == "leaf" and orientation[s[1]] != ORIENTATIONS[g.color(v)]:
                w = w.negate_var(s[1])
        per_vertex[v] = w
        total = total + w.embed(variables)
    return per_vertex, total


def assert_matches_oracle(g):
    b = graph_potential(g)
    assert (dict(b.per_vertex), b.potential) == embed_and_add(g)
    for v, slots in vertex_slots(g).items():
        assert b.per_vertex[v].vars == tuple(sorted({s[1] for s in slots})), v


def variants(g):
    """g, g with one vertex recolored and, if g has leaves, g with one leaf's
    orientation flipped: the recolored vertex holds the first leaf, if any, so
    that leaf turns against its default orientation or back."""
    v = g.leaves[0].vertex if g.leaves else g.vertices[0].id
    out = [g, with_colors(g, {v: 1 - g.color(v)})]
    if g.leaves:
        x = g.leaves[0]
        flipped = x._replace(orientation={"out": "in", "in": "out"}[x.orientation])
        out.append(g._replace(leaves=(flipped,) + g.leaves[1:]))
    return out


def eight_patterns(slots, parity):
    """The oracle: every one of the eight sign patterns, the other parity's
    skipped, added up through the validating constructor."""
    vs = tuple(sorted(set(slots)))
    pos = {v: i for i, v in enumerate(vs)}
    terms = {}
    for signs in product((1, -1), repeat=3):
        if sum(s == -1 for s in signs) % 2 != parity:
            continue
        e = [0] * len(vs)
        for v, s in zip(slots, signs):
            e[pos[v]] += s
        key = tuple(e)
        terms[key] = terms.get(key, 0) + 1
    return LaurentPoly(vs, terms)


class TestVertexPotential:
    @pytest.mark.parametrize("parity", [0, 1])
    def test_matches_eight_pattern_oracle(self, parity):
        # all 27 slot triples over {a, b, c}, loops and triple repeats included
        for slots in product("abc", repeat=3):
            w, want = vertex_potential(slots, parity), eight_patterns(slots, parity)
            assert (w.vars, w.terms) == (want.vars, want.terms), slots
            assert all(type(c) is int for c in w.terms.values()), slots

    def test_rejects_wrong_arity_and_parity(self):
        with pytest.raises(ValueError):
            vertex_potential(("a", "b"), 0)
        with pytest.raises(ValueError):
            vertex_potential(("a", "b", "c"), 2)
        with pytest.raises(ValueError, match="parity must be an int from 0 to 1, got True"):
            vertex_potential(("a", "b", "c"), True)  # validate refuses it as a color

    def test_even_parity_three_distinct(self):
        # even number of inverted slots: +++ , +-- , -+- , --+
        w = vertex_potential(("a", "b", "c"), 0)
        assert w == P("abc", {(1, 1, 1): 1, (1, -1, -1): 1, (-1, 1, -1): 1, (-1, -1, 1): 1})

    def test_odd_parity_three_distinct(self):
        w = vertex_potential(("a", "b", "c"), 1)
        assert w == P("abc", {(-1, 1, 1): 1, (1, -1, 1): 1, (1, 1, -1): 1, (-1, -1, -1): 1})

    def test_four_monomials_before_merging(self):
        # each sign pattern contributes one monomial; they only merge when a
        # slot repeats
        for parity in (0, 1):
            w = vertex_potential(("a", "b", "c"), parity)
            assert sum(w.terms.values()) == 4

    def test_repeated_slot_merges_with_coefficient_two(self):
        # loop slots (b, b, a): the mixed signs +-,-+ both land on a^{+-1}
        w = vertex_potential(("b", "b", "a"), 0)
        assert w == P("ab", {(1, 2): 1, (1, -2): 1, (-1, 0): 2})

    def test_repeated_slot_odd_parity(self):
        w = vertex_potential(("c", "c", "a"), 1)
        assert w == P("ac", {(1, 0): 2, (-1, 2): 1, (-1, -2): 1})

    def test_slot_order_irrelevant(self):
        assert vertex_potential(("a", "b", "c"), 0) == vertex_potential(("c", "a", "b"), 0)


class TestGraphPotential:
    def test_theta(self):
        b = graph_potential(theta_graph())
        expected = P("abc", {(1, 1, 1): 2, (1, -1, -1): 2, (-1, 1, -1): 2, (-1, -1, 1): 2})
        assert b.potential == expected
        assert b.variables == ("a", "b", "c")
        assert set(b.per_vertex) == {"v1", "v2"}

    def test_theta_colored(self):
        b = graph_potential(theta_graph(1))
        w0 = vertex_potential(("a", "b", "c"), 0)
        w1 = vertex_potential(("a", "b", "c"), 1)
        assert b.potential == w0 + w1

    def test_dumbbell(self):
        b = graph_potential(dumbbell_graph())
        expected = P("abc", {
            (1, 2, 0): 1, (1, -2, 0): 1,     # a*b^2 + a/b^2
            (1, 0, 2): 1, (1, 0, -2): 1,     # a*c^2 + a/c^2
            (-1, 0, 0): 4,                   # 2/a from each loop vertex
        })
        assert b.potential == expected

    def test_dumbbell_colored(self):
        b = graph_potential(dumbbell_graph(1))
        expected = P("abc", {
            (1, 2, 0): 1, (1, -2, 0): 1, (-1, 0, 0): 2,   # uncolored loop vertex
            (1, 0, 0): 2, (-1, 0, 2): 1, (-1, 0, -2): 1,  # colored loop vertex
        })
        assert b.potential == expected

    def test_leaf_orientation_agreeing_with_default_is_plain(self):
        g = make_graph([("v", 0)], [],
                       [("X", "v", "out"), ("Y", "v", "out"), ("Z", "v", "out")])
        b = graph_potential(g)
        assert b.potential == vertex_potential(("X", "Y", "Z"), 0)
        assert ORIENTATIONS == ("out", "in")

    def test_leaf_orientation_against_default_inverts_variable(self):
        g_out = make_graph([("v", 0)], [],
                           [("X", "v", "out"), ("Y", "v", "out"), ("Z", "v", "out")])
        g_in = make_graph([("v", 0)], [],
                          [("X", "v", "in"), ("Y", "v", "out"), ("Z", "v", "out")])
        w_out = graph_potential(g_out).potential
        w_in = graph_potential(g_in).potential
        assert w_in == w_out.negate_var("X")

    def test_colored_leaf_vertex_flips_the_rule(self):
        # at a colored vertex the default orientation is "in", so an "in"
        # leaf is plain and an "out" leaf is inverted
        g_in = make_graph([("v", 1)], [],
                          [("X", "v", "in"), ("Y", "v", "in"), ("Z", "v", "in")])
        b = graph_potential(g_in)
        assert b.potential == vertex_potential(("X", "Y", "Z"), 1)

    def test_boundary_move_inverts_edge_variable(self):
        # recoloring both endpoints of an edge equals substituting its
        # variable by the inverse in the potential
        for g in (theta_graph(), theta_graph(1)):
            for e in g.edges:
                moved = coloring_boundary_move(g, e.id)
                assert graph_potential(moved).potential == \
                    graph_potential(g).potential.negate_var(e.id)

    def test_potential_depends_only_on_coloring_parity_via_torus_change(self):
        # same parity colorings give potentials equal up to inverting the
        # moved edge variables, hence equal periods; spot check one pair
        g = theta_graph()
        h = with_colors(g, {"v1": 1, "v2": 1})
        wg = graph_potential(g).potential
        wh = graph_potential(h).potential
        assert wh == wg.negate_var("a").negate_var("b").negate_var("c")

    def test_eval_at_one_counts_monomials(self):
        # W(1,...,1) = 4 * number of vertices
        for g in enumerate_trivalent(3):
            w = graph_potential(g).potential
            assert sum(w.terms.values()) == 4 * len(g.vertices)


class TestFullPotential:
    """``bundle.potential`` sums the vertex potentials, each over its own
    slots, into the full variable tuple in one pass, and a leaf against its
    default orientation flips its vertex's parity where the oracle inverts
    the leaf's variable."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json")))
    def test_fixture_matches_oracle(self, name):
        for g in variants(graph_from_json(json.loads((FIXTURES / f"{name}.json").read_text()))):
            assert_matches_oracle(g)

    @pytest.mark.parametrize("genus", [2, 3, 4, 5])
    def test_every_class_matches_oracle(self, genus):
        for g in enumerate_trivalent(genus):
            for parity in (0, 1):
                for h in variants(with_colors(g, {g.vertices[0].id: parity})):
                    assert_matches_oracle(h)

    @pytest.mark.parametrize("genus", [1, 2, 3, 4, 5])
    def test_open_necklace_matches_oracle(self, genus):
        for parity in (0, 1):
            for g in variants(necklace_graph(genus, open_ends=True, parity=parity)):
                assert_matches_oracle(g)

    @pytest.mark.parametrize("color", [True, 1.0, 2])
    def test_moved_vertex_color_is_checked_before_its_leaves_flip_it(self, color):
        # v2 holds the leaf y, out; against color True, 1.0 or 2 it would flip
        # the parity, and True would come out as the int 0
        g = necklace_graph(1, open_ends=True)
        with pytest.raises(ValueError, match=f"vertex v2: color must be an int from 0 to 1, "
                                             f"got {color!r}"):
            moved_bundle(graph_potential(g), with_colors(g, {"v2": color}), ["v2"])


class TestNewtonSupport:
    def test_support_of_theta(self):
        w = graph_potential(theta_graph()).potential
        assert w.support() == [(-1, -1, 1), (-1, 1, -1), (1, -1, -1), (1, 1, 1)]


class TestQuadrivalent:
    def test_even_parity_is_product_over_z(self):
        # after the volume preserving change z = nu*x the split-vertex
        # potential becomes (mu*nu)/z + z
        w = quadrivalent_potential(("a", "b", "c", "d"), "z", 0)
        vs = ("a", "b", "c", "d", "z")
        mu = P(vs, {(1, -1, 0, 0, 0): 1, (-1, 1, 0, 0, 0): 1,
                    (0, 0, 1, -1, 0): 1, (0, 0, -1, 1, 0): 1})
        nu = P(vs, {(1, 1, 0, 0, 0): 1, (-1, -1, 0, 0, 0): 1,
                    (0, 0, 1, 1, 0): 1, (0, 0, -1, -1, 0): 1})
        z = LaurentPoly.variable(vs, "z")
        zinv = P(vs, {(0, 0, 0, 0, -1): 1})
        assert w == mu * nu * zinv + z

    def test_odd_parity_is_product_over_z(self):
        w = quadrivalent_potential(("a", "b", "c", "d"), "z", 1)
        vs = ("a", "b", "c", "d", "z")
        mu = P(vs, {(1, 1, 0, 0, 0): 1, (-1, -1, 0, 0, 0): 1,
                    (0, 0, 1, -1, 0): 1, (0, 0, -1, 1, 0): 1})
        nu = P(vs, {(1, -1, 0, 0, 0): 1, (-1, 1, 0, 0, 0): 1,
                    (0, 0, 1, 1, 0): 1, (0, 0, -1, -1, 0): 1})
        z = LaurentPoly.variable(vs, "z")
        zinv = P(vs, {(0, 0, 0, 0, -1): 1})
        assert w == mu * nu * zinv + z

    def test_repeated_slots_allowed(self):
        # repeated slots merge: the potential on (a, a, b, b) is the
        # distinct-slot one with c identified with a and d with b
        for parity in (0, 1):
            w = quadrivalent_potential(("a", "a", "b", "b"), "z", parity)
            distinct = quadrivalent_potential(("a", "b", "c", "d"), "z", parity)
            merged = {}
            for (a, b, c, d, z), coeff in distinct.terms.items():
                merged[(a + c, b + d, z)] = merged.get((a + c, b + d, z), 0) + coeff
            assert w == P("abz", merged)

    def test_refuses_three_slots_and_a_slot_named_z(self):
        with pytest.raises(ValueError, match="^a quadrivalent vertex has 4 slots, got 3$"):
            quadrivalent_potential(("a", "b", "c"), "z", 0)
        with pytest.raises(ValueError, match="^the split variable 'z' collides with a slot$"):
            quadrivalent_potential(("a", "b", "c", "z"), "z", 0)


class TestGrassmannianLimit:
    def test_single_vertex(self):
        g = make_graph([("v", 0)], [],
                       [("X", "v", "out"), ("Y", "v", "out"), ("Z", "v", "out")])
        w = grassmannian_limit(g, {"v": "X"})
        assert w == P("XYZ", {(-1, 1, 1): 1, (1, 1, -1): 1, (1, -1, 1): 1})

    def test_distinguished_slot_required_at_each_vertex(self):
        g = make_graph([("v", 0)], [],
                       [("X", "v", "out"), ("Y", "v", "out"), ("Z", "v", "out")])
        with pytest.raises(ValueError):
            grassmannian_limit(g, {})

    def test_distinguished_slot_must_be_incident(self):
        g = make_graph([("v", 0)], [],
                       [("X", "v", "out"), ("Y", "v", "out"), ("Z", "v", "out")])
        with pytest.raises(ValueError, match="^vertex v: 'W' is not an incident slot$"):
            grassmannian_limit(g, {"v": "W"})

    def test_leaf_orientation_counts(self):
        # Y "in" inverts Y in the potential: the term X^-1 Y^-1 Z^-1 takes
        # tau to the power -2, so the limit does not exist
        g = make_graph([("v", 0)], [],
                       [("X", "v", "out"), ("Y", "v", "in"), ("Z", "v", "out")])
        with pytest.raises(ArithmeticError):
            grassmannian_limit(g, {"v": "X"})

    def test_distinguished_vertex_must_exist(self):
        g = make_graph([("v", 0)], [],
                       [("X", "v", "out"), ("Y", "v", "out"), ("Z", "v", "out")])
        with pytest.raises(ValueError, match="no vertex"):
            grassmannian_limit(g, {"v": "X", "w": "Y"})

    def test_two_vertex_tree(self):
        # caterpillar: bridge m, leaves p,q on v1 and r,s on v2
        g = make_graph([("v1", 0), ("v2", 0)], [("m", "v1", "v2")],
                       [("p", "v1", "out"), ("q", "v1", "out"),
                        ("r", "v2", "out"), ("s", "v2", "out")])
        w = grassmannian_limit(g, {"v1": "p", "v2": "m"})
        # every kept monomial had tau-degree zero before the limit
        assert not w.is_zero()
        assert "p" in w.vars and "m" in w.vars
