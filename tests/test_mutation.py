import json
from fractions import Fraction
from pathlib import Path

import pytest

from graphpotentials.algebra import LaurentPoly, rexpr_equal
from graphpotentials.graphs import (
    canonical_form,
    coloring_boundary_move,
    dumbbell_graph,
    elementary_transformation,
    graph_from_json,
    make_graph,
    necklace_graph,
    normalize_coloring,
    theta_graph,
)
from graphpotentials.mutation import (
    mu_nu_factors,
    mutate,
    mutation_report,
    split_potential,
    verify_mutation,
)
from graphpotentials.potential import graph_potential
from graphpotentials.tqft import k_state

ABCD = ("a", "b", "c", "d")
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def P(terms, variables=ABCD):
    return LaurentPoly(tuple(variables), {tuple(e): Fraction(c) for e, c in terms.items()})


def h_graph(colored: bool):
    """Two vertices joined by the edge x, two leaves on each side."""
    v1_color = 1 if colored else 0
    v1_orient = "in" if colored else "out"
    return make_graph(
        [("v1", v1_color), ("v2", 0)],
        [("x", "v1", "v2")],
        [("a", "v1", v1_orient), ("b", "v1", v1_orient),
         ("c", "v2", "out"), ("d", "v2", "out")],
    )


def four_slot_graph(colored: bool):
    """Edge x between v1, v2 with internal edges a, b, c, d as the four slots.

    The outer vertices w1, w2 are closed off with one leaf each, so the slot
    variables carry no orientation data of their own.
    """
    return make_graph(
        [("v1", 1 if colored else 0), ("v2", 0), ("w1", 0), ("w2", 0)],
        [("x", "v1", "v2"), ("a", "v1", "w1"), ("b", "v1", "w1"),
         ("c", "v2", "w2"), ("d", "v2", "w2")],
        [("p", "w1", "out"), ("q", "w2", "out")],
    )


ABCD_MONO = P({(1, 1, 1, 1): 1})


def factor(terms):
    return P(terms)


class TestFactoredForms:
    """The extracted x^-1 and x^+1 coefficients match the closed factorizations."""

    def test_uncolored(self):
        cert = mu_nu_factors(graph_potential(four_slot_graph(False)), "x")
        assert not cert.colored_case
        ad_bc = factor({(1, 0, 0, 1): 1, (0, 1, 1, 0): 1})
        ac_bd = factor({(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
        ab_cd = factor({(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
        one_abcd = factor({(0, 0, 0, 0): 1, (1, 1, 1, 1): 1})
        assert cert.mu * ABCD_MONO == ad_bc * ac_bd
        assert cert.nu * ABCD_MONO == one_abcd * ab_cd
        assert cert.mu_prime * ABCD_MONO == ab_cd * ad_bc
        assert cert.nu_prime * ABCD_MONO == one_abcd * ac_bd

    def test_colored(self):
        cert = mu_nu_factors(graph_potential(four_slot_graph(True)), "x")
        assert cert.colored_case
        a_bcd = factor({(1, 0, 0, 0): 1, (0, 1, 1, 1): 1})
        b_acd = factor({(0, 1, 0, 0): 1, (1, 0, 1, 1): 1})
        c_abd = factor({(0, 0, 1, 0): 1, (1, 1, 0, 1): 1})
        d_abc = factor({(0, 0, 0, 1): 1, (1, 1, 1, 0): 1})
        assert cert.mu * ABCD_MONO == c_abd * d_abc
        assert cert.nu * ABCD_MONO == a_bcd * b_acd
        assert cert.mu_prime * ABCD_MONO == b_acd * d_abc
        assert cert.nu_prime * ABCD_MONO == a_bcd * c_abd

    def test_leaf_slots_carry_their_orientation(self):
        # when the four slots are leaves, rewiring flips the stored
        # orientation of a leaf that crosses to the vertex of the other
        # color, so every leaf keeps its sign and the certificate is the one
        # of the same four slots as internal edges
        cert = mu_nu_factors(graph_potential(h_graph(True)), "x")
        ref = mu_nu_factors(graph_potential(four_slot_graph(True)), "x")
        assert cert.mu == ref.mu and cert.nu == ref.nu
        assert cert.mu_prime == ref.mu_prime
        assert cert.nu_prime == ref.nu_prime
        assert verify_mutation(graph_potential(h_graph(True)), "x")

    @pytest.mark.parametrize("colored", [False, True])
    def test_product_identity(self, colored):
        cert = mu_nu_factors(graph_potential(four_slot_graph(colored)), "x")
        assert cert.product_identity_checked
        lhs = cert.mu * cert.nu * ABCD_MONO * ABCD_MONO
        if colored:
            rhs = factor({(1, 0, 0, 0): 1, (0, 1, 1, 1): 1}) \
                * factor({(0, 1, 0, 0): 1, (1, 0, 1, 1): 1}) \
                * factor({(0, 0, 1, 0): 1, (1, 1, 0, 1): 1}) \
                * factor({(0, 0, 0, 1): 1, (1, 1, 1, 0): 1})
        else:
            rhs = factor({(0, 0, 0, 0): 1, (1, 1, 1, 1): 1}) \
                * factor({(1, 0, 1, 0): 1, (0, 1, 0, 1): 1}) \
                * factor({(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}) \
                * factor({(1, 0, 0, 1): 1, (0, 1, 1, 0): 1})
        assert lhs == rhs


class TestReport:
    @pytest.mark.parametrize("colored", [False, True])
    def test_h_graph_checks_all_pass(self, colored):
        report = mutation_report(graph_potential(h_graph(colored)), "x")
        assert report == {
            "product_identity": True,
            "substitution_identity": True,
            "frozen_unchanged": True,
        }

    def test_theta_both_colorings(self):
        for parity in (0, 1):
            b = graph_potential(theta_graph(parity))
            for e in ("a", "b", "c"):
                assert verify_mutation(b, e)

    def test_dumbbell_bridge(self):
        for parity in (0, 1):
            assert verify_mutation(graph_potential(dumbbell_graph(parity)), "a")


class TestThetaDumbbell:
    def test_theta_mu_nu(self):
        cert = mu_nu_factors(graph_potential(theta_graph()), "a")
        bc = ("b", "c")
        assert cert.mu == P({(1, -1): 2, (-1, 1): 2}, bc)
        assert cert.nu == P({(1, 1): 2, (-1, -1): 2}, bc)

    def test_dumbbell_bridge_mu_is_constant(self):
        # both endpoint slots are loops, so the x^-1 coefficient collapses
        cert = mu_nu_factors(graph_potential(dumbbell_graph()), "a")
        bc = ("b", "c")
        assert cert.mu == P({(0, 0): 4}, bc)
        assert cert.nu == P({(2, 0): 1, (-2, 0): 1, (0, 2): 1, (0, -2): 1}, bc)
        assert cert.mu_prime == P({(1, -1): 2, (-1, 1): 2}, bc)
        assert cert.nu_prime == P({(1, 1): 2, (-1, -1): 2}, bc)

    def test_mutate_builds_one_potential(self, monkeypatch):
        from graphpotentials import mutation as mutation_mod

        bundle = graph_potential(necklace_graph(3, parity=1))
        calls = []

        def counting(g):
            calls.append(g)
            return graph_potential(g)

        monkeypatch.setattr(mutation_mod, "graph_potential", counting)
        out, _ = mutate(bundle, "s2")
        assert len(calls) == 1 and out.graph is calls[0]

    def test_mutate_splits_each_potential_once(self, monkeypatch):
        from graphpotentials import mutation as mutation_mod

        bundle = graph_potential(necklace_graph(3, parity=1))
        split = mutation_mod.split_potential
        calls = []

        def counting(b, edge_id):
            calls.append(b)
            return split(b, edge_id)

        monkeypatch.setattr(mutation_mod, "split_potential", counting)
        out, _ = mutate(bundle, "s2")
        assert calls == [bundle, out]

    def test_mutate_builds_two_slot_tables(self, monkeypatch):
        # one for the source graph's re-pairing, one for the moved graph's potential
        from graphpotentials import graphs as graphs_mod
        from graphpotentials import potential as potential_mod

        bundle = graph_potential(necklace_graph(4))
        real = graphs_mod.vertex_slots
        calls = []

        def counting(g):
            calls.append(g)
            return real(g)

        for module in (graphs_mod, potential_mod):
            monkeypatch.setattr(module, "vertex_slots", counting)
        out, _ = mutate(bundle, "s2")
        assert calls == [bundle.graph, out.graph]

    def test_mutate_swaps_the_pair(self):
        b_theta = graph_potential(theta_graph())
        out, cert = mutate(b_theta, "a")
        assert canonical_form(out.graph) == canonical_form(dumbbell_graph())
        assert cert.edge == "a"
        assert cert.slot_vars == (("b", "c"), ("b", "c"))
        back, _ = mutate(out, "a")
        assert canonical_form(back.graph) == canonical_form(theta_graph())


class TestEdgeCases:
    def test_loop_rejected(self):
        b = graph_potential(dumbbell_graph())
        with pytest.raises(ValueError):
            split_potential(b, "b")
        with pytest.raises(ValueError):
            mu_nu_factors(b, "b")

    def test_split_potential_partition(self):
        g = make_graph(
            [("v1", 0), ("v2", 0), ("v3", 0), ("v4", 0)],
            [("p", "v1", "v2"), ("q", "v1", "v2"), ("r", "v1", "v3"),
             ("s", "v2", "v4"), ("t", "v3", "v4"), ("u", "v3", "v4")],
        )
        b = graph_potential(g)
        local, frozen = split_potential(b, "r")
        assert local + frozen == b.potential
        assert local == b.per_vertex["v1"] + b.per_vertex["v3"]

    def test_substitution_is_mu2_over_nu_x(self):
        from graphpotentials.algebra import RationalExpr

        cert = mu_nu_factors(graph_potential(four_slot_graph(False)), "x")
        allv = tuple(sorted(set(ABCD) | {"x"}))
        x = LaurentPoly.variable(allv, "x")
        expected = RationalExpr(cert.mu_prime.embed(allv), cert.nu.embed(allv) * x)
        assert rexpr_equal(cert.substitution, expected)

    def test_mutated_periods_agree_on_theta(self):
        # the change of coordinates preserves constant terms, so the period
        # sequences of the two bundles coincide
        from graphpotentials.periods import periods_bruteforce

        b1 = graph_potential(theta_graph())
        b2, _ = mutate(b1, "a")
        p1 = periods_bruteforce(b1.potential, 8)
        p2 = periods_bruteforce(b2.potential, 8)
        assert p1.pi == p2.pi


class TestLeafSigns:
    """Both graph moves keep every leaf's sign, with the walk's boundary
    state as the oracle: a move changes no state."""

    GRAPHS = [pytest.param(necklace_graph(g, open_ends=True, parity=p), id=f"open-g{g}-p{p}")
              for g in (1, 2, 3) for p in (0, 1)] + [
        pytest.param(graph_from_json(json.loads((FIXTURES / "caterpillar.json").read_text())),
                     id="caterpillar")]

    @pytest.mark.parametrize("g", GRAPHS)
    def test_moves_keep_the_state(self, g):
        state = k_state(g, 8)
        bundle = graph_potential(g)
        for e in g.edges:
            moved = coloring_boundary_move(g, e.id)
            assert graph_potential(moved).potential == bundle.potential.negate_var(e.id)
            assert k_state(moved, 8) == state
            if e.ends[0] != e.ends[1]:
                assert all(mutation_report(bundle, e.id).values())
                assert k_state(elementary_transformation(g, e.id), 8) == state
        assert k_state(normalize_coloring(g)[0], 8) == state
