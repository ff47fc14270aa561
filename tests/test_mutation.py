import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from graphpotentials.algebra import LaurentPoly, rexpr_equal, sum_over
from graphpotentials.graphs import (
    Leaf,
    canonical_form,
    coloring_boundary_move,
    dumbbell_graph,
    elementary_transformation,
    enumerate_trivalent,
    graph_from_json,
    graph_to_json,
    make_graph,
    moved_vertices,
    necklace_graph,
    normalize_coloring,
    theta_graph,
    vertex_slots,
    with_colors,
)
from graphpotentials.mutation import (
    _local,
    coloring_report,
    mu_nu_factors,
    mutate,
    mutation_report,
)
from graphpotentials.potential import PotentialBundle, graph_potential
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
        assert all(mutation_report(graph_potential(h_graph(True)), "x").values())

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
                assert all(mutation_report(b, e).values())

    def test_dumbbell_bridge(self):
        for parity in (0, 1):
            assert all(mutation_report(graph_potential(dumbbell_graph(parity)), "a").values())


def count_full_slot_tables(monkeypatch) -> list:
    """The graphs that full ``vertex_slots`` tables are built of from now on,
    wherever ``graphs`` or ``potential`` call it; the rows at chosen vertices,
    all a move builds, are not counted."""
    from graphpotentials import graphs as graphs_mod
    from graphpotentials import potential as potential_mod

    real = graphs_mod.vertex_slots
    calls = []

    def counting(g, vids=None):
        if vids is None:
            calls.append(g)
            return real(g)
        return real(g, vids)

    for module in (graphs_mod, potential_mod):
        monkeypatch.setattr(module, "vertex_slots", counting)
    return calls


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
        real = mutation_mod.moved_bundle

        def counting(source, g, changed):
            calls.append(g)
            return real(source, g, changed)

        monkeypatch.setattr(mutation_mod, "moved_bundle", counting)
        out, _ = mutate(bundle, "s2")
        assert len(calls) == 1 and out.graph is calls[0]

    def test_mutate_splits_each_potential_once(self, monkeypatch):
        from graphpotentials import mutation as mutation_mod

        bundle = graph_potential(necklace_graph(3, parity=1))
        calls = []

        local = mutation_mod._local

        def counting(b, ends):
            calls.append(b)
            return local(b, ends)

        monkeypatch.setattr(mutation_mod, "_local", counting)
        out, _ = mutate(bundle, "s2")
        assert calls == [bundle, out]

    def test_mutate_builds_no_full_slot_table(self, monkeypatch):
        # the source's potential comes from one full table; a move builds the
        # rows of the edge's two ends alone and checks the rest by the graph
        # diff, so neither a move nor a chain of two builds a full table
        calls = count_full_slot_tables(monkeypatch)
        g = necklace_graph(4)
        bundle = graph_potential(g)
        assert calls == [g]
        out, _ = mutate(bundle, "s2")
        mutate(out, "s4")
        assert calls == [g]

    @pytest.mark.parametrize("report", [mutation_report, coloring_report])
    def test_each_report_builds_no_full_slot_table(self, report, monkeypatch):
        bundle = graph_potential(necklace_graph(4, parity=1))
        calls = count_full_slot_tables(monkeypatch)
        for eid in ("s2", "s4", "d3"):
            assert all(report(bundle, eid).values())
        assert calls == []

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
        with pytest.raises(ValueError, match="loop"):
            mu_nu_factors(b, "b")
        with pytest.raises(ValueError, match="loop"):
            mutate(b, "b")

    def test_x_degree_other_than_one_is_refused(self):
        # a hand-built bundle whose end v1 holds the edge variable squared
        b = graph_potential(theta_graph())
        a2 = LaurentPoly.variable(b.per_vertex["v1"].vars, "a", 2)
        bad = b._replace(per_vertex={**b.per_vertex, "v1": b.per_vertex["v1"] + a2})
        for check in (mu_nu_factors, mutation_report):
            with pytest.raises(ValueError, match="^local potential has x-degree 2, expected [+]-1$"):
                check(bad, "a")

    def test_split_potential_partition(self):
        g = make_graph(
            [("v1", 0), ("v2", 0), ("v3", 0), ("v4", 0)],
            [("p", "v1", "v2"), ("q", "v1", "v2"), ("r", "v1", "v3"),
             ("s", "v2", "v4"), ("t", "v3", "v4"), ("u", "v3", "v4")],
        )
        b = graph_potential(g)
        local = _local(b, g.edge("r").ends)
        assert local.vars == ("p", "q", "r", "t", "u")
        assert local == b.per_vertex["v1"].embed(local.vars) + b.per_vertex["v3"].embed(local.vars)
        frozen = [b.per_vertex["v2"], b.per_vertex["v4"]]
        assert sum_over(b.variables, [local] + frozen) == b.potential

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
        from graphpotentials.periods import constant_terms_of_powers

        b1 = graph_potential(theta_graph())
        b2, _ = mutate(b1, "a")
        assert constant_terms_of_powers(b1.potential, 8) == constant_terms_of_powers(b2.potential, 8)


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


def _route_cases():
    """Every coloring of every class through genus 3, and both parities of
    every genus-4 class, each with its non-loop edges."""
    for genus in (2, 3, 4):
        for i, g in enumerate(enumerate_trivalent(genus)):
            ids = [v.id for v in g.vertices]
            colorings = (product((0, 1), repeat=len(ids)) if genus <= 3
                         else [(p,) + (0,) * (len(ids) - 1) for p in (0, 1)])
            for colors in colorings:
                yield pytest.param(with_colors(g, dict(zip(ids, colors))),
                                   id=f"g{genus}-{i}-" + "".join(map(str, colors)))


def _mutates(bundle, edge_id) -> bool:
    try:
        mutate(bundle, edge_id)
    except ArithmeticError:
        return False
    return True


def _corrupt_splits(monkeypatch, source=None, target=None):
    """Pass the (mu, nu) of the source's split through ``source`` and the
    (mu', nu') of the moved graph's through ``target``: both routes split
    the source first and the moved graph second."""
    from graphpotentials import mutation as mutation_mod

    real = mutation_mod._x_coefficients
    calls = []

    def corrupted(local, x):
        calls.append(x)
        change = target if len(calls) % 2 == 0 else source
        return change(*real(local, x)) if change else real(local, x)

    monkeypatch.setattr(mutation_mod, "_x_coefficients", corrupted)


class TestRoutes:
    """``mutate`` certifies by the splits and the product identity,
    ``mutation_report`` by the full symbolic substitution; the two agree."""

    @pytest.mark.parametrize("g", _route_cases())
    def test_mutate_agrees_with_the_substitution(self, g):
        bundle = graph_potential(g)
        for e in g.edges:
            if e.ends[0] == e.ends[1]:
                continue
            report = mutation_report(bundle, e.id)
            assert _mutates(bundle, e.id) == all(report.values()), e.id
            assert report["product_identity"] == report["substitution_identity"], e.id

    @pytest.fixture
    def doubled_mu_prime(self, monkeypatch):
        # mu' is the factor both routes read; nu' enters only the product,
        # as the substitution route compares with the rebuilt local potential
        _corrupt_splits(monkeypatch, target=lambda mu, nu: (mu * 2, nu))

    def test_corrupted_factor_fails_both_routes(self, doubled_mu_prime):
        bundle = graph_potential(necklace_graph(3, parity=1))
        with pytest.raises(ArithmeticError, match=r"failed checks: product_identity$"):
            mutate(bundle, "s2")
        report = mutation_report(bundle, "s2")
        assert report == {"product_identity": False, "substitution_identity": False,
                          "frozen_unchanged": True}

    def test_corrupted_factor_exits_3(self, doubled_mu_prime, capsys):
        from graphpotentials import cli

        code = cli.main(["mutate", "--graph", str(FIXTURES / "theta.json"), "--edge", "a"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == "verification failed: mutation at 'a' failed checks: product_identity\n"

    @pytest.mark.parametrize("name", ["rexpr_substitute", "rexpr_equal"])
    def test_only_the_report_runs_the_substitution(self, name, monkeypatch):
        from graphpotentials import mutation as mutation_mod

        def forbidden(*args):
            raise AssertionError(f"{name} called")

        bundle = graph_potential(necklace_graph(3, parity=1))
        monkeypatch.setattr(mutation_mod, name, forbidden)
        mutate(bundle, "s2")
        with pytest.raises(AssertionError, match=f"{name} called"):
            mutation_report(bundle, "s2")

    @pytest.mark.parametrize("check, corruption", [
        ("nu_nonzero", {"source": lambda mu, nu: (mu, nu * 0)}),
        ("mu_prime_nonzero", {"target": lambda mu, nu: (mu * 0, nu)}),
    ], ids=["nu", "mu_prime"])
    def test_zero_factor_is_refused(self, check, corruption, monkeypatch):
        _corrupt_splits(monkeypatch, **corruption)
        with pytest.raises(ArithmeticError, match=check):
            mutate(graph_potential(theta_graph()), "a")


NECKLACE_G3 = FIXTURES / "necklace_closed_g3.json"  # s2 joins v2 and v3


def _rewired_at_v1(g):
    """A move's result on NECKLACE_G3 with d1 moved from v1 to v4 and s4 (v4-v1)
    turned into a loop at v1: v1 and v4 change, s2's ends v2 and v3 do not."""
    ends = {"d1": ("v4", "v2"), "s4": ("v1", "v1")}
    return g._replace(edges=tuple(e._replace(ends=ends.get(e.id, e.ends)) for e in g.edges))


def _forbidden(name):
    def forbidden(*args):
        raise AssertionError(f"{name} called")

    return forbidden


def _rebuilt_coloring_verdict(bundle, edge_id):
    """The coloring check on a full rebuild of the moved graph's potential:
    every vertex off the edge keeps its potential, and each end inverts it."""
    ends = bundle.graph.edge(edge_id).ends
    moved = graph_potential(coloring_boundary_move(bundle.graph, edge_id)).per_vertex
    return moved.keys() == bundle.per_vertex.keys() and all(
        moved[v] == (w.negate_var(edge_id) if v in ends else w)
        for v, w in bundle.per_vertex.items())


class TestVertexWise:
    """The moves are checked vertex by vertex against the source bundle,
    without the full potential."""

    @pytest.mark.parametrize("genus", [2, 3, 4, 5])
    def test_moves_rebuild_only_the_ends(self, genus):
        # the two rebuilt end potentials and the kept ones make up the full
        # rebuild, and the coloring check agrees with it at every edge
        for g in enumerate_trivalent(genus):
            for parity in (0, 1):
                bundle = graph_potential(with_colors(g, {"v0": parity}))
                for e in g.edges:
                    if e.ends[0] != e.ends[1]:
                        moved, _ = mutate(bundle, e.id)
                        assert moved.per_vertex == graph_potential(moved.graph).per_vertex
                    assert all(coloring_report(bundle, e.id).values()) \
                        == _rebuilt_coloring_verdict(bundle, e.id)

    def test_moves_never_build_the_full_potential(self, monkeypatch, capsys):
        from graphpotentials import cli

        monkeypatch.setattr(PotentialBundle, "potential", property(_forbidden("potential")))
        bundle = graph_potential(necklace_graph(3, parity=1))
        mutate(bundle, "s2")
        assert all(mutation_report(bundle, "s2").values())
        assert cli.main(["verify", "coloring", "--graph", str(NECKLACE_G3)]) == 0

    def test_potentials_and_moves_embed_nothing(self, monkeypatch, capsys):
        # vertex potentials are built inside both, on the source and on each moved graph
        from graphpotentials import cli

        monkeypatch.setattr(LaurentPoly, "embed", _forbidden("embed"))
        mutate(graph_potential(necklace_graph(3, parity=1)), "s2")
        assert cli.main(["verify", "coloring", "--graph", str(NECKLACE_G3)]) == 0

    @pytest.fixture
    def corrupted_v1(self, monkeypatch):
        # v1 is off s2: rewiring it in the moved graph leaves both local
        # potentials, and so the product identity, intact
        from graphpotentials import mutation as mutation_mod

        real = mutation_mod.elementary_move

        def rewiring(g, edge_id):
            moved, slots = real(g, edge_id)
            return _rewired_at_v1(moved), slots

        monkeypatch.setattr(mutation_mod, "elementary_move", rewiring)

    def test_changed_frozen_vertex_fails_the_mutation(self, corrupted_v1):
        bundle = graph_potential(graph_from_json(json.loads(NECKLACE_G3.read_text())))
        with pytest.raises(ArithmeticError, match=r"failed checks: frozen_unchanged$"):
            mutate(bundle, "s2")
        assert mutation_report(bundle, "s2") == {"product_identity": True,
                                                 "substitution_identity": True,
                                                 "frozen_unchanged": False}

    def test_changed_frozen_vertex_exits_3(self, corrupted_v1, capsys):
        from graphpotentials import cli

        code = cli.main(["verify", "mutation", "--graph", str(NECKLACE_G3), "--edge", "s2"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == "FAIL edge s2: frozen_unchanged=FAIL product_identity=ok substitution_identity=ok\n"
        assert err == "verification failed: mutation verification failed\n"

    @pytest.mark.parametrize("change", [
        lambda g: with_colors(g, {"v4": 1}),
        lambda g: g._replace(leaves=tuple(x._replace(orientation="in") if x.id == "x" else x
                                          for x in g.leaves)),
    ], ids=["color", "leaf"])
    def test_changed_color_or_leaf_off_the_edge_is_seen(self, change, monkeypatch):
        # s2 joins v2 and v3 of the open genus-2 necklace; x hangs at v1, y at v4
        from graphpotentials import mutation as mutation_mod

        real = mutation_mod.coloring_boundary_move
        monkeypatch.setattr(mutation_mod, "coloring_boundary_move", lambda g, e: change(real(g, e)))
        bundle = graph_potential(necklace_graph(2, open_ends=True))
        assert coloring_report(bundle, "s2") == {"frozen_unchanged": False,
                                                 "ends_invert_edge": True}

    def test_changed_vertex_fails_verify_coloring(self, monkeypatch, capsys):
        from graphpotentials import cli
        from graphpotentials import mutation as mutation_mod

        real = mutation_mod.coloring_boundary_move
        monkeypatch.setattr(mutation_mod, "coloring_boundary_move",
                            lambda g, e: _rewired_at_v1(real(g, e)) if e == "s2" else real(g, e))
        code = cli.main(["verify", "coloring", "--graph", str(NECKLACE_G3)])
        out, err = capsys.readouterr()
        assert code == 3
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "PASS edge d1", "PASS edge d1x", "PASS edge d3", "PASS edge d3x",
            "FAIL edge s2", "PASS edge s4"]
        assert err == "verification failed: coloring verification failed\n"


def _vertex_data(g):
    """Each vertex's color, full-table slot row and leaf orientations."""
    rows = vertex_slots(g)
    return {v.id: (v.color, rows[v.id], {x.id: x.orientation for x in g.leaves if x.vertex == v.id})
            for v in g.vertices}


def _differing_vertices(a, b):
    """The oracle of ``moved_vertices`` on graphs with the same ids: the
    vertices whose data differ, compared over the whole of both graphs."""
    data_a, data_b = _vertex_data(a), _vertex_data(b)
    return {v for v in data_a if data_a[v] != data_b[v]}


def _diff_cases():
    for genus in (2, 3, 4, 5):
        for i, g in enumerate(enumerate_trivalent(genus)):
            for p in (0, 1):
                yield pytest.param(with_colors(g, {"v0": p}), id=f"g{genus}-{i}-p{p}")
    yield from TestLeafSigns.GRAPHS


# the open genus-2 necklace with its leaf x at v1 inverted, moved at d1 (v1-v2):
# both moves leave x at an end with its sign inverted
LEAFY = necklace_graph(2, open_ends=True)._replace(
    leaves=(Leaf("x", "v1", "in"), Leaf("y", "v4", "out")))


def _renamed(g):  # d1x has both ends at the move's ends after either move
    return g._replace(edges=tuple(e._replace(id="d1y") if e.id == "d1x" else e for e in g.edges))


def _end_of_degree_four(g):  # the first edge at v2 but d1 moves its end there to v1
    moving = next(e.id for e in g.edges if e.id != "d1" and "v2" in e.ends)
    return g._replace(edges=tuple(
        e._replace(ends=tuple("v1" if v == "v2" else v for v in e.ends)) if e.id == moving else e
        for e in g.edges))


# (graph, edge, corruption of the moved graph, whether the frozen check or a
# ValueError catches it)
CORRUPTIONS = [
    pytest.param(LEAFY, "d1", _renamed, "frozen", id="edge renamed"),
    pytest.param(LEAFY, "d1", lambda g: g._replace(edges=tuple(e for e in g.edges if e.id != "d3")),
                 "frozen", id="edge dropped"),
    pytest.param(LEAFY, "d1", lambda g: g._replace(edges=tuple(
        e._replace(ends=e.ends[::-1]) if e.id == "d3" else e for e in g.edges)),
                 "frozen", id="edge off the move reversed"),
    pytest.param(graph_from_json(json.loads(NECKLACE_G3.read_text())), "s2", _rewired_at_v1,
                 "frozen", id="third vertex rewired"),
    pytest.param(LEAFY, "d1", _end_of_degree_four, ValueError, id="end of degree 4"),
    pytest.param(LEAFY, "d1", lambda g: with_colors(g, {"v1": 2}), ValueError, id="end colored 2"),
    pytest.param(LEAFY, "d1", lambda g: g._replace(leaves=tuple(
        x._replace(orientation="sideways") if x.vertex in ("v1", "v2") else x for x in g.leaves)),
                 ValueError, id="leaf sideways"),
]


class TestGraphDiff:
    """``frozen_unchanged`` is ``moved_vertices`` of the source and the moved
    graph, which agrees with a comparison of whole-graph data."""

    @pytest.mark.parametrize("g", _diff_cases())
    def test_diff_equals_the_oracle(self, g):
        for e in g.edges:
            moves = [coloring_boundary_move(g, e.id)]
            if e.ends[0] != e.ends[1]:
                moves.append(elementary_transformation(g, e.id))
            for moved in moves:
                diff = moved_vertices(g, moved)
                assert diff == _differing_vertices(g, moved), e.id
                assert diff <= set(e.ends), e.id

    def test_rebuilt_records_are_compared_by_value(self):
        g = LEAFY
        h = graph_from_json(graph_to_json(g))
        assert all(x is not y for xs, ys in zip(g, h) for x, y in zip(xs, ys))
        assert moved_vertices(g, h) == set()
        # s2 (v2-v3) keeps its end at v3 and moves the one at v2 to v4
        moved = h._replace(edges=tuple(e._replace(ends=("v4", "v3")) if e.id == "s2" else e
                                       for e in h.edges))
        assert moved_vertices(g, moved) == {"v2", "v4"}
        # a leaf that moves is found at its old vertex too
        moved = h._replace(leaves=(h.leaves[0], h.leaves[1]._replace(vertex="v1")))
        assert moved_vertices(g, moved) == {"v1", "v4"}

    @pytest.mark.parametrize("g", [
        pytest.param(with_colors(g, {"v0": p}), id=f"g{genus}-{i}-p{p}")
        for genus in (2, 3, 4) for i, g in enumerate(enumerate_trivalent(genus)) for p in (0, 1)] + [
        pytest.param(graph_from_json(json.loads((FIXTURES / "caterpillar.json").read_text())),
                     id="caterpillar")])
    def test_moves_share_the_records_they_keep(self, g):
        # the diff looks only at positions where the graphs hold different
        # objects; every move rebuilds exactly the records whose value it changes
        for e in g.edges:
            moves = [coloring_boundary_move(g, e.id)]
            if e.ends[0] != e.ends[1]:
                moves.append(elementary_transformation(g, e.id))
            for moved in moves:
                for xs, ys in zip(g, moved):
                    assert [x is not y for x, y in zip(xs, ys)] == [x != y for x, y in zip(xs, ys)]

    def test_ids_must_agree(self):
        g = LEAFY
        assert moved_vertices(g, g) == set()
        for h in (_renamed(g), g._replace(edges=g.edges[1:]), g._replace(edges=g.edges[::-1]),
                  g._replace(vertices=g.vertices[::-1]), g._replace(leaves=g.leaves[:1])):
            assert moved_vertices(g, h) is None

    def test_far_end_that_stays_put_is_left_out(self):
        # s2 (v2-v3) keeps its end at v3 and moves the one at v2
        g = LEAFY
        moved = g._replace(edges=tuple(e._replace(ends=("v1", "v3")) if e.id == "s2" else e
                                       for e in g.edges))
        assert moved_vertices(g, moved) == {"v1", "v2"}

    @pytest.mark.parametrize("g, edge_id, corrupt, caught", CORRUPTIONS)
    def test_corrupted_moves_are_never_certified(self, g, edge_id, corrupt, caught, monkeypatch):
        from graphpotentials import mutation as mutation_mod

        move, flip = mutation_mod.elementary_move, mutation_mod.coloring_boundary_move

        def corrupted_move(h, e):
            moved, slots = move(h, e)
            return corrupt(moved), slots

        monkeypatch.setattr(mutation_mod, "elementary_move", corrupted_move)
        monkeypatch.setattr(mutation_mod, "coloring_boundary_move", lambda h, e: corrupt(flip(h, e)))
        bundle = graph_potential(g)
        if caught == "frozen":
            with pytest.raises(ArithmeticError, match="frozen_unchanged"):
                mutate(bundle, edge_id)
            for report in (mutation_report, coloring_report):
                try:
                    assert report(bundle, edge_id)["frozen_unchanged"] is False
                except ValueError:  # a renamed variable meets the report's algebra
                    assert corrupt is _renamed
        else:
            for check in (mutate, mutation_report, coloring_report):
                with pytest.raises(caught):
                    check(bundle, edge_id)
