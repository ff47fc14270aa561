import importlib.util
import json
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from graphpotentials.graphs import (
    MAX_ENUMERATION_VERTICES,
    InvalidGraph,
    Leaf,
    _components,
    canonical_form,
    coloring_boundary_move,
    dumbbell_graph,
    elementary_move,
    elementary_transformation,
    enumerate_trivalent,
    genus,
    graph_from_json,
    graph_to_json,
    homology_ranks_f2,
    make_graph,
    mgamma_member,
    necklace_graph,
    normalize_coloring,
    require_valid,
    theta_graph,
    validate,
    vertex_slots,
    with_colors,
)
from graphpotentials.periods import periods_of_graph
from graphpotentials.potential import graph_potential
from graphpotentials.tqft import k_state

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
JOBS = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"


@pytest.fixture(scope="module")
def jobs():
    """perfbench/jobs.py, the benchmark's job entry, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canonical_form_bruteforce(g):
    """The reference canonical key: the least key over all V! vertex orders."""
    vids = sorted(v.id for v in g.vertices)
    colors = {v.id: v.color for v in g.vertices}
    best = None
    for perm in permutations(range(len(vids))):
        pos = {vid: perm[i] for i, vid in enumerate(vids)}
        key = (
            tuple(colors[vid] for vid in sorted(vids, key=lambda x: pos[x])),
            tuple(sorted(tuple(sorted((pos[e.ends[0]], pos[e.ends[1]]))) for e in g.edges)),
            tuple(sorted((pos[leaf.vertex], leaf.orientation) for leaf in g.leaves)),
        )
        if best is None or key < best:
            best = key
    return best


def _perfect_matchings(stubs):
    if not stubs:
        yield []
        return
    first = stubs[0]
    for i in range(1, len(stubs)):
        rest = stubs[1:i] + stubs[i + 1:]
        for m in _perfect_matchings(rest):
            yield [(first, stubs[i])] + m


def _enumerate_trivalent_stubs(g):
    """The reference enumeration: every perfect matching of the 3V vertex
    stubs, one representative per class, sorted by canonical key.  There
    are (6g - 7)!! matchings, so it runs at genus 2 and 3 only."""
    nv = 2 * g - 2
    stubs = [(v, s) for v in range(nv) for s in range(3)]
    multisets = set()
    seen = {}
    for m in _perfect_matchings(stubs):
        # many matchings give the same labeled multigraph; build each once,
        # with edges sorted by endpoint pairs so the labeling is stable
        edges = tuple(sorted(tuple(sorted((a[0], b[0]))) for a, b in m))
        if edges in multisets:
            continue
        multisets.add(edges)
        graph = make_graph(
            [(f"v{i}", 0) for i in range(nv)],
            [(f"e{j}", f"v{a}", f"v{b}") for j, (a, b) in enumerate(edges)],
        )
        if len(_components(graph)) != 1:
            continue
        seen.setdefault(canonical_form(graph), graph)
    return tuple(seen[k] for k in sorted(seen))


# classes of connected trivalent graphs of genus g with n leaves, uncolored, for
# every V = 2g - 2 + n <= 8; n = 0 is OEIS A005967 and genus 0 the unrooted
# binary trees, OEIS A000672
CLASS_COUNTS = {
    (0, 3): 1, (0, 4): 1, (0, 5): 1, (0, 6): 2, (0, 7): 2, (0, 8): 4, (0, 9): 6, (0, 10): 11,
    (1, 1): 1, (1, 2): 2, (1, 3): 3, (1, 4): 6, (1, 5): 10, (1, 6): 21, (1, 7): 39, (1, 8): 84,
    (2, 0): 2, (2, 1): 3, (2, 2): 9, (2, 3): 19, (2, 4): 50, (2, 5): 114, (2, 6): 291,
    (3, 0): 5, (3, 1): 12, (3, 2): 49, (3, 3): 147, (3, 4): 475,
    (4, 0): 17, (4, 1): 67, (4, 2): 338,
    (5, 0): 71,
}


def _cut_keys(closed_classes):
    """The canonical keys, deduplicated, of the two-leaf graphs cut from the
    closed classes: each edge whose removal leaves the graph connected, loops
    included, becomes two "out" leaves at its ends."""
    keys = set()
    for closed in closed_classes:
        for cut in closed.edges:
            rest = closed._replace(edges=tuple(e for e in closed.edges if e.id != cut.id))
            if _reach(rest) == {v.id for v in rest.vertices}:
                keys.add(canonical_form(rest._replace(leaves=tuple(
                    Leaf(x, v, "out") for x, v in zip(("x", "y"), cut.ends)))))
    return keys


def _reach(g):
    """The vertices a breadth-first walk along the edges reaches from the first."""
    seen = [g.vertices[0].id]
    for u in seen:
        seen += [w for e in g.edges if u in e.ends for w in e.ends if w not in seen]
    return set(seen)


def _both_re_pairings(g, edge_id):
    """The two graphs that re-pair the strands at a non-loop edge.

    elementary_transformation picks one re-pairing by id order; the other
    comes from the same move on g with the ids of the two other edges at
    the edge's second end swapped.  Where one of those is parallel to the
    edge, the swap may reorder the first end too, but the results still
    include the re-pairing that makes a loop, and the other one there gives
    a graph isomorphic to g.
    """
    v2 = g.edge(edge_id).ends[1]
    c, d = (s[1] for s in vertex_slots(g)[v2] if s[1] != edge_id)
    swap = {c: d, d: c}
    swapped = g._replace(edges=tuple(e._replace(id=swap.get(e.id, e.id)) for e in g.edges))
    return elementary_transformation(g, edge_id), elementary_transformation(swapped, edge_id)


def _reached(nodes, moves):
    """The number of classes reached from the first of ``nodes`` (a dict
    from canonical key to graph) by ``moves``, and the number of moves made;
    every move must land in ``nodes``."""
    start = next(iter(nodes))
    seen = {start}
    frontier = [start]
    made = 0
    while frontier:
        found = []
        for key in frontier:
            for out in moves(nodes[key]):
                made += 1
                k = canonical_form(out)
                assert k in nodes, graph_to_json(out)
                if k not in seen:
                    seen.add(k)
                    found.append(k)
        frontier = found
    return len(seen), made


def _random_multigraph(rng, max_vertices):
    """Degrees 2 to 4, loops, parallel edges, leaves of both orientations,
    colors 0 to 2, often disconnected; not a valid trivalent graph."""
    n = rng.randint(1, max_vertices)
    stubs = [v for v in range(n) for _ in range(rng.randint(2, 4))]
    rng.shuffle(stubs)
    edges, leaves = [], []
    while len(stubs) >= 2:
        if rng.random() < 0.15:
            leaves.append(stubs.pop())
        else:
            edges.append((stubs.pop(), stubs.pop()))
    leaves += stubs
    return make_graph([(f"v{i}", rng.choice((0, 0, 1, 2))) for i in range(n)],
                      [(f"e{j}", f"v{a}", f"v{b}") for j, (a, b) in enumerate(edges)],
                      [(f"l{j}", f"v{v}", rng.choice(("out", "in"))) for j, v in enumerate(leaves)])


def _colored_cubic_16():
    """The Moebius-Kantor graph (generalized Petersen GP(8, 3)), half colored."""
    outer = [(f"o{i}", f"o{(i + 1) % 8}") for i in range(8)]
    spokes = [(f"o{i}", f"i{i}") for i in range(8)]
    inner = [(f"i{i}", f"i{(i + 3) % 8}") for i in range(8)]
    vertices = [(f"o{i}", i % 2) for i in range(8)] + [(f"i{i}", int(i < 4)) for i in range(8)]
    return make_graph(vertices, [(f"e{j}", a, b) for j, (a, b) in enumerate(outer + spokes + inner)])


def _relabeled(g, rng):
    """g with shuffled vertex names and reversed vertex and edge insertion order."""
    names = [f"w{i}" for i in range(len(g.vertices))]
    rng.shuffle(names)
    mapping = {v.id: name for v, name in zip(g.vertices, names)}
    return make_graph(
        [(mapping[v.id], v.color) for v in reversed(g.vertices)],
        [(e.id, mapping[e.ends[0]], mapping[e.ends[1]]) for e in reversed(g.edges)],
    )


def _two_thetas():
    """Thetas a (a1 colored: odd) and b (b1 and b2 colored: even), disjoint."""
    return make_graph([("a1", 1), ("a2", 0), ("b1", 1), ("b2", 1)],
                      [(f"{t}{e}", f"{t}1", f"{t}2") for t in "ab" for e in "xyz"])


# sorting the slots of edges "a", 2 and "c", or of leaves "X", None and "Z",
# would raise TypeError: validate refuses both first
MIXED_EDGE_IDS = make_graph([("v1", 0), ("v2", 0)],
                            [("a", "v1", "v2"), (2, "v1", "v2"), ("c", "v1", "v2")])
NONE_LEAF_ID = make_graph([("v", 0)], [], [("X", "v", "out"), (None, "v", "out"), ("Z", "v", "out")])


def tripod():
    return make_graph([("v", 0)], [], [("X", "v", "out"), ("Y", "v", "out"), ("Z", "v", "out")])


class TestValidation:
    def test_good_graphs_have_no_diagnostics(self):
        for g in (theta_graph(), dumbbell_graph(), necklace_graph(3), tripod(),
                  necklace_graph(2, open_ends=True, parity=1)):
            assert validate(g) == []

    def test_duplicate_vertex_id(self):
        g = make_graph([("v1", 0), ("v1", 0)], [("a", "v1", "v1")], [])
        assert any("duplicate vertex" in d for d in validate(g))

    def test_edge_and_leaf_ids_share_namespace(self):
        g = make_graph([("v1", 0), ("v2", 0)],
                       [("a", "v1", "v2"), ("b", "v1", "v2")],
                       [("a", "v1", "out"), ("b", "v2", "out")])
        assert any("distinct" in d for d in validate(g))

    def test_unknown_endpoint(self):
        g = make_graph([("v1", 0)], [("a", "v1", "nowhere")], [])
        assert any("nowhere" in d for d in validate(g))

    def test_unknown_leaf_vertex(self):
        g = make_graph([("v1", 0)], [("a", "v1", "v1")], [("x", "nowhere", "out")])
        assert validate(g) == ["leaf x: unknown vertex nowhere"]

    def test_lookup_of_an_unknown_vertex(self):
        with pytest.raises(KeyError):
            theta_graph().vertex("nowhere")

    def test_bad_color_and_orientation(self):
        g = make_graph([("v1", 2)], [], [("p", "v1", "sideways")])
        diags = validate(g)
        assert any("color" in d for d in diags)
        assert any("orientation" in d for d in diags)

    @pytest.mark.parametrize("value", [None, 7, ["v"]], ids=["None", "7", "list"])
    @pytest.mark.parametrize("field", ["vertex id", "edge id", "edge 'd1' end", "leaf id",
                                       "leaf vertex"])
    def test_ids_must_be_strings(self, field, value):
        # however the graph was built; a list id is judged before any set holds it
        g = necklace_graph(1, open_ends=True)
        v, e, x = g.vertices[0], g.edges[0], g.leaves[0]
        g = {"vertex id": g._replace(vertices=(v._replace(id=value),) + g.vertices[1:]),
             "edge id": g._replace(edges=(e._replace(id=value),) + g.edges[1:]),
             "edge 'd1' end": g._replace(edges=(e._replace(ends=(e.ends[0], value)),) + g.edges[1:]),
             "leaf id": g._replace(leaves=(x._replace(id=value),) + g.leaves[1:]),
             "leaf vertex": g._replace(leaves=(x._replace(vertex=value),) + g.leaves[1:]),
             }[field]
        assert validate(g) == [f"{field} must be a string, got {value!r}"]

    @pytest.mark.parametrize("entry,g,want", [
        (graph_potential, MIXED_EDGE_IDS, "edge id must be a string, got 2"),
        (lambda g: k_state(g, 4), MIXED_EDGE_IDS, "edge id must be a string, got 2"),
        (lambda g: k_state(g, 4), NONE_LEAF_ID, "leaf id must be a string, got None"),
        (lambda g: periods_of_graph(g, 4, "brute"), MIXED_EDGE_IDS, "edge id must be a string"),
        (lambda g: periods_of_graph(g, 4, "tqft"), MIXED_EDGE_IDS, "edge id must be a string"),
    ], ids=["graph_potential", "k_state", "k_state leaf", "periods brute", "periods tqft"])
    def test_entries_refuse_ids_that_mix_str_and_int(self, entry, g, want):
        with pytest.raises(InvalidGraph, match=want):
            entry(g)

    @pytest.mark.parametrize("color", [True, 1.0], ids=["bool", "float"])
    def test_color_must_be_an_int(self, color):
        # both equal 1
        g = with_colors(theta_graph(), {"v2": color})
        assert validate(g) == [f"vertex v2: color must be the int 0 or 1, got {color!r}"]
        with pytest.raises(InvalidGraph):
            graph_potential(g)

    def test_wrong_degree(self):
        g = make_graph([("v1", 0), ("v2", 0)], [("a", "v1", "v2")], [])
        assert any("degree" in d for d in validate(g))

    def test_count_identities_follow_from_trivalence(self):
        # per component with n leaves 3V = 2E_int + n, so with b = E_int - V + 1
        # V = 2b - 2 + n and E_int = 3b - 3 + n: validate need not check them
        for g in enumerate_trivalent(2) + enumerate_trivalent(3) + (
                necklace_graph(3, open_ends=True), tripod()):
            b, n = genus(g), len(g.leaves)
            assert len(g.vertices) == 2 * b - 2 + n
            assert len(g.edges) == 3 * b - 3 + n


class TestGenusAndHomology:
    @pytest.mark.parametrize("g,expected", [
        (theta_graph(), 2),
        (dumbbell_graph(), 2),
        (necklace_graph(4), 4),
        (necklace_graph(2, open_ends=True), 2),
        (tripod(), 0),
    ])
    def test_genus(self, g, expected):
        assert genus(g) == expected

    def test_homology_ranks(self):
        # rank H_0 = components, rank H_1 = E - V + components
        assert homology_ranks_f2(theta_graph()) == (1, 2)
        assert homology_ranks_f2(dumbbell_graph()) == (1, 2)
        assert homology_ranks_f2(necklace_graph(5)) == (1, 5)
        assert homology_ranks_f2(tripod()) == (1, 0)
        two_thetas = make_graph(
            [("v1", 0), ("v2", 0), ("w1", 0), ("w2", 0)],
            [("a", "v1", "v2"), ("b", "v1", "v2"), ("c", "v1", "v2"),
             ("p", "w1", "w2"), ("q", "w1", "w2"), ("r", "w1", "w2")])
        assert homology_ranks_f2(two_thetas) == (2, 4)


class TestColoring:
    def test_boundary_move_flips_both_endpoints(self):
        g = theta_graph()
        h = coloring_boundary_move(g, "a")
        assert h.color("v1") == 1 and h.color("v2") == 1
        assert coloring_boundary_move(h, "a") == g

    def test_boundary_move_on_loop_is_identity(self):
        g = dumbbell_graph()
        assert coloring_boundary_move(g, "b") == g

    def test_moves_preserve_parity(self):
        g = with_colors(necklace_graph(3), {"v2": 1})
        h = coloring_boundary_move(g, "s2")
        assert h.coloring_parity() == g.coloring_parity() == 1

    def test_normalize_coloring(self):
        g = with_colors(necklace_graph(3), {"v1": 1, "v3": 1, "v4": 1})
        normal, moves = normalize_coloring(g)
        assert normal.coloring_parity() == 1
        assert sum(normal.color(v.id) for v in normal.vertices) == 1
        # replaying the moves reproduces the normalized coloring
        replay = g
        for e in moves:
            replay = coloring_boundary_move(replay, e)
        assert replay == normal

    def test_normalize_even_clears_all_colors(self):
        g = with_colors(theta_graph(), {"v1": 1, "v2": 1})
        normal, _ = normalize_coloring(g)
        assert all(normal.color(v.id) == 0 for v in normal.vertices)

    @pytest.mark.parametrize("g, components", [
        (with_colors(necklace_graph(3, open_ends=True), {"v2": 1, "v3": 1, "v5": 1}),
         [{f"v{i}" for i in range(1, 7)}]),
        (with_colors(necklace_graph(2, open_ends=True, parity=1), {"v1": 1, "v2": 1}),
         [{"v1", "v2", "v3", "v4"}]),
        (with_colors(graph_from_json(json.loads((FIXTURES / "caterpillar.json").read_text())),
                     {"v2": 1}), [{"v1", "v2"}]),
        (with_colors(graph_from_json(json.loads((FIXTURES / "caterpillar.json").read_text())),
                     {"v1": 1, "v2": 1}), [{"v1", "v2"}]),
        (_two_thetas(), [{"a1", "a2"}, {"b1", "b2"}]),
    ], ids=["open-necklace-3", "open-necklace-2", "caterpillar-odd", "caterpillar-even",
            "two-thetas"])
    def test_normalize_with_leaves_and_components(self, g, components):
        normal, moves = normalize_coloring(g)
        replay = g
        for e in moves:
            replay = coloring_boundary_move(replay, e)
        assert replay == normal
        odd = [c for c in components if sum(g.color(v) for v in c) % 2]
        assert {v.id for v in normal.vertices if v.color} == {min(c) for c in odd}
        # each leaf keeps its sign, so a vertex potential changes only by
        # inverting the edges at it that were moved an odd number of times
        inverted = {e for e in moves if moves.count(e) % 2}
        before, after = graph_potential(g).per_vertex, graph_potential(normal).per_vertex
        assert before.keys() == after.keys()
        for v, w in before.items():
            for e in sorted(inverted & set(w.vars)):
                w = w.negate_var(e)
            assert after[v] == w


class TestElementaryTransformation:
    def test_theta_becomes_dumbbell(self):
        out = elementary_transformation(theta_graph(), "a")
        assert canonical_form(out) == canonical_form(dumbbell_graph())

    def test_dumbbell_bridge_becomes_theta(self):
        out = elementary_transformation(dumbbell_graph(), "a")
        assert canonical_form(out) == canonical_form(theta_graph())

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            elementary_transformation(dumbbell_graph(), "b")

    def test_endpoint_that_is_not_trivalent_rejected(self):
        # v2 has degree 2: the move re-pairs two slots at each end
        g = make_graph([("v1", 0), ("v2", 0)], [("e", "v1", "v2")],
                       [("x", "v1", "out"), ("y", "v1", "out"), ("z", "v2", "out")])
        with pytest.raises(ValueError, match="^edge e: endpoints are not trivalent$"):
            elementary_move(g, "e")

    def test_changes_only_the_two_crossing_slots(self):
        graphs = [with_colors(g, {"v0": p}) for g in enumerate_trivalent(4) for p in (0, 1)]
        graphs += [graph_from_json(json.loads(f.read_text()))
                   for f in sorted(FIXTURES.glob("*.json"))]
        graphs += [necklace_graph(k, open_ends=True, parity=p) for k in (1, 2, 3) for p in (0, 1)]
        for g in graphs:
            for e in g.edges:
                if e.ends[0] == e.ends[1]:
                    continue
                moved, ((_, b), (c, _)) = elementary_move(g, e.id)
                assert ([x for x in moved.edges if x.id not in (b, c)]
                        == [x for x in g.edges if x.id not in (b, c)])
                assert ([x for x in moved.leaves if x.id not in (b, c)]
                        == [x for x in g.leaves if x.id not in (b, c)])
                assert moved.vertices == g.vertices

    def test_preserves_genus_and_validity(self):
        for g in enumerate_trivalent(3):
            for e in g.edges:
                if e.ends[0] == e.ends[1]:
                    continue
                out = elementary_transformation(g, e.id)
                assert validate(out) == []
                assert genus(out) == 3

    @pytest.mark.parametrize("genus_,moves", [(3, 48), (4, 262), (5, 1498)])
    def test_uncolored_classes_are_one_component(self, genus_, moves):
        # the paper's homotopy statement: every class reaches every other
        nodes = {canonical_form(g): g for g in enumerate_trivalent(genus_)}

        def neighbors(g):
            for e in g.edges:
                if e.ends[0] != e.ends[1]:
                    yield from _both_re_pairings(g, e.id)

        assert _reached(nodes, neighbors) == (len(nodes), moves)

    @pytest.mark.parametrize("genus_", [3, 4])
    def test_one_vertex_colored_classes_are_one_component(self, genus_):
        # boundary moves at the colored vertex carry its color to a neighbor
        nodes = {}
        for g in enumerate_trivalent(genus_):
            for v in g.vertices:
                colored = with_colors(g, {v.id: 1})
                nodes.setdefault(canonical_form(colored), colored)

        def neighbors(g):
            for e in g.edges:
                if e.ends[0] != e.ends[1]:
                    yield from _both_re_pairings(g, e.id)
                    if 1 in (g.color(e.ends[0]), g.color(e.ends[1])):
                        yield coloring_boundary_move(g, e.id)

        assert _reached(nodes, neighbors)[0] == len(nodes)


class TestEnumeration:
    def test_counts(self):
        # OEIS A005967: connected cubic multigraphs with loops on 2g - 2 vertices
        assert [len(enumerate_trivalent(g)) for g in range(2, 6)] == [2, 5, 17, 71]
        counts = {(g, n): len(enumerate_trivalent(g, leaves=n)) for g, n in CLASS_COUNTS}
        assert counts == CLASS_COUNTS
        assert set(counts) == {(g, n) for g in range(6) for n in range(11)
                               if 1 <= 2 * g - 2 + n <= 8}

    def test_matches_stub_matching_oracle(self):
        for g in (2, 3):
            assert ([canonical_form(x) for x in enumerate_trivalent(g)]
                    == [canonical_form(x) for x in _enumerate_trivalent_stubs(g)])

    def test_representatives_are_connected_cubic(self):
        # the genus is E - V + 1 of a connected graph, found without graphs.genus
        for g, n in CLASS_COUNTS:
            nv = 2 * g - 2 + n
            for x in enumerate_trivalent(g, leaves=n):
                assert validate(x) == []
                degree = Counter([end for e in x.edges for end in e.ends]
                                 + [f.vertex for f in x.leaves])
                assert [degree[v.id] for v in x.vertices] == [3] * nv
                assert _reach(x) == set(degree)
                assert (len(x.edges) - nv + 1, len(x.leaves)) == (g, n)

    def test_classes_are_pairwise_distinct(self):
        # and each is labeled by its key: v0, e0, l0, ... in canonical position
        for g, n in CLASS_COUNTS:
            classes = enumerate_trivalent(g, leaves=n)
            keys = [canonical_form(x) for x in classes]
            assert keys == sorted(set(keys))
            for x, (colors, ends, leaves) in zip(classes, keys):
                assert [(v.id, v.color) for v in x.vertices] == [
                    (f"v{i}", 0) for i in range(len(colors))]
                assert [(e.id, e.ends) for e in x.edges] == [
                    (f"e{j}", (f"v{a}", f"v{b}")) for j, (a, b) in enumerate(ends)]
                assert [(f.id, f.vertex, f.orientation) for f in x.leaves] == [
                    (f"l{k}", f"v{p}", "out") for k, (p, _) in enumerate(leaves)]

    @pytest.mark.parametrize("g,message", [
        # no vertex at closed genus 1; genus 7 has V > 10 with any leaves
        pytest.param(1, "V = 2g - 2 + n must be from 1 to 10, got 0", id="1"),
        pytest.param(7, "genus must be an int from 0 to 6, got 7", id="7")])
    def test_out_of_range_genus_is_refused(self, g, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enumerate_trivalent(g)

    def test_a_float_equal_to_a_listed_genus_is_refused(self):
        # a cache keyed on the arguments would take g=3.0 for g=3
        enumerate_trivalent(g=3, leaves=1)
        for kwargs in ({"g": 3.0, "leaves": 1}, {"g": 3, "leaves": 1.0}):
            with pytest.raises(ValueError, match="must be an int"):
                enumerate_trivalent(**kwargs)

    @pytest.mark.parametrize("g,n", [(0, 0), (0, 1), (0, 2), (1, 0)] + [
        (g, 13 - 2 * g) for g in range(7)])
    def test_vertex_counts_outside_one_to_ten_are_refused(self, g, n):
        assert MAX_ENUMERATION_VERTICES == 10
        message = f"V = 2g - 2 + n must be from 1 to 10, got {2 * g - 2 + n}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enumerate_trivalent(g, leaves=n)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_two_leaf_classes_are_the_cuts_of_the_closed_classes(self, g):
        # cutting a non-bridge edge of a genus-(g + 1) class gives every (g, 2) class
        keys = [canonical_form(x) for x in enumerate_trivalent(g, leaves=2)]
        assert keys == sorted(_cut_keys(enumerate_trivalent(g + 1)))
        assert len(keys) == CLASS_COUNTS[g, 2]

    def test_genus_2_is_theta_and_dumbbell(self):
        classes = enumerate_trivalent(2)
        keys = {canonical_form(g) for g in classes}
        assert canonical_form(theta_graph()) in keys
        assert canonical_form(dumbbell_graph()) in keys

    def test_genus_3_shape_invariants(self):
        def shape(g):
            loops = sum(1 for e in g.edges if e.ends[0] == e.ends[1])
            mult = {}
            for e in g.edges:
                key = tuple(sorted(e.ends))
                mult[key] = mult.get(key, 0) + 1
            return loops, max(mult.values())

        shapes = sorted(shape(g) for g in enumerate_trivalent(3))
        assert shapes == [(0, 1), (0, 2), (1, 2), (2, 2), (3, 1)]

    def test_canonical_form_is_relabeling_invariant(self):
        # V = 22 for the genus-12 necklaces, far past the V! orders
        rng = random.Random(12)
        for g in (necklace_graph(3), necklace_graph(12, parity=0), necklace_graph(12, parity=1),
                  _colored_cubic_16()):
            assert canonical_form(_relabeled(g, rng)) == canonical_form(g)

    def test_canonical_form_searches_past_the_recursion_limit(self):
        # V = 518: a search that recursed per position ran out of stack here
        g = necklace_graph(260, parity=1)
        assert canonical_form(_relabeled(g, random.Random(260))) == canonical_form(g)

    def test_canonical_form_matches_bruteforce(self):
        rng = random.Random(2024)
        graphs = [_random_multigraph(rng, 7) for _ in range(150)]
        for g in enumerate_trivalent(2) + enumerate_trivalent(3):
            graphs += [g] + [with_colors(g, {v.id: 1}) for v in g.vertices]
        for parity in (0, 1):
            graphs += [necklace_graph(k, parity=parity) for k in (2, 3, 4)]
            graphs += [necklace_graph(k, open_ends=True, parity=parity) for k in (1, 2, 3)]
        for g in graphs:
            assert canonical_form(g) == _canonical_form_bruteforce(g), graph_to_json(g)

    def test_canonical_form_key_shape(self, jobs):
        # perfbench/jobs.py rebuilds a class's representative from its key
        key = canonical_form(necklace_graph(4, parity=1))
        colors, edges, leaves = key
        assert colors == (0,) * 5 + (1,)
        assert all(type(a) is int and a <= b for a, b in edges) and list(edges) == sorted(edges)
        assert leaves == ()
        assert canonical_form(jobs.representative(key)) == key
        open_key = canonical_form(necklace_graph(2, open_ends=True, parity=1))
        assert open_key[2] == ((1, "out"), (3, "in"))

    @pytest.mark.parametrize("parity,classes,moves", [(0, 11, 91), (1, 40, 312)])
    def test_benchmark_search_sizes(self, jobs, parity, classes, moves):
        # the mutation-classes workload's searches: a change to canonical_form
        # keys or to the move's re-pairing resizes that workload, and must say so
        start = jobs.representative(canonical_form(necklace_graph(4, parity=parity)))
        doc = jobs.search(start)
        assert (doc["classes"], doc["moves"], doc["certified"]) == (classes, moves, True)
        assert len(doc["graphs"]) == moves

    def test_isomorphism_respects_colors(self):
        a = with_colors(theta_graph(), {"v1": 1})
        b = with_colors(theta_graph(), {"v2": 1})
        c = theta_graph()
        assert canonical_form(a) == canonical_form(b)
        assert canonical_form(a) != canonical_form(c)


# each necklace's edges, ids and ends in insertion order
NECKLACE_EDGES = {
    (1, True): "d1 v1 v2, d1x v1 v2",
    (2, True): "d1 v1 v2, d1x v1 v2, d3 v3 v4, d3x v3 v4, s2 v2 v3",
    (3, True): "d1 v1 v2, d1x v1 v2, d3 v3 v4, d3x v3 v4, d5 v5 v6, d5x v5 v6, s2 v2 v3, s4 v4 v5",
    (4, True): "d1 v1 v2, d1x v1 v2, d3 v3 v4, d3x v3 v4, d5 v5 v6, d5x v5 v6, d7 v7 v8, d7x v7 v8,"
               " s2 v2 v3, s4 v4 v5, s6 v6 v7",
    (2, False): "d1 v1 v2, d1x v1 v2, s2 v2 v1",
    (3, False): "d1 v1 v2, d1x v1 v2, d3 v3 v4, d3x v3 v4, s2 v2 v3, s4 v4 v1",
    (4, False): "d1 v1 v2, d1x v1 v2, d3 v3 v4, d3x v3 v4, d5 v5 v6, d5x v5 v6,"
                " s2 v2 v3, s4 v4 v5, s6 v6 v1",
}


class TestNecklace:
    @pytest.mark.parametrize("g, open_ends", sorted(NECKLACE_EDGES))
    @pytest.mark.parametrize("parity", [0, 1])
    def test_matches_listing(self, g, open_ends, parity):
        edges = [tuple(e.split()) for e in NECKLACE_EDGES[g, open_ends].split(", ")]
        last = 2 * g if open_ends else 2 * g - 2
        vertices = [(f"v{i}", int(i == last and parity == 1)) for i in range(1, last + 1)]
        leaves = [("x", "v1", "out"), ("y", f"v{last}", ("out", "in")[parity])] if open_ends else []
        assert necklace_graph(g, open_ends, parity) == make_graph(vertices, edges, leaves)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_closed_shape(self, g):
        n = necklace_graph(g)
        assert validate(n) == []
        assert genus(n) == g
        assert len(n.leaves) == 0

    def test_open_has_two_leaves_and_parity(self):
        n0 = necklace_graph(1, open_ends=True, parity=0)
        n1 = necklace_graph(1, open_ends=True, parity=1)
        assert {l.id for l in n0.leaves} == {"x", "y"}
        assert n0.coloring_parity() == 0
        assert n1.coloring_parity() == 1
        orient0 = {l.id: l.orientation for l in n0.leaves}
        orient1 = {l.id: l.orientation for l in n1.leaves}
        assert orient0 == {"x": "out", "y": "out"}
        assert orient1 == {"x": "out", "y": "in"}


class TestLattice:
    def test_integer_weights_are_members(self):
        g = theta_graph()
        assert mgamma_member(g, {"a": 1, "b": 0, "c": 2})

    def test_half_integers_need_even_vertex_sums(self):
        g = theta_graph()
        # half on every edge: each vertex sees 3/2, not integral
        assert not mgamma_member(g, {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": Fraction(1, 2)})
        # half on two edges forming a cycle through both vertices
        assert mgamma_member(g, {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": 0})

    def test_loop_counts_twice(self):
        g = dumbbell_graph()
        # loop weight contributes twice at its vertex, so half-integer loop
        # weight alone sums to an integer
        assert mgamma_member(g, {"a": 0, "b": Fraction(1, 2), "c": 0})
        assert not mgamma_member(g, {"a": Fraction(1, 2), "b": 0, "c": 0})

    def test_quarter_weights_rejected(self):
        g = theta_graph()
        assert not mgamma_member(g, {"a": Fraction(1, 4), "b": Fraction(1, 4), "c": Fraction(1, 2)})


    def test_weights_must_cover_the_edges(self):
        with pytest.raises(ValueError, match=r"missing \['c'\], extra \['z'\]"):
            mgamma_member(theta_graph(), {"a": 1, "b": 0, "z": 2})

    @pytest.mark.parametrize("half", ["1/2", 0.5], ids=["str", "float"])
    def test_inexact_weights_refused(self, half):
        # Fraction would read "1/2" and 0.5 as one half, and make both members
        with pytest.raises(ValueError, match=f"weight of edge 'a' is {type(half).__name__}, "
                                             "need int or Fraction"):
            mgamma_member(theta_graph(), {"a": half, "b": half, "c": 0})


class TestJson:
    def test_round_trip(self):
        for g in (theta_graph(1), dumbbell_graph(), necklace_graph(2, open_ends=True, parity=1)):
            assert graph_from_json(graph_to_json(g)) == g

    def test_fixture_files_load_and_validate(self):
        files = sorted(FIXTURES.glob("*.json"))
        assert len(files) >= 8
        for f in files:
            g = graph_from_json(json.loads(f.read_text()))
            assert validate(g) == []

    def test_fixture_theta_matches_builtin(self):
        g = graph_from_json(json.loads((FIXTURES / "theta.json").read_text()))
        assert canonical_form(g) == canonical_form(theta_graph())

    @pytest.mark.parametrize("color", [True, 1.7, 1.0, "1"])
    def test_color_must_be_an_integer(self, color):
        # graph_from_json stores the color as given; validate judges it
        doc = graph_to_json(theta_graph())
        doc["vertices"][1]["color"] = color
        with pytest.raises(InvalidGraph, match="color must be the int 0 or 1"):
            require_valid(graph_from_json(doc))

    @pytest.mark.parametrize("value", [None, 7, ["v"], {}], ids=["null", "7", "list", "object"])
    @pytest.mark.parametrize("path,field", [
        (("vertices", 0, "id"), "vertex id"),
        (("edges", 0, "id"), "edge id"),
        (("edges", 0, "ends", 1), "end"),
        (("leaves", 0, "id"), "leaf id"),
        (("leaves", 0, "vertex"), "leaf vertex"),
    ], ids=["vertex id", "edge id", "edge end", "leaf id", "leaf vertex"])
    def test_ids_must_be_strings(self, path, field, value):
        # graph_from_json stores ids as given, and validate refuses them: str()
        # would read null as the vertex "None" and the edge 7 as "7"
        doc = graph_to_json(necklace_graph(2, open_ends=True))
        container = doc
        for key in path[:-1]:
            container = container[key]
        container[path[-1]] = value
        want = f"{field} must be a string, got {re.escape(repr(value))}"
        with pytest.raises(InvalidGraph, match=want):
            require_valid(graph_from_json(doc))

    def test_edge_needs_exactly_two_ends(self):
        doc = graph_to_json(theta_graph())
        doc["edges"][0]["ends"] = ["v1", "v2", "v1"]
        with pytest.raises(ValueError, match="exactly two"):
            graph_from_json(doc)
