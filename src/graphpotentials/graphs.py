"""Colored trivalent graphs: validation, homology, colorings, moves.

A graph is trivalent with loops and parallel edges allowed; leaves are
dangling half-edges attached to a vertex and carrying an orientation.
Vertices carry a color in {0, 1}.  Internal-edge ids and leaf ids double
as variable names in the potential modules, so they live in one shared
namespace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import permutations
from typing import Iterable, Mapping, Sequence

ORIENTATIONS = ("out", "in")


@dataclass(frozen=True)
class Vertex:
    id: str
    color: int


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple[str, str]


@dataclass(frozen=True)
class Leaf:
    id: str
    vertex: str
    orientation: str


@dataclass(frozen=True)
class ColoredGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    leaves: tuple[Leaf, ...]

    def vertex(self, vid: str) -> Vertex:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise KeyError(vid)

    def edge(self, eid: str) -> Edge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise KeyError(eid)

    def color(self, vid: str) -> int:
        return self.vertex(vid).color

    def degree(self, vid: str) -> int:
        d = sum((e.ends[0] == vid) + (e.ends[1] == vid) for e in self.edges)
        return d + sum(leaf.vertex == vid for leaf in self.leaves)

    def coloring_parity(self) -> int:
        return sum(v.color for v in self.vertices) % 2


@dataclass(frozen=True)
class EdgeWeightVector:
    """Rational weights on the internal edges of a graph."""

    graph: ColoredGraph
    weights: Mapping[str, Fraction]

    def in_lattice(self) -> bool:
        return mgamma_member(self.graph, self.weights)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def make_graph(vertices: Iterable[tuple[str, int]],
               edges: Iterable[tuple[str, str, str]],
               leaves: Iterable[tuple[str, str, str]] = ()) -> ColoredGraph:
    """Build a graph from (id, color), (id, end, end), (id, vertex, orientation)."""
    return ColoredGraph(
        vertices=tuple(Vertex(i, c) for i, c in vertices),
        edges=tuple(Edge(i, (a, b)) for i, a, b in edges),
        leaves=tuple(Leaf(i, v, o) for i, v, o in leaves),
    )


def validate(g: ColoredGraph) -> list[str]:
    """Return a list of diagnostics; the graph is valid iff it is empty."""
    problems = []
    vids = [v.id for v in g.vertices]
    if len(set(vids)) != len(vids):
        problems.append("duplicate vertex ids")
    names = [e.id for e in g.edges] + [leaf.id for leaf in g.leaves]
    if len(set(names)) != len(names):
        problems.append("edge and leaf ids must be distinct (they name variables)")
    vset = set(vids)
    for v in g.vertices:
        if v.color not in (0, 1):
            problems.append(f"vertex {v.id}: color must be 0 or 1")
    for e in g.edges:
        for end in e.ends:
            if end not in vset:
                problems.append(f"edge {e.id}: unknown endpoint {end}")
    for leaf in g.leaves:
        if leaf.vertex not in vset:
            problems.append(f"leaf {leaf.id}: unknown vertex {leaf.vertex}")
        if leaf.orientation not in ORIENTATIONS:
            problems.append(f"leaf {leaf.id}: orientation must be 'out' or 'in'")
    if problems:
        return problems
    for v in g.vertices:
        d = g.degree(v.id)
        if d != 3:
            problems.append(f"vertex {v.id}: degree {d}, expected 3")
    if problems:
        return problems
    # count identities per connected component: with n leaves and first Betti
    # number b, a trivalent component has 2b - 2 + n vertices and
    # 3b - 3 + n internal edges
    for comp in _components(g):
        nv = len(comp)
        ne = sum(e.ends[0] in comp and e.ends[1] in comp for e in g.edges)
        nl = sum(leaf.vertex in comp for leaf in g.leaves)
        b = ne - nv + 1
        if nv != 2 * b - 2 + nl or ne != 3 * b - 3 + nl:
            problems.append(f"component {sorted(comp)}: count identities fail "
                            f"(V={nv}, E={ne}, leaves={nl}, b1={b})")
    return problems


class InvalidGraph(ValueError):
    """A graph that :func:`validate` rejects; ``problems`` holds its diagnostics."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid graph: " + "; ".join(problems))
        self.problems = problems


def require_valid(g: ColoredGraph) -> None:
    """Raise InvalidGraph unless :func:`validate` finds nothing wrong with g."""
    problems = validate(g)
    if problems:
        raise InvalidGraph(problems)


def _components(g: ColoredGraph) -> list[set[str]]:
    adj: dict[str, set[str]] = {v.id: set() for v in g.vertices}
    for e in g.edges:
        adj[e.ends[0]].add(e.ends[1])
        adj[e.ends[1]].add(e.ends[0])
    out = []
    left = set(adj)
    while left:
        root = min(left)
        comp = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        out.append(comp)
        left -= comp
    return out


def genus(g: ColoredGraph) -> int:
    """First Betti number of the underlying space (leaves are contractible)."""
    return homology_ranks_f2(g)[1]


def homology_ranks_f2(g: ColoredGraph) -> tuple[int, int]:
    """(rank H_0, rank H_1) over F_2 of the complex with internal edges as 1-cells.

    H_0 has one generator per connected component c, and the Euler
    characteristic V - E = rank H_0 - rank H_1 gives rank H_1 = E - V + c
    (over any field; a loop is a cycle on its own).
    """
    c = len(_components(g))
    return c, len(g.edges) - len(g.vertices) + c


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------


def coloring_boundary_move(g: ColoredGraph, edge_id: str) -> ColoredGraph:
    """Flip the colors of both endpoints of an internal edge.

    For a loop both flips hit the same vertex and the coloring is unchanged.
    The graph potential is invariant under this move up to inverting the
    edge variable, which is why only the total parity of a coloring matters.
    """
    e = g.edge(edge_id)
    flips = {e.ends[0]: 0, e.ends[1]: 0}
    flips[e.ends[0]] += 1
    flips[e.ends[1]] += 1
    new = tuple(replace(v, color=(v.color + flips.get(v.id, 0)) % 2) for v in g.vertices)
    return replace(g, vertices=new)


def normalize_coloring(g: ColoredGraph) -> tuple[ColoredGraph, list[str]]:
    """Push all color onto one vertex per component via boundary moves.

    Returns the normalized graph and the list of edge ids of the moves
    applied, in order.  Afterwards each component has at most one colored
    vertex, at its lexicographically least vertex, iff its total parity
    is odd.
    """
    moves: list[str] = []
    current = g
    for comp in _components(g):
        root = min(comp)
        # BFS spanning tree over internal edges
        parent_edge: dict[str, str] = {}
        parent: dict[str, str] = {}
        depth = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for e in current.edges:
                    a, b = e.ends
                    for here, there in ((a, b), (b, a)):
                        if here == u and there not in depth and there in comp:
                            depth[there] = depth[u] + 1
                            parent[there] = u
                            parent_edge[there] = e.id
                            nxt.append(there)
            frontier = nxt
        for v in sorted(depth, key=lambda x: -depth[x]):
            if v != root and current.color(v) == 1:
                current = coloring_boundary_move(current, parent_edge[v])
                moves.append(parent_edge[v])
    return current, moves


# ---------------------------------------------------------------------------
# slots and the elementary transformation
# ---------------------------------------------------------------------------


def _slots_at(g: ColoredGraph, vid: str, skip_edge: str) -> list[tuple]:
    """Non-``skip_edge`` incidences at a vertex, ordered by ascending id.

    A slot is ("edge", edge id, end index) or ("leaf", leaf id); a loop
    contributes two adjacent slots.  Every trivalent vertex on a non-loop
    edge ``skip_edge`` has exactly two remaining slots.
    """
    slots = []
    for e in sorted(g.edges, key=lambda e: e.id):
        if e.id == skip_edge:
            continue
        for j in (0, 1):
            if e.ends[j] == vid:
                slots.append(("edge", e.id, j))
    for leaf in sorted(g.leaves, key=lambda x: x.id):
        if leaf.vertex == vid:
            slots.append(("leaf", leaf.id))
    return slots


def _edge_slots(g: ColoredGraph, edge_id: str) -> tuple[list[tuple], list[tuple]]:
    """The two remaining slots at each end of a non-loop edge between
    trivalent vertices, in the order of ``edge.ends``."""
    e = g.edge(edge_id)
    v1, v2 = e.ends
    if v1 == v2:
        raise ValueError(f"edge {edge_id} is a loop")
    s1 = _slots_at(g, v1, edge_id)
    s2 = _slots_at(g, v2, edge_id)
    if len(s1) != 2 or len(s2) != 2:
        raise ValueError(f"edge {edge_id}: endpoints are not trivalent")
    return s1, s2


def edge_slot_vars(g: ColoredGraph, edge_id: str) -> tuple[tuple[str, str], tuple[str, str]]:
    """Variable names (a, b), (c, d) of the non-x slots at the ends of x."""
    s1, s2 = _edge_slots(g, edge_id)
    return (s1[0][1], s1[1][1]), (s2[0][1], s2[1][1])


def elementary_transformation(g: ColoredGraph, edge_id: str) -> ColoredGraph:
    """Re-pair the four strands around a non-loop internal edge.

    With slots (a, b) at one endpoint and (c, d) at the other, ordered by
    ascending id, the pairing (a, b | c, d) becomes (a, c | b, d): slot b
    crosses to the second endpoint and slot c to the first.  All ids and
    all vertex colors are preserved.
    """
    v1, v2 = g.edge(edge_id).ends
    s1, s2 = _edge_slots(g, edge_id)
    reassign = [(s1[1], v2), (s2[0], v1)]
    edges = list(g.edges)
    leaves = list(g.leaves)
    for slot, target in reassign:
        if slot[0] == "edge":
            _, eid, j = slot
            for i, ed in enumerate(edges):
                if ed.id == eid:
                    ends = list(ed.ends)
                    ends[j] = target
                    edges[i] = replace(ed, ends=tuple(ends))
                    break
        else:
            _, lid = slot
            for i, leaf in enumerate(leaves):
                if leaf.id == lid:
                    leaves[i] = replace(leaf, vertex=target)
                    break
    return replace(g, edges=tuple(edges), leaves=tuple(leaves))


# ---------------------------------------------------------------------------
# weight vectors
# ---------------------------------------------------------------------------


def mgamma_member(g: ColoredGraph, weights: Mapping[str, Fraction | int]) -> bool:
    """Whether a weight vector lies in the lattice of half-integer edge
    weights with integral vertex sums (a loop counts twice at its vertex)."""
    eids = {e.id for e in g.edges}
    if set(weights) != eids:
        missing = sorted(eids - set(weights))
        extra = sorted(set(weights) - eids)
        raise ValueError(f"weights must cover the internal edges exactly "
                         f"(missing {missing}, extra {extra})")
    w = {k: Fraction(v) for k, v in weights.items()}
    if any((2 * x).denominator != 1 for x in w.values()):
        return False
    for v in g.vertices:
        s = Fraction(0)
        for e in g.edges:
            s += w[e.id] * ((e.ends[0] == v.id) + (e.ends[1] == v.id))
        if s.denominator != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# isomorphism and enumeration
# ---------------------------------------------------------------------------


def canonical_form(g: ColoredGraph):
    """Label-independent canonical key of a colored graph with leaves.

    Minimum over all vertex bijections of (colors, edge multiset, leaf
    multiset).  Brute force over permutations; fine for the graph sizes
    handled here.
    """
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


def is_isomorphic(a: ColoredGraph, b: ColoredGraph) -> bool:
    return canonical_form(a) == canonical_form(b)


def _perfect_matchings(stubs):
    if not stubs:
        yield []
        return
    first = stubs[0]
    for i in range(1, len(stubs)):
        rest = stubs[1:i] + stubs[i + 1:]
        for m in _perfect_matchings(rest):
            yield [(first, stubs[i])] + m


@cache  # the graphs are frozen, so every caller may share one tuple
def enumerate_trivalent(g: int) -> tuple[ColoredGraph, ...]:
    """All connected trivalent leafless graphs of first Betti number g,
    one uncolored representative per isomorphism class, deterministically
    labeled.  Supported for g in {2, 3}."""
    if g not in (2, 3):
        raise ValueError("enumeration is implemented for genus 2 and 3")
    nv = 2 * g - 2
    stubs = [(v, s) for v in range(nv) for s in range(3)]
    seen = {}
    for m in _perfect_matchings(stubs):
        pairs = [(a[0], b[0]) for a, b in m]
        graph = make_graph(
            [(f"v{i}", 0) for i in range(nv)],
            [(f"e{j}", f"v{a}", f"v{b}") for j, (a, b) in enumerate(pairs)],
        )
        if len(_components(graph)) != 1:
            continue
        key = canonical_form(graph)
        if key not in seen:
            # rebuild with edges sorted by canonical endpoint pairs so the
            # representative labeling is stable
            canon_edges = sorted(tuple(sorted(p)) for p in pairs)
            seen[key] = make_graph(
                [(f"v{i}", 0) for i in range(nv)],
                [(f"e{j}", f"v{a}", f"v{b}") for j, (a, b) in enumerate(canon_edges)],
            )
    return tuple(seen[k] for k in sorted(seen))


def with_colors(g: ColoredGraph, colors: Mapping[str, int]) -> ColoredGraph:
    new = tuple(replace(v, color=colors.get(v.id, v.color)) for v in g.vertices)
    return replace(g, vertices=new)


# ---------------------------------------------------------------------------
# named graphs
# ---------------------------------------------------------------------------


def theta_graph(parity: int = 0) -> ColoredGraph:
    """Two vertices joined by three parallel edges a, b, c."""
    return make_graph(
        [("v1", 0), ("v2", parity % 2)],
        [("a", "v1", "v2"), ("b", "v1", "v2"), ("c", "v1", "v2")],
    )


def dumbbell_graph(parity: int = 0) -> ColoredGraph:
    """Loops b and c joined by a bridge a."""
    return make_graph(
        [("v1", 0), ("v2", parity % 2)],
        [("a", "v1", "v2"), ("b", "v1", "v1"), ("c", "v2", "v2")],
    )


def necklace_graph(g: int, open_ends: bool = False, parity: int = 0) -> ColoredGraph:
    """Chain of doubled edges joined by bridges.

    With ``open_ends`` this is the genus-g graph with two leaves x and y at
    the first and last vertex; otherwise the chain closes into the leafless
    genus-g necklace.  Any odd total coloring is placed on the last vertex.
    For the open chain the y leaf points in exactly when that vertex is
    colored, so the stored orientations are the defaults and the coloring
    parity matches the parity of the boundary state.
    """
    if open_ends:
        if g < 1:
            raise ValueError("open necklace needs genus >= 1")
        nv = 2 * g
        vertices = [(f"v{i}", 0) for i in range(1, nv + 1)]
        edges = []
        for i in range(1, nv, 2):
            edges.append((f"d{i}", f"v{i}", f"v{i + 1}"))
            edges.append((f"d{i}x", f"v{i}", f"v{i + 1}"))
        for i in range(2, nv, 2):
            edges.append((f"s{i}", f"v{i}", f"v{i + 1}"))
        leaves = [("x", "v1", "out"), ("y", f"v{nv}", "in" if parity % 2 else "out")]
    else:
        if g < 2:
            raise ValueError("closed necklace needs genus >= 2")
        nv = 2 * g - 2
        vertices = [(f"v{i}", 0) for i in range(1, nv + 1)]
        edges = []
        for i in range(1, nv, 2):
            edges.append((f"d{i}", f"v{i}", f"v{i + 1}"))
            edges.append((f"d{i}x", f"v{i}", f"v{i + 1}"))
        for i in range(2, nv + 1, 2):
            edges.append((f"s{i}", f"v{i}", f"v{i + 1 if i + 1 <= nv else 1}"))
        leaves = []
    graph = make_graph(vertices, edges, leaves)
    if parity % 2:
        graph = with_colors(graph, {f"v{nv}": 1})
    return graph


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def graph_to_json(g: ColoredGraph) -> dict:
    return {
        "vertices": [{"id": v.id, "color": v.color} for v in g.vertices],
        "edges": [{"id": e.id, "ends": list(e.ends)} for e in g.edges],
        "leaves": [{"id": x.id, "vertex": x.vertex, "orientation": x.orientation}
                   for x in g.leaves],
    }


def _json_color(v: Mapping) -> int:
    color = v["color"]
    # exactly int: bool is a subclass of int, and a float such as 1.7 or 1.0 is no color
    if type(color) is not int:
        raise ValueError(f"vertex {v['id']!r}: color must be an integer, got {color!r}")
    return color


def _json_ends(e: Mapping) -> tuple[str, str]:
    ends = e["ends"]
    if not isinstance(ends, (list, tuple)) or len(ends) != 2:
        raise ValueError(f"edge {e['id']!r}: ends must list exactly two vertices, got {ends!r}")
    return str(ends[0]), str(ends[1])


def graph_from_json(data: Mapping) -> ColoredGraph:
    """Graph from the JSON document of :func:`graph_to_json`; ValueError if malformed."""
    try:
        vertices = tuple(Vertex(str(v["id"]), _json_color(v)) for v in data["vertices"])
        edges = tuple(Edge(str(e["id"]), _json_ends(e)) for e in data.get("edges", ()))
        leaves = tuple(Leaf(str(x["id"]), str(x["vertex"]), str(x["orientation"]))
                       for x in data.get("leaves", ()))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc
    return ColoredGraph(vertices, edges, leaves)
