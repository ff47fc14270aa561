"""Colored trivalent graphs: validation, homology, colorings, moves.

A graph is trivalent with loops and parallel edges allowed; leaves are
dangling half-edges attached to a vertex and carrying an orientation.
Vertices carry a color in {0, 1}.  Internal-edge ids and leaf ids double
as variable names in the potential modules, so they live in one shared
namespace.  :func:`validate` judges a graph's ids, colors and
orientations, however it was built; :func:`graph_from_json` reads a shape.
:func:`enumerate_trivalent` lists the classes of every genus g and leaf
count n with V = 2g - 2 + n <= 10: from an empty cache, closed genus 2 to 6
takes 3-4 s, and every (g, n) with V <= 10 about 25 s (2 cores, Python 3.11).
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import compress, permutations, product
from operator import is_not
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._record import checked_int, scalar

ORIENTATIONS = ("out", "in")


class Vertex(NamedTuple):
    id: str
    color: int


class Edge(NamedTuple):
    id: str
    ends: tuple[str, str]


class Leaf(NamedTuple):
    id: str
    vertex: str
    orientation: str


class ColoredGraph(NamedTuple):
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

    def coloring_parity(self) -> int:
        return sum(v.color for v in self.vertices) % 2


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
    """Return a list of diagnostics; the graph is valid iff it is empty.  Every
    id, edge end and leaf vertex must be exactly a ``str``, checked first and
    alone, since a list id cannot go in a set."""
    vids, eids, lids = [v.id for v in g.vertices], [e.id for e in g.edges], [x.id for x in g.leaves]
    problems = [f"{what} must be a string, got {value!r}" for what, values in (
        ("vertex id", vids), ("edge id", eids), ("leaf id", lids),
        ("leaf vertex", [x.vertex for x in g.leaves])) for value in values
        if type(value) is not str]
    problems += [f"edge {e.id!r} end must be a string, got {end!r}"
                 for e in g.edges for end in e.ends if type(end) is not str]
    if problems:
        return problems
    if len(set(vids)) != len(vids):
        problems.append("duplicate vertex ids")
    names = eids + lids
    if len(set(names)) != len(names):
        problems.append("edge and leaf ids must be distinct (they name variables)")
    vset = set(vids)
    # exactly int: True and 1.0 equal 1
    problems += [f"vertex {v.id}: color must be the int 0 or 1, got {v.color!r}"
                 for v in g.vertices if type(v.color) is not int or v.color not in (0, 1)]
    problems += [f"edge {e.id}: unknown endpoint {end}"
                 for e in g.edges for end in e.ends if end not in vset]
    for leaf in g.leaves:
        if leaf.vertex not in vset:
            problems.append(f"leaf {leaf.id}: unknown vertex {leaf.vertex}")
        if leaf.orientation not in ORIENTATIONS:
            problems.append(f"leaf {leaf.id}: orientation must be 'out' or 'in'")
    if problems:
        return problems
    degree = Counter([end for e in g.edges for end in e.ends] + [x.vertex for x in g.leaves])
    return [f"vertex {vid}: degree {degree[vid]}, expected 3" for vid in vids if degree[vid] != 3]


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


def _components(g: ColoredGraph) -> list[dict[str, tuple[str, str] | None]]:
    """A breadth-first spanning tree of each component from its least vertex: its
    vertices in visit order, each to (parent, id of the edge from it), the root to None."""
    adj: dict[str, list[tuple[str, str]]] = {v.id: [] for v in g.vertices}
    for e in g.edges:
        a, b = e.ends
        adj[a].append((b, e.id))
        adj[b].append((a, e.id))
    trees = []
    seen: set[str] = set()
    for root in sorted(adj):
        if root in seen:
            continue
        tree: dict[str, tuple[str, str] | None] = {root: None}
        queue = [root]
        for u in queue:
            for w, eid in adj[u]:
                if w not in tree:
                    tree[w] = (u, eid)
                    queue.append(w)
        trees.append(tree)
        seen.update(tree)
    return trees


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

    For a loop both flips hit the same vertex and ``g`` is returned as it is.
    Every leaf keeps its sign (:func:`_keep_leaf_signs`).  The graph
    potential is invariant under this move up to inverting the edge
    variable, which is why only the total parity of a coloring matters.
    """
    a, b = g.edge(edge_id).ends
    if a == b:
        return g
    return _keep_leaf_signs(g, with_colors(g, {a: (g.color(a) + 1) % 2, b: (g.color(b) + 1) % 2}))


def _keep_leaf_signs(old: ColoredGraph, new: ColoredGraph) -> ColoredGraph:
    """``new`` with the orientation flipped on every leaf whose vertex color
    differs from ``old``: a leaf's variable is inverted iff its orientation is
    not its vertex color's default, so each leaf keeps its sign."""
    if not old.leaves:
        return new
    was, now = ({v.id: v.color for v in h.vertices} for h in (old, new))
    before = {x.id: was[x.vertex] for x in old.leaves}
    flipped = {"out": "in", "in": "out"}
    return new._replace(leaves=tuple(
        x._replace(orientation=flipped[x.orientation]) if now[x.vertex] != before[x.id] else x
        for x in new.leaves))


def normalize_coloring(g: ColoredGraph) -> tuple[ColoredGraph, list[str]]:
    """Push all color onto one vertex per component via boundary moves.

    Returns the normalized graph and the list of edge ids of the moves
    applied, in order.  Afterwards each component has at most one colored
    vertex, at its lexicographically least vertex, iff its total parity
    is odd: walking each tree of :func:`_components` from the leaves up, a
    colored vertex passes its color to its parent by the move at their edge.
    """
    colors = {v.id: v.color for v in g.vertices}
    moves: list[str] = []
    for tree in _components(g):
        for v, up in reversed(tree.items()):
            if up is not None and colors[v] == 1:
                parent, eid = up
                colors[v], colors[parent] = 0, (colors[parent] + 1) % 2
                moves.append(eid)
    return _keep_leaf_signs(g, with_colors(g, colors)), moves


# ---------------------------------------------------------------------------
# slots and the elementary transformation
# ---------------------------------------------------------------------------


def vertex_slots(g: ColoredGraph, vids: Sequence[str] | None = None) -> dict[str, list[tuple]]:
    """The incidences at the vertices ``vids``, in that order, by default at
    every vertex in the order of ``g.vertices``.

    A slot is ("edge", edge id, end index) or ("leaf", leaf id), listed
    edges by ascending id first, then leaves by ascending id; a loop
    contributes two adjacent slots.  The slot id (index 1) is the variable
    the slot carries in the potential.  Only the edges and leaves at
    ``vids`` are sorted, so a row costs no sort of the whole graph.
    """
    slots: dict[str, list[tuple]] = {v: [] for v in ([v.id for v in g.vertices]
                                                     if vids is None else vids)}
    for eid, (a, b) in sorted([e for e in g.edges if e.ends[0] in slots or e.ends[1] in slots],
                              key=lambda e: e.id):
        if a in slots:
            slots[a].append(("edge", eid, 0))
        if b in slots:
            slots[b].append(("edge", eid, 1))
    for leaf in sorted([x for x in g.leaves if x.vertex in slots], key=lambda x: x.id):
        slots[leaf.vertex].append(("leaf", leaf.id))
    return slots


def moved_vertices(a: ColoredGraph, b: ColoredGraph) -> set[str] | None:
    """The vertices at which two graphs that list the same vertex, edge and
    leaf ids in the same order differ, or None if the ids differ: where the
    color differs, an edge end (by edge and end index) or a leaf moves to or
    from the vertex, or a leaf's orientation differs.  The tuples are compared
    position by position, and a position where both graphs hold the same
    record object costs no Python step: a move keeps every record it leaves
    alone, so only the records it rewrote are looked at.

    A vertex outside the set keeps its color, its (edge id, end index)
    incidences and its leaves with their orientations, so its sorted
    :func:`vertex_slots` row too; one inside changes one of these.  So the set
    is exactly the vertices whose color, slot row or leaf orientations differ.
    """
    changed = []
    for xs, ys in zip(a, b):
        if len(xs) != len(ys):
            return None
        pairs = list(compress(zip(xs, ys), map(is_not, xs, ys)))
        if any(x.id != y.id for x, y in pairs):
            return None
        changed.append(pairs)
    vertices, edges, leaves = changed
    moved = {x.id for x, y in vertices if x.color != y.color}
    moved.update(v for x, y in edges for ends in zip(x.ends, y.ends) if ends[0] != ends[1]
                 for v in ends)
    moved.update(v for x, y in leaves if x != y for v in (x.vertex, y.vertex))
    return moved


def elementary_transformation(g: ColoredGraph, edge_id: str) -> ColoredGraph:
    """Re-pair the four strands around a non-loop internal edge.

    With slots (a, b) at one endpoint and (c, d) at the other, in
    :func:`vertex_slots` order (edges by ascending id, then leaves by
    ascending id), the pairing (a, b | c, d) becomes (a, c | b, d): slot b
    crosses to the second endpoint and slot c to the first.  All ids and
    all vertex colors are preserved, and a leaf that crosses to a vertex of
    the other color keeps its sign (:func:`_keep_leaf_signs`).
    """
    return elementary_move(g, edge_id)[0]


def elementary_move(g: ColoredGraph, edge_id: str
                    ) -> tuple[ColoredGraph, tuple[tuple[str, str], tuple[str, str]]]:
    """:func:`elementary_transformation` at ``edge_id`` together with the
    variable names (a, b), (c, d) of the slots it re-pairs, in the order of
    the :func:`vertex_slots` rows of the edge's two endpoints, built alone."""
    v1, v2 = g.edge(edge_id).ends
    if v1 == v2:
        raise ValueError(f"edge {edge_id} is a loop")
    slots = vertex_slots(g, (v1, v2))
    s1, s2 = ([s for s in slots[v] if s[:2] != ("edge", edge_id)] for v in (v1, v2))
    if len(s1) != 2 or len(s2) != 2:
        raise ValueError(f"edge {edge_id}: endpoints are not trivalent")
    to = {s1[1]: v2, s2[0]: v1}  # each crossing slot -> its new vertex
    crossing = {slot[1] for slot in to}
    edges = tuple(
        e._replace(ends=tuple(to.get(("edge", e.id, j), end) for j, end in enumerate(e.ends)))
        if e.id in crossing else e for e in g.edges)
    leaves = tuple(x._replace(vertex=to[("leaf", x.id)]) if ("leaf", x.id) in to else x
                   for x in g.leaves)
    moved = _keep_leaf_signs(g, g._replace(edges=edges, leaves=leaves))
    return moved, ((s1[0][1], s1[1][1]), (s2[0][1], s2[1][1]))


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
    for e, v in weights.items():  # Fraction(v) would read "1/2" and take 0.1 as binary
        if scalar(v) is None:
            raise ValueError(f"weight of edge {e!r} is {type(v).__name__}, need int or Fraction")
    if any((2 * x).denominator != 1 for x in weights.values()):  # an int's denominator is 1
        return False
    return all(sum(weights[s[1]] for s in slots if s[0] == "edge").denominator == 1
               for slots in vertex_slots(g).values())


# ---------------------------------------------------------------------------
# isomorphism and enumeration
# ---------------------------------------------------------------------------


def canonical_form(g: ColoredGraph):
    """Label-independent canonical key of a colored graph with leaves.

    The key is ``(colors, edges, leaves)``: the minimum over all bijections
    from the vertices to positions 0..V-1 of the vertex colors by position,
    the sorted ``(low, high)`` position pairs of the edges and the sorted
    ``(position, orientation)`` pairs of the leaves.

    The least colors are the sorted colors, so each color owns a block of
    positions.  The search fills positions 0, 1, ... in order.  Row ``a``
    lists, sorted, the positions ``>= a`` at the other ends of the edges at
    the vertex in position ``a`` (a loop once), closed by the sentinel V so
    that a shorter row ranks higher; comparing rows in turn is comparing
    the sorted edge lists.  In a labeling with the least edges, the
    unplaced neighbors of the vertex in position ``a`` take the smallest
    free positions of their color blocks, those with more edges to it
    first: otherwise swapping two vertices would leave the earlier rows
    unchanged and make row ``a`` smaller.  So the search branches only on
    which vertex takes a position that no earlier row filled, and on the
    order of new neighbors with the same color and edge count.  A branch
    stops once its rows exceed those of the best labeling found so far;
    ties go on, and leaves decide between complete labelings.
    """
    n = len(g.vertices)
    index = {v.id: i for i, v in enumerate(g.vertices)}
    color = [v.color for v in g.vertices]
    colors = tuple(sorted(color))
    adjacent: list[dict[int, int]] = [{} for _ in range(n)]
    for e in g.edges:
        a, b = index[e.ends[0]], index[e.ends[1]]
        adjacent[a][b] = adjacent[a].get(b, 0) + 1
        if a != b:
            adjacent[b][a] = adjacent[b].get(a, 0) + 1
    # the other end of each edge at each vertex, a loop once
    other_ends = [[u for u, m in here.items() for _ in range(m)] for here in adjacent]
    free = {}  # color -> smallest free position of its block
    for p, c in enumerate(colors):
        free.setdefault(c, p)
    pos: list[int | None] = [None] * n
    at: list[int | None] = [None] * n
    rows: list[tuple[int, ...]] = []
    best_rows: list[tuple[int, ...]] | None = None
    best = None

    def fill(a: int):  # yields the search from a + 1 for each placement at a
        nonlocal best_rows, best
        if a == n:
            key = (colors,
                   tuple((i, j) for i, row in enumerate(rows) for j in row[:-1]),
                   tuple(sorted((pos[index[x.vertex]], x.orientation) for x in g.leaves)))
            if best is None or key < best:
                best_rows, best = list(rows), key
            return
        first = at[a]
        for v in [first] if first is not None else [
                v for v in range(n) if pos[v] is None and color[v] == colors[a]]:
            if first is None:
                pos[v], at[a] = a, v
                free[colors[a]] += 1
            here = adjacent[v]
            groups: dict[tuple[int, int], list[int]] = {}
            for u, m in here.items():
                if pos[u] is None:
                    groups.setdefault((color[u], -m), []).append(u)
            for orders in product(*(permutations(groups[k]) for k in sorted(groups))):
                placed = [u for order in orders for u in order]
                for u in placed:
                    pos[u] = free[color[u]]
                    at[pos[u]] = u
                    free[color[u]] += 1
                row = tuple(sorted([pos[u] for u in other_ends[v] if pos[u] >= a])) + (n,)
                rows.append(row)
                if best_rows is None or rows <= best_rows:  # rows is never the longer
                    yield fill(a + 1)
                rows.pop()
                for u in reversed(placed):
                    free[color[u]] -= 1
                    at[pos[u]] = None
                    pos[u] = None
            if first is None:
                free[colors[a]] -= 1
                pos[v] = at[a] = None

    stack = [fill(0)]  # the searches under way, run here: no recursion, whatever V is
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
        else:
            stack.append(step)
    return best


MAX_ENUMERATION_VERTICES = 10  # the largest V = 2g - 2 + n: closed genus 6 (388 classes)


def _from_key(key) -> ColoredGraph:
    """The graph of a :func:`canonical_form` key, labeled by position: v0, e0, l0, ..."""
    colors, ends, leaves = key
    return make_graph([(f"v{i}", c) for i, c in enumerate(colors)],
                      [(f"e{j}", f"v{a}", f"v{b}") for j, (a, b) in enumerate(ends)],
                      [(f"l{k}", f"v{p}", o) for k, (p, o) in enumerate(leaves)])


@cache  # keys, not graphs: the recursion reads positions off them
def _classes(g: int, n: int) -> tuple:
    """The sorted :func:`canonical_form` keys of the (g, n) classes."""
    if (g, n) in ((0, 3), (1, 1)):  # the tripod and the tadpole
        grown = [((0,), [(0, 0)] * g, [(0, "out")] * n)]
    elif n == 0:  # join the two leaves of a (g - 1, 2) class
        grown = [(c, [*ends, (x[0][0], x[1][0])], []) for c, ends, x in _classes(g - 1, 2)]
    else:  # subdivide an edge with the new leaf's vertex p, or make a leaf an edge to p;
        grown = []  # parallel edges, or leaves at one vertex, give one class
        for c, ends, x in _classes(g, n - 1):
            p, new = len(c), (len(c), "out")
            grown += [(c + (0,), [*ends[:i], (a, p), (p, b), *ends[i + 1:]], [*x, new])
                      for i, (a, b) in enumerate(ends) if (a, b) not in ends[:i]]
            grown += [(c + (0,), [*ends, (x[k][0], p)], [*x[:k], *x[k + 1:], new, new])
                      for k in range(len(x)) if x[k] not in x[:k]]
    return tuple(sorted({canonical_form(_from_key(key)) for key in grown}))


def enumerate_trivalent(g: int, leaves: int = 0) -> tuple[ColoredGraph, ...]:
    """The connected trivalent graphs of first Betti number g with n =
    ``leaves`` leaves, each "out", one uncolored graph per class, sorted by
    :func:`canonical_form` key and labeled by canonical position (``v0``,
    ``e0``, ``l0``, ...); for 1 <= V = 2g - 2 + n <= MAX_ENUMERATION_VERTICES.

    One cached recursion builds every (g, n) from the tripod (0, 3) and the
    tadpole (1, 1).  A (g, n - 1) class grows into (g, n) two ways: a new
    vertex with the new leaf subdivides an edge, or a leaf becomes an edge to
    a new vertex with two leaves.  Joining the two leaves of a (g - 1, 2)
    class into one edge gives a closed class (g, 0), g >= 2.  This reaches
    every class.  Removing the vertex v of a leaf undoes one step: suppress v
    if its other slots are edges; if an edge and a leaf, give the edge's other
    end one leaf for v's two; a loop or two leaves there make the tadpole or
    the tripod.  And cutting any non-bridge edge of a closed graph, which
    genus g >= 2 has, leaves a connected (g - 1, 2) graph.
    """
    checked_int(g, 0, MAX_ENUMERATION_VERTICES // 2 + 1, what="genus")
    v = 2 * g - 2 + checked_int(leaves, 0, what="leaves")
    if not 1 <= v <= MAX_ENUMERATION_VERTICES:
        raise ValueError(f"V = 2g - 2 + n must be from 1 to {MAX_ENUMERATION_VERTICES}, got {v}")
    return tuple(map(_from_key, _classes(g, leaves)))


def with_colors(g: ColoredGraph, colors: Mapping[str, int]) -> ColoredGraph:
    new = tuple(Vertex(v.id, colors[v.id]) if v.id in colors else v for v in g.vertices)
    return g._replace(vertices=new)


# ---------------------------------------------------------------------------
# named graphs
# ---------------------------------------------------------------------------


def theta_graph(parity: int = 0) -> ColoredGraph:
    """Two vertices joined by three parallel edges a, b, c."""
    return make_graph(
        [("v1", 0), ("v2", checked_int(parity, 0, 1, what="parity"))],
        [("a", "v1", "v2"), ("b", "v1", "v2"), ("c", "v1", "v2")],
    )


def dumbbell_graph(parity: int = 0) -> ColoredGraph:
    """Loops b and c joined by a bridge a."""
    return make_graph(
        [("v1", 0), ("v2", checked_int(parity, 0, 1, what="parity"))],
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
    checked_int(g, 1 if open_ends else 2, what="genus")
    checked_int(parity, 0, 1, what="parity")
    nv = 2 * g if open_ends else 2 * g - 2
    edges = [(f"d{i}{x}", f"v{i}", f"v{i + 1}") for i in range(1, nv, 2) for x in ("", "x")]
    # the closed chain's last bridge returns to v1
    edges += [(f"s{i}", f"v{i}", f"v{i % nv + 1}") for i in range(2, nv if open_ends else nv + 1, 2)]
    leaves = [("x", "v1", "out"), ("y", f"v{nv}", ORIENTATIONS[parity])] if open_ends else []
    return make_graph([(f"v{i}", parity if i == nv else 0) for i in range(1, nv + 1)], edges, leaves)


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


def _json_ends(e: Mapping) -> tuple:
    ends = e["ends"]
    if not isinstance(ends, (list, tuple)) or len(ends) != 2:
        raise ValueError(f"edge {e['id']!r}: ends must list exactly two vertices, got {ends!r}")
    return tuple(ends)


def graph_from_json(data: Mapping) -> ColoredGraph:
    """Graph from the JSON document of :func:`graph_to_json`; ValueError if its
    shape is malformed: a key missing, or ``ends`` not a two-item list.  Ids,
    colors and orientations are stored as given, for :func:`validate` to judge."""
    try:
        vertices = tuple(Vertex(v["id"], v["color"]) for v in data["vertices"])
        edges = tuple(Edge(e["id"], _json_ends(e)) for e in data.get("edges", ()))
        leaves = tuple(Leaf(x["id"], x["vertex"], x["orientation"]) for x in data.get("leaves", ()))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc
    return ColoredGraph(vertices, edges, leaves)
