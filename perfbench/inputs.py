"""Seeded inputs and the operation list of each benchmark workload.

Every graph handed to the program is written as a JSON file whose vertex,
edge and leaf ids are fresh random tokens drawn from the seed, listed in a
seeded order.  Where a coloring parity is odd, the seed also picks the one
colored vertex; every leaf keeps the default orientation for the color of
its vertex, so the parity of the coloring is the parity of the graph.  The
work an operation does depends only on the isomorphism class and parity of
its graph, never on the labels, so every seed costs the same.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from graphpotentials.graphs import (
    ColoredGraph, Edge, Leaf, Vertex, enumerate_trivalent, graph_to_json, necklace_graph)

WORKLOADS = ("brute-expansion", "kernel-trace", "mutation-classes")

# A run goes over the operation list in ROUNDS rounds, and each operation
# counts with its fastest run.  A shared machine can run in bursts of
# slowness, a tenth of a second to a second long (seen on a 2-core one), and
# a short operation often falls into one.  The deep walk of brute-expansion spans many bursts; it runs in the
# first round only, which keeps that workload's run near the others in length.
ROUNDS = 3

# default leaf orientation for a vertex color, as in graphpotentials.potential
_DEFAULT_ORIENTATION = {0: "out", 1: "in"}


@dataclass(frozen=True)
class Op:
    """One operation: a ``graphpot`` command or a library job in perfbench/jobs.py.

    ``expect`` tells the checker what the output must satisfy.
    """

    id: str
    kind: str  # "cli" or "job"
    argv: tuple[str, ...]
    expect: dict
    rounds: int = ROUNDS  # the number of rounds it runs in


def relabel(g: ColoredGraph, rng: random.Random, parity: int) -> tuple[ColoredGraph, dict]:
    """A copy of ``g`` with seeded ids and coloring; returns it and the leaf-id map."""
    tokens = rng.sample(range(100000, 1000000), len(g.vertices) + len(g.edges) + len(g.leaves))
    vmap = {v.id: f"n{tokens.pop()}" for v in g.vertices}
    emap = {e.id: f"x{tokens.pop()}" for e in g.edges}
    lmap = {x.id: f"x{tokens.pop()}" for x in g.leaves}
    colored = {rng.choice(sorted(vmap.values()))} if parity % 2 else set()
    vertices = [Vertex(vmap[v.id], int(vmap[v.id] in colored)) for v in g.vertices]
    color = {v.id: v.color for v in vertices}
    edges = [Edge(emap[e.id], (vmap[e.ends[0]], vmap[e.ends[1]])) for e in g.edges]
    leaves = [Leaf(lmap[x.id], vmap[x.vertex], _DEFAULT_ORIENTATION[color[vmap[x.vertex]]])
              for x in g.leaves]
    for items in (vertices, edges, leaves):
        rng.shuffle(items)
    return ColoredGraph(tuple(vertices), tuple(edges), tuple(leaves)), lmap


class _Writer:
    def __init__(self, workdir: Path, rng: random.Random):
        self.workdir = workdir
        self.rng = rng

    def graph(self, name: str, g: ColoredGraph, parity: int) -> tuple[str, dict]:
        relabeled, lmap = relabel(g, self.rng, parity)
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(graph_to_json(relabeled)))
        return str(path), lmap


def _brute_expansion(w: _Writer) -> list[Op]:
    ops = []
    for c, g in enumerate(enumerate_trivalent(3)):
        for p in (0, 1):
            path, _ = w.graph(f"g3c{c}p{p}", g, p)
            ops.append(Op(f"period-g3c{c}p{p}", "cli",
                          ("period", "--graph", path, "--order", "10", "--method", "brute", "--json"),
                          {"check": "period", "genus": 3, "parity": p, "order": 10}))
    path, _ = w.graph("necklace4p1", necklace_graph(4), 1)
    ops.append(Op("period-necklace4p1", "cli",
                  ("period", "--graph", path, "--order", "10", "--method", "brute", "--json"),
                  {"check": "period", "genus": 4, "parity": 1, "order": 10}, rounds=1))
    for genus, order in ((1, 12), (2, 10)):
        for p in (0, 1):
            path, lmap = w.graph(f"open{genus}p{p}", necklace_graph(genus, open_ends=True), p)
            a, b = lmap["x"], lmap["y"]
            if w.rng.random() < 0.5:
                a, b = b, a
            ops.append(Op(f"glue-open{genus}p{p}", "cli",
                          ("glue", "--graph", path, "--leaf-a", a, "--leaf-b", b,
                           "--order", str(order), "--json"),
                          {"check": "glue", "genus": genus + 1, "parity": p, "order": order}))
    return ops


def _kernel_trace(w: _Writer) -> list[Op]:
    ops = [Op("table-g12-k32", "cli", ("table", "--genus-max", "12", "--order", "32"),
              {"check": "table", "genus_max": 12, "order": 32})]
    for genus in (2, 4, 8, 16):
        for p in (0, 1):
            path, _ = w.graph(f"necklace{genus}p{p}", necklace_graph(genus), p)
            ops.append(Op(f"tqft-necklace{genus}p{p}", "cli",
                          ("period", "--graph", path, "--order", "24", "--method", "tqft", "--json"),
                          {"check": "period", "genus": genus, "parity": p, "order": 24}))
    ops.append(Op("kernel-k24", "cli", ("kernel", "--order", "24"), {"check": "kernel", "order": 24}))
    return ops


def _mutation_classes(w: _Writer) -> list[Op]:
    ops = []
    for p in (0, 1):
        path, _ = w.graph(f"necklace4p{p}", necklace_graph(4), p)
        ops.append(Op(f"bfs-necklace4p{p}", "job", ("bfs", "--graph", path),
                      {"check": "mutations", "genus": 4, "parity": p}))
    path, _ = w.graph("necklace5p1", necklace_graph(5), 1)
    ops.append(Op("walk-necklace5p1", "job", ("walk", "--graph", path),
                  {"check": "mutations", "genus": 5, "parity": 1}))
    path, _ = w.graph("necklace12p1", necklace_graph(12), 1)
    for what in ("mutation", "coloring"):
        ops.append(Op(f"verify-{what}-necklace12p1", "cli", ("verify", what, "--graph", path),
                      {"check": "pass_lines", "count": 33}))
    ops.append(Op("wdvv-k8", "cli", ("wdvv", "--order", "8", "--parity", "both"),
                  {"check": "pass_lines", "count": 2}))
    return ops


_BUILDERS = {
    "brute-expansion": _brute_expansion,
    "kernel-trace": _kernel_trace,
    "mutation-classes": _mutation_classes,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the seeded input files of a workload and return its operations."""
    return _BUILDERS[workload](_Writer(workdir, random.Random(f"{workload}:{seed}")))
