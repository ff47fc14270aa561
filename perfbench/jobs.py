"""Library jobs the benchmark runs as operations, each in a fresh interpreter.

    python perfbench/jobs.py bfs --graph G.json
        breadth-first search over mutate() from the class of G, removing
        duplicate classes with canonical_form
    python perfbench/jobs.py walk --graph G.json
        one certified move at every non-loop edge of G

Each prints one JSON document: the number of classes seen, the number of
certified moves, and every graph a move produced, for the checker.

The search mutates the canonical representative of each class, never the
graph as labeled: elementary_transformation picks one of the two
re-pairings by id order, so the classes a search over labeled graphs
reaches depend on the labels.
"""

from __future__ import annotations

import argparse
import json
import sys

from graphpotentials.graphs import canonical_form, graph_from_json, graph_to_json, make_graph
from graphpotentials.mutation import mutate
from graphpotentials.potential import graph_potential


def representative(key):
    """The graph a canonical_form key describes, with canonical ids."""
    colors, edges, _ = key
    return make_graph([(f"p{i}", c) for i, c in enumerate(colors)],
                      [(f"e{j:02d}", f"p{a}", f"p{b}") for j, (a, b) in enumerate(edges)])


def search(start, max_depth=None) -> dict:
    """Certified moves out of ``start`` and every class found, level by level."""
    seen = {canonical_form(start)}
    frontier = [start]
    produced = []
    certified = True
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        found = []
        for g in frontier:
            bundle = graph_potential(g)
            for e in sorted(g.edges, key=lambda e: e.id):
                if e.ends[0] == e.ends[1]:
                    continue
                moved, cert = mutate(bundle, e.id)
                certified = certified and cert.product_identity_checked
                produced.append(moved.graph)
                key = canonical_form(moved.graph)
                if key not in seen:
                    seen.add(key)
                    found.append(representative(key))
        frontier = found
        depth += 1
    return {"classes": len(seen), "moves": len(produced), "certified": certified,
            "graphs": [graph_to_json(g) for g in produced]}


def _load(path):
    with open(path) as fh:
        return graph_from_json(json.load(fh))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="jobs.py")
    sub = parser.add_subparsers(dest="job", required=True)
    sub.add_parser("bfs").add_argument("--graph", required=True)
    sub.add_parser("walk").add_argument("--graph", required=True)
    args = parser.parse_args(argv)
    if args.job == "bfs":
        doc = search(representative(canonical_form(_load(args.graph))))
    else:
        doc = search(_load(args.graph), max_depth=1)
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
