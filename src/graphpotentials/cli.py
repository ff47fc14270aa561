"""Command line interface.

Exit codes: 0 on success, 2 on usage errors (bad arguments, malformed
input files, an ``--order`` outside 0..``MAX_ORDER``, a ``--genus`` or
``--genus-max`` outside 2..``MAX_GENUS``), 3 when a verification or
cross-check fails.  ``table`` and ``period --method tqft`` print the kernel
traces' integers as they are.  A reader that closes the pipe early ends the
output quietly, with the code reached so far: 0, or 2 or 3 if the command
had already failed.  All output is deterministic: JSON keys are sorted and
edges are visited in id order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# Each command imports the library modules it runs, so that ``table`` and
# ``kernel`` load no graph code and ``period --method tqft`` no potential.

# Largest genus that ``period --genus`` and ``table --genus-max`` accept: the
# trace formula runs about 2 log2(g) kernel products at genus g, and g / 2
# for the whole table, but brute force glues the 2g - 2 vertex states of the
# necklace one by one, each gluing costing about the order to the power of
# its open legs: at genus 64 and order 64, minutes.
MAX_GENUS = 64

# Largest ``--order`` of every command: at each even t-degree d a kernel holds
# about 2 d^2 nonzero integers, one per mode pair (i, j) with |i|, |j| <= d and
# i + j even, and the kernel commands multiply them before they print anything.
# Their worst case at both limits, ``table --genus-max 64 --order 64``, takes
# 5.3 to 7.2 s and 27 MB on 2 cores (Python 3.11, six runs).
MAX_ORDER = 64


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


def _read_graph(path: str):
    """The graph in a JSON file, its shape read but not its values: the library
    validates it before any id is used, and :func:`main` reports what it finds."""
    from .graphs import graph_from_json

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # invalid JSON, an integer too long to convert, or nesting too deep
        raise UsageError(f"{path} is not readable JSON: {exc}") from exc
    try:
        g = graph_from_json(data)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return g


def _exps_key(exps) -> str:
    return ",".join(str(x) for x in exps)


def _poly_json(p) -> dict:
    return {
        "variables": list(p.vars),
        "terms": {_exps_key(e): str(p.terms[e]) for e in sorted(p.terms)},
    }


def _ratio(c: int, f: int) -> str:
    """c / f for f > 0 in lowest terms, as ``str(Fraction(c, f))`` prints it."""
    g = math.gcd(c, f)
    return str(c // g) if g == f else f"{c // g}/{f // g}"


def _print_json(data):
    print(json.dumps(data, indent=2, sort_keys=True))


def _report(rows, failure: str) -> int:
    """Print a PASS or FAIL line for each (ok, text) row, as it comes, then
    raise VerificationFailure(failure) if any row failed."""
    failed = False
    for ok, text in rows:
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'} {text}")
    if failed:
        raise VerificationFailure(failure)
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_potential(args) -> int:
    from .potential import graph_potential

    g = _read_graph(args.graph)
    bundle = graph_potential(g)
    if args.json:
        variables = bundle.variables  # sorted on every read
        _print_json({
            "variables": list(variables),
            "per_vertex": {v: _poly_json(w.embed(variables))
                           for v, w in sorted(bundle.per_vertex.items())},
            "potential": _poly_json(bundle.potential),
        })
    else:
        for v in sorted(bundle.per_vertex):
            print(f"{v}: {bundle.per_vertex[v]}")
        print(f"total: {bundle.potential}")
    return 0


def _resolve_period_graph(args):
    from .graphs import necklace_graph

    if args.graph is not None:
        if args.genus is not None or args.parity is not None:
            raise UsageError("--graph fixes the genus and parity: drop --genus and --parity")
        return _read_graph(args.graph)  # periods_of_graph validates it
    if args.genus is None or args.parity is None:
        raise UsageError("need either --graph or both --genus and --parity")
    return necklace_graph(args.genus, open_ends=False, parity=args.parity)


def cmd_period(args) -> int:
    from .graphs import InvalidGraph
    from .periods import periods_of_graph

    g = _resolve_period_graph(args)
    methods = ["brute", "tqft"] if args.method == "both" else [args.method]
    results = {}
    for m in methods:
        try:
            results[m] = periods_of_graph(g, args.order, m)
        except InvalidGraph:
            raise  # main names the file
        except ValueError as exc:
            raise UsageError(f"{m}: {exc}") from exc
    if len(methods) == 2 and results["brute"].pi != results["tqft"].pi:
        print("period mismatch:", file=sys.stderr)
        print(f"  brute: {list(results['brute'].pi)}", file=sys.stderr)
        print(f"  tqft:  {list(results['tqft'].pi)}", file=sys.stderr)
        raise VerificationFailure("brute and tqft periods disagree")
    seq = results[methods[0]]
    if args.json:
        _print_json({
            "fingerprint": seq.graph_fingerprint,
            "order": seq.order,
            "method": args.method,
            "pi": list(seq.pi),
        })
    else:
        for k, v in enumerate(seq.pi):
            print(f"{k} {v}")
    return 0


def cmd_mutate(args) -> int:
    from .graphs import graph_to_json
    from .mutation import mutate
    from .potential import graph_potential

    g = _read_graph(args.graph)
    bundle = graph_potential(g)
    try:
        bundle2, cert = mutate(bundle, args.edge)
    except KeyError:
        raise UsageError(f"no edge {args.edge!r} in {args.graph}") from None
    except ValueError as exc:
        raise UsageError(f"cannot mutate at {args.edge!r}: {exc}") from exc
    except ArithmeticError as exc:
        raise VerificationFailure(str(exc)) from exc
    doc = {
        "graph": graph_to_json(bundle2.graph),
        "certificate": {
            "edge": cert.edge,
            "colored_case": cert.colored_case,
            "slot_vars": [list(cert.slot_vars[0]), list(cert.slot_vars[1])],
            "mu": _poly_json(cert.mu),
            "nu": _poly_json(cert.nu),
            "mu_prime": _poly_json(cert.mu_prime),
            "nu_prime": _poly_json(cert.nu_prime),
            "substitution": str(cert.substitution),
            "product_identity_checked": cert.product_identity_checked,
        },
    }
    _print_json(doc)
    return 0


def cmd_verify_mutation(args) -> int:
    from .mutation import mutation_report
    from .potential import graph_potential

    g = _read_graph(args.graph)
    bundle = graph_potential(g)
    if args.edge is not None:
        edges = [args.edge]
    else:
        edges = sorted(e.id for e in g.edges if e.ends[0] != e.ends[1])
        if not edges:
            raise UsageError("graph has no non-loop internal edges")
    rows = []  # every report before any line: a bad edge prints nothing
    for eid in edges:
        try:
            report = mutation_report(bundle, eid)
        except KeyError:
            raise UsageError(f"no edge {eid!r} in {args.graph}") from None
        except ValueError as exc:
            raise UsageError(f"edge {eid!r}: {exc}") from exc
        detail = " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in sorted(report.items()))
        rows.append((all(report.values()), f"edge {eid}: {detail}"))
    return _report(rows, "mutation verification failed")


def cmd_verify_coloring(args) -> int:
    from .mutation import coloring_report
    from .potential import graph_potential

    bundle = graph_potential(_read_graph(args.graph))
    if not bundle.graph.edges:  # no move to check: a PASS of nothing
        raise UsageError("graph has no internal edges")
    rows = ((all(coloring_report(bundle, e.id).values()),
             f"edge {e.id}: boundary move matches inverting {e.id}")
            for e in sorted(bundle.graph.edges, key=lambda e: e.id))
    return _report(rows, "coloring verification failed")


def cmd_table(args) -> int:
    import csv

    from .tqft import trace_formula_table

    table = trace_formula_table(args.genus_max, args.order)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["k"] + [f"g{g}e{p}" for g, p in table])
    writer.writerows(zip(range(args.order + 1), *table.values()))
    return 0


def cmd_kernel(args) -> int:
    from .tqft import t1_kernel

    kernel = t1_kernel(args.order)
    modes = {key for t in kernel.terms for key in t}  # zeros are left out
    scale = [math.factorial(d) for d in range(kernel.order + 1)]
    # the (i, j) entry's series: at t^d the stored integer over d!
    entries = {f"{i},{j}": [_ratio(c, f) if c else "0"
                            for c, f in zip((t.get((i, j), 0) for t in kernel.terms), scale)]
               for i, j in modes}
    _print_json({"order": kernel.order, "entries": entries})
    return 0


def cmd_grassmann(args) -> int:
    from .graphs import InvalidGraph
    from .potential import grassmannian_limit

    g = _read_graph(args.graph)
    distinguished = {}
    for item in args.distinguished:
        if "=" not in item:
            raise UsageError(f"--distinguished takes VERTEX=SLOT, got {item!r}")
        v, s = item.split("=", 1)
        if v in distinguished:
            raise UsageError(f"--distinguished names vertex {v!r} twice")
        distinguished[v] = s
    try:
        p = grassmannian_limit(g, distinguished)
    except InvalidGraph:
        raise  # main names the file
    except (ValueError, ArithmeticError) as exc:
        raise UsageError(str(exc)) from exc
    if args.json:
        _print_json(_poly_json(p))
    else:
        print(p)
    return 0


def cmd_wdvv(args) -> int:
    from .tqft import wdvv_check

    parities = (0, 1) if args.parity == "both" else (int(args.parity),)
    rows = ((wdvv_check(p, args.order), f"parity {p}: four-point symmetry at order {args.order}")
            for p in parities)
    return _report(rows, "four-point symmetry failed")


def cmd_glue(args) -> int:
    from .tqft import glue, k_state

    state = k_state(_read_graph(args.graph), args.order)
    try:
        glued = glue(state, args.leaf_a, args.leaf_b)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    doc = {
        "order": glued.order,
        "leaf_vars": list(glued.leaf_vars),
        "coefficients": [
            {"degree": d, "terms": {_exps_key(e): _ratio(c, math.factorial(d))
                                    for e, c in sorted(t.items())}}
            for d, t in enumerate(glued.terms)
        ],
    }
    if args.json:
        _print_json(doc)
    else:
        for row in doc["coefficients"]:
            terms = row["terms"]
            if terms:
                body = " ".join(f"{k or '1'}:{v}" for k, v in terms.items())
            else:
                body = "0"
            print(f"t^{row['degree']}: {body}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _bounded(low: int, high: int):
    """The argparse type of an integer from ``low`` to ``high``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    order, genus = _bounded(0, MAX_ORDER), _bounded(2, MAX_GENUS)
    order_help = f"truncation order in t, 0 to {MAX_ORDER}"
    parser = argparse.ArgumentParser(
        prog="graphpot",
        description="Graph potentials: periods, mutations, and kernel traces "
                    "in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("potential", help="print the potential of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("period", help="period sequence of a closed graph")
    p.add_argument("--graph")
    p.add_argument("--genus", type=genus,
                   help=f"genus of the closed necklace, 2 to {MAX_GENUS}")
    p.add_argument("--parity", type=int, choices=(0, 1))
    p.add_argument("--order", type=order, required=True, help=order_help)
    p.add_argument("--method", choices=("brute", "tqft", "both"), default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("mutate", help="rewire an edge and emit graph plus certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--edge", required=True)
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("verify", help="symbolic verifications")
    vsub = p.add_subparsers(dest="verify_what", required=True)
    pm = vsub.add_parser("mutation", help="mu/nu factorization and substitution checks")
    pm.add_argument("--graph", required=True)
    pm.add_argument("--edge", help="default: every non-loop edge")
    pm.set_defaults(func=cmd_verify_mutation)
    pc = vsub.add_parser("coloring", help="boundary moves match inverting edge variables")
    pc.add_argument("--graph", required=True)
    pc.set_defaults(func=cmd_verify_coloring)

    p = sub.add_parser("table", help="CSV period table over genus and parity")
    p.add_argument("--genus-max", type=genus, required=True,
                   help=f"largest genus in the table, 2 to {MAX_GENUS}")
    p.add_argument("--order", type=order, required=True, help=order_help)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("kernel", help="dump the T1 kernel matrix")
    p.add_argument("--order", type=order, required=True, help=order_help)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("grassmann", help="degenerate a genus-0 potential")
    p.add_argument("--graph", required=True)
    p.add_argument("--distinguished", action="append", default=[],
                   metavar="VERTEX=SLOT", help="distinguished slot per vertex")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_grassmann)

    p = sub.add_parser("wdvv", help="four-point symmetry check")
    p.add_argument("--order", type=order, required=True, help=order_help)
    p.add_argument("--parity", choices=("0", "1", "both"), default="both")
    p.set_defaults(func=cmd_wdvv)

    p = sub.add_parser("glue", help="glue two leaves of a boundary state")
    p.add_argument("--graph", required=True)
    p.add_argument("--leaf-a", required=True)
    p.add_argument("--leaf-b", required=True)
    p.add_argument("--order", type=order, required=True, help=order_help)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_glue)

    return parser


def main(argv=None) -> int:
    code = 0
    try:
        code = _run(argv)
        sys.stdout.flush()  # where a reader that closed the pipe early shows, at the latest
    except BrokenPipeError:
        # the reader wants no more output: send the rest nowhere, so that the
        # interpreter's own flush at exit cannot fail again, and keep the code
        # reached so far
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        from .graphs import InvalidGraph

        if not isinstance(exc, InvalidGraph):
            raise
        # the library validates the --graph file's graph where it uses it
        print(f"error: invalid graph in {args.graph}: " + "; ".join(exc.problems),
              file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
