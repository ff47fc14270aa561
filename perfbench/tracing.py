"""Spans around the library's public functions, for the benchmark's traced runs.

Child side, one operation in a fresh interpreter::

    python perfbench/tracing.py SPANS_OUT cli|job ARGS...

imports the library (timing the imports), replaces each function listed in
WRAPPED by a recorder in every library module that holds it, runs the
operation in-process under a root span ``op`` and writes the spans as JSON
to SPANS_OUT when it ends.  No library file is changed.

A span is ``[name, start, end, parent, attrs]``, times from perf_counter
(the monotonic clock, shared by all processes), ``parent`` the index of the
enclosing span.  Counts a layer metric needs are computed from the
arguments and result after the span ends, under a ``trace.bookkeeping``
span, so they add nothing to any layer's time.

Parent side, :func:`layer_metrics` turns the spans of one pass into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import threading
import time

WRAPPED = {
    "periods": ("constant_terms_of_powers",),
    "tqft": ("t1_kernel", "kernel_matmul", "kernel_compose", "kernel_trace",
             "k_state", "glue", "wdvv_check"),
    "graphs": ("canonical_form", "elementary_transformation", "validate"),
    "potential": ("graph_potential",),
    "mutation": ("mutate", "mutation_report", "mu_nu_factors"),
    "algebra": ("rexpr_substitute", "rexpr_equal", "ts_exp", "pairing_in_var"),
}

# layer time metric -> spans whose self time it sums
SELF_TIME = {
    "periods.walk_s": ("periods.constant_terms_of_powers",),
    "tqft.t1_kernel_s": ("tqft.t1_kernel",),
    "tqft.matmul_s": ("tqft.kernel_matmul", "tqft.kernel_compose"),
    "tqft.trace_s": ("tqft.kernel_trace",),
    "tqft.k_state_s": ("tqft.k_state",),
    "tqft.glue_s": ("tqft.glue",),
    "tqft.wdvv_s": ("tqft.wdvv_check",),
    "graphs.canonical_form_s": ("graphs.canonical_form",),
    "graphs.elementary_transformation_s": ("graphs.elementary_transformation",),
    "graphs.validate_s": ("graphs.validate",),
    "potential.graph_potential_s": ("potential.graph_potential",),
    "mutation.report_s": ("mutation.mutation_report", "mutation.mu_nu_factors"),
    "algebra.rexpr_s": ("algebra.rexpr_substitute", "algebra.rexpr_equal"),
    "algebra.series_s": ("algebra.ts_exp", "algebra.pairing_in_var"),
}

BOOKKEEPING = "trace.bookkeeping"


# ---------------------------------------------------------------------------
# counts taken at span boundaries
# ---------------------------------------------------------------------------


def _bits(values) -> int:
    return max((abs(int(v)).bit_length() for v in values), default=0)


def _walk_attrs(args, kwargs, result):
    p = args[0]
    return {"vars": len(p.vars), "monomials": len(p.terms),
            "bits": _bits(getattr(v, "numerator", v) for v in result)}


def _kernel_attrs(args, kwargs, result):
    return {"dim": result.size}


def _matmul_attrs(flip: bool):
    """Scalar products of tqft._convolve: one size^3 product per pair of
    t-degrees (a, d - a), and how many of them have two nonzero factors."""

    def attrs(args, kwargs, result):
        p, q = args[0], args[1]
        cols = [(m != 0).sum(axis=0) for m in p.mats]
        rows = [(m != 0).sum(axis=1) for m in q.mats]
        if flip:
            rows = [r[::-1] for r in rows]
        n = p.size
        mults = useful = 0
        for u in range(len(p.mats)):
            for a in range(u + 1):
                mults += n ** 3
                useful += int((cols[a] * rows[u - a]).sum())
        return {"dim": n, "mults": mults, "useful": useful,
                "bits": max(_bits(m.flat) for m in result.mats)}

    return attrs


def _canonical_attrs(args, kwargs, result):
    return {"orders": math.factorial(len(args[0].vertices))}


ATTRS = {
    "periods.constant_terms_of_powers": _walk_attrs,
    "tqft.t1_kernel": _kernel_attrs,
    "tqft.kernel_matmul": _matmul_attrs(flip=False),
    "tqft.kernel_compose": _matmul_attrs(flip=True),
    "graphs.canonical_form": _canonical_attrs,
}


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------


class Tracer:
    """Spans of one operation, kept in memory until the operation ends."""

    def __init__(self):
        self.spans: list = [["op", 0.0, 0.0, -1, None]]
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a worker thread's first span hangs under the operation
            stack = self._local.stack = [0]
        return stack

    def _reserve(self) -> int:
        with self._lock:
            self.spans.append(None)
            return len(self.spans) - 1

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1]
            idx = self._reserve()
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans[idx] = [name, t0, t1, parent, None]
            if attrs is not None:
                self.spans[idx][4] = attrs(args, kwargs, result)
                self.spans[self._reserve()] = [BOOKKEEPING, t1, time.perf_counter(), parent, None]
            return result

        return traced

    def install(self, package: str = "graphpotentials"):
        """Replace every WRAPPED function in each loaded module that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for short, names in WRAPPED.items():
            home = sys.modules[f"{package}.{short}"]
            for fname in names:
                original = getattr(home, fname)
                traced = self.wrap(f"{short}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)


def _child(argv) -> int:
    out_path, kind, op_args = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import graphpotentials.cli
    import graphpotentials.mutation
    import graphpotentials.periods
    import graphpotentials.tqft  # noqa: F401
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    if kind == "cli":
        entry = graphpotentials.cli.main
    else:
        import jobs  # after install, so its imported names are the recorders

        entry = jobs.main
    tracer.spans[0][1] = time.perf_counter()
    try:
        code = entry(op_args)
    except SystemExit as exc:  # argparse rejecting the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.spans[0][2] = time.perf_counter()
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        end = s[1]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, end, s[1]), min(b, s[2])
            if b > a:
                covered += b - a
                end = b
        out.append(s[2] - s[1] - covered)
    return out


def layer_metrics(ops) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``ops`` holds one (wall_s, trace document) pair per operation.
    """
    m = {name: 0.0 for name in SELF_TIME}
    m.update({"periods.walk_calls": 0, "periods.max_vars": 0, "periods.max_monomials": 0,
              "periods.max_bits": 0, "tqft.matmul_calls": 0, "tqft.kernel_dim": 0,
              "tqft.max_entry_bits": 0, "tqft.matmul_mults": 0,
              "graphs.canonical_form_calls": 0, "graphs.orders_tried": 0,
              "potential.graph_potential_calls": 0, "mutation.mutate_s": 0.0,
              "mutation.moves": 0})
    useful = potentials_in_moves = 0
    group = {span: metric for metric, spans in SELF_TIME.items() for span in spans}
    imports, overheads = [], []
    for wall, doc in ops:
        spans = doc["spans"]
        self_s = _self_times(spans)
        bookkeeping = 0.0
        in_move = [False] * len(spans)
        for i, (name, t0, t1, parent, attrs) in enumerate(spans):
            in_move[i] = parent >= 0 and (in_move[parent] or spans[parent][0] == "mutation.mutate")
            if name in group:
                m[group[name]] += self_s[i]
            if name == BOOKKEEPING:
                bookkeeping += t1 - t0
            elif name == "periods.constant_terms_of_powers":
                m["periods.walk_calls"] += 1
                m["periods.max_vars"] = max(m["periods.max_vars"], attrs["vars"])
                m["periods.max_monomials"] = max(m["periods.max_monomials"], attrs["monomials"])
                m["periods.max_bits"] = max(m["periods.max_bits"], attrs["bits"])
            elif name in ("tqft.kernel_matmul", "tqft.kernel_compose"):
                m["tqft.matmul_calls"] += 1
                m["tqft.matmul_mults"] += attrs["mults"]
                m["tqft.max_entry_bits"] = max(m["tqft.max_entry_bits"], attrs["bits"])
                m["tqft.kernel_dim"] = max(m["tqft.kernel_dim"], attrs["dim"])
                useful += attrs["useful"]
            elif name == "tqft.t1_kernel":
                m["tqft.kernel_dim"] = max(m["tqft.kernel_dim"], attrs["dim"])
            elif name == "graphs.canonical_form":
                m["graphs.canonical_form_calls"] += 1
                m["graphs.orders_tried"] += attrs["orders"]
            elif name == "potential.graph_potential":
                m["potential.graph_potential_calls"] += 1
                potentials_in_moves += in_move[i]
            elif name == "mutation.mutate":
                m["mutation.moves"] += 1
                m["mutation.mutate_s"] += t1 - t0
        imports.append(doc["import_s"])
        root = spans[0]
        overheads.append(wall - (root[2] - root[1] - bookkeeping))
    m["tqft.matmul_useful"] = useful / m["tqft.matmul_mults"] if m["tqft.matmul_mults"] else 0.0
    m["mutation.potentials_per_move"] = (potentials_in_moves / m["mutation.moves"]
                                         if m["mutation.moves"] else 0.0)
    m["cli.import_s"] = statistics.median(imports)
    m["cli.overhead_s"] = statistics.median(overheads)
    return m


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
