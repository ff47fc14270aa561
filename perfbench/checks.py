"""Independent checks of the benchmark's outputs, and their self-test.

Every check is a property the method must have or a computation made apart
from the operation, never a stored copy of an earlier output:

* brute-force periods equal the trace formula for the same genus and
  parity, and all graphs of one genus and parity give one sequence;
* pi_k = 0 for odd k;
* gluing the two leaves of the open genus-g necklace of parity p gives the
  periods of the closed genus g+1 graph of parity p;
* the g2e1 table column equals C(2n, n)^3, and the table's low-order rows
  equal brute force on necklaces;
* at genus 2 and 3, table columns and tqft periods equal kernel traces
  computed here at every order, from T1 expanded by its definition;
* the T1 kernel entries at t^d sum to [t^d] B(2t)^2 and have its symmetries;
* every graph a mutation produced is trivalent and connected, with genus
  and coloring parity unchanged, recomputed here from the JSON;
* the lines the verify and wdvv commands print all read PASS;
* enumerate_trivalent finds 2 and 5 classes at genus 2 and 3, the
  connected cubic multigraphs with loops on 2 and 4 vertices (OEIS A005967),
  and the uncolored mutation search from the genus-3 necklace reaches all 5.

``python perfbench/run.py --self-test`` shows that each check rejects a
corrupted result.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
from fractions import Fraction

from graphpotentials.graphs import canonical_form, enumerate_trivalent, necklace_graph
from graphpotentials.periods import periods_of_graph
from graphpotentials.tqft import trace_formula


class CheckError(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


class References:
    """Period sequences computed in this process, once per run."""

    # low orders at which the table is compared with brute force per genus
    BRUTE_ORDER = {2: 6, 3: 6, 4: 4, 5: 4, 6: 4, 7: 4, 8: 4,
                   9: 2, 10: 2, 11: 2, 12: 2, 16: 2}

    def __init__(self):
        self._trace: dict = {}
        self._kernel: dict = {}
        self._t1: dict = {}
        self._brute: dict = {}

    def trace_periods(self, genus: int, parity: int, order: int) -> list[int]:
        key = (genus, parity, order)
        if key not in self._trace:
            hat = trace_formula(genus, parity, order)
            self._trace[key] = [_integral(hat[k] * math.factorial(k)) for k in range(order + 1)]
        return self._trace[key]

    def kernel_periods(self, genus: int, parity: int, order: int) -> list[int] | None:
        """Periods of the closed genus-2 and genus-3 necklaces from the
        definition T1(x, y) = B(t(x+y)) B(t(1/x+1/y)), expanded here, as
        tr(A S^(1+p)) and tr(A^2 S^p) with S the mode flip i -> -i."""
        if genus not in (2, 3):
            return None
        key = (genus, parity, order)
        if key not in self._kernel:
            if order not in self._t1:
                self._t1[order] = t1_entries(order)
            a = self._t1[order]
            flip = -1 if (genus - 1 + parity) % 2 else 1  # S^(genus - 1 + parity)
            pi = [0] * (order + 1)
            for (i, j), left in a.items():
                if genus == 2:
                    if j == flip * i:
                        pi = [x + y for x, y in zip(pi, left)]
                elif (j, flip * i) in a:
                    pi = [x + y for x, y in zip(pi, scaled_product(left, a[(j, flip * i)]))]
            self._kernel[key] = pi
        return self._kernel[key]

    def brute_necklace(self, genus: int, parity: int) -> list[int] | None:
        order = self.BRUTE_ORDER.get(genus)
        if order is None:
            return None
        key = (genus, parity)
        if key not in self._brute:
            g = necklace_graph(genus, parity=parity)
            self._brute[key] = list(periods_of_graph(g, order, "brute", backend="pure").pi)
        return self._brute[key]


def t1_entries(order: int) -> dict:
    """[x^i y^j] T1 as d!-scaled integer coefficients of t^d, d = 0..order:
    (x+y)^(2m) (1/x+1/y)^(2n) / (m!^2 n!^2) at t^(2m+2n)."""
    out: dict = {}
    for m in range(order // 2 + 1):
        for n in range(order // 2 + 1 - m):
            d = 2 * m + 2 * n
            base = math.factorial(d) // (math.factorial(m) ** 2 * math.factorial(n) ** 2)
            for a in range(2 * m + 1):
                for c in range(2 * n + 1):
                    coeffs = out.setdefault((a - c, 2 * m - a - 2 * n + c), [0] * (order + 1))
                    coeffs[d] += base * math.comb(2 * m, a) * math.comb(2 * n, c)
    return out


def scaled_product(left, right) -> list[int]:
    """Product of two series stored as d!-scaled coefficients."""
    order = len(left) - 1
    return [sum(math.comb(d, a) * left[a] * right[d - a] for a in range(d + 1) if left[a])
            for d in range(order + 1)]


def _integral(x) -> int:
    x = Fraction(x)
    _require(x.denominator == 1, f"non-integral value {x}")
    return x.numerator


def _odd_terms_vanish(pi, label: str):
    for k in range(1, len(pi), 2):
        _require(pi[k] == 0, f"{label}: pi_{k} = {pi[k]}, odd periods must vanish")


def _prefix_equal(got, want, label: str):
    n = min(len(got), len(want))
    for k in range(n):
        _require(got[k] == want[k], f"{label}: pi_{k} = {got[k]}, expected {want[k]}")


# ---------------------------------------------------------------------------
# per-operation checks
# ---------------------------------------------------------------------------


def check_period(text: str, expect: dict, refs: References) -> list[int]:
    doc = json.loads(text)
    genus, parity, order = expect["genus"], expect["parity"], expect["order"]
    label = f"g{genus}e{parity}"
    _require(doc["fingerprint"] == label, f"fingerprint {doc['fingerprint']}, expected {label}")
    pi = doc["pi"]
    _require(doc["order"] == order and len(pi) == order + 1, f"{label}: wrong length")
    _require(pi[0] == 1, f"{label}: pi_0 = {pi[0]}")
    _odd_terms_vanish(pi, label)
    if doc["method"] == "brute":
        _prefix_equal(pi, refs.trace_periods(genus, parity, order), label + " vs trace formula")
    else:
        for want, what in ((refs.brute_necklace(genus, parity), " vs brute force"),
                           (refs.kernel_periods(genus, parity, order), " vs kernel traces")):
            if want is not None:
                _prefix_equal(pi, want, label + what)
    return pi


def check_glue(text: str, expect: dict, refs: References) -> list[int]:
    doc = json.loads(text)
    genus, parity, order = expect["genus"], expect["parity"], expect["order"]
    label = f"glued g{genus}e{parity}"
    _require(doc["leaf_vars"] == [], f"{label}: leaves left open {doc['leaf_vars']}")
    pi = []
    for d, row in enumerate(doc["coefficients"]):
        _require(row["degree"] == d and set(row["terms"]) <= {""}, f"{label}: bad row {d}")
        pi.append(_integral(Fraction(row["terms"].get("", "0")) * math.factorial(d)))
    _require(len(pi) == order + 1, f"{label}: wrong length")
    _odd_terms_vanish(pi, label)
    _prefix_equal(pi, refs.trace_periods(genus, parity, order), label + " vs closed graph")
    return pi


def check_table(text: str, expect: dict, refs: References):
    rows = list(csv.reader(io.StringIO(text)))
    columns = [(g, p) for g in range(2, expect["genus_max"] + 1) for p in (0, 1)]
    _require(rows[0] == ["k"] + [f"g{g}e{p}" for g, p in columns], "table header")
    _require(len(rows) == expect["order"] + 2, "table length")
    for k, row in enumerate(rows[1:]):
        _require(int(row[0]) == k, f"table row {k} is numbered {row[0]}")
    for c, (g, p) in enumerate(columns, start=1):
        pi = [int(row[c]) for row in rows[1:]]
        label = f"table g{g}e{p}"
        _require(pi[0] == 1, f"{label}: pi_0 = {pi[0]}")
        _odd_terms_vanish(pi, label)
        if (g, p) == (2, 1):
            for n in range(len(pi) // 2 + 1):
                if 2 * n < len(pi):
                    want = math.comb(2 * n, n) ** 3
                    _require(pi[2 * n] == want, f"{label}: pi_{2 * n} = {pi[2 * n]}, expected C(2n,n)^3")
        for want, what in ((refs.brute_necklace(g, p), " vs brute force"),
                           (refs.kernel_periods(g, p, expect["order"]), " vs kernel traces")):
            if want is not None:
                _prefix_equal(pi, want, label + what)


def bessel_square(order: int) -> list[Fraction]:
    """[t^d] B(2t)^2 with B(z) = sum_m z^(2m) / (m!)^2."""
    b = [Fraction(2 ** d, math.factorial(d // 2) ** 2) if d % 2 == 0 else Fraction(0)
         for d in range(order + 1)]
    return [sum(b[a] * b[d - a] for a in range(d + 1)) for d in range(order + 1)]


def check_kernel(text: str, expect: dict, refs: References):
    doc = json.loads(text)
    order = expect["order"]
    _require(doc["order"] == order, "kernel order")
    entries = {tuple(map(int, k.split(","))): [Fraction(c) for c in v]
               for k, v in doc["entries"].items()}
    totals = [Fraction(0)] * (order + 1)
    for (i, j), coeffs in entries.items():
        _require(len(coeffs) == order + 1, f"kernel entry {i},{j}: wrong length")
        _require((i + j) % 2 == 0, f"kernel entry {i},{j}: i + j is odd")
        _require(entries.get((j, i)) == coeffs, f"kernel entry {i},{j}: T1(x, y) != T1(y, x)")
        _require(entries.get((-i, -j)) == coeffs, f"kernel entry {i},{j}: T1(x, y) != T1(1/x, 1/y)")
        for d, c in enumerate(coeffs):
            if c:
                _require(d % 2 == 0 and max(abs(i), abs(j)) <= d,
                         f"kernel entry {i},{j}: nonzero at t^{d}")
            totals[d] += c
    want = bessel_square(order)
    for d in range(order + 1):
        _require(totals[d] == want[d], f"kernel entries at t^{d} sum to {totals[d]}, expected {want[d]}")


def _graph_invariants(doc) -> tuple[int, int]:
    """(genus, parity) of a graph document after checking it is a connected,
    leafless, trivalent graph; recomputed here, not with the library."""
    vertices = {v["id"]: v["color"] for v in doc["vertices"]}
    _require(len(vertices) == len(doc["vertices"]), "duplicate vertex ids")
    _require(not doc["leaves"], "unexpected leaves")
    _require(all(c in (0, 1) for c in vertices.values()), "color outside {0, 1}")
    degree = dict.fromkeys(vertices, 0)
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e in doc["edges"]:
        _require(len(e["ends"]) == 2 and all(x in vertices for x in e["ends"]),
                 f"edge {e['id']}: bad ends {e['ends']}")
        a, b = e["ends"]
        degree[a] += 1
        degree[b] += 1
        parent[find(a)] = find(b)
    _require(all(d == 3 for d in degree.values()), f"not trivalent: degrees {sorted(degree.values())}")
    _require(len({find(v) for v in vertices}) == 1, "not connected")
    return len(doc["edges"]) - len(vertices) + 1, sum(vertices.values()) % 2


def check_mutations(text: str, expect: dict, refs: References):
    doc = json.loads(text)
    _require(doc["certified"] is True, "a move was not certified")
    _require(doc["moves"] == len(doc["graphs"]) > 0, "move count")
    _require(1 <= doc["classes"] <= doc["moves"] + 1, "class count")
    for k, g in enumerate(doc["graphs"]):
        genus, parity = _graph_invariants(g)
        _require((genus, parity) == (expect["genus"], expect["parity"]),
                 f"move {k}: genus {genus} parity {parity}, expected "
                 f"{expect['genus']} and {expect['parity']}")


def check_pass_lines(text: str, expect: dict, refs: References):
    lines = text.splitlines()
    _require(len(lines) == expect["count"], f"{len(lines)} lines, expected {expect['count']}")
    for line in lines:
        _require(line.startswith("PASS "), f"not a pass: {line}")


CHECKS = {
    "period": check_period,
    "glue": check_glue,
    "table": check_table,
    "kernel": check_kernel,
    "mutations": check_mutations,
    "pass_lines": check_pass_lines,
}


def check_enumeration() -> list[str]:
    counts = [len(enumerate_trivalent(g)) for g in (2, 3)]
    return [] if counts == [2, 5] else [f"enumerate_trivalent(2), (3) gave {counts}, expected [2, 5]"]


def reach_genus3() -> str | None:
    """The uncolored search over mutate() from the genus-3 necklace must
    reach all 5 genus-3 classes (OEIS A005967).  Returns the shortfall, or
    None when it reaches them all."""
    from jobs import representative, search

    doc = search(representative(canonical_form(necklace_graph(3))))
    if doc["classes"] == 5:
        return None
    return (f"the genus-3 mutation search reached {doc['classes']} of 5 classes: "
            "elementary_transformation takes only one of the two re-pairings at an edge")


def check_round(outputs, refs: References) -> list[str]:
    """Check one round: ``outputs`` holds (op, stdout text) for each operation
    that exited 0.  Returns the problems found."""
    problems = []
    sequences: dict = {}
    for op, text in outputs:
        try:
            pi = CHECKS[op.expect["check"]](text, op.expect, refs)
        except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{op.id}: {type(exc).__name__}: {exc}")
            continue
        if pi is not None:
            e = op.expect
            sequences.setdefault((e["genus"], e["parity"], e["order"]), {})[op.id] = pi
    for (g, p, order), by_op in sorted(sequences.items()):
        if len({tuple(v) for v in by_op.values()}) != 1:
            problems.append(f"g{g}e{p} at order {order}: graphs disagree: {sorted(by_op)}")
    return problems


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def _cli(*argv) -> str:
    from graphpotentials.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"graphpot {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _rejects(check, text, expect, refs) -> bool:
    try:
        check(text, expect, refs)
    except CheckError:
        return True
    return False


def self_test() -> list[tuple[str, bool]]:
    """Each check accepts a good result and rejects the same result corrupted."""
    from jobs import search

    refs = References()
    results = []

    def case(name, check, good, bad, expect):
        check(good, expect, refs)  # a good result must pass
        results.append((name, _rejects(check, bad, expect, refs)))

    period = _cli("period", "--genus", "3", "--parity", "1", "--order", "8", "--method", "brute", "--json")
    doc = json.loads(period)
    doc["pi"][6] += 2
    case("altered period", check_period, period, json.dumps(doc),
         {"genus": 3, "parity": 1, "order": 8})

    table = _cli("table", "--genus-max", "3", "--order", "8")
    rows = [r.split(",") for r in table.splitlines()]
    rows[5][3] = str(int(rows[5][3]) + 2)  # k = 4, column g3e0
    case("altered table cell", check_table, table, "\n".join(",".join(r) for r in rows) + "\n",
         {"genus_max": 3, "order": 8})

    kernel = _cli("kernel", "--order", "6")
    doc = json.loads(kernel)
    doc["entries"]["0,0"][4] = str(Fraction(doc["entries"]["0,0"][4]) + 1)
    case("altered kernel entry", check_kernel, kernel, json.dumps(doc), {"order": 6})

    moves = search(necklace_graph(3, parity=1), max_depth=1)
    good = json.dumps(moves)
    moves = copy.deepcopy(moves)
    four = necklace_graph(4, parity=1)
    moves["graphs"][0] = {
        "vertices": [{"id": v.id, "color": v.color} for v in four.vertices],
        "edges": [{"id": e.id, "ends": list(e.ends)} for e in four.edges],
        "leaves": []}
    case("changed genus", check_mutations, good, json.dumps(moves), {"genus": 3, "parity": 1})
    return results
