"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  All comparisons are exact; the only tolerances are the wall
clock bounds, which are generous on purpose.
"""

import time
from fractions import Fraction
from itertools import product
from math import comb, factorial

from graphpotentials import potential
from graphpotentials.algebra import LaurentPoly
from graphpotentials.graphs import (
    canonical_form,
    dumbbell_graph,
    elementary_transformation,
    enumerate_trivalent,
    make_graph,
    necklace_graph,
    theta_graph,
    with_colors,
)
from graphpotentials.mutation import mutate, verify_mutation
from graphpotentials.periods import periods_bruteforce, periods_of_graph
from graphpotentials.potential import grassmannian_limit, graph_potential, vertex_potential
from graphpotentials.tqft import (
    flip_operator,
    glue,
    k_state,
    kernel_matmul,
    necklace_state,
    t1_kernel,
    trace_formula,
    trace_formula_table,
    wdvv_check,
)

GENUS2_EVEN = {0: 1, 4: 384, 8: 645120, 12: 1513881600}
GENUS2_ODD = {0: 1, 2: 8, 4: 216, 6: 8000, 8: 343000, 10: 16003008, 12: 788889024}


def report(num: int, text: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


def expand(nonzero, order):
    return tuple(nonzero.get(k, 0) for k in range(order + 1))


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_criterion_01_genus2_odd_periods():
    brute, tb = timed(lambda: periods_of_graph(theta_graph(1), 12, method="brute"))
    tqft, tt = timed(lambda: periods_of_graph(theta_graph(1), 12, method="tqft"))
    want = expand(GENUS2_ODD, 12)
    ok = brute.pi == want and tqft.pi == want and tb < 1.0 and tt < 1.0
    report(1, f"genus-2 odd periods, brute {tb:.3f}s / tqft {tt:.3f}s", ok)


def test_criterion_02_genus2_even_periods():
    brute, tb = timed(lambda: periods_of_graph(theta_graph(), 12, method="brute"))
    tqft, tt = timed(lambda: periods_of_graph(theta_graph(), 12, method="tqft"))
    want = expand(GENUS2_EVEN, 12)
    ok = brute.pi == want and tqft.pi == want and tb < 1.0 and tt < 1.0
    report(2, f"genus-2 even periods, brute {tb:.3f}s / tqft {tt:.3f}s", ok)


def test_criterion_03_central_binomial_closed_form():
    t = trace_formula(2, 1, 16)
    ok = all(t[2 * n] * factorial(2 * n) == comb(2 * n, n) ** 3
             for n in range(9))
    report(3, "genus-2 odd periods equal C(2n,n)^3 for n <= 8", ok)


def test_criterion_04_genus3_oracle_equivalence():
    # the paper's claim over every class: the periods depend only on genus
    # and coloring parity, so brute force on any graph equals one column of
    # the trace-formula table
    table, tt = timed(lambda: trace_formula_table(5, 10))
    ok = tt < 5.0
    checked = 0
    slowest = 0.0
    for genus_ in range(2, 6):
        order = 10 if genus_ <= 4 else 8
        for g0 in enumerate_trivalent(genus_):
            if genus_ <= 3:
                # every coloring: V <= 4 gives at most 16
                vids = [v.id for v in g0.vertices]
                colorings = [with_colors(g0, dict(zip(vids, bits)))
                             for bits in product((0, 1), repeat=len(vids))]
            else:
                colorings = [with_colors(g0, {g0.vertices[0].id: parity}) for parity in (0, 1)]
            for g in colorings:
                brute, tb = timed(lambda: periods_of_graph(g, order, method="brute"))
                slowest = max(slowest, tb)
                checked += 1
                want = table[(genus_, g.coloring_parity())][:order + 1]
                ok = ok and brute.pi == want and tb <= 60.0
    report(4, f"every class at genus 2-5 at both parities, every coloring through "
              f"genus 3: brute == trace formula at K=10 (K=8 at genus 5), "
              f"{checked} graphs (slowest brute {slowest:.2f}s, table {tt:.2f}s)", ok)


def test_criterion_05_mutation_suite():
    cache = {}

    def periods8(bundle):
        key = canonical_form(bundle.graph)
        if key not in cache:
            cache[key] = periods_bruteforce(bundle.potential, 8).pi
        return cache[key]

    checked = 0
    ok = True
    for g0 in enumerate_trivalent(2) + enumerate_trivalent(3):
        colorings = [g0] + [with_colors(g0, {v.id: 1}) for v in g0.vertices]
        for g in colorings:
            bundle = graph_potential(g)
            source = periods8(bundle)
            for e in g.edges:
                if e.ends[0] == e.ends[1]:
                    continue
                checked += 1
                if not verify_mutation(bundle, e.id):
                    ok = False
                    continue
                mutated, cert = mutate(bundle, e.id)
                if not cert.product_identity_checked or periods8(mutated) != source:
                    ok = False
    report(5, f"mutation suite over genus 2-3, all colorings mod boundary "
              f"moves ({checked} edge mutations, zero failures)", ok)


def test_criterion_06_theta_dumbbell():
    ok = True
    for parity in (0, 1):
        out = elementary_transformation(theta_graph(parity), "a")
        ok = ok and canonical_form(out) == canonical_form(dumbbell_graph(parity))
        pt = periods_of_graph(theta_graph(parity), 12, method="brute")
        pd = periods_of_graph(dumbbell_graph(parity), 12, method="brute")
        ok = ok and pt.pi == pd.pi
    report(6, "theta <-> dumbbell: rewiring maps one to the other, periods "
              "agree through K=12", ok)


def test_criterion_07_bessel_product_and_glue():
    state = k_state(necklace_graph(1, open_ends=True, parity=1), 8)
    xy = ("x", "y")

    def bessel_of(p):
        coeffs = [LaurentPoly.zero(xy) for _ in range(9)]
        for m in range(5):
            power = p ** (2 * m)
            coeffs[2 * m] = LaurentPoly(power.vars, {
                e: c / Fraction(factorial(m)) ** 2 for e, c in power.terms.items()})
        return coeffs

    left = bessel_of(LaurentPoly(xy, {(1, 0): Fraction(1), (0, -1): Fraction(1)}))
    right = bessel_of(LaurentPoly(xy, {(-1, 0): Fraction(1), (0, 1): Fraction(1)}))
    product = [sum((left[a] * right[d - a] for a in range(1, d + 1)), left[0] * right[d])
               for d in range(9)]
    ok = [LaurentPoly(xy, {e: Fraction(c, factorial(d)) for e, c in t.items()})
          for d, t in enumerate(state.terms)] == product
    ok = ok and state == necklace_state(1, 1, 8)
    ok = ok and glue(state, "x", "y").scalar_series() == trace_formula(2, 1, 8)
    report(7, "open genus-1 state is the Bessel product; gluing gives the "
              "genus-2 trace", ok)


def test_criterion_08_wdvv(monkeypatch):
    (ok_even, t_even) = timed(lambda: wdvv_check(0, 6))
    (ok_odd, t_odd) = timed(lambda: wdvv_check(1, 6))

    def corrupted(slots, parity):
        w = vertex_potential(slots, parity)
        return w - LaurentPoly(w.vars, {min(w.terms): 1})

    monkeypatch.setattr(potential, "vertex_potential", corrupted)
    corrupted_fails = not wdvv_check(0, 6)
    ok = ok_even and ok_odd and corrupted_fails and (t_even + t_odd) < 30.0
    report(8, f"four-point symmetry at order 6, both parities "
              f"({t_even + t_odd:.1f}s); corrupted potential fails", ok)


def test_criterion_09_operator_identities():
    a = t1_kernel(12)
    s = flip_operator(12)
    ss = kernel_matmul(s, s)
    ok = all(ss.entry(i, j)[0] == (1 if i == j else 0)
             and all(c == 0 for c in ss.entry(i, j)[1:])
             for i in range(-12, 13) for j in range(-12, 13))
    ok = ok and kernel_matmul(a, s) == kernel_matmul(s, a)
    for i in range(-12, 13):
        for j in range(-12, 13):
            e = a.entry(i, j)
            ok = ok and e == a.entry(j, i) == a.entry(-i, -j)
            ok = ok and all(c == 0 for k, c in enumerate(e)
                            if k % 2 or (i + j) % 2 or max(abs(i), abs(j)) > k)
    report(9, "S^2 = I, AS = SA, A symmetric and flip invariant, parity and "
              "support bounds at order 12", ok)


def test_criterion_10_integrality():
    # the table's columns are integers by construction; k! times the Laplace
    # series' coefficient must be the same integer
    table = trace_formula_table(10, 16)
    ok = set(table) == {(g, p) for g in range(2, 11) for p in (0, 1)}
    for (g, parity), pi in table.items():
        hat = trace_formula(g, parity, 16)
        ok = ok and all(type(x) is int and x == hat[k] * factorial(k) for k, x in enumerate(pi))
    report(10, "k! pi_hat_k integral for g <= 10, both parities, k <= 16", ok)


def test_criterion_11_table_scaling():
    # brute force at genus 10 would need constant terms of a 27-variable
    # Laurent polynomial to the 16th power and is not attempted; the trace
    # computation handles every genus with the same matrices
    table, wall = timed(lambda: trace_formula_table(10, 16))
    ok = wall < 60.0 and len(table) == 18
    report(11, f"trace table g=2..10 at order 16 in {wall:.2f}s", ok)


def test_criterion_12_grassmannian_limit():
    g = make_graph([("v", 0)], [],
                   [("X", "v", "out"), ("Y", "v", "out"), ("Z", "v", "out")])
    w = grassmannian_limit(g, {"v": "X"})
    want = LaurentPoly(("X", "Y", "Z"), {
        (-1, 1, 1): Fraction(1), (1, 1, -1): Fraction(1), (1, -1, 1): Fraction(1)})
    report(12, "single vertex degenerates to YZ/X + XY/Z + ZX/Y", w == want)
