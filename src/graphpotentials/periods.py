"""Period sequences: constant terms of powers of a graph potential.

pi_k = [W^k]_0 is computed by brute force as a running product with
support pruning: after k of K factors, a term can still contribute to a
constant term only if every exponent satisfies |e_i| <= w_i * (K - k) and
the exponent 1-norm is at most L * (K - k), where w_i and L bound the
per-step change.  The walk keeps exact integer (or Fraction) coefficients
in a dict keyed by exponent tuples; it is the only brute-force engine, and
the trace formula in ``tqft`` is the independent check on it.

Boundary states of open graphs (``tqft.k_state``) run the same walk: there
the leaf variables are kept rather than summed out, and only the internal
edge exponents are pruned, so a period is the state of a graph without
leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LaurentPoly, TSeries
from .graphs import ColoredGraph, genus, homology_ranks_f2, validate
from .potential import graph_potential


@dataclass(frozen=True)
class PeriodSequence:
    order: int
    pi: tuple[int, ...]
    graph_fingerprint: str | None = None

    def __post_init__(self):
        if len(self.pi) != self.order + 1:
            raise ValueError(f"need {self.order + 1} values, got {len(self.pi)}")
        if self.pi[0] != 1:
            raise ValueError("pi[0] must be 1")


@dataclass(frozen=True)
class LaplaceSequence:
    order: int
    pi_hat: tuple[Fraction, ...]
    graph_fingerprint: str | None = None


def _walk(monomials, nvars: int, order: int, kept: int) -> list[dict]:
    """Terms of W^d constant in the summed-out variables, for d = 0..order.

    The last ``kept`` of the ``nvars`` exponents are kept and the others
    summed out; degree d maps kept exponent tuples to exact coefficients.
    Only the summed-out exponents are pruned, so with no kept variables the
    walk gives periods and with leaf variables kept it gives boundary states.
    """
    n = nvars - kept
    w = [max((abs(e[i]) for e, _ in monomials), default=0) for i in range(n)]
    norm = max((sum(abs(x) for x in e[:n]) for e, _ in monomials), default=0)
    cur = {(0,) * nvars: 1}
    out = [{(0,) * kept: 1}]
    for k in range(1, order + 1):
        rem = order - k
        cap = [wi * rem for wi in w]
        norm_cap = norm * rem
        nxt: dict[tuple, int] = {}
        for e, c in cur.items():
            for me, mc in monomials:
                f = tuple(a + b for a, b in zip(e, me))
                s = f[:n] if kept else f  # a slice costs time even when it is all of f
                if sum(abs(x) for x in s) > norm_cap:
                    continue
                if any(abs(x) > cap[i] for i, x in enumerate(s)):
                    continue
                nxt[f] = nxt.get(f, 0) + c * mc
        cur = {e: c for e, c in nxt.items() if c}
        out.append({e[n:]: c for e, c in cur.items() if not any(e[:n])})
    return out


def _monomials(p: LaurentPoly) -> list:
    """(exponents, coefficient) pairs of p, integral coefficients as ints."""
    return [(e, c.numerator if c.denominator == 1 else c) for e, c in p.terms.items()]


def _check_backend(backend: str) -> None:
    if backend not in ("auto", "pure"):
        raise ValueError(f"unknown backend {backend!r}: the exact dict walk is the "
                         "only brute-force engine, named 'auto' or 'pure'")


def constant_terms_of_powers(p: LaurentPoly, order: int, backend: str = "auto") -> list:
    """[p^k]_0 for k = 0..order, exactly.

    ``backend`` is checked, not chosen: "auto" and "pure" both name the
    exact dict walk, and any other name raises ValueError.
    """
    _check_backend(backend)
    return [t.get((), 0) for t in _walk(_monomials(p), len(p.vars), order, 0)]


def periods_bruteforce(p: LaurentPoly, order: int,
                       fingerprint: str | None = None) -> PeriodSequence:
    values = constant_terms_of_powers(p, order)
    return PeriodSequence(order, tuple(values), fingerprint)


def inverse_laplace(seq: PeriodSequence) -> LaplaceSequence:
    """Divide out k!: pi_hat_k = pi_k / k!."""
    hat = tuple(Fraction(seq.pi[k], math.factorial(k)) for k in range(seq.order + 1))
    return LaplaceSequence(seq.order, hat, seq.graph_fingerprint)


def periods_from_laplace(hat: TSeries) -> tuple[int, ...]:
    """pi_k = k! * pi_hat_k for a Laplace-transformed period series.

    Raises ArithmeticError when some pi_k is not an integer.
    """
    pi = []
    for k, c in enumerate(hat.coeffs):
        v = c * math.factorial(k)
        if v.denominator != 1:
            raise ArithmeticError(f"period {k} is not integral: {v}")
        pi.append(v.numerator)
    return tuple(pi)


def graph_fingerprint(g: ColoredGraph) -> str:
    return f"g{genus(g)}e{g.coloring_parity()}"


def periods_of_graph(g: ColoredGraph, order: int, method: str = "brute",
                     backend: str = "auto") -> PeriodSequence:
    """Period sequence of a closed connected colored graph.

    ``method="brute"`` expands powers of the potential; ``method="tqft"``
    evaluates the trace formula at the graph's genus and coloring parity.
    Both agree; the tests cross-validate them.  ``backend`` is checked as
    in :func:`constant_terms_of_powers`.
    """
    _check_backend(backend)
    problems = validate(g)
    if problems:
        raise ValueError("invalid graph: " + "; ".join(problems))
    if g.leaves:
        raise ValueError("periods are defined for leafless graphs")
    h0, h1 = homology_ranks_f2(g)
    if h0 != 1:
        raise ValueError("periods are defined for connected graphs")
    fp = graph_fingerprint(g)
    if method == "brute":
        bundle = graph_potential(g)
        return periods_bruteforce(bundle.potential, order, fp)
    if method == "tqft":
        from .tqft import trace_formula

        hat = trace_formula(h1, g.coloring_parity(), order)
        return PeriodSequence(order, periods_from_laplace(hat), fp)
    raise ValueError(f"unknown method {method!r}")
