"""Period sequences: constant terms of powers of a graph potential.

pi_k = [W^k]_0 is computed by brute force as a running product with
support pruning: after k of K factors, a term can still contribute to a
constant term only if every exponent satisfies |e_i| <= w_i * (K - k) and
the exponent 1-norm is at most L * (K - k), where w_i and L bound the
per-step change.  The walk keeps exact integer (or Fraction) coefficients
in a dict keyed by exponent tuples; it is the only brute-force engine, and
the trace formula in ``tqft`` is the independent check on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LaurentPoly
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


def _pure_constant_terms(monomials, nvars: int, order: int) -> list:
    """Exact dict-based [W^k]_0 for k = 0..order with support pruning."""
    if nvars == 0:
        c = sum(c for _, c in monomials)
        return [c ** k for k in range(order + 1)]
    w = [max((abs(e[i]) for e, _ in monomials), default=0) for i in range(nvars)]
    norm = max((sum(abs(x) for x in e) for e, _ in monomials), default=0)
    zero = (0,) * nvars
    cur = {zero: 1}
    out = [1]
    for k in range(1, order + 1):
        rem = order - k
        cap = [wi * rem for wi in w]
        norm_cap = norm * rem
        nxt: dict[tuple, int] = {}
        for e, c in cur.items():
            for me, mc in monomials:
                f = tuple(a + b for a, b in zip(e, me))
                if sum(abs(x) for x in f) > norm_cap:
                    continue
                if any(abs(x) > cap[i] for i, x in enumerate(f)):
                    continue
                nxt[f] = nxt.get(f, 0) + c * mc
        cur = {e: c for e, c in nxt.items() if c}
        out.append(cur.get(zero, 0))
    return out


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
    monomials = [(e, c.numerator if c.denominator == 1 else c) for e, c in p.terms.items()]
    return _pure_constant_terms(monomials, len(p.vars), order)


def periods_bruteforce(p: LaurentPoly, order: int,
                       fingerprint: str | None = None) -> PeriodSequence:
    values = constant_terms_of_powers(p, order)
    return PeriodSequence(order, tuple(values), fingerprint)


def inverse_laplace(seq: PeriodSequence) -> LaplaceSequence:
    """Divide out k!: pi_hat_k = pi_k / k!."""
    hat = tuple(Fraction(seq.pi[k], math.factorial(k)) for k in range(seq.order + 1))
    return LaplaceSequence(seq.order, hat, seq.graph_fingerprint)


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
    fp = f"g{h1}e{g.coloring_parity()}"
    if method == "brute":
        bundle = graph_potential(g)
        return periods_bruteforce(bundle.potential, order, fp)
    if method == "tqft":
        from .tqft import trace_formula

        hat = trace_formula(h1, g.coloring_parity(), order)
        pi = []
        for k in range(order + 1):
            v = hat[k] * math.factorial(k)
            if v.denominator != 1:
                raise ArithmeticError(f"period {k} is not integral: {v}")
            pi.append(v.numerator)
        return PeriodSequence(order, tuple(pi), fp)
    raise ValueError(f"unknown method {method!r}")
