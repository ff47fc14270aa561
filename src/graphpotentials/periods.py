"""Period sequences: constant terms of powers of a graph potential.

pi_k = [W^k]_0 is computed by brute force, meeting in the middle:

    pi_k = sum_e [W^ceil(k/2)]_e * [W^floor(k/2)]_{-e},

so only the powers of W up to W^ceil(K/2) are expanded for periods up to
order K, each once and in full, without support pruning.  The walk keeps
exact integer (or Fraction) coefficients in dicts keyed by packed exponent
vectors; it is the only brute-force engine, and the trace formula in
``tqft`` is the independent check on it.

:func:`walk_terms` is the one entry to the walk.  Boundary states of open
graphs (``tqft.k_state``) and the four-point check (``tqft.wdvv_check``)
run it too: there some variables are kept rather than summed out, the two
half-powers are paired on opposite summed-out exponents and their kept
exponents add, so a period is the state of a graph without leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LaurentPoly, TSeries
from .graphs import ColoredGraph, genus, homology_ranks_f2, require_valid
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

    Degree d pairs the half-powers W^ceil(d/2) and W^floor(d/2): a term of
    one with summed-out exponents s meets each term of the other with
    summed-out exponents -s, and their kept exponents add.  Only the powers
    up to W^ceil(order/2) are built, two consecutive ones at a time.

    An exponent tuple e travels as the integer sum_i e[i] * b^i, the summed-
    out exponents in the low digits.  No exponent met here exceeds
    w * order in absolute value, where w bounds those of W, so with the odd
    base b = 2 * w * order + 1 every digit lies in (-b/2, b/2): adding or
    negating the integers adds or negates the tuples, and the low n digits
    of a key read back as the balanced remainder modulo b^n.
    """
    n = nvars - kept
    b = 2 * order * max((abs(x) for e, _ in monomials for x in e), default=0) + 1
    packed = [(sum(x * b ** i for i, x in enumerate(e)), c) for e, c in monomials]
    prev = power = {0: 1}
    out = [{(0,) * kept: 1}]
    for j in range(1, (order + 1) // 2 + 1):
        nxt: dict[int, int] = {}
        get = nxt.get
        for e, c in power.items():
            for me, mc in packed:
                f = e + me
                nxt[f] = get(f, 0) + c * mc
        prev, power = power, nxt
        out.append(_pair(power, prev, b, n, kept))
        if 2 * j <= order:
            out.append(_pair(power, power, b, n, kept))
    return out


def _pair(big: dict, small: dict, b: int, n: int, kept: int) -> dict:
    """Constant term in the n low digits of the product of two packed powers,
    as a dict from the ``kept`` high digits, unpacked, to nonzero
    coefficients.

    The terms of ``small`` are grouped on their summed-out part, and each
    term of ``big`` looks up the group that cancels it.
    """
    if not kept:  # one number: no groups, no kept exponents to add
        total = sum(c * small.get(-e, 0) for e, c in big.items())
        return {(): total} if total else {}
    m = b ** n
    half = m // 2
    groups: dict[int, list] = {}
    for e, c in small.items():
        low = (e + half) % m - half
        groups.setdefault(-low, []).append(((e - low) // m, c))
    acc: dict[int, int] = {}
    for e, c in big.items():
        low = (e + half) % m - half
        high = (e - low) // m
        for hs, cs in groups.get(low, ()):
            f = high + hs
            acc[f] = acc.get(f, 0) + c * cs
    return {_unpack(k, b, kept): c for k, c in acc.items() if c}


def _unpack(key: int, b: int, width: int) -> tuple:
    """The ``width`` balanced base-b digits of key, lowest first."""
    digits = []
    for _ in range(width):
        d = (key + b // 2) % b - b // 2
        digits.append(d)
        key = (key - d) // b
    return tuple(digits)


def walk_terms(p: LaurentPoly, order: int, kept: tuple[str, ...] = ()) -> list[dict]:
    """Terms of p^d constant in every variable not in ``kept``, d = 0..order.

    Degree d maps the exponents of the kept variables, in ``p.vars`` order,
    to exact coefficients, integral ones as ints.  Nothing kept gives the
    periods; the leaf variables kept give a boundary state.
    """
    if not set(kept) <= set(p.vars):
        raise ValueError(f"kept variables {sorted(set(kept) - set(p.vars))} not in {p.vars}")
    perm = sorted(range(len(p.vars)), key=lambda i: p.vars[i] in kept)  # kept ones last
    monomials = [(tuple(e[i] for i in perm), c.numerator if c.denominator == 1 else c)
                 for e, c in p.terms.items()]
    return _walk(monomials, len(p.vars), order, len(set(kept)))


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
    return [t.get((), 0) for t in walk_terms(p, order)]


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
    if method == "brute":
        potential = graph_potential(g).potential  # validates g
    else:
        require_valid(g)
    if g.leaves:
        raise ValueError("periods are defined for leafless graphs")
    h0, h1 = homology_ranks_f2(g)
    if h0 != 1:
        raise ValueError("periods are defined for connected graphs")
    fp = graph_fingerprint(g)
    if method == "brute":
        return periods_bruteforce(potential, order, fp)
    if method == "tqft":
        from .tqft import trace_formula

        hat = trace_formula(h1, g.coloring_parity(), order)
        return PeriodSequence(order, periods_from_laplace(hat), fp)
    raise ValueError(f"unknown method {method!r}")
