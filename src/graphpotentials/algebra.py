"""Exact sparse Laurent-polynomial and truncated power-series arithmetic.

Everything here is exact: exponents are arbitrary Python ints, and each
coefficient is kept as the arithmetic produces it, an ``int`` or a
``fractions.Fraction``.  Integer inputs give integer coefficients, so a graph
potential and its powers stay ``int``; a Fraction appears only where one
goes in, as a Fraction coefficient or scalar (a division by d!, say).  A
``bool`` is stored as the ``int`` it equals, and any other type raises
``TypeError``: ``_record.scalar`` judges each one, importing ``fractions``
only at a non-int.  A Laurent polynomial is a dict from exponent tuples to
nonzero coefficients, keyed by a canonical sorted variable order fixed at
construction; an exponent is exactly an ``int``, and any other raises
``ValueError``.  A series truncated at order K is a plain tuple of K + 1
coefficients, entry d that of t^d; a pairing of two is truncated to the
shorter one.

The symbolic references are their formulas.  Substituting x = n/d into
p = sum_k p_k x^k puts every term over one common denominator,
``sum_k p_k n^(k - lo) d^(hi - k) / (n^-lo d^hi)`` with lo = min(0, min k) and
hi = max(0, max k).  The residue pairing of two polynomials along x is the
constant term in x of one product, ``[p(x) q(1/x)]_0``.  A rational
expression prints with its monomial content divided out, the per-variable
minimum exponent over the terms of its numerator and denominator.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Mapping, Sequence

from ._record import Record, checked_int, scalar

Exponents = tuple  # tuple[int, ...], length == len(vars)


def _sorted_unique(variables: Sequence[str]) -> tuple[str, ...]:
    vs = tuple(variables)
    if list(vs) != sorted(set(vs)):
        raise ValueError(f"variables must be sorted and unique, got {vs!r}")
    return vs


def _accumulate(out: dict, terms: Iterable[tuple[Exponents, int | Fraction]]) -> dict:
    """Add each (exponents, coefficient) pair into ``out``, which holds no
    zeros and holds none after: a key whose sum is zero is deleted."""
    get = out.get
    for e, c in terms:
        acc = get(e)
        if acc is not None:
            c = acc + c
        if c:
            out[e] = c
        elif acc is not None:
            del out[e]
    return out


class LaurentPoly:
    """Sparse Laurent polynomial over Q with a fixed, sorted variable tuple.

    Binary operations require both operands to carry the same variable
    tuple; use :meth:`embed` to move a polynomial into a larger variable
    set first.  Scalars are accepted on either side of ``+``, ``-`` and ``*``.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[Exponents, int | Fraction] | None = None):
        self.vars = _sorted_unique(variables)
        self.terms = _accumulate({}, (self._term(e, c) for e, c in (terms or {}).items()))

    def _term(self, exps, c) -> tuple[Exponents, int | Fraction]:
        e = tuple(exps)
        if len(e) != len(self.vars):
            raise ValueError(f"exponent tuple {e!r} does not match {len(self.vars)} variables")
        if not all(type(x) is int for x in e):  # a float is not Laurent, True prints as True
            raise ValueError(f"exponent tuple {e!r} holds a non-int")
        if (coeff := scalar(c)) is None:
            raise TypeError(f"expected an int or Fraction coefficient, got {type(c).__name__}")
        return e, coeff

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "LaurentPoly":
        return cls(variables, {})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "LaurentPoly":
        return cls(variables, {(0,) * len(tuple(variables)): 1})

    @classmethod
    def constant(cls, variables: Sequence[str], c: int | Fraction) -> "LaurentPoly":
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str, power: int = 1) -> "LaurentPoly":
        vs = tuple(variables)
        e = [0] * len(vs)
        e[vs.index(name)] = power
        return cls(vs, {tuple(e): 1})

    # ---- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Exponents]:
        """Sorted exponent vectors with nonzero coefficient."""
        return sorted(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.vars == other.vars and self.terms == other.terms
        c = scalar(other)
        return NotImplemented if c is None else self == LaurentPoly.constant(self.vars, c)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # ---- ring operations ------------------------------------------------

    def _operand(self, other) -> "LaurentPoly | None":
        """``other`` over these variables, a scalar as a constant; None if not a scalar."""
        if not isinstance(other, LaurentPoly):
            c = scalar(other)
            return None if c is None else LaurentPoly.constant(self.vars, c)
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars!r} vs {other.vars!r}")
        return other

    def __add__(self, other):
        if (other := self._operand(other)) is None:
            return NotImplemented
        return self._raw(self.vars, _accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if (other := self._operand(other)) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if (other := self._operand(other)) is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            c = scalar(other)
            if c is None:
                return NotImplemented
            if c == 0:
                return LaurentPoly.zero(self.vars)
            return self._raw(self.vars, {e: k * c for e, k in self.terms.items()})
        pairs = self._operand(other).terms.items()
        return self._raw(self.vars, _accumulate({}, (
            (tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in self.terms.items() for e2, c2 in pairs)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """p^n by square-and-multiply from p: per bit of n below the top, square, times p if set."""
        if not checked_int(n, 0, what="power"):
            return self._raw(self.vars, {(0,) * len(self.vars): 1})
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    @classmethod
    def _raw(cls, variables, terms) -> "LaurentPoly":
        # internal: terms already normalized (no zeros, right arity)
        p = cls.__new__(cls)
        p.vars = variables
        p.terms = terms
        return p

    # ---- structural operations -----------------------------------------

    def embed(self, variables: Sequence[str]) -> "LaurentPoly":
        """Reinterpret over a larger sorted variable tuple."""
        vs = tuple(variables)
        if vs == self.vars:
            return self
        for v in self.vars:
            if v not in vs:
                raise ValueError(f"variable {v!r} missing from target {vs!r}")
        return sum_over(vs, [self])

    def by_degree(self, name: str) -> dict[int, "LaurentPoly"]:
        """{k: coefficient of name**k}, each over the other variables.

        Only the degrees that occur are keys, in the order of the terms.
        """
        i = self.vars.index(name)
        parts: dict[int, dict] = {}
        for e, c in self.terms.items():
            # exponent tuples are distinct, so are their rests within a degree
            parts.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
        rest = self.vars[:i] + self.vars[i + 1:]
        return {k: LaurentPoly._raw(rest, t) for k, t in parts.items()}

    def negate_var(self, name: str) -> "LaurentPoly":
        """Substitute ``name -> name**-1``."""
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            f = list(e)
            f[i] = -f[i]
            out[tuple(f)] = c
        return LaurentPoly._raw(self.vars, out)

    # ---- display ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = [f"{v}^{k}" if k != 1 else v
                       for v, k in zip(self.vars, e) if k != 0]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({self.vars!r}, {dict(sorted(self.terms.items()))!r})"


def sum_over(variables: Sequence[str], polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """The sum of ``polys``, each over a subset of the sorted ``variables``,
    as one polynomial over ``variables``, added term by term in one pass."""
    vs = _sorted_unique(variables)
    index = {v: i for i, v in enumerate(vs)}

    def spread():
        for p in polys:
            pos = [index[v] for v in p.vars]
            for e, c in p.terms.items():
                out = [0] * len(vs)
                for i, x in zip(pos, e):
                    out[i] = x
                yield tuple(out), c

    return LaurentPoly._raw(vs, _accumulate({}, spread()))


# ---------------------------------------------------------------------------
# rational expressions
# ---------------------------------------------------------------------------


class RationalExpr(Record):
    """Quotient of Laurent polynomials over a common variable tuple.

    Stored as given.  Equality is decided by cross-multiplication
    (:func:`rexpr_equal`), which needs no normal form.  The printed form is
    normalized by monomial content only: the common per-variable minimum
    exponent of numerator and denominator is divided out, no polynomial
    gcd is attempted.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if num.vars != den.vars:
            raise ValueError("numerator and denominator must share variables")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self._set(num, den)

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "RationalExpr":
        return cls(p, LaurentPoly.one(p.vars))

    def __str__(self) -> str:
        # times x^-m for m the least exponent of each x over both parts
        lows = zip(*self.num.terms, *self.den.terms)
        monomial = LaurentPoly._raw(self.num.vars, {tuple(-min(k) for k in lows): 1})
        num, den = self.num * monomial, self.den * monomial
        if den == LaurentPoly.one(den.vars):
            return str(num)
        return f"({num}) / ({den})"


def rexpr_equal(a: RationalExpr, b: RationalExpr) -> bool:
    """Exact equality by cross-multiplication."""
    vs = sorted(set(a.num.vars) | set(b.num.vars))
    return a.num.embed(vs) * b.den.embed(vs) == b.num.embed(vs) * a.den.embed(vs)


def rexpr_substitute(p: LaurentPoly, name: str, value: RationalExpr) -> RationalExpr:
    """p = sum_k p_k x^k with its variable x = ``name`` replaced by ``value`` = n/d.

    Over the common denominator, with lo = min(0, min k) and hi = max(0, max k):
    ``sum_k p_k n^(k - lo) d^(hi - k) / (n^-lo d^hi)``.  The variable may
    reappear inside ``value`` (as in the mutation change of coordinates); the
    result lives over the union of the remaining variables and the variables
    of ``value``.
    """
    if name not in p.vars:
        raise ValueError(f"unknown variable {name!r}")
    parts = p.by_degree(name)
    target = tuple(sorted((set(p.vars) - {name}) | set(value.num.vars)))
    degrees = [0, *parts]
    lo, hi = min(degrees), max(degrees)
    n, d = value.num.embed(target), value.den.embed(target)
    num = sum((part.embed(target) * n ** (k - lo) * d ** (hi - k) for k, part in parts.items()),
              LaurentPoly.zero(target))
    return RationalExpr(num, n ** -lo * d ** hi)


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------


def ts_exp(w: LaurentPoly, order: int) -> tuple[LaurentPoly, ...]:
    """exp(t*w) truncated at the given order: entry k is w**k / k!.

    With :func:`pairing_in_var`, the reference the tests check the gluing of
    ``periods.walk_terms`` against: that engine keeps w**k, unscaled."""
    from fractions import Fraction

    checked_int(order, 0, what="order")
    coeffs = [LaurentPoly.one(w.vars)]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * w * Fraction(1, k))
    return tuple(coeffs)


def _pair_polys(p: LaurentPoly, q: LaurentPoly, name: str) -> LaurentPoly:
    """``[p * q(name -> name**-1)]_0``, the constant term in ``name``, over
    the other variables of both."""
    vs = tuple(sorted(set(p.vars) | set(q.vars) | {name}))
    product = p.embed(vs) * q.embed(vs).negate_var(name)
    return product.by_degree(name).get(0, LaurentPoly.zero(tuple(v for v in vs if v != name)))


def pairing_in_var(f: Sequence[LaurentPoly], g: Sequence[LaurentPoly],
                   name: str) -> tuple[LaurentPoly, ...]:
    """Residue pairing of two truncated series with Laurent-polynomial
    coefficients, truncated to the shorter one.

    Entry d of the result is ``sum_{a+b=d} [f_a(...) g_b(... name^-1 ...)]``
    with the constant term taken in ``name``, which is removed from the
    coefficient variables: gluing along ``name``; with :func:`ts_exp`, the engine's reference.
    """
    out = []
    for k in range(min(len(f), len(g))):
        acc = None
        for a in range(k + 1):
            t = _pair_polys(f[a], g[k - a], name)
            acc = t if acc is None else acc + t
        out.append(acc)
    return tuple(out)
