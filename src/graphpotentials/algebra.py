"""Exact sparse Laurent-polynomial and truncated power-series arithmetic.

Everything here is exact: exponents are arbitrary Python ints, and each
coefficient is kept as the arithmetic produces it, an ``int`` or a
``fractions.Fraction``.  Integer inputs give integer coefficients, so a graph
potential and its powers stay ``int``; a Fraction appears only where one
goes in, as a Fraction coefficient or scalar (a division by d!, say).  A
``bool`` is stored as the ``int`` it equals, and any other type raises
``TypeError``.  A Laurent polynomial is a dict from exponent tuples to
nonzero coefficients, keyed by a canonical sorted variable order fixed at
construction.  Truncated series carry their order explicitly and
all products are truncated to the smaller order of the operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Exponents = tuple  # tuple[int, ...], length == len(vars)


def _coefficient(x) -> Scalar:
    if type(x) is int or isinstance(x, Fraction):
        return x
    if isinstance(x, int):  # bool, which would print as True
        return int(x)
    raise TypeError(f"expected an int or Fraction coefficient, got {type(x).__name__}")


def _accumulate(out: dict, terms: Iterable[tuple[Exponents, Scalar]]) -> dict:
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
    set first.  Scalars are accepted on either side of ``+`` and ``*``.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Scalar] | None = None):
        vs = tuple(variables)
        if list(vs) != sorted(set(vs)):
            raise ValueError(f"variables must be sorted and unique, got {vs!r}")
        self.vars = vs
        self.terms = _accumulate({}, (self._term(e, c) for e, c in (terms or {}).items()))

    def _term(self, exps, c) -> tuple[Exponents, Scalar]:
        e = tuple(exps)
        if len(e) != len(self.vars):
            raise ValueError(f"exponent tuple {e!r} does not match {len(self.vars)} variables")
        return e, _coefficient(c)

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "LaurentPoly":
        return cls(variables, {})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "LaurentPoly":
        return cls(variables, {(0,) * len(tuple(variables)): 1})

    @classmethod
    def constant(cls, variables: Sequence[str], c: Scalar) -> "LaurentPoly":
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

    def constant_coefficient(self) -> Scalar:
        return self.terms.get((0,) * len(self.vars), 0)

    def support(self) -> list[Exponents]:
        """Sorted exponent vectors with nonzero coefficient."""
        return sorted(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.constant(self.vars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # ---- ring operations ------------------------------------------------

    def _check_same_vars(self, other: "LaurentPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars!r} vs {other.vars!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_vars(other)
        return self._raw(self.vars, _accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coefficient(other)
            if c == 0:
                return LaurentPoly.zero(self.vars)
            return self._raw(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_vars(other)
        pairs = other.terms.items()
        return self._raw(self.vars, _accumulate({}, (
            (tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in self.terms.items() for e2, c2 in pairs)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers of a Laurent polynomial")
        result = LaurentPoly.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
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
        pos = []
        for v in self.vars:
            if v not in vs:
                raise ValueError(f"variable {v!r} missing from target {vs!r}")
            pos.append(vs.index(v))
        n = len(vs)
        out = {}
        for e, c in self.terms.items():
            new = [0] * n
            for p, x in zip(pos, e):
                new[p] = x
            out[tuple(new)] = c
        return LaurentPoly(vs, out)

    def drop_vars(self, names: Iterable[str]) -> "LaurentPoly":
        """Remove variables that appear in no term."""
        drop = set(names)
        idx = [i for i, v in enumerate(self.vars) if v not in drop]
        for e in self.terms:
            for i, v in enumerate(self.vars):
                if v in drop and e[i] != 0:
                    raise ValueError(f"variable {v!r} still occurs with exponent {e[i]}")
        vs = tuple(self.vars[i] for i in idx)
        return LaurentPoly._raw(vs, {tuple(e[i] for i in idx): c for e, c in self.terms.items()})

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

    def constant_term(self, names: Iterable[str] | None = None) -> "LaurentPoly":
        """Part with exponent 0 in every named variable, those variables dropped.

        With ``names=None`` the constant term in all variables is taken and
        the result is a polynomial over the empty variable tuple.
        """
        if names is None:
            names = self.vars
        drop = set(names)
        for v in drop:
            if v not in self.vars:
                raise ValueError(f"unknown variable {v!r}")
        out = self
        for v in drop:
            out = out.by_degree(v).get(0)
            if out is None:
                return LaurentPoly.zero(tuple(x for x in self.vars if x not in drop))
        return out

    def negate_var(self, name: str) -> "LaurentPoly":
        """Substitute ``name -> name**-1``."""
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            f = list(e)
            f[i] = -f[i]
            out[tuple(f)] = c
        return LaurentPoly._raw(self.vars, out)

    def rename_vars(self, mapping: Mapping[str, str]) -> "LaurentPoly":
        """Bijectively rename variables (result re-sorted)."""
        new = [mapping.get(v, v) for v in self.vars]
        if len(set(new)) != len(new):
            raise ValueError("renaming is not injective")
        order = sorted(range(len(new)), key=lambda i: new[i])
        vs = tuple(new[i] for i in order)
        return LaurentPoly._raw(vs, {tuple(e[i] for i in order): c for e, c in self.terms.items()})

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


# ---------------------------------------------------------------------------
# rational expressions
# ---------------------------------------------------------------------------


def _monomial_content(terms: Iterable[Exponents], n: int) -> tuple[int, ...]:
    lo = None
    for e in terms:
        lo = list(e) if lo is None else [min(a, b) for a, b in zip(lo, e)]
    return tuple(lo) if lo is not None else (0,) * n


def _shift(p: LaurentPoly, shift: tuple[int, ...]) -> LaurentPoly:
    if all(s == 0 for s in shift):
        return p
    return LaurentPoly._raw(p.vars, {tuple(a - b for a, b in zip(e, shift)): c
                                     for e, c in p.terms.items()})


@dataclass(frozen=True)
class RationalExpr:
    """Quotient of Laurent polynomials over a common variable tuple.

    Normalized by monomial content only: the common per-variable minimum
    exponent of numerator and denominator is divided out, no polynomial
    gcd is attempted.  Equality is decided by cross-multiplication.
    """

    num: LaurentPoly
    den: LaurentPoly

    def __post_init__(self):
        if self.num.vars != self.den.vars:
            raise ValueError("numerator and denominator must share variables")
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")
        shift = _monomial_content(list(self.num.terms) + list(self.den.terms), len(self.num.vars))
        object.__setattr__(self, "num", _shift(self.num, shift))
        object.__setattr__(self, "den", _shift(self.den, shift))

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "RationalExpr":
        return cls(p, LaurentPoly.one(p.vars))

    def __str__(self) -> str:
        if self.den == LaurentPoly.one(self.den.vars):
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def rexpr_equal(a: RationalExpr, b: RationalExpr) -> bool:
    """Exact equality by cross-multiplication."""
    vs = sorted(set(a.num.vars) | set(b.num.vars))
    return a.num.embed(vs) * b.den.embed(vs) == b.num.embed(vs) * a.den.embed(vs)


def rexpr_substitute(p: LaurentPoly, name: str, value: RationalExpr) -> RationalExpr:
    """Substitute a rational expression for one variable of a Laurent polynomial.

    The variable may reappear inside ``value`` (as in the mutation change of
    coordinates); the result lives over the union of the remaining variables
    and the variables of ``value``.
    """
    if name not in p.vars:
        raise ValueError(f"unknown variable {name!r}")
    parts = p.by_degree(name)
    target = tuple(sorted((set(p.vars) - {name}) | set(value.num.vars)))
    m_pos = max(max(parts, default=0), 0)
    m_neg = max(-min(parts, default=0), 0)
    num_v = value.num.embed(target)
    den_v = value.den.embed(target)
    # precompute powers
    npows = [LaurentPoly.one(target)]
    dpows = [LaurentPoly.one(target)]
    for _ in range(m_pos + m_neg):
        npows.append(npows[-1] * num_v)
        dpows.append(dpows[-1] * den_v)
    acc = LaurentPoly.zero(target)
    for k, part in parts.items():
        acc = acc + part.embed(target) * npows[k + m_neg] * dpows[m_pos - k]
    return RationalExpr(acc, npows[m_neg] * dpows[m_pos])


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TSeries:
    """Series in a formal parameter truncated at a fixed order (inclusive).

    Coefficients may be rational scalars or :class:`LaurentPoly` values, as
    long as the operands of a binary operation combine under ``+`` and ``*``.
    """

    order: int
    coeffs: tuple

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(f"need {self.order + 1} coefficients, got {len(self.coeffs)}")

    @classmethod
    def from_list(cls, coeffs: Sequence) -> "TSeries":
        return cls(len(coeffs) - 1, tuple(coeffs))

    def __getitem__(self, d: int):
        return self.coeffs[d]

    def __add__(self, other: "TSeries") -> "TSeries":
        d = min(self.order, other.order)
        return TSeries(d, tuple(self.coeffs[k] + other.coeffs[k] for k in range(d + 1)))

    def __sub__(self, other: "TSeries") -> "TSeries":
        d = min(self.order, other.order)
        return TSeries(d, tuple(self.coeffs[k] - other.coeffs[k] for k in range(d + 1)))

    def __mul__(self, other) -> "TSeries":
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return TSeries(self.order, tuple(c * other for c in self.coeffs))
        d = min(self.order, other.order)
        out = []
        for k in range(d + 1):
            acc = None
            for a in range(k + 1):
                t = self.coeffs[a] * other.coeffs[k - a]
                acc = t if acc is None else acc + t
            out.append(acc)
        return TSeries(d, tuple(out))

    __rmul__ = __mul__

    def map_coeffs(self, f) -> "TSeries":
        return TSeries(self.order, tuple(f(c) for c in self.coeffs))


def ts_exp(w: LaurentPoly, order: int) -> TSeries:
    """exp(t*w) truncated at the given order, coefficient k equals w**k / k!.

    With :func:`pairing_in_var`, the reference the tests check the walk of
    ``periods.walk_terms`` against."""
    coeffs = [LaurentPoly.one(w.vars)]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * w * Fraction(1, k))
    return TSeries(order, tuple(coeffs))


def _pair_polys(p: LaurentPoly, q: LaurentPoly, name: str) -> LaurentPoly:
    """Constant term in ``name`` of p(...) * q(... name -> name**-1 ...).

    Pairs the coefficient of ``name**k`` in ``p`` with the coefficient of
    ``name**k`` in ``q`` for every k, over the union of remaining variables.
    """
    union = tuple(sorted((set(p.vars) | set(q.vars)) - {name}))

    def split(r: LaurentPoly) -> dict[int, LaurentPoly]:
        r = r.embed(sorted(set(r.vars) | {name}))
        return {k: part.embed(union) for k, part in r.by_degree(name).items()}

    ps = split(p)
    qs = split(q)
    acc = LaurentPoly.zero(union)
    for k, part in ps.items():
        other = qs.get(k)
        if other is not None:
            acc = acc + part * other
    return acc


def pairing_in_var(f: TSeries, g: TSeries, name: str) -> TSeries:
    """Residue pairing of two series with Laurent-polynomial coefficients.

    Degree d of the result is ``sum_{a+b=d} [f_a(...) g_b(... name^-1 ...)]``
    with the constant term taken in ``name``, which is removed from the
    coefficient variables.  A reference for the walk, as :func:`ts_exp` is.
    """
    d = min(f.order, g.order)
    out = []
    for k in range(d + 1):
        acc = None
        for a in range(k + 1):
            t = _pair_polys(f.coeffs[a], g.coeffs[k - a], name)
            acc = t if acc is None else acc + t
        out.append(acc)
    return TSeries(d, tuple(out))
