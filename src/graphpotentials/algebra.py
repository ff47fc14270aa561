"""Exact sparse Laurent-polynomial and truncated power-series arithmetic.

Everything here is exact: coefficients are ``fractions.Fraction`` and
exponents are arbitrary Python ints.  A Laurent polynomial is a dict from
exponent tuples to coefficients, keyed by a canonical sorted variable order
fixed at construction.  Truncated series carry their order explicitly and
all products are truncated to the smaller order of the operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Exponents = tuple  # tuple[int, ...], length == len(vars)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction coefficient, got {type(x).__name__}")


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
        clean: dict[Exponents, Fraction] = {}
        if terms:
            n = len(vs)
            for exps, c in terms.items():
                e = tuple(exps)
                if len(e) != n:
                    raise ValueError(f"exponent tuple {e!r} does not match {n} variables")
                c = _as_fraction(c)
                if c != 0:
                    acc = clean.get(e)
                    if acc is None:
                        clean[e] = c
                    else:
                        acc = acc + c
                        if acc:
                            clean[e] = acc
                        else:
                            del clean[e]
        self.terms = clean

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

    def constant_coefficient(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def coefficient(self, exps: Exponents) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def support(self) -> list[Exponents]:
        """Sorted exponent vectors with nonzero coefficient."""
        return sorted(self.terms)

    def eval_at_one(self) -> Fraction:
        """Value at every variable set to 1."""
        return sum(self.terms.values(), Fraction(0))

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
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                acc = acc + c
                if acc:
                    out[e] = acc
                else:
                    del out[e]
        return self._raw(self.vars, out)

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
            c = _as_fraction(other)
            if c == 0:
                return LaurentPoly.zero(self.vars)
            return self._raw(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_vars(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = out.get(e)
                if acc is None:
                    out[e] = c
                else:
                    acc = acc + c
                    if acc:
                        out[e] = acc
                    else:
                        del out[e]
        return self._raw(self.vars, out)

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
        keep_idx = [i for i, v in enumerate(self.vars) if v not in drop]
        drop_idx = [i for i, v in enumerate(self.vars) if v in drop]
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if all(e[i] == 0 for i in drop_idx):
                k = tuple(e[i] for i in keep_idx)
                out[k] = out.get(k, Fraction(0)) + c
        vs = tuple(self.vars[i] for i in keep_idx)
        return LaurentPoly(vs, out)

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

    def embed(self, variables: Sequence[str]) -> "RationalExpr":
        return RationalExpr(self.num.embed(variables), self.den.embed(variables))

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        return RationalExpr(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RationalExpr") -> "RationalExpr":
        return RationalExpr(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RationalExpr":
        return RationalExpr(self.den, self.num)

    def __str__(self) -> str:
        if self.den == LaurentPoly.one(self.den.vars):
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def rexpr_equal(a: RationalExpr, b: RationalExpr) -> bool:
    """Exact equality by cross-multiplication."""
    vs = sorted(set(a.num.vars) | set(b.num.vars))
    a = a.embed(vs)
    b = b.embed(vs)
    return a.num * b.den == b.num * a.den


def rexpr_substitute(p: LaurentPoly, name: str, value: RationalExpr) -> RationalExpr:
    """Substitute a rational expression for one variable of a Laurent polynomial.

    The variable may reappear inside ``value`` (as in the mutation change of
    coordinates); the result lives over the union of the remaining variables
    and the variables of ``value``.
    """
    if name not in p.vars:
        raise ValueError(f"unknown variable {name!r}")
    rest = [v for v in p.vars if v != name]
    target = sorted(set(rest) | set(value.num.vars))
    i = p.vars.index(name)
    m_pos = max((max(e[i], 0) for e in p.terms), default=0)
    m_neg = max((max(-e[i], 0) for e in p.terms), default=0)
    num_v = value.num.embed(target)
    den_v = value.den.embed(target)
    # precompute powers
    npows = [LaurentPoly.one(tuple(target))]
    dpows = [LaurentPoly.one(tuple(target))]
    for _ in range(m_pos + m_neg):
        npows.append(npows[-1] * num_v)
        dpows.append(dpows[-1] * den_v)
    acc = LaurentPoly.zero(tuple(target))
    for e, c in p.terms.items():
        k = e[i]
        mono = {tuple(x for j, x in enumerate(e) if j != i): c}
        rest_poly = LaurentPoly(tuple(rest), mono).embed(target)
        acc = acc + rest_poly * npows[k + m_neg] * dpows[m_pos - k]
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

    def truncate(self, order: int) -> "TSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TSeries(order, self.coeffs[: order + 1])

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
    union = sorted((set(p.vars) | set(q.vars)) - {name})

    def split(r: LaurentPoly) -> dict[int, LaurentPoly]:
        i = r.vars.index(name)
        buckets: dict[int, dict] = {}
        for e, c in r.terms.items():
            rest = tuple(x for j, x in enumerate(e) if j != i)
            buckets.setdefault(e[i], {})[rest] = c
        rest_vars = tuple(v for v in r.vars if v != name)
        return {k: LaurentPoly(rest_vars, t).embed(union) for k, t in buckets.items()}

    ps = split(p if name in p.vars else p.embed(sorted(set(p.vars) | {name})))
    qs = split(q if name in q.vars else q.embed(sorted(set(q.vars) | {name})))
    acc = LaurentPoly.zero(tuple(union))
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
