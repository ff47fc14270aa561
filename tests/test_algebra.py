from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpotentials.algebra import (
    LaurentPoly,
    RationalExpr,
    pairing_in_var,
    rexpr_equal,
    rexpr_substitute,
    ts_exp,
)

AB = ("a", "b")


def P(terms, variables=AB):
    return LaurentPoly(variables, {tuple(e): Fraction(c) for e, c in terms.items()})


def var(name, variables=AB):
    return LaurentPoly.variable(variables, name)


def constant_term(p: LaurentPoly, names=None) -> LaurentPoly:
    """The part of p with exponent 0 in every named variable (default: all),
    over the variables left."""
    drop = set(p.vars if names is None else names)
    assert drop <= set(p.vars)
    for v in drop:
        p = p.by_degree(v).get(0, LaurentPoly.zero(tuple(x for x in p.vars if x != v)))
    return p


def constant_coefficient(p: LaurentPoly):
    return p.terms.get((0,) * len(p.vars), 0)


class TestLaurentPoly:
    def test_zero_coefficients_dropped(self):
        p = LaurentPoly(AB, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert p.terms == {(0, 1): Fraction(2)}
        assert not p.is_zero()
        assert LaurentPoly(AB, {}).is_zero()

    def test_vars_must_be_sorted_unique(self):
        with pytest.raises(ValueError):
            LaurentPoly(("b", "a"), {})
        with pytest.raises(ValueError):
            LaurentPoly(("a", "a"), {})

    def test_mul_with_negative_exponents(self):
        p = P({(1, 0): 1, (0, 1): 1}) * P({(-1, 0): 1, (0, -1): 1})
        assert p == P({(0, 0): 2, (1, -1): 1, (-1, 1): 1})

    def test_pow_matches_repeated_mul(self):
        p = P({(1, 0): 1, (0, -1): 1, (0, 0): 2})
        q = LaurentPoly.one(AB)
        for _ in range(5):
            q = q * p
        assert p ** 5 == q
        assert p ** 0 == LaurentPoly.one(AB)
        with pytest.raises(ValueError):
            p ** -1

    def test_constant_term_all_vars(self):
        p = P({(0, 0): 7, (1, -1): 3})
        assert constant_term(p) == P({(): 7}, ())
        assert constant_coefficient(p) == 7
        assert type(constant_coefficient(P({(1, -1): 3}))) is int  # 0, not Fraction(0)

    def test_constant_term_some_vars(self):
        # killing only `a` keeps the b-dependence of the a-free part
        p = P({(0, 2): 5, (1, 2): 1, (0, -1): 2})
        assert constant_term(p, ["a"]) == P({(2,): 5, (-1,): 2}, ("b",))
        assert constant_term(P({(1, 2): 1}), ["a"]) == LaurentPoly.zero(("b",))

    def test_by_degree(self):
        # W = mu/a + nu*a: the a-degrees that occur, each over b
        p = P({(-1, 2): 3, (1, 0): 1, (1, -1): 2})
        assert p.by_degree("a") == {-1: P({(2,): 3}, ("b",)), 1: P({(0,): 1, (-1,): 2}, ("b",))}
        assert p.by_degree("b") == {2: P({(-1,): 3}, ("a",)), 0: P({(1,): 1}, ("a",)),
                                    -1: P({(1,): 2}, ("a",))}

    def test_negate_var(self):
        p = P({(2, 1): 1, (-1, 0): 4})
        assert p.negate_var("a") == P({(-2, 1): 1, (1, 0): 4})
        assert p.negate_var("a").negate_var("a") == p

    def test_embed_and_drop(self):
        p = P({(1,): 2}, ("a",))
        q = p.embed(("a", "b", "c"))
        assert q.vars == ("a", "b", "c")
        assert q.terms == {(1, 0, 0): Fraction(2)}
        with pytest.raises(ValueError):
            q.embed(("a",))

    def test_str_roundtrippable_shape(self):
        p = P({(1, -2): 1, (0, 0): -3})
        s = str(p)
        assert "a" in s and "b^-2" in s and "-3" in s


exps = st.integers(min_value=-3, max_value=3)
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
ints = st.integers(min_value=-5, max_value=5)
# the ring laws run on int coefficients, Fraction ones and mixtures of both
int_polys = st.dictionaries(st.tuples(exps, exps), ints, max_size=5).map(lambda t: LaurentPoly(AB, t))
polys = st.one_of(int_polys, st.dictionaries(st.tuples(exps, exps), coeffs, max_size=5).map(P))


class TestRingLaws:
    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_mul_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(polys)
    @settings(max_examples=30, deadline=None)
    def test_negate_var_is_ring_map(self, p):
        q = P({(1, 1): 1, (-1, 0): 2})
        assert (p * q).negate_var("a") == p.negate_var("a") * q.negate_var("a")

    @given(polys)
    @settings(max_examples=30, deadline=None)
    def test_eval_at_one_is_ring_map(self, p):
        q = P({(1, -1): 3})
        assert sum((p * q).terms.values()) == sum(p.terms.values()) * sum(q.terms.values())


class TestCoefficientPolicy:
    """Coefficients stay as arithmetic makes them: ints from ints, never zero."""

    @given(polys, polys, st.one_of(ints, coeffs, st.booleans()))
    @settings(max_examples=80, deadline=None)
    def test_operations_keep_int_and_fraction(self, p, q, k):
        ints_only = all(type(c) is int for c in (*p.terms.values(), *q.terms.values(), k))
        results = [p + q, p - q, p * q, p * k, k * p, p + k, k - p, p.embed(("a", "b", "c")),
                   p.negate_var("a"), constant_term(p, ["a"]), *p.by_degree("b").values()]
        for r in results:
            for c in r.terms.values():
                assert c != 0
                assert type(c) is int if ints_only else type(c) in (int, Fraction), (r, c)

    def test_bool_is_stored_as_int(self):
        a = LaurentPoly(("a",), {(1,): 1})
        for p in (a + True, True + a, a * True, LaurentPoly(("a",), {(0,): True, (1,): 1})):
            assert all(type(c) is int for c in p.terms.values())
        assert str(a + True) == "1 + a"
        assert (a * False).is_zero()

    @pytest.mark.parametrize("bad", [1.0, 0.5, "1", np.int64(1)])
    def test_other_coefficients_raise(self, bad):
        a = LaurentPoly(("a",), {(1,): 1})
        with pytest.raises(TypeError):
            LaurentPoly(("a",), {(1,): bad})
        if not isinstance(bad, np.generic):  # numpy applies its own scalar rules first
            with pytest.raises(TypeError):
                a * bad
            with pytest.raises(TypeError):
                a + bad


class TestRationalExpr:
    def test_monomial_content_normalized(self):
        a, b = var("a"), var("b")
        # (a + b)/(a*b) written two ways
        r1 = RationalExpr(a + b, a * b)
        r2 = RationalExpr((a + b) * a, a * a * b)
        assert rexpr_equal(r1, r2)
        # stored as given, printed with the common monomial divided out
        assert r2.num == (a + b) * a
        assert str(r1) == str(r2) == "(b + a) / (a*b)"
        assert str(RationalExpr(a * b, a * b)) == "1"

    def test_inequality(self):
        a, b = var("a"), var("b")
        assert not rexpr_equal(RationalExpr(a, b), RationalExpr(b, a))

    def test_substitute_simple(self):
        # p(a,b) = a + 1/a with a = b/(1+b) gives b/(1+b) + (1+b)/b
        vb = ("b",)
        b = LaurentPoly.variable(vb, "b")
        one = LaurentPoly.one(vb)
        p = P({(1, 0): 1, (-1, 0): 1})
        out = rexpr_substitute(p, "a", RationalExpr(b, one + b))
        expected = RationalExpr(b * b + (one + b) * (one + b), b * (one + b))
        assert rexpr_equal(out, expected)

    def test_substitute_var_can_reappear_in_value(self):
        # a -> 1/a is an exact involution on a + 2/a
        va = ("a",)
        a = LaurentPoly.variable(va, "a")
        p = P({(1,): 1, (-1,): 2}, va)
        out = rexpr_substitute(p, "a", RationalExpr(LaurentPoly.one(va), a))
        expected = RationalExpr(P({(2,): 2, (0,): 1}, va), a)
        assert rexpr_equal(out, expected)


class TestTsExp:
    def test_ts_exp_of_scalar_poly(self):
        w = LaurentPoly.constant(("x",), 2)
        e = ts_exp(w, 4)
        got = [constant_coefficient(c) for c in e]
        assert got == [1, 2, 2, Fraction(4, 3), Fraction(2, 3)]

    def test_ts_exp_powers(self):
        w = P({(1,): 1, (-1,): 1}, ("x",))
        e = ts_exp(w, 3)
        two = LaurentPoly.constant(("x",), 2)
        six = LaurentPoly.constant(("x",), 6)
        assert e[2] * two == w * w
        assert e[3] * six == w * w * w

    def test_ts_exp_is_a_tuple_of_order_plus_one(self):
        w = P({(1,): 1, (-1,): 1}, ("x",))
        for order in (0, 1, 5):
            e = ts_exp(w, order)
            assert type(e) is tuple and len(e) == order + 1
        with pytest.raises(ValueError, match="order must be >= 0"):
            ts_exp(w, -1)


class TestPairing:
    def test_pairing_matches_product_constant_term(self):
        # degree k of the pairing is sum over a+b=k of the constant term in m
        # of f_a(m) * g_b(1/m)
        vs = ("m", "x")
        f = (P({(1, 0): 1, (-1, 0): 1}, vs), P({(1, 1): 1, (-1, 0): 1}, vs))
        g = (P({(1, 0): 1}, vs), P({(1, 1): 1}, vs), P({(2, 0): 1}, vs))
        paired = pairing_in_var(f, g, "m")
        direct = []
        for k in range(2):
            acc = LaurentPoly.zero(("x",))
            for a in range(k + 1):
                prod = f[a] * g[k - a].negate_var("m")
                acc = acc + constant_term(prod, ["m"])
            direct.append(acc)
        assert paired == tuple(direct)  # truncated to the shorter series
        assert paired[1] == P({(1,): 2}, ("x",))

    def test_pairing_drops_the_variable(self):
        f = (P({(1,): 1, (-1,): 1}, ("m",)),)
        out = pairing_in_var(f, f, "m")
        assert out[0].vars == ()
        assert constant_coefficient(out[0]) == 2
