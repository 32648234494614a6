"""Scalar and polynomial layer: hand cases, hypothesis properties, and a
sympy cross-check of products and derivatives."""

import json
from collections.abc import Mapping
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from openwdvv import exactalg
from openwdvv.coxeter import coxeter_structure
from openwdvv.exactalg import (
    ExponentError,
    GaussianRational,
    MPoly,
    ParseError,
    PolyError,
    VarTable,
    dot,
    parse,
    rat,
    sqrt_coefficient,
)

WTAB = VarTable(("x", "y", "z"), (Fraction(1), Fraction(1, 2), Fraction(1, 3)))
LTAB = VarTable(("x", "s"), (Fraction(1), Fraction(1, 4)), "s")


def small_fractions():
    return st.fractions(min_value=-9, max_value=9, max_denominator=12)


def scalars():
    return st.builds(GaussianRational, small_fractions(), small_fractions())


def polys(tab=WTAB, min_exp=0, max_exp=4, max_terms=5):
    li = tab.laurent_index
    slots = [
        st.integers(min_value=min_exp if j == li else 0, max_value=max_exp)
        for j in range(tab.arity)
    ]
    return st.builds(
        lambda d: MPoly(tab, d),
        st.dictionaries(st.tuples(*slots), scalars(), max_size=max_terms),
    )


class TestScalars:
    def test_rat_forms(self):
        assert rat("7/3360") == rat(7, 3360)
        assert rat(Fraction(-3, 6)) == rat(-1, 2)
        assert rat(4) == 4

    def test_equality_across_types(self):
        assert GaussianRational(rat(1, 2)) == Fraction(1, 2)
        assert GaussianRational(3) == 3
        assert GaussianRational(0, 1) != 0

    def test_negative_powers(self):
        c = GaussianRational(rat(-2, 3))
        assert c ** -2 == rat(9, 4)
        assert GaussianRational(0, 1) ** -1 == GaussianRational(0, -1)

    def test_division(self):
        i = GaussianRational(0, 1)
        assert (1 + i) / (1 - i) == i
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)

    @given(scalars(), scalars(), scalars())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - b + b == a

    @given(scalars())
    def test_multiplicative_inverse(self, a):
        if a:
            assert a * (GaussianRational(1) / a) == 1

    def test_sqrt(self):
        assert sqrt_coefficient(GaussianRational(rat(4, 9))) == rat(2, 3)
        with pytest.raises(PolyError):
            sqrt_coefficient(GaussianRational(2))
        with pytest.raises(PolyError):
            sqrt_coefficient(GaussianRational(0, 1))


class TestPolyBasics:
    def test_zero_coefficients_dropped(self):
        p = MPoly(WTAB, {(1, 0, 0): GaussianRational(0)})
        assert p == MPoly.zero(WTAB) and len(p.terms) == 0

    def test_non_laurent_slot_rejects_negative(self):
        with pytest.raises(ExponentError):
            MPoly(WTAB, {(-1, 0, 0): GaussianRational(1)})

    def test_deep_pole_allowed_in_arithmetic_only(self):
        s = MPoly.variable(LTAB, "s")
        inv = s ** -1
        assert inv.diff("s") == -(s ** -2)
        with pytest.raises(ParseError):
            parse("s^-2", LTAB)
        with pytest.raises(ParseError):
            MPoly.from_json((s ** -2).to_json())

    def test_canonical_text(self):
        tab = VarTable(("t1", "t2", "t3", "t4"))
        src = "-1/24*t3^3*t4^2 + 1/2*t1^2*t3"
        assert parse(src, tab).text() == "1/2*t1^2*t3 - 1/24*t3^3*t4^2"

    def test_parse_errors(self):
        tab = VarTable(("x",))
        for bad in ("x +", "x ^ y", "(x", "x 2"):
            with pytest.raises(ParseError):
                parse(bad, tab)
        with pytest.raises(PolyError):
            parse("y", tab)

    def test_parse_bounds_powers_of_non_monomials(self):
        # the bound is checked before expanding, so refused sizes cost nothing
        for bad in (
            "(x+1)^1001",
            "(x+y+1)^140",  # C(142, 2) = 10011 terms
            "(x+y+z+1)^40",  # C(43, 3) = 12341 terms
            "((x+y)^100)^100",  # the inner power has 101 terms
            "(x-z)^99999999999999999999",
        ):
            with pytest.raises(ParseError, match="too large"):
                parse(bad, WTAB)
        assert parse("(x+1)^3", WTAB) == parse("x^3 + 3*x^2 + 3*x + 1", WTAB)
        assert len(parse("(x+y+z)^4", WTAB)) == 15
        assert parse("(2*x*y)^1001", WTAB) == parse("2^1001*x^1001*y^1001", WTAB)

    def test_parse_bounds_products(self, monkeypatch):
        # the bound is checked before multiplying: 1771 * 1771 term products
        with pytest.raises(ParseError, match="product of 1771 and 1771 terms"):
            parse("(x+y+z+1)^20*(x+y+z+1)^20", WTAB)
        monkeypatch.setattr(exactalg, "_MAX_PRODUCT", 100)
        assert len(parse("(x+1)^9*(y+1)^9", WTAB)) == 100
        assert parse("x*(x+1)^99*2", WTAB) == parse("2*x*(x+1)^99", WTAB)
        for bad in ("(x+1)^10*(y+1)^9", "(x+1)^9*(y+1)^9*(z+1)"):
            with pytest.raises(ParseError, match="at most 100 term products"):
                parse(bad, WTAB)

    def test_from_ratios(self):
        x, s = LTAB.pack((1, 0)), LTAB.pack((0, -1))
        got = MPoly._from_ratios(LTAB, {x: (1, 6), s: (-3, 4)}, {x: (2, 9)})
        assert got == parse("(1/6+2/9*i)*x - 3/4*s^-1", LTAB)
        assert got._den == 36
        with pytest.raises(ExponentError):
            MPoly._from_ratios(LTAB, {x + (1 << 15): (1, 1)})

    def test_from_json_rejects_malformed_terms(self):
        def doc(**term):
            return json.dumps({"vars": ["x"], "terms": [term]})

        good = {"exp": [1], "re": [1, 2], "im": [0, 1]}
        assert MPoly.from_json(doc(**good)).text() == "1/2*x"
        bad = [
            doc(**{**good, "exp": [1.5]}),
            doc(**{**good, "exp": [1.0]}),
            doc(**{**good, "exp": [True]}),
            doc(**{**good, "exp": ["1"]}),
            doc(**{**good, "exp": 1}),
            doc(**{**good, "exp": [1, 0]}),
            doc(**{**good, "re": [1, 0]}),
            doc(**{**good, "re": [1]}),
            doc(**{**good, "re": [1, 2, 3]}),
            doc(**{**good, "re": [1.5, 2]}),
            doc(**{**good, "im": [False, 1]}),
            doc(**{**good, "im": "0"}),
            doc(exp=[1], re=[1, 1]),
            json.dumps({"vars": ["x"], "terms": [[1]]}),
            json.dumps({"vars": ["x"], "terms": {"exp": [1]}}),
            json.dumps({"vars": ["x", "x"], "terms": []}),
            json.dumps({"vars": ["1x"], "terms": []}),
            "[" * 100000 + "]" * 100000,
            doc(**{**good, "re": ["N", 1]}).replace('"N"', "1" * 5000),
        ]
        for text in bad:
            with pytest.raises(ParseError):
                MPoly.from_json(text)

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3)
            | st.text("xs1", max_size=2),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.sampled_from(["exp", "re", "im", "k"]), inner),
            max_leaves=12,
        ),
        st.lists(st.sampled_from(["x", "s", "x"]), max_size=2),
    )
    def test_from_json_fuzz(self, term, names):
        text = json.dumps({"vars": names, "terms": [term]})
        try:
            p = MPoly.from_json(text)
        except ParseError:
            return
        assert MPoly.from_json(p.to_json()) == p

    def test_division_by_monomial(self):
        s = MPoly.variable(LTAB, "s")
        assert (2 * s) ** -1 == s ** -1 / 2
        x = MPoly.variable(LTAB, "x")
        with pytest.raises(PolyError):
            (x + s) ** -1

    def test_exponent_field_overflow(self):
        x, y = MPoly.variable(WTAB, "x"), MPoly.variable(WTAB, "y")
        big = MPoly(WTAB, {(2 ** 15 - 1, 0, 0): GaussianRational(1)})
        with pytest.raises(ExponentError):
            big * x  # must not carry into the y slot
        with pytest.raises(ExponentError):
            x ** (2 ** 15)
        with pytest.raises(ExponentError):
            MPoly(WTAB, {(0, 2 ** 15, 0): GaussianRational(1)})
        assert (big * y).max_exponent("x") == 2 ** 15 - 1

    def test_laurent_field_near_the_bias(self):
        s = MPoly.variable(LTAB, "s")
        x = MPoly.variable(LTAB, "x")
        deep = s ** -(2 ** 14)  # the lowest exponent the Laurent field holds
        top = s ** (2 ** 14 - 1)  # and the highest
        assert deep * top == s ** -1
        for overflow in (
            lambda: deep * s ** -1,
            lambda: deep.diff("s"),
            lambda: s ** -(2 ** 14 + 1),
            lambda: top * s,
            lambda: MPoly(LTAB, {(0, -(2 ** 14) - 1): GaussianRational(1)}),
        ):
            with pytest.raises(ExponentError):
                overflow()
        assert (deep * x).coefficient({"x": 1, "s": -(2 ** 14)}) == 1

    def test_normal_form_is_unique(self):
        x = MPoly.variable(WTAB, "x")
        half = x / 2 + x / 2
        assert half == x and hash(half) == hash(x)
        assert (2 * x / 4).text() == "1/2*x"
        assert 2 * x / 4 == x * rat(1, 2) and hash(2 * x / 4) == hash(x / 2)
        assert (x / 3 - x / 3) == 0 and not (x / 3 - x / 3)

    def test_imaginary_part_cancels(self):
        i = MPoly.constant(WTAB, GaussianRational(0, 1))
        x = MPoly.variable(WTAB, "x")
        sq = (i * x) * (i * x)
        assert sq + x ** 2 == 0
        assert sq == -(x ** 2) and hash(sq) == hash(-(x ** 2))
        assert sq._im is None and (i * x - i * x)._im is None

    def test_terms_view(self):
        p = parse("x^2*y - 1/3*z + i*x", WTAB)
        view = p.terms
        assert isinstance(view, Mapping) and len(view) == len(p) == 3
        assert all(type(e) is tuple and len(e) == 3 for e in view)
        assert all(isinstance(c, GaussianRational) for c in view.values())
        assert view[(2, 1, 0)] == 1 and view[(1, 0, 0)] == GaussianRational(0, 1)
        assert dict(view.items()) == {
            (2, 1, 0): 1, (0, 0, 1): rat(-1, 3), (1, 0, 0): GaussianRational(0, 1)
        }
        assert (5, 0, 0) not in view and "x" not in view
        with pytest.raises(TypeError):
            view[(5, 0, 0)] = GaussianRational(1)
        with pytest.raises(AttributeError):
            view.pop((2, 1, 0))

    def test_h3_potential_text(self):
        # H3 runs through t6 = i*t2, the one imaginary substitution; its
        # canonical text as recorded before the integer layout
        assert coxeter_structure("H3").potential.text() == (
            "t1*t2^2 + 1/2*t1^2*t3 + 1/6*t2^3*t3^2 + 1/80*t2^2*t3^5"
            " + 1/253440*t3^11"
        )

    def test_euler_needs_weights(self):
        tab = VarTable(("x",))
        with pytest.raises(PolyError):
            MPoly.variable(tab, "x").euler()


class TestPolyProperties:
    @given(polys(), polys(), polys())
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - q + q == p

    @given(polys(LTAB, min_exp=-2, max_exp=3), polys(LTAB, min_exp=-2, max_exp=3))
    def test_derivative_is_a_derivation(self, p, q):
        for nm in LTAB.names:
            got = (p * q).diff(nm)
            assert got == p.diff(nm) * q + p * q.diff(nm)

    @given(polys(LTAB, min_exp=-2, max_exp=3))
    def test_derivatives_commute(self, p):
        assert p.diff("x").diff("s") == p.diff("s").diff("x")

    @given(polys())
    def test_euler_on_homogeneous_components(self, p):
        comps = {}
        for exp, c in p.terms.items():
            d = sum(w * e for w, e in zip(WTAB.weights, exp))
            comps.setdefault(d, {})[exp] = c
        assert sum(
            (MPoly(WTAB, t) for t in comps.values()), MPoly.zero(WTAB)
        ) == p
        for d, terms in comps.items():
            comp = MPoly(WTAB, terms)
            assert comp.euler() == comp * rat(d.numerator, d.denominator)

    @given(polys(LTAB, min_exp=-1, max_exp=3))
    def test_text_round_trip(self, p):
        assert parse(p.text(), LTAB) == p

    @given(polys(LTAB, min_exp=-1, max_exp=3))
    def test_json_round_trip(self, p):
        q = MPoly.from_json(p.to_json())
        assert q == p and q.to_json() == p.to_json()

    @given(
        st.lists(
            st.tuples(polys(), st.one_of(st.just(1), scalars(), polys())),
            max_size=3,
        )
    )
    def test_dot_is_a_sum_of_products(self, pairs):
        want = sum((a * b for a, b in pairs), MPoly.zero(WTAB))
        assert dot(pairs, WTAB) == want
        assert dot(iter(pairs), WTAB) == want

    @given(polys(max_exp=3), st.integers(min_value=0, max_value=3))
    def test_integer_powers(self, p, k):
        prod = MPoly.constant(WTAB, 1)
        for _ in range(k):
            prod = prod * p
        assert p ** k == prod


def _to_sympy(p, syms):
    acc = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Rational(int(c.re.numerator), int(c.re.denominator))
        term += sympy.I * sympy.Rational(int(c.im.numerator), int(c.im.denominator))
        for s, e in zip(syms, exp):
            term *= s ** e
        acc += term
    return sympy.expand(acc)


class TestAgainstSympy:
    syms = sympy.symbols("x s")

    @settings(max_examples=40, deadline=None)
    @given(polys(LTAB, min_exp=-2, max_exp=3, max_terms=4),
           polys(LTAB, min_exp=-2, max_exp=3, max_terms=4))
    def test_products(self, p, q):
        got = _to_sympy(p * q, self.syms)
        assert sympy.expand(got - _to_sympy(p, self.syms) * _to_sympy(q, self.syms)) == 0

    @settings(max_examples=40, deadline=None)
    @given(polys(LTAB, min_exp=-2, max_exp=3, max_terms=4))
    def test_derivatives(self, p):
        for s, nm in zip(self.syms, LTAB.names):
            got = _to_sympy(p.diff(nm), self.syms)
            assert sympy.expand(got - sympy.diff(_to_sympy(p, self.syms), s)) == 0

    def test_substitution(self):
        tab = VarTable(("x", "y"))
        p = parse("x^2*y - 3*y^2 + 1", tab)
        target = VarTable(("u",))
        u = MPoly.variable(target, "u")
        got = p.substitute({"x": u + 1, "y": 2 * u}, target)
        x, y, usym = sympy.symbols("x y u")
        want = sympy.expand((x ** 2 * y - 3 * y ** 2 + 1).subs({x: usym + 1, y: 2 * usym}))
        assert _to_sympy(got, (usym,)) == want
