"""Scalar and polynomial layer: hand cases, hypothesis properties, and a
sympy cross-check of products and derivatives."""

import json
import math
from collections.abc import Mapping
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
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


def polys(tab=WTAB, min_exp=0, max_exp=4, max_terms=5, coeffs=None):
    li = tab.laurent_index
    slots = [
        st.integers(min_value=min_exp if j == li else 0, max_value=max_exp)
        for j in range(tab.arity)
    ]
    return st.builds(
        lambda d: MPoly(tab, d),
        st.dictionaries(st.tuples(*slots), coeffs if coeffs is not None else scalars(),
                        max_size=max_terms),
    )


def laurent_polys():
    """Real and Gaussian polynomials over LTAB, poles included."""
    return st.one_of(
        polys(LTAB, min_exp=-2, max_exp=3, max_terms=3, coeffs=small_fractions()),
        polys(LTAB, min_exp=-2, max_exp=3, max_terms=3),
    )


def factors():
    """Second factors of a dot pair: int, Fraction, GaussianRational or poly."""
    return st.one_of(
        st.integers(min_value=-5, max_value=5), small_fractions(), scalars(), laurent_polys()
    )


def _assert_canonical(p):
    assert p._den > 0 and 0 not in p._num.values()
    assert p._im is None or (p._im and 0 not in p._im.values())
    assert math.gcd(p._den, *p._num.values(), *(p._im or {}).values()) == 1


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

    @given(scalars(), polys())
    @example(GaussianRational(0, 1), parse("x - 2*y + 1/3", WTAB))
    @example(GaussianRational(1), parse("x", WTAB))
    def test_scalar_left_of_a_polynomial_defers_to_it(self, c, p):
        # the scalar's operators return NotImplemented for a polynomial, so
        # MPoly's reflected operators run
        for got, want in ((c * p, p * c), (c + p, p + c), (c - p, -(p - c))):
            assert isinstance(got, MPoly) and got == want

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
        assert list((big * y).collect(("x",))) == [(2 ** 15 - 1,)]

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

    def test_image_powers_top_slot_on_a_laurent_table(self):
        # _ImagePowers.mono peels the highest slot with a nonzero exponent
        # off each key; the Laurent field stores exponent 0 as its bias
        src = VarTable(("x", "y", "s"), None, "s")
        target = VarTable(("u", "w"), None, "w")
        u, w = MPoly.variable(target, "u"), MPoly.variable(target, "w")
        imgs = {0: u + 1, 1: u * u - 2, 2: 3 * w}
        table = exactalg._ImagePowers(src, target, dict(imgs))
        for exp in ((2, 1, 0), (1, 0, -2), (3, 0, 0), (0, 2, -1), (0, 0, 1)):
            want = MPoly.constant(target, 1)
            for j, e in enumerate(exp):
                want = want * imgs[j] ** e
            assert table.mono(src.pack(exp)) == want
        p = parse("x^2*y - 3*x*s^-1 + x^3 + 1", src)
        got = p.substitute({"x": imgs[0], "y": imgs[1], "s": imgs[2]}, target)
        assert got == (u + 1) ** 2 * (u * u - 2) - (u + 1) * w ** -1 + (u + 1) ** 3 + 1

    def test_rekey_onto_a_slice_refuses_a_dropped_variable(self):
        src = VarTable(("x", "y", "w", "a", "b", "s"), None, "s")
        target = VarTable(("a", "b", "s"), None, "s")
        for text, name in (("a*b + x^2*s^-1", "x"), ("w*s + s^2", "w"), ("a*y", "y")):
            p = parse(text, src)
            with pytest.raises(PolyError, match=f"unknown variable '{name}'"):
                exactalg._rekey(p, target)
            with pytest.raises(PolyError, match=f"unknown variable '{name}'"):
                exactalg.substitute_all([parse("a", src), p], {}, target)
        # the target may drop or add a Laurent slot that no term uses; a
        # pole may land only in the target's Laurent slot
        for src, target, text in (
            (VarTable(("s", "a", "b"), None, "s"), VarTable(("a", "b")), "a*b^2 - 3"),
            (VarTable(("x", "a", "b")), VarTable(("a", "b"), None, "b"), "a*b^2 - 3"),
        ):
            got = exactalg._rekey(parse(text, src), target)
            assert got == parse(text, target)
        with pytest.raises(ExponentError):
            exactalg._rekey(parse("a*s^-1", VarTable(("a", "s"), None, "s")),
                            VarTable(("a", "s")))

    def test_euler_needs_weights(self):
        tab = VarTable(("x",))
        with pytest.raises(PolyError):
            MPoly.variable(tab, "x").euler()

    def test_weighted_degree(self):
        x, y, z = (MPoly.variable(WTAB, nm) for nm in ("x", "y", "z"))
        assert (x * y + y ** 3).weighted_degree() == Fraction(3, 2)
        assert MPoly.zero(WTAB).weighted_degree() is None
        with pytest.raises(PolyError) as err:
            (z + y + x * y).weighted_degree()
        assert str(err.value) == "not weighted-homogeneous: degrees ['1/3', '1/2', '3/2']"
        # the Laurent slot: negative powers of s give negative degrees
        s = MPoly.variable(LTAB, "s")
        xs = MPoly.variable(LTAB, "x") * s ** -4
        assert xs.weighted_degree() == 0 and (s ** -1).weighted_degree() == Fraction(-1, 4)
        with pytest.raises(PolyError) as err:
            (xs + s ** -2).weighted_degree()
        assert str(err.value) == "not weighted-homogeneous: degrees ['-1/2', '0']"

    def test_weighted_degree_needs_weights(self):
        with pytest.raises(PolyError, match="needs table weights"):
            MPoly.variable(VarTable(("x",)), "x").weighted_degree()


class TestOneAccumulationLoop:
    def test_every_sum_and_product_calls_dot_once(self, monkeypatch):
        p = parse("1/2*x^2 + 3/2*x*y", WTAB)
        q = parse("1/2*y - 5/2*x*z", WTAB)
        assert p._den == q._den == 2 and p._im is None and q._im is None
        ops = {
            "p + q": lambda: p + q,
            "p + 3": lambda: p + 3,
            "3 + p": lambda: 3 + p,
            "p - q": lambda: p - q,
            "p * q": lambda: p * q,
            "p * 3": lambda: p * 3,
            "p * 1/2": lambda: p * Fraction(1, 2),
            "p * i": lambda: p * GaussianRational(0, 1),
            "p / 2": lambda: p / 2,
        }
        want = {label: op() for label, op in ops.items()}
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return dot(*args, **kwargs)

        monkeypatch.setattr(exactalg, "dot", counted)
        for label, op in ops.items():
            calls.clear()
            assert op() == want[label], label
            assert len(calls) == 1, label


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

    @given(st.lists(st.tuples(laurent_polys(), factors()), max_size=4),
           laurent_polys(), factors())
    def test_results_are_canonical(self, pairs, p, b):
        # MPoly.__eq__ compares raw dicts, so every result must be reduced
        for got in (dot(pairs, LTAB), p * b, p + b, p - b):
            _assert_canonical(got)

    @given(polys(max_exp=3), st.integers(min_value=0, max_value=3))
    def test_integer_powers(self, p, k):
        prod = MPoly.constant(WTAB, 1)
        for _ in range(k):
            prod = prod * p
        assert p ** k == prod

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rekey_is_substitution_by_identity_images(self, data):
        # _rekey moves each term slot by slot by name; substituting every
        # variable by itself (_ImagePowers with no images given) must give
        # the same polynomial, or refuse with the same error class.  The
        # target keeps, drops, adds or permutes names, and keeps, moves,
        # drops or adds the Laurent slot; when it drops a name, the source's
        # Laurent variable is dropped too or stays Laurent, so no term has
        # two faults that the two sides could meet in a different order
        pool = ("a", "b", "c", "s")
        names = data.draw(st.permutations(pool), label="source order")
        names = names[: data.draw(st.integers(1, 4), label="source arity")]
        src = VarTable(tuple(names), None, data.draw(
            st.one_of(st.none(), st.sampled_from(names)), label="source Laurent"))
        p = data.draw(polys(src, min_exp=-2, max_exp=3, max_terms=4), label="p")
        kept = data.draw(st.one_of(st.just(list(names)), st.lists(
            st.sampled_from(names), unique=True)), label="kept")
        added = data.draw(st.lists(st.sampled_from(("u", "w")), unique=True), label="added")
        tnames = tuple(data.draw(st.permutations(kept + added), label="target order"))
        if len(kept) < len(names) and src.laurent in kept:
            laurent = src.laurent
        else:
            laurent = data.draw(st.one_of(st.none(), st.sampled_from(tnames))
                                if tnames else st.none(), label="target Laurent")
        target = VarTable(tnames, None, laurent)

        def outcome(fn):
            try:
                return fn()
            except PolyError as exc:
                return type(exc)

        got = outcome(lambda: exactalg._rekey(p, target))
        want = outcome(lambda: exactalg._ImagePowers(src, target, {}).apply(p))
        if isinstance(want, type):
            assert got is want
        else:
            assert isinstance(got, MPoly) and got == want and got.table is target
            _assert_canonical(got)


def _sympy_scalar(c):
    c = GaussianRational(c) if not isinstance(c, GaussianRational) else c
    return (sympy.Rational(int(c.re.numerator), int(c.re.denominator))
            + sympy.I * sympy.Rational(int(c.im.numerator), int(c.im.denominator)))


def _to_sympy(p, syms):
    if not isinstance(p, MPoly):
        return _sympy_scalar(p)
    acc = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = _sympy_scalar(c)
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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(laurent_polys(), factors()), max_size=5))
    # a denominator lift after an imaginary part exists, in each pair shape
    @example([(parse("i*x + s^-1", LTAB), 1), (parse("x*s^-1", LTAB), rat(1, 3))])
    @example([(parse("2*i*s", LTAB), parse("x", LTAB)),
              (parse("x + 1/5*s^-1", LTAB), parse("1/7*x", LTAB))])
    @example([(parse("x", LTAB), GaussianRational(0, 1)),
              (parse("s^-1", LTAB), GaussianRational(rat(1, 2), rat(-1, 9))),
              (parse("1/4*x^2", LTAB), parse("(1+i)*s - 1/6", LTAB))])
    def test_dot_mixed_pairs(self, pairs):
        # dot is the kernel's one accumulation loop, which a * b and a + b
        # also run through, so the reference is sympy's
        syms = self.syms
        want = sum((_to_sympy(a, syms) * _to_sympy(b, syms) for a, b in pairs),
                   sympy.Integer(0))
        assert sympy.expand(_to_sympy(dot(pairs, LTAB), syms) - want) == 0

    def test_dot_leaving_the_packed_range_raises(self):
        s, x = MPoly.variable(LTAB, "s"), MPoly.variable(LTAB, "x")
        top = s ** (2 ** 14 - 1)
        i = GaussianRational(0, 1)
        for pairs in (
            [(top, s)],
            [(x, 1), (top * i, s)],
            [(s ** -(2 ** 14), s ** -1), (x, rat(1, 3))],
        ):
            with pytest.raises(ExponentError):
                dot(pairs, LTAB)
        big = MPoly(WTAB, {(2 ** 15 - 1, 0, 0): GaussianRational(1)})
        with pytest.raises(ExponentError):
            dot([(big, MPoly.variable(WTAB, "x"))], WTAB)

    def test_substitution(self):
        tab = VarTable(("x", "y"))
        p = parse("x^2*y - 3*y^2 + 1", tab)
        target = VarTable(("u",))
        u = MPoly.variable(target, "u")
        got = p.substitute({"x": u + 1, "y": 2 * u}, target)
        x, y, usym = sympy.symbols("x y u")
        want = sympy.expand((x ** 2 * y - 3 * y ** 2 + 1).subs({x: usym + 1, y: 2 * usym}))
        assert _to_sympy(got, (usym,)) == want
