"""Unfoldings and their quotient algebras: frozen products, the confluence
proof by critical pairs and the associativity sweep, the decreasing-order
refusal, consistency of the extension, and corrupted-tensor and tampered
rule-set negative controls."""

from fractions import Fraction

import pytest

from openwdvv import exactalg
from openwdvv.exactalg import MPoly, PolyError, VarTable, parse
from openwdvv.milnor import (
    QuotientAlgebra,
    StructureTensor,
    build_closed_algebra,
    build_extended_algebra,
    build_unfolding,
    check_associativity,
    check_confluence,
    ideal_quotient_consistency,
    structure_constants,
)
from openwdvv.saito import _flat_source


class TestUnfoldings:
    def test_a2_display(self):
        u = build_unfolding("A", 2)
        assert u.poly == parse("1/3*x^3 + y^2 + v1 + v2*x", u.table)
        assert u.table.weights[0] == Fraction(1, 3)
        assert u.weights == (Fraction(1), Fraction(2, 3))
        assert u.delta == Fraction(1, 3)

    def test_d4_display(self):
        u = build_unfolding("D", 4)
        assert u.poly == parse("1/3*x^3 + x*y^2 + v1 + v2*x + v3*x^2 + v4*y", u.table)
        assert u.weights == (Fraction(1), Fraction(2, 3), Fraction(1, 3), Fraction(2, 3))
        assert u.basis == ((0, 0), (1, 0), (2, 0), (0, 1)) and u.l == 3

    def test_e_germs(self):
        for n, germ in ((6, "x^4 + y^3"), (7, "x^3*y + y^3"), (8, "x^5 + y^3")):
            u = build_unfolding("E", n)
            vfree = {f"v{k}": MPoly.zero(u.table) for k in range(1, n + 1)}
            assert u.poly.substitute(vfree, u.table) == parse(germ, u.table)
            assert u.rank == n

    def test_quasi_homogeneous(self):
        for family, n in (("A", 5), ("D", 6), ("E", 7)):
            u = build_unfolding(family, n)
            assert u.poly.euler() == u.poly

    def test_rejects_bad_subscripts(self):
        for family, n in (("D", 2), ("E", 5), ("E", 9), ("Q", 3), ("A", 0)):
            with pytest.raises(PolyError):
                build_unfolding(family, n)

    def test_built_once_per_process(self):
        # the flat coordinates and the shared source of a build ask for the
        # same unfolding; the second request must reuse the first
        build_unfolding.cache_clear()
        _flat_source.cache_clear()
        _flat_source("D", 7)
        assert build_unfolding.cache_info().misses == 1
        assert build_unfolding("D", 7) is _flat_source("D", 7)[0]


class TestClosedAlgebra:
    def test_a3_reduction(self):
        alg = build_closed_algebra(build_unfolding("A", 3))
        # phi = (1, x, x^2); x^3 rewrites along dL/dx = x^3 + v2 + 2 v3 x
        assert alg.multiply(2, 3) == parse("-v2 - 2*v3*x", alg.unfolding.table)
        assert alg.coeffs(alg.phi(2) * alg.phi(3)) == [
            parse("-v2", alg.table),
            parse("-2*v3", alg.table),
            MPoly.zero(alg.table),
        ]

    def test_d4_products(self):
        alg = build_closed_algebra(build_unfolding("D", 4))
        tab = alg.unfolding.table
        # phi = (1, x, x^2, y)
        assert alg.multiply(2, 4) == parse("-1/2*v4", tab)
        assert alg.multiply(4, 4) == parse("-x^2 - v2 - 2*v3*x", tab)
        assert alg.multiply(2, 3) == parse("1/2*v4*y - v2*x - 2*v3*x^2", tab)

    def test_unit_row(self):
        for family, n in (("A", 4), ("D", 5), ("E", 6)):
            alg = build_closed_algebra(build_unfolding(family, n))
            for j in range(1, alg.rank + 1):
                assert alg.multiply(1, j) == alg.phi(j)

    def test_confluence_and_associativity(self):
        for family, n in (("A", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)):
            alg = build_closed_algebra(build_unfolding(family, n))
            assert check_confluence(alg).ok
            assert check_associativity(alg).ok

    def test_structure_tensor_symmetry_and_metric_row(self):
        alg = build_closed_algebra(build_unfolding("D", 5))
        ten = structure_constants(alg)
        for a in range(1, ten.rank + 1):
            for i in range(1, ten.rank + 1):
                for j in range(i, ten.rank + 1):
                    assert ten.c(a, i, j) == ten.c(a, j, i)
        assert ten.l == alg.unfolding.l


ALGEBRAS = (
    [("A", n, ext) for n in range(1, 9) for ext in (False, True)]
    + [("D", n, ext) for n in range(3, 9) for ext in (False, True)]
    + [("E", n, False) for n in (6, 7, 8)]
)


def _algebra(family, n, extended):
    u = build_unfolding(family, n)
    return (build_extended_algebra if extended else build_closed_algebra)(u)


# overlapping rule pairs: (family, extended) for A and D, n for E
CRITICAL_PAIRS = {("A", False): 0, ("A", True): 2, ("D", False): 2, ("D", True): 9}
E_CRITICAL_PAIRS = {6: 0, 7: 2, 8: 0}

# rule sets whose normal forms are not unique, yet agree on every basis
# pair product under the first-match and the last-match rule scan
TAMPERED = (
    ("D", 5, (1, 0, 1), 2),  # w*x rule times 2
    ("D", 5, (0, 1, 1), 3),  # w*y rule times 3
    ("A", 4, (1, 0, 1), 2),  # w*x rule times 2
    ("D", 4, (1, 1, 0), 3),  # x*y rule times 3
)


class TestRewriteProof:
    @pytest.mark.parametrize("family, n, extended", ALGEBRAS)
    def test_every_critical_pair_joins(self, family, n, extended):
        alg = _algebra(family, n, extended)
        rep = check_confluence(alg)
        want = E_CRITICAL_PAIRS[n] if family == "E" else CRITICAL_PAIRS[family, extended]
        assert rep.label == f"confluence({alg.label()})"
        assert rep.ok and rep.checked == want

    @pytest.mark.parametrize("family, n, lhs, factor", TAMPERED)
    def test_tampered_rule_set_fails(self, family, n, lhs, factor):
        alg = _algebra(family, n, True)
        rules = [(l, factor * r if l == lhs else r) for l, r in alg.rules]
        bad = QuotientAlgebra(alg.unfolding, alg.table, alg.gens, alg.basis, rules, True)
        assert not check_confluence(bad).ok
        assert not check_associativity(bad).ok

    @pytest.mark.parametrize("power", [5, 4])
    def test_non_decreasing_rule_refused(self, power):
        # x^5 outweighs y^2 (10 against 8 in D5's order), x^4 ties with it
        alg = _algebra("D", 5, False)
        xp = MPoly.variable(alg.table, "x") ** power
        rules = [(l, r + xp if l == (0, 2) else r) for l, r in alg.rules]
        with pytest.raises(PolyError, match=rf"rule \(0, 2\) -> \({power}, 0\) does not"):
            QuotientAlgebra(alg.unfolding, alg.table, alg.gens, alg.basis, rules, False)


class TestCoefficients:
    @pytest.mark.parametrize("family, n, extended", ALGEBRAS)
    def test_slice_rekey_matches_slot_by_slot(self, monkeypatch, family, n, extended):
        # coeffs leaves every coefficient over the algebra table with the
        # generator slots zero, and moves no key (it may not call _rekey);
        # the parameter ring is the slice of that table past the
        # generators, so _rekey onto the slice, which moves each term slot
        # by slot, must give every key shifted past the generator fields
        alg = _algebra(family, n, extended)
        g = len(alg.gens)
        assert alg.gen_slots == tuple(range(g))
        tab = alg.table
        ptab = VarTable(tab.names[g:], tab.weights[g:], tab.laurent)
        sh = exactalg._WIDTH * g
        rekey = exactalg._rekey
        monkeypatch.setattr(exactalg, "_rekey", None)
        for i in range(1, alg.rank + 1):
            for j in range(i, alg.rank + 1):
                for c in alg.coeffs(alg.phi(i) * alg.phi(j)):
                    assert c.table is tab
                    keys = c._num.keys() | (c._im or {}).keys()
                    assert not any(tab._field(k, slot) for k in keys for slot in alg.gen_slots)
                    im = {k >> sh: v for k, v in c._im.items()} if c._im else None
                    got = rekey(c, ptab)
                    assert (got._num, got._den, got._im) == (
                        {k >> sh: v for k, v in c._num.items()}, c._den, im
                    )

    def test_structure_constants_move_no_key(self, monkeypatch):
        calls = []
        rekey = exactalg._rekey
        monkeypatch.setattr(
            exactalg, "_rekey", lambda p, target: calls.append(target) or rekey(p, target)
        )
        for family, n, extended in ALGEBRAS:
            alg = _algebra(family, n, extended)
            ten = structure_constants(alg)
            assert calls == [], alg.label()
            assert ten.table is alg.table


class TestExtendedAlgebra:
    def test_restricts_to_closed(self):
        for family, n in (("A", 3), ("A", 4), ("D", 4), ("D", 5)):
            u = build_unfolding(family, n)
            assert ideal_quotient_consistency(
                build_extended_algebra(u), build_closed_algebra(u)
            )

    def test_extended_rank_and_confluence(self):
        u = build_unfolding("D", 5)
        ext = build_extended_algebra(u)
        assert ext.rank == u.rank + 1
        assert check_confluence(ext).ok
        assert check_associativity(ext).ok


def _tensor_associative(ten: StructureTensor) -> bool:
    n = ten.rank
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                for a in range(1, n + 1):
                    lhs = sum(
                        (ten.c(m, i, j) * ten.c(a, m, k) for m in range(1, n + 1)),
                        MPoly.zero(ten.table),
                    )
                    rhs = sum(
                        (ten.c(m, j, k) * ten.c(a, i, m) for m in range(1, n + 1)),
                        MPoly.zero(ten.table),
                    )
                    if lhs != rhs:
                        return False
    return True


class TestNegativeControls:
    def test_tensor_contraction_form(self):
        ten = structure_constants(build_closed_algebra(build_unfolding("D", 4)))
        assert _tensor_associative(ten)

    def test_corrupted_entry_breaks_associativity(self):
        ten = structure_constants(build_closed_algebra(build_unfolding("D", 4)))
        entries = [[list(row) for row in mat] for mat in ten.entries]
        bump = entries[0][1][2] + MPoly.constant(ten.table, 1)
        entries[0][1][2] = bump
        entries[0][2][1] = bump
        bad = StructureTensor(
            ten.table,
            tuple(tuple(tuple(r) for r in m) for m in entries),
            ten.l,
        )
        assert not _tensor_associative(bad)
