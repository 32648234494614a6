"""Open extensions of the A and D structures: frozen potentials, the open
WDVV and vector-potential sweeps, coordinate recovery, the omega
combinatorics, and the convention rescaling."""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from openwdvv import openext
from openwdvv.exactalg import MPoly, PolyError, parse, rat, replace
from openwdvv.openext import (
    check_coefw_lemma,
    check_dn_second_derivative_identity,
    check_foan_relation,
    extended_table,
    extract_v_from_open_D,
    omega_sequence,
    open_extension,
    open_potential_A,
    open_potential_D,
    rspin_convention_rescale,
    verify_extension_theorems,
    verify_open_wdvv,
    verify_vector_potential,
)
from openwdvv.saito import frobenius_structure


class TestOpenPotentials:
    def test_a_frozen(self):
        a1 = open_potential_A(1)
        assert a1.potential == parse("t1*s + 1/6*s^3", a1.table)
        a2 = open_potential_A(2)
        want = "t1*s + 1/2*t2^2 + 1/2*t2*s^2 + 1/12*s^4"
        assert a2.potential == parse(want, a2.table)

    def test_d4_has_simple_pole_and_s_weight(self):
        ext = open_potential_D(4)
        li = ext.table.laurent_index
        assert min(e[li] for e in ext.potential.terms) == -1
        assert ext.table.weights[li] == (1 - ext.base.delta) / 2
        pole = ext.potential.collect(("s",))[(-1,)]
        assert pole == parse("1/2*t4^2", ext.table)

    def test_unit_condition_enforced(self):
        base = frobenius_structure("A", 2)
        tab = extended_table(base)
        with pytest.raises(PolyError):
            open_extension(base, parse("2*t1*s + 1/12*s^4", tab))

    def test_homogeneity_enforced(self):
        base = frobenius_structure("A", 2)
        tab = extended_table(base)
        bad = open_potential_A(2).potential + parse("s^2", tab)
        with pytest.raises(PolyError):
            open_extension(base, bad)


class TestOpenWdvv:
    def test_sweep(self):
        for n in range(1, 5):
            assert verify_open_wdvv(open_potential_A(n)).ok
        for n in range(3, 6):
            assert verify_open_wdvv(open_potential_D(n)).ok

    def test_tampered_potential_fails(self):
        ext = open_potential_D(4)
        # weight of t2*s^3 equals weight of t3^2*s^3, so swapping their
        # coefficients preserves homogeneity and the unit condition
        fo = ext.potential + parse("1/24*t2*s^3 - 1/24*t3^2*s^3", ext.table)
        bad = replace(ext, potential=fo)
        assert not verify_open_wdvv(bad).ok


class TestVectorPotential:
    def test_axioms(self):
        for n in (1, 2, 3):
            ext = open_potential_A(n)
            rep = verify_vector_potential(ext)
            assert rep.ok, rep.summary()
        for n in (3, 4):
            ext = open_potential_D(n)
            rep = verify_vector_potential(ext)
            assert rep.ok, rep.summary()

    def test_tampered_potential_fails(self):
        # doubling F doubles every closed component F^a against the same
        # metric: the closed unit conditions fail, and so do the rows of F°,
        # whose contractions read c^v_ab
        ext = open_potential_A(2)
        bad = replace(ext, base=replace(ext.base, potential=ext.base.potential * 2))
        rep = verify_vector_potential(bad)
        assert rep.failures == (
            "unit(1,1)", "unit(2,2)", "(3,1,2,2): -1", "(3,1,3,1): -1",
            "(3,1,3,2): -s", "(3,2,3,1): -s", "(3,2,3,2): t2",
        )


class TestExtensionTheorems:
    def test_sweep(self):
        for n in range(1, 5):
            assert verify_extension_theorems("A", n).ok
        for n in range(3, 5):
            assert verify_extension_theorems("D", n).ok

    def test_rejects_unknown_family(self):
        with pytest.raises(PolyError):
            verify_extension_theorems("E", 6)

    def test_refuses_other_families_before_building(self):
        before = open_potential_A.cache_info().misses, open_potential_D.cache_info().misses
        for family, n in (("B", 3), ("E", 6), ("I2", 5)):
            with pytest.raises(PolyError) as err:
                verify_extension_theorems(family, n)
            assert str(err.value) == "extension theorems cover A and D only"
        after = open_potential_A.cache_info().misses, open_potential_D.cache_info().misses
        assert after == before

    def test_tampered_potential_fails(self, monkeypatch):
        ext = open_potential_A(3)
        # t2*t3 has the weight 5/4 of F° and no t1, so the unit and
        # homogeneity conditions still hold; only c^s_(2,3) can see it
        fo = ext.potential + parse("t2*t3", ext.table)
        open_extension(ext.base, fo)
        bad = replace(ext, potential=fo)
        monkeypatch.setattr(openext, "open_potential_A", lambda n: bad)
        rep = verify_extension_theorems("A", 3)
        assert rep.failures == ("c^4_(2,3)",)


class TestCoordinateRecovery:
    def test_foan(self):
        for n in range(1, 5):
            assert check_foan_relation(open_potential_A(n))

    def test_foan_detects_tampering(self):
        ext = open_potential_A(3)
        fo = ext.potential + parse("1/24*t2*s^3 - 1/16*t3^2*s^3", ext.table)
        assert not check_foan_relation(replace(ext, potential=fo))

    def test_extract_v(self):
        for n in range(3, 6):
            ext = open_potential_D(n)
            assert extract_v_from_open_D(ext) == list(ext.base.v_of_t)

    def test_extract_rejects_non_square_pole(self):
        ext = open_potential_D(4)
        fo = ext.potential + parse("t3^3*s^-1", ext.table)
        with pytest.raises(PolyError):
            extract_v_from_open_D(replace(ext, potential=fo))


class TestOmega:
    def test_frozen_d5(self):
        seq = omega_sequence(5, 3)
        texts = [w.text() for w in seq.omegas]
        assert texts == [
            "1",
            "-3*v4",
            "-2*v3 + 9*v4^2",
            "-v2 + 12*v3*v4 - 27*v4^3",
        ]

    def test_closed_form_matches_recursion(self):
        # omega_sequence cross-checks internally and raises on mismatch
        for n in (3, 4, 5, 6):
            omega_sequence(n, 2 * n)

    def test_coefw(self):
        for n in (3, 4, 5):
            assert check_coefw_lemma(n)

    def test_second_derivative_identity(self):
        for n in (3, 4, 5):
            assert check_dn_second_derivative_identity(n)


class TestConventionRescale:
    def test_closed_a1_invariant(self):
        p = frobenius_structure("A", 1).potential
        assert rspin_convention_rescale(p, "to_rspin") == p

    def test_open_a2_values(self):
        ext = open_potential_A(2)
        got = rspin_convention_rescale(ext.potential, "to_rspin")
        want = "t1*s + 1/2*t2^2 - 1/6*t2*s^2 + 1/108*s^4"
        assert got == parse(want, ext.table)

    def test_round_trip(self):
        for n in (1, 2, 3):
            p = open_potential_A(n).potential
            there = rspin_convention_rescale(p, "to_rspin")
            assert rspin_convention_rescale(there, "from_rspin") == p
        q = frobenius_structure("A", 3).potential
        there = rspin_convention_rescale(q, "to_rspin")
        assert rspin_convention_rescale(there, "from_rspin") == q

    def test_closed_a_correlators_match_the_rspin_theory(self):
        # to_rspin of A_n, each coefficient times prod m_a!, gives the genus-0
        # r-spin correlators, r = n + 1 and t_(a+1) <-> tau_a:
        # <tau_a tau_b tau_c> = 1 when a + b + c = r - 2, and
        # <tau_a1 .. tau_a4> = (1/r) min_i min(a_i, r - 1 - a_i) when
        # sum a_i = 2r - 2 (Jarvis, Kimura & Vaintrob, Compositio Math. 126
        # (2001); Pandharipande, Pixton & Zvonkine, J. Amer. Math. Soc. 28
        # (2015)); every other 3- and 4-point coefficient is 0
        nonzero = {3: 0, 4: 0}
        for n in range(1, 13):
            r = n + 1
            p = frobenius_structure("A", n).potential
            got = {
                exp: c * math.prod(map(math.factorial, exp))
                for exp, c in rspin_convention_rescale(p, "to_rspin").terms.items()
                if sum(exp) in (3, 4)
            }
            for k in (3, 4):
                for idx in combinations_with_replacement(range(n), k):
                    if k == 3:
                        want = int(sum(idx) == r - 2)
                    elif sum(idx) == 2 * r - 2:
                        want = Fraction(min(min(a, r - 1 - a) for a in idx), r)
                    else:
                        want = 0
                    nonzero[k] += bool(want)
                    exp = tuple(map(idx.count, range(n)))
                    assert got.pop(exp, 0) == want, (n, idx)
            assert got == {}, n
        assert nonzero == {3: 83, 4: 203}

    def test_open_a_convention(self):
        # to_rspin of the A_n open potential, each coefficient of
        # prod (t^a)^(m_a) s^k times prod m_a! k!, is
        # <tau_a1 .. tau_al sigma^k> = (k + l - 2)!/(-r)^(k + l - 2) with
        # l = sum m_a and r = n + 1: the convention measured here, pinned
        # until it is settled against Buryak, Clader & Tessler's
        # "Open r-spin theory" (ROADMAP item 18)
        sizes = []
        for n in range(1, 11):
            r = n + 1
            p = rspin_convention_rescale(open_potential_A(n).potential, "to_rspin")
            for exp, c in p.terms.items():
                e = sum(exp) - 2
                assert c * math.prod(map(math.factorial, exp)) == Fraction(math.factorial(e), (-r) ** e)
            sizes.append(len(p))
        assert (min(sizes), max(sizes)) == (2, 76)

    def test_rejects_unknown_direction(self):
        p = open_potential_A(1).potential
        with pytest.raises(PolyError):
            rspin_convention_rescale(p, "sideways")
