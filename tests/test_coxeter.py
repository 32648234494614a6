"""Coxeter families: degree data, substituted potentials, open solution
families with the lambda action, boundary correlators, nonexistence
obstructions, and the sign-branch classification for I2."""

import hashlib
import math
import sys
import time
from fractions import Fraction

import pytest

from openwdvv import coxeter, milnor
from openwdvv.coxeter import (
    _E_PATTERNS,
    _fixture_text,
    _open_ansatz,
    _restriction_images,
    _source_family,
    classify_I2,
    correlator_recursion_A,
    coxeter_spec,
    coxeter_structure,
    lambda_rescale,
    obstruction_check,
    open_family,
    potential_coxeter,
    printed_open_potential,
    printed_potential,
)
from openwdvv.exactalg import GaussianRational, MPoly, PolyError, VarTable, parse, rat
from openwdvv.openext import (
    _extend,
    extended_table,
    open_generator_A,
    open_wdvv_equations,
    verify_open_wdvv,
)
from openwdvv.saito import frobenius_structure, from_potential, verify_wdvv

DEGREES = {
    "A3": (4, 3, 2),
    "B3": (6, 4, 2),
    "D4": (6, 4, 2, 4),
    "D5": (8, 6, 4, 2, 5),
    "E6": (12, 9, 8, 6, 5, 2),
    "E7": (18, 14, 12, 10, 8, 6, 2),
    "E8": (30, 24, 20, 18, 14, 12, 8, 2),
    "F4": (12, 8, 6, 2),
    "H3": (10, 6, 2),
    "H4": (30, 20, 12, 2),
    "I2(7)": (7, 2),
}


# sha256 of potential_coxeter(tag).text(): the built potentials, byte for byte
POTENTIAL_DIGESTS = {
    "A1": "de42eca2066d50b1702214f86cf84faf5cffbaebbcf7b4c62c3a33bc21c7b48e",
    "A2": "84b66a87d77128d9a89df98065102cfe06dc9a226dd2ed15769ae449e5c4a643",
    "A3": "ad7f69ef118d6c6dfabd3fbaf44766f488182d7ee033ec14c4c7d25564f140e9",
    "A4": "bbf4d3bcaf7996f26b7fb19f15c0c005427f4b5dcaf1e1f4e6780da594426f23",
    "A5": "a781bbf2c8497a336e963586a66f589aa05804e2dcf85452c00c7421b55eeb12",
    "A6": "cb07ea775bfc55dff2137efa4a7194913b5a8c724bd42739784cd3260be2518a",
    "A7": "bbcaf189f6c8a5604abfa4db5616d9ade29f3ac39b7d827ef227c163b9273af7",
    "A8": "a3d83bee7cc0464a4594f53eda658fe0e37f89f43836b2acfc44ddf83ca6b51f",
    "A9": "f0305dbda078b2ee8ed48cb5b6ac31bf5b052fd64acec79df1e407734ca8925f",
    "A10": "aba02772e82d71bbfe135dfeb5be3d1f4c0a32e2bdf8ff2afbcb389ac3e34ea1",
    "D3": "2599188ee660eca41834c5a687b62684e4ff0f471aaf483a998cb37fce991638",
    "D4": "be0dec694226fa85814f113c03a6c533d76b21497a7d97cb30c06e25eec2311a",
    "D5": "a1c27a43e08203302367a8116f01a68214581d1322b92c8a32ad226e0cef47b2",
    "D6": "19f375ee3edcfa2b7c26abb92a150cdda755f4ba843b0fbbf15c395800e4a49b",
    "D7": "f99bd373efe16d8d77c0877f31a0ce4fa544a0d02c4de4aa1a2635c447a7b186",
    "D8": "2dd997d54084857b5f928330888d03bc513f91be4cdfa12aec188c37c6e542bd",
    "D9": "3fc8ddae97a5c7b46f7d56235b23f64f641ace9125a1b9597400d50c927d398a",
    "B2": "9fd4b1a165457bad7b93a88a71c83797145aa1094030dc289c25035301e2202e",
    "B3": "31e87c5bad29a585a810602f2d113040d3b155609c35e84623368304916600f7",
    "B4": "0c4de86a83d3b7bcfd67e132dc5daec5228395ca39d900d07f0245f0b601cd0d",
    "B5": "7845473e3c6a9397ed93fcec65012bc3921fcf867d14c44f1e3dfc5b99daae63",
    "B6": "5bd49c1bdaee9dc67f279819abcef8debebb17bc9dff348e5b34e457e0b4dd8e",
    "I2(3)": "84b66a87d77128d9a89df98065102cfe06dc9a226dd2ed15769ae449e5c4a643",
    "I2(4)": "9fd4b1a165457bad7b93a88a71c83797145aa1094030dc289c25035301e2202e",
    "I2(5)": "92aa85fdbe7fe7e4f0e8f4da1c405fa3e9eac23bf8233a281f4f49a806d0c946",
    "I2(6)": "0e8cc0428a0e7923b62e00e33b7a1cb3d35cf4d6c1a81e70e7e22e2b8c7baee2",
    "I2(7)": "746499d9bab90e3d7f066f0887130a4b92c901b3423ca49e96b754b01f1214bd",
    "I2(8)": "bc9cda4f1a329b725a8fa345944421ac8f56997fd67d4b16eb44da0610d556e5",
    "I2(9)": "4d576777ec7895b44c8414d1f38899aa18ec69e42519fd6f29142db01cf11810",
    "I2(10)": "437fed9f8e156bbb683c52876d118fe5a3b6c74130850674ed7ad383070f69cc",
    "H3": "32465c409d5eea7672112fee3c7aa1b4dac669f0f9caf31d2abc63630165d5a1",
}


def _substitution_reference(tag):
    """The potential of B_N, I2(k) or H3 obtained by substituting into the
    full source potential, the construction the restricted pipeline
    replaces: B_N keeps the odd coordinates of A_{2N-1}, I2(k) the first
    and last of A_{k-1}, and H3 is D6 at t6 = i*t2."""
    spec = coxeter_spec(tag)
    tab = spec.table()

    def t(a):
        return MPoly.variable(tab, f"t{a}")

    if spec.family == "B":
        src = frobenius_structure("A", 2 * spec.n - 1)
        images = {f"t{2 * a - 1}": t(a) for a in range(1, spec.n + 1)}
    elif spec.family == "I2":
        src = frobenius_structure("A", spec.n - 1)
        images = {"t1": t(1), f"t{spec.n - 1}": t(2)}
    else:
        src = frobenius_structure("D", 6)
        images = {"t1": t(1), "t3": t(2), "t5": t(3), "t6": t(2) * GaussianRational(0, 1)}
    zero = MPoly.zero(tab)
    return src.potential.substitute(
        {nm: images.get(nm, zero) for nm in src.table.names}, tab
    )


class TestSpecs:
    def test_degree_tables(self):
        for tag, degrees in DEGREES.items():
            spec = coxeter_spec(tag)
            assert spec.degrees == degrees
            assert spec.h == degrees[0]
            assert spec.q[0] == 1

    def test_parse_forms_no_weights(self, monkeypatch):
        # parsing forms no per-rank Fraction: q_1 = d_1/h = 1 and
        # (1 - delta)/2 = 1/h hold by definition, so neither is checked
        def read_q(spec):
            pytest.fail(f"q of {spec.tag} read")

        monkeypatch.setattr(coxeter.CoxeterSpec, "q", property(read_q))
        for tag in ("A5", "B3", "D4", "E7", "F4", "H3", "I2(6)"):
            assert coxeter_spec(tag).tag == tag

    def test_delta_values(self):
        assert coxeter_spec("H3").delta == Fraction(4, 5)
        assert coxeter_spec("H4").delta == Fraction(14, 15)
        assert coxeter_spec("F4").delta == Fraction(5, 6)
        assert coxeter_spec("I2(6)").delta == Fraction(2, 3)

    def test_rejects_unknown(self):
        for tag in (
            "Q5", "D2", "E5", "E9", "H5", "I2(2)", "B1", "A0", "F5",
            "", "A", "I2()", "Bx", "I2(x)",
        ):
            with pytest.raises(PolyError):
                coxeter_spec(tag)

    def test_milnor_weights_match_degrees(self):
        for family, n in (("D", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)):
            from openwdvv.milnor import build_unfolding

            spec = coxeter_spec(f"{family}{n}")
            assert build_unfolding(family, n).weights == spec.q


class TestSubstitutedPotentials:
    def test_low_rank_coincidences(self):
        assert potential_coxeter("I2(3)") == frobenius_structure("A", 2).potential
        assert potential_coxeter("B2") == potential_coxeter("I2(4)")

    def test_b3_from_a5(self):
        src = frobenius_structure("A", 5)
        tab = coxeter_spec("B3").table()
        zero = MPoly.zero(tab)
        images = {
            "t1": MPoly.variable(tab, "t1"),
            "t2": zero,
            "t3": MPoly.variable(tab, "t2"),
            "t4": zero,
            "t5": MPoly.variable(tab, "t3"),
        }
        assert potential_coxeter("B3") == src.potential.substitute(images, tab)

    def test_restricted_matches_substitution(self):
        tags = ["B2", "B3", "B4", "B5", "H3"] + [f"I2({k})" for k in range(3, 11)]
        for tag in tags:
            ref = _substitution_reference(tag)
            fs = coxeter_structure(tag)
            assert fs.potential.text() == ref.text(), tag
            assert fs == from_potential(tag, ref), tag

    def test_no_source_build(self):
        frobenius_structure.cache_clear()
        coxeter_structure.cache_clear()
        open_family.cache_clear()
        coxeter_structure("B4")
        open_family("B4")
        assert frobenius_structure.cache_info().currsize == 0

    def test_one_build_per_group(self):
        coxeter_structure.cache_clear()
        open_family.cache_clear()
        assert verify_wdvv(coxeter_structure("I2(5)")).ok
        open_family(coxeter_spec("I2(5)"))
        classify_I2(5)
        potential_coxeter("I2(5)")
        assert coxeter_structure("I2(05)") is coxeter_structure("I2(5)")
        assert coxeter_structure.cache_info().misses == 1
        coxeter_structure.cache_clear()
        # the H3 obstruction reuses the cached H3 entry and adds no miss
        fs = coxeter_structure("H3")
        assert obstruction_check("H3").ok
        assert coxeter_structure(coxeter_spec("H3")) is fs
        assert coxeter_structure.cache_info().misses == 1
        coxeter_structure.cache_clear()
        assert verify_wdvv(coxeter_structure("F4")).ok
        assert obstruction_check(coxeter_spec("F4")).ok
        potential_coxeter("F4")
        assert coxeter_structure.cache_info().misses == 1
        # A and D are the singularity pipeline's entries, not this cache's
        assert coxeter_structure("D4") is frobenius_structure("D", 4)
        assert potential_coxeter("A3") == frobenius_structure("A", 3).potential
        assert coxeter_structure.cache_info().currsize == 1

    def test_h3_imaginary_parts_cancel(self):
        p = potential_coxeter("H3")
        assert all(c.im == 0 for c in p.terms.values())
        assert set(p.terms) == set(printed_potential("H3").terms)

    def test_printed_sources(self):
        for tag in ("D4", "D5"):
            assert printed_potential(tag) == frobenius_structure("D", int(tag[1])).potential
        with pytest.raises(PolyError):
            printed_potential("B3")
        # F4 and H4 are built from their printed potentials
        for tag in ("F4", "H4"):
            assert potential_coxeter(tag) == printed_potential(tag)
        with pytest.raises(PolyError):
            potential_coxeter("E6")

    def test_printed_d_builds_no_structure(self):
        frobenius_structure.cache_clear()
        printed_potential("D5")
        assert frobenius_structure.cache_info().currsize == 0

    def test_printed_open_d_builds_no_structure(self):
        for tag in ("D4", "D5"):
            frobenius_structure.cache_clear()
            got = printed_open_potential(tag)
            assert frobenius_structure.cache_info().currsize == 0
            # the route through the built structure gives the same table
            tab = extended_table(frobenius_structure("D", int(tag[1])))
            assert got.table == tab
            want = parse(_fixture_text(f"{tag.lower()}_open.txt"), tab)
            assert got.to_json() == want.to_json()

    def test_closed_wdvv(self):
        for tag in ("B2", "B3", "I2(5)", "I2(8)", "F4", "H3", "H4"):
            rep = verify_wdvv(coxeter_structure(tag))
            assert rep.ok, rep.summary()
        printed = from_potential("H3", printed_potential("H3"))
        assert verify_wdvv(printed).ok

    def test_odd_even_vanishing_behind_b(self):
        # every t-monomial of F_{A_{2N-1}} carries an even number of
        # even-slot factors, so the substitution never cancels terms
        for n in (2, 3):
            src = frobenius_structure("A", 2 * n - 1)
            for exp in src.potential.terms:
                assert sum(exp[a] for a in range(1, 2 * n - 1, 2)) % 2 == 0


class TestPotentialPins:
    def test_potential_text(self):
        for tag, want in POTENTIAL_DIGESTS.items():
            got = hashlib.sha256(potential_coxeter(tag).text().encode()).hexdigest()
            assert got == want, tag

    def test_from_potential_reads_back_every_structure(self):
        for tag in POTENTIAL_DIGESTS:
            fs = coxeter_structure(tag)
            again = from_potential(fs.label, fs.potential)
            assert again.eta == fs.eta and again.eta_inv == fs.eta_inv, tag
            assert again.delta == fs.delta and again.table == fs.table, tag


class TestOpenFamilies:
    def test_generator_b2(self):
        fam = open_family("B2")
        want = "t1*s + 1/2*t2^2*s + 1/3*t2*s^3 + 1/20*s^5"
        assert fam.generator.text() == want

    @pytest.mark.parametrize(
        "tag", [f"B{n}" for n in range(2, 7)] + [f"I2({k})" for k in range(3, 13)]
    )
    def test_generator_on_live_slots_matches_substitution(self, tag):
        # oracle: the whole A_m generator with the restriction images put in
        spec = coxeter_spec(tag)
        src = coxeter_spec(f"A{_source_family(spec)[1]}")
        src_tab = _extend(src.table(), src.delta)
        got = open_family(tag).generator
        tab = got.table
        images = dict(zip(src_tab.names, _restriction_images(spec, tab)))
        images["s"] = MPoly.variable(tab, "s")
        want = open_generator_A(src.n, src_tab).substitute(images, tab)
        assert (got.table, got._num, got._den, got._im) == (
            want.table, want._num, want._den, want._im
        )

    def test_domains(self):
        for tag, dom in (("A1", "C"), ("A2", "C*"), ("B2", "C"), ("B4", "C"),
                         ("I2(5)", "C*"), ("I2(6)", "C")):
            assert open_family(tag).domain == dom

    def test_branches(self):
        assert open_family("I2(5)").branches == ("plus",)
        assert open_family("I2(6)").branches == ("plus", "minus")
        with pytest.raises(PolyError):
            open_family("I2(5)").member(1, "minus")

    def test_members_solve_open_wdvv(self):
        for tag in ("A3", "B3", "I2(5)", "I2(6)"):
            fam = open_family(tag)
            for lam in (1, 2, -1, "1/2"):
                for branch in fam.branches:
                    rep = verify_open_wdvv(fam.extension(lam, branch))
                    assert rep.ok, (tag, lam, branch, rep.summary())
            if fam.domain == "C":
                assert verify_open_wdvv(fam.extension(0)).ok

    def test_lambda_zero_rejected_on_punctured_domain(self):
        with pytest.raises(PolyError):
            open_family("A2").member(0)

    def test_lambda_action_on_terms(self):
        fam = open_family("B2")
        lam = GaussianRational(rat(1, 2))
        got = fam.member("1/2")
        powers = {e[fam.generator.table.laurent_index] for e in fam.generator.terms}
        for j in powers:
            want = fam.generator.collect(("s",))[(j,)] * (lam ** (j - 1))
            assert got.collect(("s",))[(j,)] == want
        assert got == lambda_rescale(fam.generator, "1/2")

    def test_no_open_family_for_d(self):
        with pytest.raises(PolyError):
            open_family("D4")


class TestCorrelators:
    def test_rejects_bad_arguments(self):
        for N, max_n in ((0, 2), (-1, 2), (3, -1)):
            with pytest.raises(PolyError):
                correlator_recursion_A(N, max_n)

    def test_seeds(self):
        for N in (2, 3, 4):
            table = correlator_recursion_A(N, 2)
            assert table[()] == math.factorial(N)
            for a in range(1, N + 1):
                assert table[(a,)] == math.factorial(a - 1)

    def test_hand_values(self):
        assert correlator_recursion_A(2, 2)[(2, 2)] == 1
        t3 = correlator_recursion_A(3, 2)
        assert t3[(3, 3)] == 1 and t3[(2, 3)] == 1
        assert correlator_recursion_A(4, 3)[(4, 4, 4)] == 1

    def test_lengths_past_the_admissible_bound_add_nothing(self):
        # every insertion adds at least 2 to sum(N + 2 - a), so k >= 0
        # allows at most (N + 2) // 2 of them
        for N in (3, 4, 6):
            cap = (N + 2) // 2
            assert correlator_recursion_A(N, cap + 4) == correlator_recursion_A(N, cap)

    def test_refused_requests_return_at_once(self, monkeypatch):
        def build_nothing(*args):
            raise AssertionError("a refused request built something")

        monkeypatch.setattr(coxeter, "combinations_with_replacement", build_nothing)
        monkeypatch.setattr(coxeter, "coxeter_spec", build_nothing)
        t0 = time.perf_counter()
        # the CLI default --max-n 5 at A1000, just past the budget at A20,
        # and an N whose square alone is past it, whatever the bound
        for N, max_n in ((1000, 5), (20, 11), (10 ** 9, 10 ** 9)):
            with pytest.raises(PolyError, match="exceed the work budget"):
                correlator_recursion_A(N, max_n)
        assert time.perf_counter() - t0 < 1

    def test_unprintable_tables_are_refused_before_building(self, monkeypatch):
        # the empty tuple's N! must print within sys.get_int_max_str_digits();
        # the edge is exact for any limit (4300 is the default), and no
        # limit refuses nothing
        def build_nothing(*args):
            raise AssertionError("a refused request built something")

        limit = sys.get_int_max_str_digits()
        try:
            for digits in (640, 1001, 4300):
                sys.set_int_max_str_digits(digits)
                n, fact = 1, 1
                while fact < 10 ** digits:
                    n += 1
                    fact *= n
                assert correlator_recursion_A(n - 1, 0) == {(): fact // n}
                monkeypatch.setattr(coxeter, "coxeter_spec", build_nothing)
                for max_n in (0, 1):
                    with pytest.raises(PolyError, match=f"{n}!, which has more than {digits} digits"):
                        correlator_recursion_A(n, max_n)
                monkeypatch.undo()
            sys.set_int_max_str_digits(0)
            assert correlator_recursion_A(n, 0) == {(): fact}
        finally:
            sys.set_int_max_str_digits(limit)

    def test_budget_edge(self, monkeypatch):
        # A4 up to 3 insertions: N^2 * C(7, 3) = 16 * 35
        monkeypatch.setattr(coxeter, "MAX_CORRELATOR_WORK", 16 * 35)
        assert correlator_recursion_A(4, 3)[(4, 4, 4)] == 1
        assert correlator_recursion_A(4, 9) == correlator_recursion_A(4, 3)
        monkeypatch.setattr(coxeter, "MAX_CORRELATOR_WORK", 16 * 35 - 1)
        with pytest.raises(PolyError, match="exceed the work budget"):
            correlator_recursion_A(4, 3)
        assert len(correlator_recursion_A(4, 2)) == 9

    def test_closed_form(self):
        for N in (2, 3, 4):
            table = correlator_recursion_A(N, 5)
            for t, val in table.items():
                k = N + 2 - sum(N + 2 - a for a in t)
                assert val == rat(math.factorial(len(t) + k - 2))


class TestObstructions:
    def test_all_groups_pass(self):
        for tag in ("D4", "D5", "D6", "E6", "E7", "E8", "F4", "H4", "H3"):
            rep = obstruction_check(tag)
            assert rep.ok, rep.summary()

    DE = ("D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8")

    def test_de_obstruction_reads_one_product(self, monkeypatch):
        # the row c^mu_{al,be} the check compares comes from reducing the one
        # product phi_al*phi_be; it is that row of the whole structure tensor
        rows = []
        real = milnor.QuotientAlgebra.coeffs
        monkeypatch.setattr(
            milnor.QuotientAlgebra, "coeffs",
            lambda alg, p: rows.append((alg, p, real(alg, p))) or rows[-1][2],
        )
        for tag in self.DE:
            rows.clear()
            assert obstruction_check(tag).ok
            [(alg, p, row)] = rows
            n = int(tag[1:])
            al, be = (2, n) if tag[0] == "D" else _E_PATTERNS[n][:2]
            assert p == alg.phi(al) * alg.phi(be)
            ten = milnor.structure_constants(alg)
            assert row == [ten.c(mu, al, be) for mu in range(1, alg.rank + 1)]

    def test_de_obstruction_builds_no_structure_tensor(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a structure tensor was built")

        monkeypatch.setattr(milnor, "structure_constants", refuse)
        monkeypatch.setattr(milnor, "StructureTensor", refuse)
        for tag in self.DE:
            assert obstruction_check(tag).ok

    def test_out_of_scope_groups_rejected(self):
        for tag in ("A3", "B3", "D3", "I2(5)"):
            with pytest.raises(PolyError):
                obstruction_check(tag)

    def test_h3_candidate_monomials(self):
        # all (t1, t2, t3, s) monomials of weighted degree 11/10 under
        # weights (1, 3/5, 1/5, 1/10): the unit term plus nine unknowns
        from openwdvv.saito import _weighted_keys

        plain = VarTable(("t1", "t2", "t3", "s"))  # unpacks the unbiased keys
        got = {plain.unpack(key) for key, *_ in _weighted_keys((10, 6, 2, 1), 11)}
        want = {
            (1, 0, 0, 1),
            (0, 1, 2, 1), (0, 1, 1, 3), (0, 1, 0, 5),
            (0, 0, 5, 1), (0, 0, 4, 3), (0, 0, 3, 5),
            (0, 0, 2, 7), (0, 0, 1, 9), (0, 0, 0, 11),
        }
        assert got == want
        # the ansatz: t1*s plus one unknown per t1-free candidate, m/m!
        fo = _open_ansatz(from_potential("H3", printed_potential("H3")))
        unknowns = fo.table.names[4:]
        assert len(unknowns) == 9
        seen = set()
        for exp, c in fo.terms.items():
            tpart, bpart = exp[:4], exp[4:]
            if tpart == (1, 0, 0, 1):
                assert not any(bpart) and c == 1
                continue
            assert sum(bpart) == 1
            assert c == rat(1, math.prod(math.factorial(a) for a in tpart))
            seen.add(tpart)
        assert len(fo) == 10 and seen == want - {(1, 0, 0, 1)}


class TestClassification:
    def test_reproduces_generators(self):
        for k in range(3, 9):
            fam = classify_I2(k)
            assert fam.generator == open_family(f"I2({k})").generator

    def test_frozen_coefficients(self):
        assert classify_I2(3).coefficients == (
            GaussianRational(2), GaussianRational(1), GaussianRational(1))
        assert classify_I2(4).coefficients == (
            GaussianRational(6), GaussianRational(2), GaussianRational(1))
        assert classify_I2(5).coefficients == (
            GaussianRational(24), GaussianRational(6),
            GaussianRational(2), GaussianRational(1))

    def test_minus_branch_is_reflection(self):
        fam = classify_I2(6)
        tab = fam.generator.table
        mirror = 2 * MPoly.variable(tab, "t1") * MPoly.variable(tab, "s")
        assert fam.member(1, "minus") == mirror - fam.generator

    def test_free_coefficient_moves_along_orbit(self):
        for k, lam in ((5, 3), (4, 2)):
            fam = open_family(f"I2({k})")
            member = fam.member(lam)
            if k % 2:
                l = (k - 1) // 2
                idx, jpow = l + 1, 0
            else:
                l = k // 2
                idx, jpow = l - 1, 3
            c = member.coefficient({"t2": idx, "s": jpow})
            c = c * (math.factorial(idx) * math.factorial(jpow))
            assert classify_I2(k, free_coefficient=c).generator == member

    def test_even_top_coefficient_is_lambda_invariant(self):
        base = classify_I2(4).coefficients
        moved = classify_I2(4, free_coefficient=8).coefficients
        assert base[2] == moved[2]

    def test_solution_solves_the_ansatz_equations(self):
        for k in range(3, 9):
            fam = classify_I2(k)
            fo = _open_ansatz(fam.base)
            tab = fo.table
            bnames = tab.names[3:]
            assert len(bnames) == len(fam.coefficients)
            images = {
                b: MPoly.constant(tab, c) for b, c in zip(bnames, fam.coefficients)
            }
            solved = fo.substitute(images, tab)
            # b_i is the coefficient of t2^i s^(k+1-2i) / (i! (k+1-2i)!)
            assert solved.substitute({}, extended_table(fam.base)) == fam.generator
            pairs = list(open_wdvv_equations(fam.base, solved))
            assert len(pairs) == 5 and all(l == r for _, l, r in pairs), k
            images[bnames[0]] = MPoly.constant(tab, fam.coefficients[0] + 1)
            moved = fo.substitute(images, tab)
            broken = [
                lab for lab, l, r in open_wdvv_equations(fam.base, moved) if l != r
            ]
            assert any(lab.startswith("eq2") for lab in broken), k

    def test_zero_top_coefficient_rejected_for_odd(self):
        with pytest.raises(PolyError):
            classify_I2(5, free_coefficient=0)
