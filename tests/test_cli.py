"""Command line surface: canonical output, JSON round-trips, exit codes."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import openwdvv
from openwdvv import cli, milnor, openext, saito
from openwdvv.cli import _build_parser, _emit_report, main
from openwdvv.coxeter import (
    classify_I2,
    coxeter_structure,
    lambda_rescale,
    open_family,
)
from openwdvv.exactalg import MPoly, replace
from openwdvv.openext import (
    open_extension,
    open_potential_A,
    open_potential_D,
    verify_open_wdvv,
    verify_vector_potential,
)
from openwdvv.report import Report
from openwdvv.saito import frobenius_structure


@lru_cache(maxsize=None)
def printable_edge():
    """(largest N whose N! has at most sys.get_int_max_str_digits() digits,
    that N + 1), found by exact comparison with a power of ten."""
    limit = sys.get_int_max_str_digits()
    assert limit, "integer printing is unlimited here"
    bound, n, fact = 10 ** limit, 1, 1
    while fact * (n + 1) < bound:
        n += 1
        fact *= n
    return n, n + 1


def run(capsys, *argv):
    """(exit status, stdout, stderr) of one request.

    An argparse exit (--help, usage error) is returned as ("SystemExit", code).
    """
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def recorded_lambdas(monkeypatch) -> list:
    """The lambda of every cli._open_ext_for call from now on, in order."""
    lams = []
    real = cli._open_ext_for
    monkeypatch.setattr(cli, "_open_ext_for", lambda *args: lams.append(args[2]) or real(*args))
    return lams


def stdout_sha256(capsys, *argv):
    """sha256 of the stdout of a request that must exit 0."""
    code, out, _ = run(capsys, *argv)
    assert code == 0, argv
    return hashlib.sha256(out.encode()).hexdigest()


class TestConstructiveVerbs:
    def test_potential_text_is_canonical(self, capsys):
        code, out, _ = run(capsys, "potential", "D", "4")
        assert code == 0
        assert out.strip() == frobenius_structure("D", 4).potential.text()

    def test_potential_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "potential", "A", "3", "--format", "json")
        assert code == 0
        assert MPoly.from_json(out) == frobenius_structure("A", 3).potential

    def test_open_potential_lambda_and_branch(self, capsys):
        code, out, _ = run(
            capsys, "open-potential", "I2", "4", "--branch", "minus",
            "--lambda", "1/2",
        )
        assert code == 0
        want = open_family("I2(4)").member("1/2", "minus")
        assert out.strip() == want.text()

    def test_b2_minus_branch(self, capsys):
        # B2 = I2(4): the rank-2 groups of even Coxeter number have both
        # branches, and B2's minus member is I2(4)'s
        for argv, want in (
            (("verify", "open-wdvv", "B", "2", "--branch", "minus"),
             "open-wdvv(B2): pass (9 identities)\n"),
            (("verify", "vector", "B", "2", "--branch", "minus"),
             "vector-potential(vector(B2)): pass (39 identities)\n"),
            (("open-potential", "B", "2", "--branch", "minus"),
             "t1*s - 1/2*t2^2*s - 1/3*t2*s^3 - 1/20*s^5\n"),
            (("open-potential", "I2", "4", "--branch", "minus"),
             "t1*s - 1/2*t2^2*s - 1/3*t2*s^3 - 1/20*s^5\n"),
        ):
            assert run(capsys, *argv) == (0, want, ""), argv

    def test_open_potential_d_pole(self, capsys):
        code, out, _ = run(capsys, "open-potential", "D", "5", "--format", "json")
        assert code == 0
        assert MPoly.from_json(out) == open_potential_D(5).potential

    def test_open_potential_d_lambda(self, capsys):
        for lam, spelled in (("2", ("--lambda", "2")), ("-1/3", ("--lambda=-1/3",))):
            code, out, _ = run(capsys, "open-potential", "D", "5", *spelled)
            assert code == 0, lam
            want = lambda_rescale(open_potential_D(5).potential, lam)
            assert out.strip() == want.text()

    def test_printed_source(self, capsys):
        code, out, _ = run(capsys, "potential", "D", "5", "--source", "printed")
        assert code == 0
        assert out.strip() == frobenius_structure("D", 5).potential.text()
        # auto and printed are the only sources
        with pytest.raises(SystemExit) as exc:
            main(["potential", "I2", "5", "--source", "substitution"])
        assert exc.value.code == 2

    def test_coords_invert_each_other(self, capsys):
        code, out, _ = run(capsys, "flat-coords", "A", "4", "--format", "json")
        assert code == 0
        fwd = json.loads(out)
        code, out, _ = run(capsys, "invert-coords", "A", "4", "--format", "json")
        assert code == 0
        bwd = json.loads(out)
        assert [c["name"] for c in fwd["coords"]] == ["t1", "t2", "t3", "t4"]
        assert [c["name"] for c in bwd["coords"]] == ["v1", "v2", "v3", "v4"]
        fs = frobenius_structure("A", 4)
        for c, p in zip(fwd["coords"], fs.t_of_v):
            assert MPoly.from_json(json.dumps(c["expr"])) == p

    def test_coords_build_no_structure(self, capsys, monkeypatch):
        # the coordinate verbs print t(v) and its inverse and build no
        # potential: with the residue route refusing and the structure
        # cache empty, they still serve, with the structure's rendering
        want = {}
        for verb, family, n in (("flat-coords", "A", 6), ("invert-coords", "D", 6)):
            fs = frobenius_structure(family, n)
            if verb == "flat-coords":
                pairs = zip(fs.table.names, fs.t_of_v)
            else:
                pairs = zip(fs.v_table.names, fs.v_of_t)
            want[verb] = "".join(f"{nm} = {p.text()}\n" for nm, p in pairs)

        def refuse(*args, **kwargs):
            raise AssertionError("a coordinate verb built a Frobenius structure")

        monkeypatch.setattr(saito, "residue_structure", refuse)
        frobenius_structure.cache_clear()
        for argv in (("flat-coords", "A", "6"), ("invert-coords", "D", "6")):
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            assert out == want[argv[0]], argv
        assert frobenius_structure.cache_info().currsize == 0
        for argv, message in (
            (("flat-coords", "A", "0"), "error: A_n needs n >= 1\n"),
            (("flat-coords", "D", "2"), "error: D_n needs n >= 3\n"),
            (("invert-coords", "D", "1"), "error: D_n needs n >= 3\n"),
            (
                ("invert-coords", "E", "6"),
                "error: flat coordinates are constructed for A and D only\n",
            ),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", message), argv

    def test_correlators_text(self, capsys):
        code, out, _ = run(capsys, "correlators", "A", "2", "--max-n", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert "<sigma^4> = 2" in lines
        assert "<tau_2 tau_2 sigma^0> = 1" in lines

    def test_correlators_at_the_printable_edge(self, capsys):
        # N! is the empty tuple's value and the largest of the table: the
        # largest N whose N! can be printed runs, the next one is refused
        # before its table is built, in text and in JSON
        ok, refused = printable_edge()
        value = math.factorial(ok)
        code, out, _ = run(capsys, "correlators", "A", str(ok), "--max-n", "0")
        assert code == 0 and out == f"<sigma^{ok + 2}> = {value}\n"
        code, out, _ = run(
            capsys, "correlators", "A", str(ok), "--max-n", "0", "--format", "json"
        )
        assert code == 0
        (entry,) = json.loads(out)["entries"]
        assert entry["value"] == [value, 1]
        for fmt in ("text", "json"):
            for max_n in ("0", "1"):
                code, out, err = run(capsys, "correlators", "A", str(refused),
                                     "--max-n", max_n, "--format", fmt)
                assert (code, out) == (2, ""), (fmt, max_n)
                assert err.startswith(f"error: correlators of A{refused} hold "
                                      f"{refused}!, which has more than "), (fmt, max_n)

    def test_classify_json(self, capsys):
        code, out, _ = run(
            capsys, "classify", "I2", "4", "--branch", "minus", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["domain"] == "C" and obj["branches"] == ["plus", "minus"]
        betas = [b[0] for b in obj["coefficients"]]
        assert betas == [[6, 1], [2, 1], [1, 1]]
        member = MPoly.from_json(json.dumps(obj["member"]))
        assert member == classify_I2(4).member(1, "minus")

    def test_classify_output_is_unchanged(self, capsys):
        # sha256 of the full stdout of `classify I2 k`, text then json, as
        # first recorded; both formats must stay byte-identical
        digests = {
            3: ("d0af7857500bfcb89c89fb624f471f7d80c06621a3a98afbad1908d8ee743b60",
                "387e68a21cd741bf6b34c743e17a310dafd177e6336772f961934fe0d5647e28"),
            4: ("c3811a624aab2bd8070809eba7b7e50e428854dce0251a7334ac9097d3f977ab",
                "9f497b4fc49194f138bde7cb921c03936d42ab264ce3cebdfaddc40704afcc3f"),
            5: ("dba251f09d0a6adcab001cf6bcbfd1dfed5712bae8451d5c7b407b6f28c2f160",
                "b52943b35cd7b932be089d82cf950e34477e45846d2f8d9af9dc76e66153d5b5"),
            6: ("0da4d5a7dea89e97ed17983d2b913c15a5b32c195a89aabb0a592f0bf54b2623",
                "fb53948aa50fd9466d5d499ffe7f46c8fdb6a143bcb2cf32a6d1792184857a70"),
            7: ("b73eb9cac217c17e174261a197e7a57fb6b1c62aa2f47789d30a6cdf4aff95b0",
                "70b8618b00cf56f0beb51493dca0277fcbce726a5a34c0aa08709101cbf0df62"),
            8: ("a3c482bccbd40139fc24153b31348787edc8c2194d9bde97c7d7309d5cd8cd41",
                "f7f988c1143c50a2eea00978ad481e1a61b654a9e8f42228807c3d8328c884dc"),
            9: ("3121e5421b2b21d121ebd8a658e368a027ddf1035da750b546f7276554113cdd",
                "160adbbc3a52490d8a830478a23f35788b323962787ad175cd19d5d4035099a1"),
            10: ("c2c88cfe12105aa0b7cc1bee3739876a3ebc19829af45369020c6e28a66270bb",
                 "ed03d1b5a6e1f093a58a026532d93f246d0d8cef3560dae0b76107e19f843ae8"),
        }
        for k, pair in digests.items():
            for fmt, digest in zip(("text", "json"), pair):
                got = stdout_sha256(capsys, "classify", "I2", str(k), "--format", fmt)
                assert got == digest, (k, fmt)


    def test_large_restricted_potentials_are_unchanged(self, capsys):
        # sha256 of the stdout of `potential B 8`, `potential I2 20` and
        # `potential I2 30`, as the tensor route printed them
        for argv, digest in (
            (("B", "8"), "6994062f55bb381b640d210579397f94d6ba32cd71d3e57b2ca1f01e9fff7480"),
            (("I2", "20"), "fb4772cfa9ddb4b9b1a87e7f10b80dc22ec4692ebaf905fda68e7ddecb9751b2"),
            (("I2", "30"), "b40bbdd868f445af2b906fa4a1b632e6b8f9127851fd41729891a3928f45123e"),
        ):
            assert stdout_sha256(capsys, "potential", *argv) == digest, argv


class TestVerifyVerbs:
    def test_verify_passes(self, capsys):
        for argv in (
            ("verify", "wdvv", "A", "3"),
            ("verify", "wdvv", "H", "3"),
            ("verify", "open-wdvv", "D", "4"),
            ("verify", "open-wdvv", "I2", "6", "--branch", "minus"),
            ("verify", "extension", "D", "4"),
            ("verify", "foan", "A", "4"),
            ("verify", "extract", "D", "4"),
            ("verify", "vector", "B", "2"),
            ("verify", "omega", "D", "4"),
            ("obstruction", "E", "6"),
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            assert "pass" in out

    def test_verify_all_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "all", "--max-rank", "3", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] and obj["checked"] > 100
        assert all(r["ok"] for r in obj["reports"])

    def test_verify_all_parts_in_order(self, capsys):
        # the (label, checked) sequence of the sweep, pinned as first recorded
        code, out, _ = run(
            capsys, "verify", "all", "--max-rank", "3", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        parts = [(r["label"], r["checked"]) for r in obj["reports"]]
        i2 = []
        for k in range(3, 9):
            i2 += [(f"open-wdvv(I2({k}))", 9)] * (2 - k % 2)
            i2.append((f"classification(I2({k}))", 1))
        assert parts == [
            ("wdvv(A1)", 1), ("wdvv(A2)", 4), ("wdvv(A3)", 15),
            ("wdvv(D3)", 15), ("wdvv(B2)", 4), ("wdvv(B3)", 15),
            *((f"wdvv(I2({k}))", 4) for k in range(3, 9)),
            ("wdvv(F4)", 46), ("wdvv(H3)", 15), ("wdvv(H4)", 46),
            ("open-wdvv(A1)", 4), ("extension(A1)", 6), ("foan(A1)", 1),
            ("vector-potential(vector(A1))", 10),
            ("open-wdvv(A2)", 9), ("extension(A2)", 18), ("foan(A2)", 1),
            ("vector-potential(vector(A2))", 39),
            ("open-wdvv(A3)", 20), ("extension(A3)", 40), ("foan(A3)", 1),
            ("vector-potential(vector(A3))", 116),
            ("open-wdvv(D3)", 20), ("extension(D3)", 40), ("extract(D3)", 1),
            ("vector-potential(vector(D3))", 116), ("omega(D3)", 3),
            ("open-wdvv(B2)", 9), ("open-wdvv(B3)", 20),
            *i2,
            ("obstruction(F4)", 10), ("obstruction(H3)", 2),
            ("obstruction(H4)", 10),
        ]
        assert obj["checked"] == 768 == sum(c for _, c in parts)

    def test_verify_all_rank6_output_is_unchanged(self, capsys):
        # sha256 of the full stdout of `verify all --max-rank 6`, as first
        # recorded; a refactor must leave both formats byte-identical
        for fmt, digest in (
            ("text", "da727d35161ca0e16bcc17c015e0521c0e6045d484d8d07f0f855ac686fd670a"),
            ("json", "c31f00262f92375ca21aebee52a6a5552c480c62cf43fa18a75b2f8aef473c50"),
        ):
            got = stdout_sha256(
                capsys, "verify", "all", "--max-rank", "6", "--format", fmt
            )
            assert got == digest, fmt

    def test_verify_all_rank8_output_is_unchanged(self, capsys):
        # as above, for `--max-rank 8`: A7, A8, D7 and D8 are pinned here only
        for fmt, digest in (
            ("text", "fe350bf5ae8044a16614686fba25f10e4d30c2b03e3d0df3a08f1801446c3acf"),
            ("json", "eb53c38001fd666224a493755f8f38b29a7e876a2beef5de1e949fe764015eff"),
        ):
            got = stdout_sha256(
                capsys, "verify", "all", "--max-rank", "8", "--format", fmt
            )
            assert got == digest, fmt

    def test_verify_all_builds_each_singularity_once(self, capsys, monkeypatch):
        # every A and D source, and B_n, I2(k) and H3 restricted from them,
        # is read off residues and builds no structure tensor; the extension
        # and omega checks read milnor.extended_constants and build no
        # algebra, so the only algebras are the closed ones of the D and E
        # obstructions, which reduce one product each and build no tensor
        calls = []
        real = saito.structure_constants
        monkeypatch.setattr(
            saito, "structure_constants", lambda alg: calls.append(alg) or real(alg)
        )
        built = []
        real_init = milnor.QuotientAlgebra.__init__

        def init(alg, *args):
            real_init(alg, *args)
            built.append(alg.label())

        monkeypatch.setattr(milnor.QuotientAlgebra, "__init__", init)
        for cached in (
            saito.singularity_data, frobenius_structure, coxeter_structure,
            open_family, open_potential_A, open_potential_D,
        ):
            cached.cache_clear()
        code, _, _ = run(capsys, "verify", "all", "--max-rank", "6")
        assert code == 0
        assert [alg.label() for alg in calls] == []
        assert built == ["D4 closed", "D5 closed", "D6 closed", "E6 closed"]

    def test_verify_extension_reads_the_relations(self, capsys, monkeypatch):
        # with F and F° cached, a tampered unfolding changes the relations the
        # extension tensor is read off, and every failure names an entry c^a_(b,c)
        for family, n in (("A", 4), ("D", 5)):
            assert openext.verify_extension_theorems(family, n).ok
            u = milnor.build_unfolding(family, n)
            x, v2 = (MPoly.variable(u.table, nm) for nm in ("x", "v2"))
            bumped = replace(u, poly=u.poly + 3 * v2 * x)
            monkeypatch.setattr(openext, "build_unfolding", lambda *_: bumped)
            rep = openext.verify_extension_theorems(family, n)
            code, out, _ = run(capsys, "verify", "extension", family, str(n))
            monkeypatch.undo()
            assert rep.failures and all(f.startswith("c^") for f in rep.failures)
            assert code == 1 and f"extension({family}{n}): FAIL" in out

    def test_members_are_verified_through_their_generator(self, capsys, monkeypatch):
        # a passing generator (lambda = 1) stands for its member: the member
        # is never built; lambda = 0 is no automorphism and builds the
        # member alone
        lams = recorded_lambdas(monkeypatch)
        for argv, want in (
            (("verify", "open-wdvv", "A", "3", "--lambda", "2"), [1]),
            (("verify", "vector", "I2", "6", "--lambda", "1/2", "--branch", "minus"), [1]),
            (("verify", "vector", "D", "4", "--lambda=-1/3"), [1]),
            (("verify", "open-wdvv", "B", "2", "--lambda", "0"), [0]),
        ):
            lams.clear()
            code, out, _ = run(capsys, *argv)
            assert code == 0 and "pass" in out, argv
            assert lams == want, argv

    def test_a_failing_generator_verifies_the_member(self, capsys, monkeypatch):
        # with the generator bumped by every t1-free monomial of its weight,
        # `verify open-wdvv` and `verify vector` at lambda = 2 print the
        # member's own failing Report, as the library gives it, and not the
        # generator's (whose residuals differ)
        def bumped(p):
            tab = p.table
            shape = tab.weighted_keys(tab.names[1:], p.weighted_degree())
            return p + MPoly._from_ints(tab, {k: 1 for k, *_ in shape})

        fam = open_family("A4")
        bad_fam = replace(fam, generator=bumped(fam.generator))
        ext = open_potential_D(4)
        bad_d = open_extension(ext.base, bumped(ext.potential))
        for family, patch, generator, member in (
            ("A", ("open_family", lambda tag: bad_fam), bad_fam.extension(1), bad_fam.extension(2)),
            ("D", ("open_potential_D", lambda n: bad_d), bad_d,
             open_extension(ext.base, lambda_rescale(bad_d.potential, 2))),
        ):
            monkeypatch.setattr(cli, *patch)
            for ident, verify in (("open-wdvv", verify_open_wdvv), ("vector", verify_vector_potential)):
                want = verify(member)
                assert not want.ok and want != verify(generator)
                code, out, _ = run(capsys, "verify", ident, family, "4", "--lambda", "2",
                                   "--format", "json")
                assert code == 1, (family, ident)
                assert json.loads(out) == {
                    "label": want.label, "checked": want.checked,
                    "failures": list(want.failures), "ok": False,
                }, (family, ident)
            monkeypatch.undo()

    def test_lambda_zero_refusal_is_the_members(self, capsys, monkeypatch):
        # on a C* group (and D, with its pole) lambda = 0 is refused by
        # lambda_rescale as the member is built, and no generator is built
        lams = recorded_lambdas(monkeypatch)
        for argv in (
            ("verify", "open-wdvv", "A", "2", "--lambda", "0"),
            ("verify", "vector", "I2", "5", "--lambda", "0"),
            ("verify", "open-wdvv", "D", "4", "--lambda", "0"),
        ):
            lams.clear()
            code, out, err = run(capsys, *argv)
            assert (code, out, lams) == (2, "", [0]), argv
            assert err == "error: lambda = 0 needs F° to vanish at s = 0\n", argv

    def test_failing_report_maps_to_exit_1(self, capsys):
        rep = Report("demo", 3, ("broken",))
        assert _emit_report(rep, "text") == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


class TestUsageErrors:
    def test_exit_codes(self, capsys):
        for argv in (
            ("potential", "E", "6"),
            ("potential", "Q", "9"),
            ("open-potential", "A", "2", "--lambda", "0"),
            ("open-potential", "A", "2", "--lambda", "0.5"),
            ("open-potential", "A", "3", "--branch", "minus"),
            ("open-potential", "B", "3", "--branch", "minus"),
            ("flat-coords", "B", "3"),
            ("correlators", "D", "4"),
            ("verify", "foan", "D", "4"),
            ("verify", "extension", "B", "3"),
            ("verify", "omega", "A", "3"),
            ("verify", "extract", "A", "4"),
            ("verify", "wdvv"),
            ("verify", "all", "A", "3"),
            ("verify", "all", "--max-rank", "0"),
            ("verify", "all", "--max-rank=-2"),
            ("classify", "A", "3"),
            ("classify", "I2", "2"),
            ("classify", "I2", "3", "--lambda", "0"),
            ("classify", "I2", "5", "--branch", "minus"),
            # a zero denominator
            ("open-potential", "I2", "3", "--lambda", "1/0"),
            ("verify", "open-wdvv", "A", "3", "--lambda", "0/0"),
            ("classify", "I2", "3", "--lambda", "1/0"),
            ("correlators", "A", "0"),
            ("correlators", "A", "2", "--max-n", "-1"),
            ("obstruction", "A", "3"),
            # options the request has no use for
            ("verify", "wdvv", "A", "3", "--branch", "minus", "--lambda", "0",
             "--max-rank", "0"),
            ("verify", "wdvv", "A", "3", "--lambda", "1"),
            ("verify", "extension", "D", "4", "--branch", "plus"),
            ("verify", "omega", "D", "4", "--lambda", "2"),
            ("verify", "open-wdvv", "A", "3", "--max-rank", "5"),
            ("verify", "all", "--lambda", "2"),
            ("verify", "all", "--branch", "plus", "--max-rank", "2"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            assert err.startswith("error: "), argv

    def test_classify_refuses_a_group_it_cannot_build(self, capsys):
        # the group's family is built before the solver runs, so a group
        # whose exponents leave the packed range exits 2, as potential and
        # open-potential do, and not 1 (a failed classification)
        code, out, err = run(capsys, "classify", "I2", "40000")
        assert (code, out) == (2, "")
        assert err == "error: an exponent left the packed range of its slot\n"

    def test_verify_all_rank_bound(self, capsys, monkeypatch):
        # refused before the sweep starts; nothing past the bound is run
        monkeypatch.setattr(cli, "_sweep", lambda max_rank: pytest.fail("swept"))
        for rank in (cli.MAX_RANK + 1, 10 ** 9, 0):
            code, out, err = run(capsys, "verify", "all", f"--max-rank={rank}")
            assert (code, out) == (2, ""), rank
            assert err == f"error: --max-rank must be between 1 and 13, not {rank}\n"

    def test_d_has_no_sign_branch(self, capsys):
        for argv in (
            ("open-potential", "D", "5", "--branch", "minus"),
            ("verify", "open-wdvv", "D", "5", "--branch", "minus"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == "error: D5 has no sign branch\n", argv

    def test_negative_lambda_spelling(self, capsys):
        # the spelling the --lambda help text documents
        code, out, _ = run(capsys, "open-potential", "I2", "5", "--lambda=-1/3")
        assert code == 0
        assert out.strip() == open_family("I2(5)").member("-1/3").text()
        code, out, _ = run(
            capsys, "classify", "I2", "4", "--branch", "minus", "--lambda=-1/3"
        )
        assert code == 0
        want = classify_I2(4).member("-1/3", "minus").text()
        assert out.strip().splitlines()[-1] == f"member(lambda=-1/3, minus) = {want}"

    def test_lambda_zero_admissible_family(self, capsys):
        code, out, _ = run(capsys, "open-potential", "B", "2", "--lambda", "0")
        assert code == 0
        assert out.strip() == "t1*s + 1/2*t2^2*s"


# Every verb in both formats; a --lambda request followed by the same request
# without it; a library refusal; an argparse usage error followed by a valid
# request; the top-level and 'verify' help.
SHARED_PARSER_REQUESTS = [
    *(
        argv + fmt
        for argv in (
            ["potential", "A", "3"],
            ["open-potential", "I2", "5", "--lambda", "2"],
            ["open-potential", "I2", "5"],
            ["flat-coords", "D", "4"],
            ["invert-coords", "A", "3"],
            ["correlators", "A", "3", "--max-n", "3"],
            ["verify", "open-wdvv", "A", "3", "--lambda", "2"],
            ["verify", "open-wdvv", "A", "3"],
            ["verify", "all", "--max-rank", "1"],
            ["classify", "I2", "4", "--branch", "minus", "--lambda=-1/3"],
            ["classify", "I2", "4"],
            ["obstruction", "H", "3"],
        )
        for fmt in ([], ["--format", "json"])
    ),
    ["potential", "E", "6"],
    ["verify", "wdvv", "A", "3", "--lambda", "2"],
    ["potential", "I2", "5", "--source", "substitution"],
    ["potential", "I2", "5"],
    ["verify", "bogus", "A", "3"],
    ["verify", "wdvv", "A", "3"],
    ["--help"],
    ["verify", "--help"],
    ["potential", "D", "4"],
]


class TestSharedParser:
    def test_parser_is_built_once(self, capsys):
        _build_parser.cache_clear()
        for argv in (["potential", "A", "2"], ["verify", "wdvv", "A", "2"]) * 2:
            assert run(capsys, *argv)[0] == 0
        assert _build_parser.cache_info().misses == 1

    def test_import_builds_no_parser(self):
        # a fresh interpreter, so no earlier test has built the parser
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *a, **k):\n"
            "    built.append(self)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import openwdvv.cli as cli\n"
            "print(len(built), cli._build_parser.cache_info().currsize)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(openwdvv.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
        assert out.split() == ["0", "0"]

    def test_shared_parser_serves_like_a_fresh_one(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        fresh = []
        for argv in SHARED_PARSER_REQUESTS:
            _build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        _build_parser.cache_clear()
        shared = [run(capsys, *argv) for argv in SHARED_PARSER_REQUESTS]
        assert _build_parser.cache_info().misses == 1
        for argv, want, got in zip(SHARED_PARSER_REQUESTS, fresh, shared):
            assert got == want, argv
        codes = [code for code, _, _ in shared]
        # the list holds each kind of outcome it is meant to hold
        assert {0, 2, ("SystemExit", 0), ("SystemExit", 2)} <= set(codes)


# ---------- fuzzing the grammar ----------

VERBS = ("potential", "open-potential", "flat-coords", "invert-coords",
         "correlators", "verify", "classify", "obstruction", "verfy")
FAMILIES = ("A", "B", "D", "E", "F", "H", "I2", "X", "i2")
LAMBDAS = ("1", "1/2", "-1/3", "0", "1/0", "x", "2/-3", "1e3")
INTS = st.integers(-3, 6).map(str)  # every group of these sizes builds in well under a second
OPTIONS = st.one_of(
    st.tuples(st.just("--format"), st.sampled_from(("text", "json", "xml"))),
    st.tuples(st.just("--lambda"), st.sampled_from(LAMBDAS)),
    st.sampled_from(LAMBDAS).map(lambda lam: (f"--lambda={lam}",)),
    st.tuples(st.just("--branch"), st.sampled_from(("plus", "minus", "up"))),
    st.tuples(st.just("--source"), st.sampled_from(("auto", "printed", "none"))),
    st.tuples(st.just("--max-n"), INTS),
    # only refused ranks: an accepted one would run a whole sweep
    st.tuples(st.just("--max-rank"), st.sampled_from(("0", "14", str(10 ** 9)))),
    st.just(("-h",)),
)
IDENTITIES = st.sampled_from(cli._IDENTITIES + ("bogus",))


def _argv_strategy():
    """argv lists from the CLI grammar: well-formed requests with options in
    any place, and loose sequences of the same tokens."""
    unit = st.one_of(
        st.sampled_from(FAMILIES).map(lambda f: (f,)), INTS.map(lambda n: (n,)),
        IDENTITIES.map(lambda i: (i,)), OPTIONS,
    )
    shaped = st.builds(
        lambda verb, ident, fam, n, opts, at: _place(
            [verb, *([ident] if verb == "verify" else []), fam, n], opts, at
        ),
        st.sampled_from(VERBS), IDENTITIES, st.sampled_from(FAMILIES), INTS,
        st.lists(OPTIONS, max_size=3), st.integers(0, 5),
    )
    # the smallest A_N whose correlator table cannot be printed, with any
    # options: refused before it is built; no large admitted size is drawn
    unprintable = st.builds(
        lambda opts, at: _place(["correlators", "A", str(printable_edge()[1])], opts, at),
        st.lists(OPTIONS, max_size=3), st.integers(0, 3),
    )
    loose = st.builds(
        lambda verb, units: [*verb, *(tok for u in units for tok in u)],
        st.lists(st.sampled_from(VERBS), max_size=1), st.lists(unit, max_size=6),
    )
    return st.one_of(shaped, unprintable, loose)


def _place(words, opts, at):
    """words with the option tuples inserted after word number at (clipped),
    so that options land before, between and after the positionals."""
    at = min(at, len(words))
    return words[:at] + [tok for opt in opts for tok in opt] + words[at:]


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_argv_strategy())
    def test_every_request_gets_a_documented_exit(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse: --help, usage errors
                code = exc.code
        err = err.getvalue()
        event(f"exit {code}")
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 2:
            assert any("error: " in line for line in err.splitlines()), argv
