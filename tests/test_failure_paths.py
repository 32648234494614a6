"""Failure branches of the identity sweeps, pinned Report by Report.

Every sweep reports a violated identity by a label.  The inputs below are
tampered (dataclasses.replace, or a monkeypatched module global the sweep
reads) so that the branches no passing input reaches fire, and the whole
Report is compared: label, count and every failure label in order."""

import io
import json
from contextlib import redirect_stdout

from openwdvv import cli, coxeter, openext, saito
from openwdvv.coxeter import coxeter_spec, coxeter_structure, obstruction_check
from openwdvv.exactalg import MPoly, PolyError, VarTable, parse, replace
from openwdvv.openext import open_potential_A, open_potential_D, verify_open_wdvv
from openwdvv.report import Report
from openwdvv.saito import frobenius_structure, verify_homogeneity


def cli_json(*argv):
    """(exit status, parsed JSON stdout) of one request."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([*argv, "--format", "json"])
    return code, json.loads(out.getvalue())


def as_json(rep: Report) -> dict:
    return {
        "label": rep.label,
        "checked": rep.checked,
        "failures": list(rep.failures),
        "ok": rep.ok,
    }


class TestOpenWdvv:
    def test_unit_and_homogeneity_a2(self):
        # t1*t2*s breaks the unit in t2 and the weight, t1*s the unit in s
        ext = open_potential_A(2)
        bad = replace(ext, potential=ext.potential + parse("t1*t2*s + t1*s", ext.table))
        assert verify_open_wdvv(bad) == Report("open-wdvv(A2)", 9, (
            "unit(1,2)", "unit(1,s)", "homogeneity",
            "eq1(1,1,2): -2*s", "eq1(1,2,2): -1",
            "eq2(1,1): -2", "eq2(1,2): -s", "eq2(2,2): -t2",
        ))

    def test_unit_and_homogeneity_a1(self):
        ext = open_potential_A(1)
        bad = replace(ext, potential=ext.potential + parse("t1^2*s", ext.table))
        assert verify_open_wdvv(bad) == Report("open-wdvv(A1)", 4, (
            "unit(1,1)", "unit(1,s)", "homogeneity", "eq2(1,1): -2*t1",
        ))


class TestVectorPotential:
    # through `verify vector`, which names the sweep after the extension
    def served(self, monkeypatch, bad, family, n):
        monkeypatch.setattr(cli, "_open_ext_for", lambda *args: bad)
        return cli_json("verify", "vector", family, str(n))

    def test_conformal_closed_component(self, monkeypatch):
        # a t1-free, inhomogeneous term of F: F^1 = dF/dt2 loses its weight
        ext = open_potential_A(2)
        base = ext.base
        bad = replace(ext, base=replace(base, potential=base.potential + parse("t2^5", base.table)))
        want = Report("vector-potential(vector(A2))", 39, (
            "(3,2,3,2): -60*t2^2", "conformal(1)",
        ))
        assert self.served(monkeypatch, bad, "A", 2) == (1, as_json(want))

    def test_conformal_open_component(self, monkeypatch):
        ext = open_potential_A(2)
        bad = replace(ext, potential=ext.potential + parse("s^2", ext.table))
        want = Report("vector-potential(vector(A2))", 39, ("(3,2,3,2): -2", "conformal(3)"))
        assert self.served(monkeypatch, bad, "A", 2) == (1, as_json(want))

    def test_conformal_general_metric_row(self, monkeypatch):
        # D4 in the coordinates t2 + t4, t4: row 4 of eta^{-1} has two live
        # entries, so F^4 and the L(4, b; cd) are raised by a dot
        ext = open_potential_D(4)
        base = ext.base
        base_mix = {"t2": MPoly.variable(base.table, "t2") + MPoly.variable(base.table, "t4")}
        ext_mix = {"t2": MPoly.variable(ext.table, "t2") + MPoly.variable(ext.table, "t4")}
        mixed = saito.from_potential("D4", base.potential.substitute(base_mix, base.table))
        ext = openext.open_extension(mixed, ext.potential.substitute(ext_mix, ext.table))
        bumped = mixed.potential + parse("t4^5", mixed.table)
        bad = replace(ext, base=replace(mixed, potential=bumped))
        want = Report("vector-potential(vector(D4))", 280, (
            "(1,2,4,4): 30*t4^3", "(2,2,4,3): -30*t4^3", "(4,2,4,3): 30*t4^3",
            "(1,3,4,4): 30*t3*t4^3", "(2,3,4,2): -30*t4^3",
            "(2,3,4,3): -30*t3*t4^3", "(4,3,4,2): 30*t4^3",
            "(4,3,4,3): 30*t3*t4^3", "(4,3,4,4): 30*t4^3",
            "(5,4,5,4): -60*t4^3*s^-2", "conformal(2)", "conformal(4)",
        ))
        assert self.served(monkeypatch, bad, "D", 4) == (1, as_json(want))


class TestHomogeneity:
    def test_potential_and_coordinate(self):
        fs = frobenius_structure("A", 3)
        t = list(fs.t_of_v)
        t[1] = t[1] + MPoly.constant(t[1].table, 1)
        bad = replace(fs, potential=fs.potential + parse("t3^3", fs.table), t_of_v=tuple(t))
        assert verify_homogeneity(bad) == Report("homogeneity(A3)", 4, ("potential", "t^2"))


class TestObstructions:
    def test_de_weight_table_and_sums(self):
        # deg t4 = 3 instead of 4: the weights leave the degree table and
        # both D4 weight sums miss their printed values and land exactly on
        # the bound (3 - delta)/2 = 7/6, which they must exceed
        bad = replace(coxeter_spec("D4"), degrees=(6, 4, 2, 3))
        assert obstruction_check(bad) == Report("obstruction(D4)", 9, (
            "parameter weights disagree with the degree table",
            "q2+q4 != 4/3", "q2+q4 <= (3-delta)/2",
            "2*q4+1/h != 3/2", "2*q4+1/h <= (3-delta)/2",
        ))

    def test_de_pattern_row(self, monkeypatch):
        al, be, comps = coxeter._E_PATTERNS[6]
        short = {mu: c for mu, c in comps.items() if mu != 4}
        monkeypatch.setitem(coxeter._E_PATTERNS, 6, (al, be, short))
        assert obstruction_check("E6") == Report("obstruction(E6)", 9, ("c^4_(3,3)",))

    def test_printed(self, monkeypatch):
        # t2^3 + t2^4 moves c_{222}, hence c^3_{22}, at t = 0 and along t2;
        # deg t2 = 6 instead of 8 moves the weight sum below the bound
        fs = coxeter_structure("F4")
        bad = replace(fs, potential=fs.potential + parse("t2^3 + t2^4", fs.table))
        monkeypatch.setattr(coxeter, "coxeter_structure", lambda group: bad)
        spec = replace(coxeter_spec("F4"), degrees=(12, 6, 6, 2))
        assert obstruction_check(spec) == Report("obstruction(F4)", 10, (
            "c^3_(2,2) at t=0", "dc^3_(2,2)/dt2",
            "2*q2 != 4/3", "2*q2 <= (3-delta)/2",
        ))

    def test_h3(self, monkeypatch):
        # one unknown too many, and t2^2 added to the left side of eq2(2,3)
        ansatz, eq2 = coxeter._open_ansatz, coxeter.open_wdvv_eq2

        def wide(base):
            fo = ansatz(base)
            tab = fo.table
            return fo.substitute({}, VarTable(tab.names + ("b9",), tab.weights + (0,), "s"))

        def shifted(base, fo, al, be):
            left, right = eq2(base, fo, al, be)
            return left + parse("t2^2", fo.table), right

        monkeypatch.setattr(coxeter, "_open_ansatz", wide)
        monkeypatch.setattr(coxeter, "open_wdvv_eq2", shifted)
        assert obstruction_check("H3") == Report("obstruction(H3)", 2, (
            "candidate space dimension", "residual constant",
        ))


class TestCliChecks:
    def test_omega(self, monkeypatch):
        def refuse(*args):
            raise PolyError("omega_2 disagrees")

        monkeypatch.setattr(cli, "omega_sequence", refuse)
        monkeypatch.setattr(cli, "check_coefw_lemma", lambda n: False)
        monkeypatch.setattr(cli, "check_dn_second_derivative_identity", lambda n: False)
        want = Report("omega(D4)", 3, (
            "omega_2 disagrees",
            "boundary coefficient expansion",
            "second-derivative reduction",
        ))
        assert cli_json("verify", "omega", "D", "4") == (1, as_json(want))

    def test_classification(self, monkeypatch):
        def refuse(k):
            raise PolyError("no rational top coefficient")

        monkeypatch.setattr(cli, "classify_I2", refuse)
        got = cli._CHECKS["classification"].build("I2", 5, 1, "plus")
        assert got == Report("classification(I2(5))", 1, ("no rational top coefficient",))
