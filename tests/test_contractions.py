"""Shared contractions in the WDVV, open-WDVV and vector-potential sweeps.

Each verifier forms every distinct bilinear contraction once and compares
the stored values.  The reference sweeps below form one dot per side of
every identity, as the verifiers did before the sharing; both must give
the same Report, failures in order included, on passing and on tampered
inputs.  The dot counts pin the sharing itself."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from openwdvv import cli, coxeter, milnor, openext, saito
from openwdvv.cli import _tag
from openwdvv.coxeter import _open_ansatz, coxeter_structure, open_family
from openwdvv.exactalg import GaussianRational, MPoly, VarTable, dot, parse, rat, replace
from openwdvv.openext import (
    OpenExtension,
    extended_table,
    open_extension,
    open_potential_A,
    open_potential_D,
    open_wdvv_eq2,
    open_wdvv_equations,
    verify_open_wdvv,
    verify_vector_potential,
)
from openwdvv.report import Report
from openwdvv.saito import (
    _first_monomial,
    frobenius_structure,
    metric_and_potential,
    partials,
    residue_structure,
    singularity_data,
    third_derivatives,
    verify_wdvv,
)

ROOT = Path(__file__).resolve().parents[1]

GROUPS = ("A5", "D5", "B4", "I2(6)", "H3")
OPEN_GROUPS = ("A5", "D5", "B4", "I2(6)")  # H3 has no polynomial F°


# ---------- reference sweeps: one dot per side of every identity ----------


def reference_wdvv(fs) -> Report:
    n = fs.rank
    tab = fs.table
    d3, _, raised = third_derivatives(fs.potential, fs.eta_inv, tab.names)

    def c3(a, b, c):
        return d3[tuple(sorted((a, b, c)))]

    def craised(g, d):
        return raised[(g, d) if g <= d else (d, g)]

    failures = []
    checked = 0
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            checked += 1
            if d3[(1, a, b)] != MPoly.constant(tab, fs.eta[a - 1][b - 1]):
                failures.append(f"unit({a},{b})")
    for al in range(1, n + 1):
        for de in range(al + 1, n + 1):
            for be in range(1, n + 1):
                for ga in range(be + 1, n + 1):
                    checked += 1
                    lhs = craised(ga, de)
                    rhs = craised(ga, al)
                    left = dot(((c3(al, be, v), lhs[v - 1]) for v in range(1, n + 1)), tab)
                    right = dot(((c3(de, be, v), rhs[v - 1]) for v in range(1, n + 1)), tab)
                    if left != right:
                        failures.append(
                            f"({al},{be},{ga},{de}): {_first_monomial(left - right)}"
                        )
    return Report(f"wdvv({fs.label})", checked, tuple(failures))


def reference_open_equations(base, fo):
    n = base.rank
    s_ix = n + 1
    tab = fo.table
    d2o = partials(fo, tab.names[: n + 1], 2)
    F = base.potential.substitute({}, tab)
    _, _, raised = third_derivatives(F, base.eta_inv, tab.names[:n])

    def o2(a, b):
        return d2o[(a, b) if a <= b else (b, a)]

    def cr(a, b):
        return raised[(a, b) if a <= b else (b, a)]

    for be in range(1, n + 1):
        for al in range(1, n + 1):
            for ga in range(al + 1, n + 1):
                left = dot(
                    [(c, o2(v, ga)) for v, c in enumerate(cr(al, be), 1)]
                    + [(o2(al, be), o2(s_ix, ga))],
                    tab,
                )
                right = dot(
                    [(c, o2(v, al)) for v, c in enumerate(cr(ga, be), 1)]
                    + [(o2(ga, be), o2(s_ix, al))],
                    tab,
                )
                yield f"eq1({al},{be},{ga})", left, right
    for al in range(1, n + 1):
        for be in range(al, n + 1):
            left = dot(
                [(o2(al, be), o2(s_ix, s_ix))]
                + [(c, o2(v, s_ix)) for v, c in enumerate(cr(al, be), 1)],
                tab,
            )
            yield f"eq2({al},{be})", left, o2(s_ix, al) * o2(s_ix, be)


def reference_open_wdvv(ext) -> Report:
    base = ext.base
    n = base.rank
    tab = ext.table
    fo = ext.potential
    d2o = partials(fo, tab.names[: n + 1], 2)
    failures = []
    checked = n + 2
    for al in range(1, n + 1):
        if d2o[(1, al)]:
            failures.append(f"unit(1,{al})")
    if d2o[(1, n + 1)] != MPoly.constant(tab, 1):
        failures.append("unit(1,s)")
    if fo.euler() != fo * rat((3 - base.delta) / 2):
        failures.append("homogeneity")
    for label, left, right in reference_open_equations(base, fo):
        checked += 1
        if left != right:
            failures.append(f"{label}: {_first_monomial(left - right)}")
    return Report(f"open-wdvv({base.label})", checked, tuple(failures))


def reference_vector(funcs, label) -> Report:
    funcs = tuple(funcs)
    tab = funcs[0].table
    n = tab.arity
    d2 = [partials(f, tab.names, 2) for f in funcs]

    def g(a, b, c):
        return d2[a - 1][(b, c) if b <= c else (c, b)]

    failures = []
    checked = 0
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            checked += 1
            if g(a, 1, b) != MPoly.constant(tab, 1 if a == b else 0):
                failures.append(f"unit({a},{b})")
    for be in range(1, n + 1):
        for ga in range(be + 1, n + 1):
            for al in range(1, n + 1):
                for de in range(1, n + 1):
                    checked += 1
                    left = dot(((g(al, be, mu), g(mu, ga, de)) for mu in range(1, n + 1)), tab)
                    right = dot(((g(al, ga, mu), g(mu, be, de)) for mu in range(1, n + 1)), tab)
                    if left != right:
                        failures.append(
                            f"({al},{be},{ga},{de}): {_first_monomial(left - right)}"
                        )
    if tab.weights is not None:
        for a in range(1, n + 1):
            checked += 1
            if funcs[a - 1].euler() != funcs[a - 1] * rat(1 + tab.weights[a - 1]):
                failures.append(f"conformal({a})")
    return Report(f"vector-potential({label})", checked, tuple(failures))


# ---------- inputs ----------


def bumped(p: MPoly) -> MPoly:
    """p plus every t1-free monomial of p's own weighted degree, each with
    coefficient 1: homogeneity and the unit conditions still hold."""
    tab = p.table
    shape = tab.weighted_keys(tab.names[1:], p.weighted_degree())
    return p + MPoly._from_ints(tab, {k: 1 for k, *_ in shape})


def tampered(ext):
    """ext with its closed potential F bumped (rank >= 2: the bump needs a
    coordinate besides t1), then with F° bumped."""
    base = ext.base
    bad_fo = replace(ext, potential=bumped(ext.potential))
    if base.rank == 1:
        return (bad_fo,)
    return replace(ext, base=replace(base, potential=bumped(base.potential))), bad_fo


# (family, n, branch) of A1-A8, D3-D8, B2-B5 and I2(3)-I2(8), even I2 on both branches
VECTOR_INPUTS = (
    [("A", n, "plus") for n in range(1, 9)]
    + [("D", n, "plus") for n in range(3, 9)]
    + [("B", n, "plus") for n in range(2, 6)]
    + [("I2", k, b) for k in range(3, 9) for b in ("plus", "minus")[: 2 - k % 2]]
)


def mixed_d4():
    """The D4 extension in the coordinates t2 + t4, t4, labelled D4'."""
    ext = open_potential_D(4)
    base = ext.base
    base_mix = {"t2": MPoly.variable(base.table, "t2") + MPoly.variable(base.table, "t4")}
    ext_mix = {"t2": MPoly.variable(ext.table, "t2") + MPoly.variable(ext.table, "t4")}
    mixed = saito.from_potential("D4'", base.potential.substitute(base_mix, base.table))
    return openext.open_extension(mixed, ext.potential.substitute(ext_mix, ext.table))


def open_extension_of(tag):
    if tag == "A5":
        return open_potential_A(5)
    if tag == "D5":
        return open_potential_D(5)
    return open_family(tag).extension()


# ---------- same Reports ----------


class TestSameReports:
    @pytest.mark.parametrize("tag", GROUPS)
    def test_wdvv(self, tag):
        fs = coxeter_structure(tag)
        rep = verify_wdvv(fs)
        assert rep.ok and rep == reference_wdvv(fs)
        bad = replace(fs, potential=bumped(fs.potential))
        rep = verify_wdvv(bad)
        # every rank-2 potential is associative: I2(6) still passes
        assert rep.ok == (fs.rank == 2) and rep == reference_wdvv(bad)

    @pytest.mark.parametrize("tag", OPEN_GROUPS)
    def test_open_wdvv(self, tag):
        ext = open_extension_of(tag)
        rep = verify_open_wdvv(ext)
        assert rep.ok and rep == reference_open_wdvv(ext)
        bad = replace(ext, potential=bumped(ext.potential))
        rep = verify_open_wdvv(bad)
        assert not rep.ok and rep == reference_open_wdvv(bad)

    def test_open_wdvv_over_an_ansatz(self):
        # H3 over its nine-unknown ansatz: equations carry the unknowns
        fs = coxeter_structure("H3")
        fo = _open_ansatz(fs)
        ext = OpenExtension(fs, fo.table, fo)
        rep = verify_open_wdvv(ext)
        assert not rep.ok and rep == reference_open_wdvv(ext)
        ref = {lab: (l, r) for lab, l, r in reference_open_equations(fs, fo)}
        assert open_wdvv_eq2(fs, fo, 2, 3) == ref["eq2(2,3)"]
        assert list(open_wdvv_equations(fs, fo)) == [
            (lab, l, r) for lab, (l, r) in ref.items()
        ]

    @pytest.mark.parametrize("tag", OPEN_GROUPS)
    def test_vector(self, tag):
        ext = open_extension_of(tag)
        label = f"vector({tag})"  # the Report label names the extension
        rep = verify_vector_potential(ext)
        assert rep.ok and rep == reference_vector(ext.vector_potential(), label)
        for bad in tampered(ext):  # F, then F°
            rep = verify_vector_potential(bad)
            assert not rep.ok and rep == reference_vector(bad.vector_potential(), label)

    @pytest.mark.parametrize(
        "family, n, branch", VECTOR_INPUTS, ids=[_tag(*i[:2]) + i[2] for i in VECTOR_INPUTS]
    )
    def test_vector_as_served(self, family, n, branch):
        # the extensions `verify vector` and `verify all` build, at three
        # lambdas, and both tamperings at lambda = 1
        label = f"vector({_tag(family, n)})"
        for lam in (1, 2, Fraction(-1, 3)):
            ext = cli._open_ext_for(family, n, GaussianRational(lam), branch)
            rep = verify_vector_potential(ext)
            assert rep.ok and rep == reference_vector(ext.vector_potential(), label)
        ext = cli._open_ext_for(family, n, 1, branch)
        for bad in tampered(ext):
            rep = verify_vector_potential(bad)
            # A1's bumped F° only moves the s^3 coefficient, which stays a solution
            assert rep.ok == (label == "vector(A1)")
            assert rep == reference_vector(bad.vector_potential(), label)

    def test_vector_general_metric_row(self):
        # D4 in the coordinates t2 + t4, t4: eta^{-1} has a row with two
        # live entries, so that row is raised by a dot, not re-keyed
        ext = mixed_d4()
        assert max(sum(1 for e in row if e) for row in ext.base.eta_inv) == 2
        rep = verify_vector_potential(ext)
        assert rep.ok and rep == reference_vector(ext.vector_potential(), "vector(D4')")
        for bad in tampered(ext):
            rep = verify_vector_potential(bad)
            assert not rep.ok and rep == reference_vector(bad.vector_potential(), "vector(D4')")


# ---------- the commutation certificate ----------


def without_certificate(monkeypatch, runs) -> list:
    """The Reports of runs [(verify, arg)], asserted equal to the Reports
    the same runs give when the closed and the open certificate never
    decide, so that each sweep compares and labels every identity; each
    forced run starts with no kept tables, so no verdict computed before
    is read."""
    got = [verify(arg) for verify, arg in runs]
    monkeypatch.setattr(saito, "_certified", lambda *args: False)
    monkeypatch.setattr(openext, "_open_certified", lambda *args: False)
    forced = []
    for verify, arg in runs:
        saito._SLOTS.clear()
        forced.append(verify(arg))
    monkeypatch.undo()
    saito._SLOTS.clear()  # no undecided verdict outlives the forced runs
    assert got == forced
    return got


def closed_certified(fs) -> bool:
    """Whether the closed certificate decides verify_wdvv(fs)."""
    return saito._tables(fs.potential, fs.eta_inv, extended_table(fs))[4]()


def open_certified(ext) -> bool:
    """Whether the open certificate decides the open sweeps of ext."""
    return openext._open_tables(ext.base, ext.potential)[3]()


WDVV_TAGS = (
    [f"A{n}" for n in range(1, 8)] + [f"D{n}" for n in range(3, 8)]
    + [f"B{n}" for n in range(2, 6)] + [f"I2({k})" for k in range(3, 9)] + ["F4", "H3", "H4"]
)

# (family, n, branch) of the open families the `session` benchmark serves,
# each at every lambda it draws
SESSION_MEMBERS = (
    [("A", n, "plus") for n in range(3, 8)]
    + [("D", n, "plus") for n in range(4, 8)]
    + [("I2", k, b) for k in range(3, 11) for b in ("plus", "minus")[: 2 - k % 2]]
)
SESSION_LAMBDAS = (1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2))


class TestVerdicts:
    """The verdicts of the kept tables are the commutation certificates
    (saito._certified, openext._open_certified)."""

    @pytest.mark.parametrize("tag", WDVV_TAGS)
    def test_wdvv(self, monkeypatch, tag):
        fs = coxeter_structure(tag)
        bad = replace(fs, potential=bumped(fs.potential))
        runs = [(verify_wdvv, fs)] + [(verify_wdvv, bad)] * (fs.rank > 1)
        reps = without_certificate(monkeypatch, runs)
        # the certificate decides the untampered sweep from rank 2 on (A1
        # has no index 2); every rank-2 potential is associative, so a
        # bumped one passes too
        assert closed_certified(fs) == (fs.rank > 1)
        assert reps[0].ok and all(r.ok == (fs.rank <= 2) for r in reps[1:])

    @pytest.mark.parametrize(
        "family, n, branch", VECTOR_INPUTS, ids=[_tag(*i[:2]) + i[2] for i in VECTOR_INPUTS]
    )
    def test_open_wdvv_and_vector(self, monkeypatch, family, n, branch):
        sweeps = (verify_open_wdvv, verify_vector_potential)
        exts = [
            cli._open_ext_for(family, n, GaussianRational(lam), branch)
            for lam in (1, 2, Fraction(-1, 3))
        ]
        assert all(open_certified(e) == (n > 1) for e in exts)
        bad = tampered(exts[0])
        reps = without_certificate(monkeypatch, [(v, e) for e in exts + list(bad) for v in sweeps])
        assert all(r.ok for r in reps[:6])
        # A1's bumped F° only moves the s^3 coefficient, which stays a solution
        assert all(r.ok == (_tag(family, n) == "A1") for r in reps[6:])

    def test_general_metric_row_and_an_ansatz(self, monkeypatch):
        # the mixed D4 (eta^{-1} with a two-entry row, so the vector sweep's
        # P rows are raised by a dot when compared one by one), bumped as in
        # tests/test_failure_paths.py and as tampered(), and H3 over its
        # open ansatz, whose equations carry the unknowns
        ext = mixed_d4()
        base = ext.base
        t4_bumped = replace(base, potential=base.potential + MPoly.variable(base.table, "t4") ** 5)
        exts = [ext, replace(ext, base=t4_bumped), *tampered(ext)]
        runs = [(v, e) for e in exts for v in (verify_open_wdvv, verify_vector_potential)]
        runs += [(verify_wdvv, e.base) for e in exts]
        fs = coxeter_structure("H3")
        fo = _open_ansatz(fs)
        runs.append((verify_open_wdvv, OpenExtension(fs, fo.table, fo)))
        reps = without_certificate(monkeypatch, runs)
        # wdvv: the bumped F° leaves the closed potential as it is
        assert [r.ok for r in reps] == [True, True] + [False] * 6 + [True, False, False, True, False]
        assert open_certified(ext) and closed_certified(base)

    def test_decides_verify_all_rank8(self, monkeypatch):
        # a silent fallback to the sweeps would cost the whole gain: every
        # closed and open family of `verify all --max-rank 8` is decided by
        # the certificate, A1 (no index 2) alone excepted
        calls = []

        def recorded(module, name, rank):
            fn = getattr(module, name)

            def verdict(*args):
                calls.append((name, rank(args), fn(*args)))
                return calls[-1][-1]

            monkeypatch.setattr(module, name, verdict)

        recorded(saito, "_certified", lambda args: len(args[2]))
        recorded(openext, "_open_certified", lambda args: args[0])
        saito._SLOTS.clear()
        cli._verify_all(8)
        monkeypatch.undo()
        saito._SLOTS.clear()
        # one closed verdict per group (8 A, 6 D, 7 B, 6 I2, F4, H3, H4) and
        # one open verdict per open family (the I2 minus branches too)
        assert sum(name == "_certified" for name, *_ in calls) == 30
        assert sum(name == "_open_certified" for name, *_ in calls) == 30
        assert [c for c in calls if not c[2]] == [("_certified", 1, False), ("_open_certified", 1, False)]

    def test_decides_the_session_members(self):
        # every lambda member and both I2 branches the session serves
        for family, n, branch in SESSION_MEMBERS:
            for lam in SESSION_LAMBDAS:
                ext = cli._open_ext_for(family, n, GaussianRational(lam), branch)
                assert open_certified(ext) and closed_certified(ext.base), (family, n, branch, lam)

    def test_metric_not_symmetric_or_singular(self, monkeypatch):
        # the certificate lowers by (eta^{-1})^{-1}: with eta^{-1} not
        # symmetric, or singular, it does not decide, and the sweeps give
        # the Reports they give with the certificate forced off
        fs, ext = coxeter_structure("A4"), open_potential_A(4)
        skew = [list(row) for row in fs.eta_inv]
        skew[0][1] = GaussianRational(1)
        singular = [list(row) for row in fs.eta_inv]
        singular[0][3] = singular[3][0] = GaussianRational(0)
        runs = []
        for inv in (skew, singular):
            bad = replace(fs, eta_inv=tuple(map(tuple, inv)))
            bad_ext = replace(ext, base=bad)
            assert not closed_certified(bad) and not open_certified(bad_ext)
            runs += [(verify_wdvv, bad), (verify_open_wdvv, bad_ext), (verify_vector_potential, bad_ext)]
        reps = without_certificate(monkeypatch, runs)
        assert not any(r.ok for r in reps)

    def test_not_cyclic_at_the_point(self, monkeypatch):
        # F = (u1^3 + u2^3 + u3^3)/6 with u = (t1 + t2 + t3, t1 + t2, t1):
        # the constant algebra C^3, where L_2 has eigenvalues 1, 1, 0 and is
        # cyclic nowhere, though every L commutes; the sweep proves it
        tab = VarTable(("t1", "t2", "t3"), (1, 1, 1))
        t1, t2, t3 = (MPoly.variable(tab, nm) for nm in tab.names)
        fs = saito.from_potential("C3", ((t1 + t2 + t3) ** 3 + (t1 + t2) ** 3 + t1**3) / 6)
        assert not closed_certified(fs)
        monkeypatch.setattr(saito, "_cyclic", lambda *args: True)
        saito._SLOTS.clear()
        assert closed_certified(fs)  # only cyclicity is missing
        monkeypatch.undo()
        saito._SLOTS.clear()
        (rep,) = without_certificate(monkeypatch, [(verify_wdvv, fs)])
        assert rep.ok and rep == reference_wdvv(fs)
        # open families whose Krylov determinant an evaluation patched to
        # zero makes vanish: the sweeps run and give the same Reports
        exts = [open_potential_A(4), open_potential_D(5), open_family("B3").extension(),
                open_family("I2(6)").extension(2, "minus")]
        runs = [
            run for e in exts
            for run in ((verify_wdvv, e.base), (verify_open_wdvv, e), (verify_vector_potential, e))
        ]
        got = [verify(arg) for verify, arg in runs]
        monkeypatch.setattr(saito, "values_mod", lambda polys, point, prime: [0] * len(list(polys)))
        saito._SLOTS.clear()
        assert not any(closed_certified(e.base) or open_certified(e) for e in exts)
        assert [verify(arg) for verify, arg in runs] == got
        monkeypatch.undo()
        saito._SLOTS.clear()
        assert all(r.ok for r in got)

    def test_metric_guards(self):
        # every contraction equal and L_2 a nilpotent shift (cyclic): only
        # the symmetry and invertibility of eta^{-1} keep the certificate
        # from a verdict
        tab = VarTable(("t1", "t2", "t3", "s"), (1, 1, 1, 1), "s")
        one, zero = MPoly.constant(tab, 1), MPoly.zero(tab)
        raised = {(1, 2): [zero, one, zero], (2, 2): [zero, zero, one], (2, 3): [zero] * 3}
        g0, g1 = GaussianRational(0), GaussianRational(1)
        eye = ((g1, g0, g0), (g0, g1, g0), (g0, g0, g1))
        skew = ((g1, g1, g0), (g0, g1, g0), (g0, g0, g1))
        singular = ((g1, g0, g0), (g0, g1, g0), (g0, g0, g0))
        assert saito._certified(lambda *idx: one, raised, eye, tab)
        assert not saito._certified(lambda *idx: one, raised, skew, tab)
        assert not saito._certified(lambda *idx: one, raised, singular, tab)

    def test_open_krylov_is_on_the_extended_space(self, monkeypatch):
        # the open certificate's matrix is L~_2 on t1..tN, s: the columns of
        # L_2 over o2(2, c), then the s column (0, ..., 0, o2(2, s))
        seen = []
        monkeypatch.setattr(openext, "_cyclic", lambda cols, tab: seen.append(cols) or True)
        ext = open_potential_D(4)
        saito._SLOTS.clear()
        assert open_certified(ext)
        F, raised, *_, o2, _ = openext._open_tables(ext.base, ext.potential)
        zero = MPoly.zero(ext.table)
        want = [raised[(1, 2)] + [o2(2, 1)]] + [raised[(2, c)] + [o2(2, c)] for c in range(2, 5)]
        assert seen == [want + [[zero] * 4 + [o2(2, 5)]]]
        monkeypatch.undo()
        saito._SLOTS.clear()

    @pytest.mark.parametrize("tag, extra", [("I2(4)", "t1*t2^3"), ("I2(6)", "t1*t2^4")])
    def test_broken_through_index_1(self, monkeypatch, tag, extra):
        # t1*t2^k breaks the unit row (2,2) and the one quadruple (1,1,2,2),
        # which only [L_2, L_1] sees: the certificate does not decide, and
        # the sweep reports the quadruple
        fs = coxeter_structure(tag)
        bad = replace(fs, potential=fs.potential + parse(extra, fs.table))
        assert not closed_certified(bad)
        (rep,) = without_certificate(monkeypatch, [(verify_wdvv, bad)])
        assert rep == reference_wdvv(bad)
        assert [f.split(":")[0] for f in rep.failures] == ["unit(2,2)", "(1,1,2,2)"]


# ---------- dot counts ----------


def count_dots(monkeypatch, fn, *args):
    """The dot calls of fn(*args) through every library module's binding
    of exactalg.dot (coxeter has none since lambda_rescale scales in the
    kernel), with no tables kept from before; the MPoly operators' own
    calls are not counted."""
    calls = []
    saito._SLOTS.clear()

    def counted(pairs, table):
        calls.append(None)
        return dot(pairs, table)

    for module in (milnor, saito, openext, coxeter):
        if hasattr(module, "dot"):
            monkeypatch.setattr(module, "dot", counted)
    fn(*args)
    monkeypatch.undo()
    return len(calls)


class TestDotCounts:
    def test_wdvv_a6(self, monkeypatch):
        fs = frobenius_structure("A", 6)
        n = fs.rank
        pairs = n * (n + 1) // 2
        # eta^-1 of A6 is a permutation, so third_derivatives raises by
        # re-keying and takes no dot; then at most one dot per unordered
        # pair of index pairs.  195 while the multiset verdicts paired up
        # every multiset: the certificate compares only the quadruples with
        # beta = 2, (alpha, 2, gamma, delta) for gamma != 2 and alpha < delta
        # (5 * 15 = 75 identities), which take 100 distinct P
        bound = pairs * (pairs + 1) // 2
        got = count_dots(monkeypatch, verify_wdvv, fs)
        assert got <= bound
        assert got == 100

    def test_vector_a6(self, monkeypatch):
        ext = open_potential_A(6)
        n = ext.base.rank
        pairs = n * (n + 1) // 2
        # at most one dot per distinct P(ab; cd) and per distinct Q(ab; g);
        # eta^-1 of A6 is a permutation, so neither the raising nor a row
        # of L takes a dot of its own.  366 while the sweep compared every
        # row, 336 = 195 + 141 under the multiset verdicts; the certificates
        # form the P of the closed one (100, as verify_wdvv) and the Q of
        # [L~_2, L~_g]: 20 Q(gd; 2), 30 Q(2d; g) for g != 2 and 6 Q(2d; s)
        bound = pairs * (pairs + 1) // 2 + pairs * (n + 1)
        got = count_dots(monkeypatch, verify_vector_potential, ext)
        assert got <= bound
        assert got == 100 + 56

    def test_open_wdvv(self, monkeypatch):
        # one dot per distinct P and Q the certificates compare; the raising
        # re-keys (signed permutations) and takes none.  141 and 85 under the
        # multiset verdicts, which formed Q only: the open certificate needs
        # the closed one, so on cold tables it forms its P as well (A6 100 +
        # 56, D5 56 + 39).  In `verify all` and in a session the wdvv part
        # runs first on the same kept tables, and those P are there already
        assert count_dots(monkeypatch, verify_open_wdvv, open_potential_A(6)) == 100 + 56
        assert count_dots(monkeypatch, verify_open_wdvv, open_potential_D(5)) == 56 + 39

    def test_extension_a6(self, monkeypatch):
        open_potential_A(6)
        got = count_dots(monkeypatch, openext.verify_extension_theorems, "A", 6)
        # the tensor comes from milnor.extended_constants, one dot per
        # component of the recurrence: 36.  The keys (a, i, j), a <= N, are
        # decided in v: the residues r_6..r_15 of the
        # lowered tensor T (10), and sum_d T(a, d, 1) cv(d, i, j) once per a
        # and distinct column cv(., i, j), which for A6 depends on i + j
        # alone (6 * 11 = 66).  Then only the s-row is pulled back, the two
        # lower slots first, over the nonzero entries of the tensor, with no
        # empty partial sum: 48.  339 = 303 + 36 while every entry was
        # pulled back through dt/dv and dv/dt
        assert got == 36 + 10 + 66 + 48

    def test_eq2_over_an_ansatz(self, monkeypatch):
        fs = coxeter_structure("H3")
        fo = _open_ansatz(fs)
        # one Q; eta^-1 of H3 is a permutation scaled by 1/2 in one row,
        # so the raising re-keys and scales
        assert count_dots(monkeypatch, open_wdvv_eq2, fs, fo, 2, 3) == 1

    def test_metric_and_potential(self, monkeypatch):
        # the 56 entries T(a, b, c) = sum_d c^d_ab c^l_dc, then the pullback's
        # lower slots first, as in test_extension_a6; every permutation of a
        # triple reads one entry object, so rows (a, i) and (i, a) hold the
        # same objects and the first stage is formed once per sorted pair:
        # A6 56 + 39 + 39 + 39, D6 56 + 35 + 35 + 39
        for family, want in (("A", 173), ("D", 165)):
            data = singularity_data(family, 6)
            assert count_dots(monkeypatch, metric_and_potential, *data) == want

    def test_residue_structure_a6(self, monkeypatch):
        # the residues r_6..r_15, which are the entries T(a, b, c) = r_{a+b+c-3},
        # then the pullback's three stages over the nonzero T: the lower-slot
        # sums P(a + i, ga), one per x-row a + i of the same r_s objects, the
        # sums L(a, be, ga) and the c_{al be ga} with a live term
        assert count_dots(monkeypatch, residue_structure, "A", 6) == 10 + 22 + 39 + 39

    def test_residue_structure_d6(self, monkeypatch):
        # the residues r_5..r_12, the entries T(c, 6, 6) = sum_j s_j r_{c-1+j}
        # for c < 6 (the other T are residues or h times one), then the
        # pullback's three stages as for A6, the first one per row of the
        # same entry objects: a + i for the x-rows, one per y-row (c, 6) and
        # one for (6, 6)
        got = count_dots(monkeypatch, residue_structure, "D", 6)
        assert got == 8 + 5 + 23 + 35 + 39

    def test_verify_all_rank3(self):
        # cold caches, every binding of the kernel's loop counted: 2370
        # before the A/D groups shared their tables.  The 94 saved dots are
        # the P and Q that the vector sweeps of A1-A3 and D3 now read off
        # verify_wdvv and verify_open_wdvv (82), and D3's raised constants,
        # whose scaled rows of eta^-1 took one dot each in verify_wdvv and
        # again in verify_open_wdvv (6 + 6).  2276 before the extension and
        # omega checks read milnor.extended_constants in place of reducing
        # every product in an extended algebra (228 fewer).  2048 before
        # the verdicts (54 fewer): the vector sweeps of A1-A3 and D3 form
        # neither the n(n - 1) P(xx; xy) of one-pairing multisets nor the
        # n^2 products o2(s, a) o2(s, b) of their eq2 rows, which the
        # open-wdvv verdict formed once per unordered pair (37), and the 17
        # lambda_rescale calls at lambda = 1 take no dot (17).  1994 before
        # the commutation certificate: 1911 with it (83 fewer; B2, B3 and
        # the I2 groups also read their wdvv part's tables), and the 66
        # products p * degree that the Euler identities took are gone, now
        # that homogeneity is read off the weighted degrees of the keys (38
        # in open_extension, 15 homogeneity and 13 conformal rows).  1845
        # before D3's omega checks formed one dot per recursion step (24 -> 8)
        # and per boundary expansion, read over the extended table (15 -> 12).
        # 1826 before parse read term lists into one dict: the free-form
        # parser formed a dot per sum and product of the printed F4 and H4
        # potentials (70 + 131).  1625 before the extension checks of A1-A3
        # and D3 decided the closed block in v and pulled back only the
        # s-row (36 fewer)
        (got,) = cold(["verify", "all", "--max-rank", "3"])["requests"]
        assert got["dot"] == 1994 - 83 - 66 - 16 - 3 - 201 - 36

    def test_verify_all_third_derivatives_rank6(self):
        # one build per A/D potential: 77 before the A/D groups shared their
        # tables, four for each of the ten A/D potentials up to rank 6 and
        # one for every other wdvv and open-wdvv part: 47.  Kept tables
        # save the three minus branches of I2(4), I2(6) and I2(8), whose
        # open-wdvv part follows the plus branch's on the same F, and B2-B6
        # and the plus branches of I2(3)-I2(8), whose open-wdvv part now runs
        # right after the wdvv part of its group
        (got,) = cold(["verify", "all", "--max-rank", "6"])["requests"]
        assert got["third"] == 47 - 3 - 5 - 6


# ---------- the last closed and open tables, kept across calls ----------

# Runs requests in a fresh interpreter, so every cache starts empty, and
# prints as JSON, per request, the dot calls (every module's binding of
# exactalg.dot), the third_derivatives builds, the MPoly comparisons
# (MPoly.__eq__, which != calls too) and the open certificates formed
# (openext._open_certified), and the dots and comparisons inside
# each verify_vector_potential call; then how many distinct P memos
# (_tables) and Q memos (_open_tables) were made and how many are still
# alive.
PROBE = """
import contextlib, gc, io, json, sys, weakref
sys.path[:0] = [SRC]
from openwdvv import cli, coxeter, exactalg, milnor, openext, saito

counts = {"dot": 0, "third": 0, "eq": 0, "certified": 0}

def counting(key, fn):
    def counted(*args):
        counts[key] += 1
        return fn(*args)
    return counted

dot = counting("dot", exactalg.dot)
for module in (exactalg, milnor, saito, openext, coxeter):
    module.dot = dot
saito.third_derivatives = coxeter.third_derivatives = counting(
    "third", saito.third_derivatives
)
exactalg.MPoly.__eq__ = counting("eq", exactalg.MPoly.__eq__)
openext._open_certified = counting("certified", openext._open_certified)
memos = {"closed": [], "open": []}

def kept(kind, fn, memo):
    def tables(*args):
        got = fn(*args)
        refs = memos[kind]
        if not refs or refs[-1]() is not got[memo]:  # a new memo
            refs.append(weakref.ref(got[memo]))
        return got
    return tables

saito._tables = openext._tables = kept("closed", saito._tables, 3)
openext._open_tables = kept("open", openext._open_tables, -1)
vector_dots, vector_eqs = [], []
verify_vector = cli.verify_vector_potential

def vector(ext):
    before = dict(counts)
    rep = verify_vector(ext)
    vector_dots.append(counts["dot"] - before["dot"])
    vector_eqs.append(counts["eq"] - before["eq"])
    return rep

cli.verify_vector_potential = vector
requests = []
for argv in json.loads(sys.argv[1]):
    before = dict(counts)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    requests.append({"code": code, **{k: counts[k] - before[k] for k in counts}})
gc.collect()
print(json.dumps({
    "requests": requests,
    "vector_dots": vector_dots,
    "vector_eqs": vector_eqs,
    "made": {kind: len(refs) for kind, refs in memos.items()},
    "alive": {kind: sum(ref() is not None for ref in refs) for kind, refs in memos.items()},
}))
"""


def cold(*requests) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", PROBE.replace("SRC", repr(str(ROOT / "src"))),
         json.dumps(requests)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert all(r["code"] == 0 for r in got["requests"])
    return got


class TestSharedTables:
    def test_one_slot_per_kind(self):
        # whatever ran before, at most one P memo (_tables) and one Q memo
        # (_open_tables) outlive a request: the last of each kind
        got = cold(
            ["verify", "all", "--max-rank", "3"],
            ["verify", "wdvv", "A", "3"],
            ["verify", "open-wdvv", "D", "4"],
            ["verify", "vector", "I2", "5"],
        )
        assert got["made"]["closed"] > 1 and got["made"]["open"] > 1
        assert got["alive"]["closed"] <= 1 and got["alive"]["open"] <= 1

    def test_reused_by_the_next_request(self):
        # after `verify wdvv A 3` the vector sweep reads the P that
        # verify_wdvv formed and forms only the rest: the 14 Q of the open
        # certificate and its 3 eq2 products o2(s, 2) o2(s, d); alone, also
        # the 10 P of the closed one.  52 and 40 dots before the multiset
        # verdicts, 43 and 31 under them; the certificates form fewer Q, and
        # the 4 conformal rows no longer take a product each
        fresh = cold(["verify", "vector", "A", "3"])
        after = cold(["verify", "wdvv", "A", "3"], ["verify", "vector", "A", "3"])
        assert fresh["vector_dots"] == [10 + 14 + 3]
        assert after["vector_dots"] == [14 + 3]
        assert after["requests"][1]["third"] == 0
        # and it compares no P pair: its comparisons are the 16 unit rows,
        # the open certificate's 6 Q(g d; 2) = Q(2 d; g) and 3 eq2(2, d);
        # alone, it also takes the closed certificate's 6 P pairs (gamma in
        # {1, 3}, alpha < delta).  The conformal rows compare no polynomial
        assert after["vector_eqs"] == [16 + 6 + 3]
        assert fresh["vector_eqs"] == [16 + 6 + 3 + 6]

    def test_a_group_builds_one_open_set(self):
        # the lambda = 2 and 1/2 members of A5 pass through their generator,
        # whose F° the extension check reads too: one open table set and
        # one open certificate for the three requests (three sets and two
        # certificates when each member was verified itself)
        got = cold(
            ["verify", "open-wdvv", "A", "5", "--lambda", "2"],
            ["verify", "extension", "A", "5"],
            ["verify", "vector", "A", "5", "--lambda", "1/2"],
        )
        assert got["made"]["open"] == 1
        assert [r["certified"] for r in got["requests"]] == [1, 0, 0]

    @pytest.mark.parametrize("family", ["A", "D"])
    def test_no_stale_tables(self, family):
        # a run of untampered, tampered and again untampered sweeps gives
        # every Report that the same sweep gives with no tables kept, as
        # in a fresh interpreter
        fs = frobenius_structure(family, 4)
        ext = open_potential_A(4) if family == "A" else open_potential_D(4)
        bad_fs = replace(fs, potential=bumped(fs.potential))
        bad_f = replace(ext, base=bad_fs)
        bad_fo = replace(ext, potential=bumped(ext.potential))
        wdvv, open_wdvv, vector = verify_wdvv, verify_open_wdvv, verify_vector_potential
        run = [
            (wdvv, fs, True), (open_wdvv, ext, True), (vector, ext, True),
            (wdvv, bad_fs, False), (vector, bad_f, False), (open_wdvv, bad_f, False),
            (open_wdvv, bad_fo, False), (vector, bad_fo, False), (wdvv, fs, True),
            (vector, ext, True), (open_wdvv, ext, True), (vector, bad_fo, False),
        ]
        got = [verify(arg) for verify, arg, _ in run]
        fresh = []
        for verify, arg, _ in run:
            saito._SLOTS.clear()
            fresh.append(verify(arg))
        assert got == fresh
        assert [rep.ok for rep in got] == [ok for *_, ok in run]

    @pytest.mark.parametrize("family", ["A", "D"])
    def test_failures_as_the_verifiers_alone(self, monkeypatch, family):
        # the group step of A4 or D4 on tampered inputs gives the Reports
        # the four verifiers give when each runs alone, and shares tables
        # only between parts whose F (and F°) are equal.  The extension
        # part reads F off the build (frobenius_structure), never off the
        # extension it is served
        fs = frobenius_structure(family, 4)
        ext = open_potential_A(4) if family == "A" else open_potential_D(4)
        bad_fs = replace(fs, potential=bumped(fs.potential))
        bad_ext = replace(ext, base=bad_fs)
        bad_fo = open_extension(fs, bumped(ext.potential))
        group = [(i, family, 4, "plus") for i in ("wdvv", "open-wdvv", "extension", "vector")]
        third = saito.third_derivatives
        # (wdvv's F, the served extension, open_potential's, closed builds, oks)
        for closed, served, extended, want_builds, oks in (
            (bad_fs, bad_ext, bad_ext, 2, [False, False, True, False]),  # F bumped on every input
            (fs, bad_fo, ext, 1, [True, False, True, False]),  # F° in two parts
            (bad_fs, ext, ext, 2, [False, True, True, True]),  # F in wdvv only
        ):
            builds = []
            monkeypatch.setattr(cli, "_sweep", lambda max_rank: iter(group))
            monkeypatch.setattr(cli, "coxeter_structure", lambda tag: closed)
            monkeypatch.setattr(cli, "_open_ext_for", lambda *args: served)
            monkeypatch.setattr(openext, f"open_potential_{family}", lambda n: extended)
            monkeypatch.setattr(saito, "third_derivatives", lambda *a: builds.append(a) or third(*a))
            got = cli._verify_all(4)
            assert len(builds) == want_builds
            monkeypatch.setattr(saito, "third_derivatives", third)
            alone = []
            for verify, *args in (
                (verify_wdvv, closed),
                (verify_open_wdvv, served),
                (openext.verify_extension_theorems, family, 4),
                (verify_vector_potential, served),
            ):
                saito._SLOTS.clear()  # no tables kept: each verifier alone
                alone.append(verify(*args))
            assert got == alone and [r.ok for r in got] == oks
            monkeypatch.undo()

    def test_residuals_render_alike_on_the_extended_table(self):
        # verify_wdvv's residuals in a group step live on the extended table
        for family, n in (("A", 5), ("D", 5)):
            fs = frobenius_structure(family, n)
            residual = bumped(fs.potential) - fs.potential
            lifted = residual.substitute({}, extended_table(fs))
            assert _first_monomial(lifted) == _first_monomial(residual)
            assert _first_monomial(-lifted) == _first_monomial(-residual)
