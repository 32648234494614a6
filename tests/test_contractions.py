"""Shared contractions in the WDVV, open-WDVV and vector-potential sweeps.

Each verifier forms every distinct bilinear contraction once and compares
the stored values.  The reference sweeps below form one dot per side of
every identity, as the verifiers did before the sharing; both must give
the same Report, failures in order included, on passing and on tampered
inputs.  The dot counts pin the sharing itself."""

import math
from dataclasses import replace

import pytest

from openwdvv import openext, saito
from openwdvv.coxeter import _open_ansatz, coxeter_structure, open_family
from openwdvv.exactalg import _WIDTH, MPoly, dot, rat
from openwdvv.openext import (
    OpenExtension,
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
    _weighted_keys,
    frobenius_structure,
    metric_and_potential,
    partials,
    residue_structure,
    singularity_data,
    third_derivatives,
    verify_wdvv,
)

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
    d = p.weighted_degree()
    ws = tab.weights[1:]
    scale = math.lcm(d.denominator, *(w.denominator for w in ws))
    shape = _weighted_keys([int(w * scale) for w in ws], int(d * scale))
    # the shape keys start at t2, slot 1 of tab
    return p + MPoly._from_ints(tab, {tab._one + (k << _WIDTH): 1 for k, *_ in shape})


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
        funcs = ext.vector_potential()
        rep = verify_vector_potential(funcs, tag)
        assert rep.ok and rep == reference_vector(funcs, tag)
        for a in (1, len(funcs)):  # a closed component and F°
            bad = list(funcs)
            bad[a - 1] = bumped(bad[a - 1])
            rep = verify_vector_potential(bad, tag)
            assert not rep.ok and rep == reference_vector(bad, tag)


# ---------- dot counts ----------


def count_dots(monkeypatch, fn, *args):
    calls = []

    def counted(pairs, table):
        calls.append(None)
        return dot(pairs, table)

    monkeypatch.setattr(saito, "dot", counted)
    monkeypatch.setattr(openext, "dot", counted)
    fn(*args)
    monkeypatch.undo()
    return len(calls)


class TestDotCounts:
    def test_wdvv_a6(self, monkeypatch):
        fs = frobenius_structure("A", 6)
        n = fs.rank
        pairs = n * (n + 1) // 2
        # third_derivatives: one dot per raised entry; then at most one dot
        # per unordered pair of index pairs
        bound = pairs * n + pairs * (pairs + 1) // 2
        got = count_dots(monkeypatch, verify_wdvv, fs)
        assert got <= bound
        assert got == 126 + 195

    def test_vector_a6(self, monkeypatch):
        ext = open_potential_A(6)
        funcs = ext.vector_potential()
        n = len(funcs)
        # partials takes no dot; at most one dot per (alpha, beta, {gamma, delta})
        bound = n * n * n * (n + 1) // 2
        got = count_dots(monkeypatch, verify_vector_potential, funcs, "A6")
        assert got <= bound
        assert got == 1323

    def test_open_wdvv(self, monkeypatch):
        # third_derivatives' raising, then one dot per distinct Q(ab; g)
        assert count_dots(monkeypatch, verify_open_wdvv, open_potential_A(6)) == 267
        assert count_dots(monkeypatch, verify_open_wdvv, open_potential_D(5)) == 160

    def test_extension_a6(self, monkeypatch):
        open_potential_A(6)
        openext.extended_algebra("A", 6)
        got = count_dots(monkeypatch, openext.verify_extension_theorems, "A", 6)
        assert got == 812

    def test_eq2_over_an_ansatz(self, monkeypatch):
        fs = coxeter_structure("H3")
        fo = _open_ansatz(fs)
        assert count_dots(monkeypatch, open_wdvv_eq2, fs, fo, 2, 3) == 19

    def test_metric_and_potential(self, monkeypatch):
        for family, want in (("A", 352), ("D", 314)):
            data = singularity_data(family, 6)
            assert count_dots(monkeypatch, metric_and_potential, *data) == want

    def test_residue_structure_a6(self, monkeypatch):
        # the residues r_6..r_15, the sums R_ga(k) of 6 columns over k = 2..12,
        # the pair sums P_{al be}(k) with a live term, and one dot per c_{al be ga}
        assert count_dots(monkeypatch, residue_structure, "A", 6) == 10 + 66 + 100 + 56

    def test_residue_structure_d6(self, monkeypatch):
        # the residues r_5..r_12, the sums R_ga(k) of 6 columns over k = 2..10,
        # the pair sums P_{al be}(k) with a live term, T(c,6,6) for c < 6,
        # S_ga per column, Q_{be ga} per pair, and one dot per c_{al be ga}
        got = count_dots(monkeypatch, residue_structure, "D", 6)
        assert got == 8 + 54 + 75 + 5 + 6 + 21 + 56
