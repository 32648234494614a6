"""The extension check against its full comparison.

verify_extension_theorems pulls back only the s-row of the extended tensor
when the closed block and the s-column are decided in v
(openext._closed_block_held).  The reference below is the full comparison
the check made before: every entry pulled back through dt/dv and dv/dt and
compared with eta^{-1} F''' or d2F°.  Both must give the same Report,
failures in order included, on the built groups and on tampered inputs,
and the fast path must be the one taken on the built groups."""

from itertools import combinations_with_replacement

import pytest

from openwdvv import milnor, openext, saito
from openwdvv.exactalg import MPoly, PolyError, replace, substitute_all
from openwdvv.report import Report

GROUPS = [("A", n) for n in range(1, 11)] + [("D", n) for n in range(3, 11)]


def extension_of(family, n):
    return openext.open_potential_A(n) if family == "A" else openext.open_potential_D(n)


def reference_extension(family, n) -> Report:
    """Every (a, i, j) pulled back and compared, the want side formed
    from the potentials alone."""
    ext = extension_of(family, n)
    base = ext.base
    tab = ext.table
    m = n + 1
    v = substitute_all(base.v_of_t, {}, tab)
    sub = dict(zip(base.v_table.names, v))
    cv = milnor.extended_constants(openext.build_unfolding(family, n), sub, tab)
    idx = range(1, m + 1)
    keys = [(a, i, j) for a in idx for i, j in combinations_with_replacement(idx, 2)]
    zero, one = MPoly.zero(tab), MPoly.constant(tab, 1)
    s_row = [zero] * n + [one]
    jac = [[vb.diff(x) for x in tab.names[:n]] + [zero] for vb in v] + [s_row]
    dt = substitute_all((t.diff(vn) for vn in sub for t in base.t_of_v), sub, tab)
    inv = [dt[a * n : (a + 1) * n] + [zero] for a in range(n)] + [s_row]
    got = saito.pullback(cv, inv, jac, keys, tab, lambda a, i: (a, i))
    F = base.potential.substitute({}, tab)
    _, _, raised = saito.third_derivatives(F, base.eta_inv, base.table.names)
    o2 = saito.partials(ext.potential, tab.names[:m], 2)
    failures = []
    for (al, be, ga), p in got.items():
        if al > n:
            want = o2[(be, ga)]
        elif ga <= n:
            want = raised[(be, ga)][al - 1]
        else:
            want = zero
        if p != want:
            failures.append(f"c^{al}_({be},{ga})")
    return Report(f"extension({family}{n})", len(keys), tuple(failures))


def outcome(fn, *args):
    """fn's Report, or the message of the PolyError it raises."""
    try:
        return fn(*args)
    except PolyError as err:
        return f"PolyError: {err}"


def pullbacks(monkeypatch, family, n) -> tuple:
    """The check's Report, the (first, keys) of every pullback it takes,
    and its calls of openext's substitute_all, which forms v and, on the
    full path, dt/dv."""
    seen, subs = [], []
    pullback, substitute = openext.pullback, openext.substitute_all

    def recorded(T, first, second, keys, table, row):
        seen.append((first, list(keys)))
        return pullback(T, first, second, keys, table, row)

    def counted(*args):
        subs.append(None)
        return substitute(*args)

    monkeypatch.setattr(openext, "pullback", recorded)
    monkeypatch.setattr(openext, "substitute_all", counted)
    rep = openext.verify_extension_theorems(family, n)
    monkeypatch.setattr(openext, "pullback", pullback)
    monkeypatch.setattr(openext, "substitute_all", substitute)
    return rep, seen, len(subs)


def one_monomial(p: MPoly) -> MPoly:
    """A monomial of p's weighted degree free of t1 (t1^3 when there is
    none): the unit condition still holds, homogeneity too."""
    tab = p.table
    for key, *_ in tab.weighted_keys(tab.names[1:], p.weighted_degree()):
        return MPoly._from_ints(tab, {key: 1})
    return MPoly.variable(tab, "t1") ** 3


def fast_path(family, n, seen) -> bool:
    """Whether the one pullback took only the keys (N+1, b, c), with
    e_{N+1} as its first matrix."""
    m = n + 1
    ((first, keys),) = seen
    live = [(a, al) for a, row in enumerate(first, 1) for al, e in enumerate(row, 1) if e]
    return live == [(m, m)] and keys == [
        (m, i, j) for i, j in combinations_with_replacement(range(1, m + 1), 2)
    ]


class TestSameReports:
    @pytest.mark.parametrize("family, n", GROUPS)
    def test_built_groups_take_the_fast_path(self, monkeypatch, family, n):
        extension_of(family, n)
        rep, seen, subs = pullbacks(monkeypatch, family, n)
        assert rep.ok and rep == reference_extension(family, n)
        # one pullback, over the s-row only, and no dt/dv formed
        assert fast_path(family, n, seen)
        assert subs == 1

    @pytest.mark.parametrize("family, n", GROUPS)
    @pytest.mark.parametrize("power", [1, 2])
    def test_tampered_unfolding(self, monkeypatch, family, n, power):
        # the relations cv is read off change and T's do not.  Where the
        # closed block or the s-column moves, (d) or (a) fails and every
        # entry is compared, as before; where only the s-row moves (A1,
        # whose closed block is c^1_(1,1) = 1), the decision holds.  A
        # tamper that leaves dL/dx in no shape the relations take is
        # refused alike
        u = milnor.build_unfolding(family, n)
        v = "v2" if "v2" in u.table.names else "v1"
        x, vk = (MPoly.variable(u.table, nm) for nm in ("x", v))
        bad = replace(u, poly=u.poly + 3 * vk * x**power)
        extension_of(family, n)
        monkeypatch.setattr(openext, "build_unfolding", lambda *_: bad)
        want = outcome(reference_extension, family, n)
        got = outcome(pullbacks, monkeypatch, family, n)
        if isinstance(want, Report):
            rep, seen, _ = got
            assert rep == want and not rep.ok
            s_row_only = all(f.startswith(f"c^{n + 1}_") for f in rep.failures)
            assert fast_path(family, n, seen) == s_row_only
        else:
            assert got == want

    @pytest.mark.parametrize("family, n", GROUPS)
    def test_tampered_open_potential(self, monkeypatch, family, n):
        # the s-row: F° plus a monomial of its weight; the closed block is
        # still decided, and only the s-row entries fail
        ext = extension_of(family, n)
        bad = replace(ext, potential=ext.potential + one_monomial(ext.potential))
        monkeypatch.setattr(openext, f"open_potential_{family}", lambda n: bad)
        want = reference_extension(family, n)
        rep, seen, _ = pullbacks(monkeypatch, family, n)
        assert rep == want and not rep.ok
        assert all(f.startswith(f"c^{n + 1}_") for f in rep.failures)
        assert fast_path(family, n, seen)

    @pytest.mark.parametrize("family, n", GROUPS)
    def test_base_not_the_build(self, monkeypatch, family, n):
        # F bumped on the extension's base: guard (c) refuses, so the
        # closed block is compared against the tampered F
        ext = extension_of(family, n)
        base = ext.base
        bad_base = replace(base, potential=base.potential + one_monomial(base.potential))
        bad = replace(ext, base=bad_base)
        monkeypatch.setattr(openext, f"open_potential_{family}", lambda n: bad)
        want = reference_extension(family, n)
        rep, seen, _ = pullbacks(monkeypatch, family, n)
        assert rep == want and not rep.ok
        assert not fast_path(family, n, seen)


class TestDecision:
    def test_each_guard_refuses(self):
        # the decision on A4 with one input broken at a time
        family, n = "A", 4
        ext = extension_of(family, n)
        base = ext.base
        tab = ext.table
        m = n + 1
        v = substitute_all(base.v_of_t, {}, tab)
        sub = dict(zip(base.v_table.names, v))
        cv = milnor.extended_constants(milnor.build_unfolding(family, n), sub, tab)
        zero, one = MPoly.zero(tab), MPoly.constant(tab, 1)
        jac = [[vb.diff(x) for x in tab.names[:n]] + [zero] for vb in v]
        jac.append([zero] * n + [one])

        def held(cv=cv, jac=jac, ext=ext):
            return openext._closed_block_held(family, n, ext, cv, jac, sub, tab)

        assert held()
        # (a) an entry of the s-column
        assert not held(cv={**cv, (1, 2, m): one})
        # (b) J e_1 is not e_1
        assert not held(jac=[[row[0] + one, *row[1:]] for row in jac])
        # (c) a base that is not the build
        other = replace(base, potential=base.potential + one_monomial(base.potential))
        assert not held(ext=replace(ext, base=other))
        # (d) one closed entry off
        assert not held(cv={**cv, (1, 2, 3): cv.get((1, 2, 3), zero) + one})
