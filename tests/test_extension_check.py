"""The extension check against its full comparison.

verify_extension_theorems decides every key (a, i, j) with a <= N in v and
pulls back only the s-row of the extended tensor.  The reference below is
the full comparison: every entry pulled back through dt/dv and dv/dt and
compared with eta^{-1} F''' or d2F°.  Both must agree on ok, on the count
and on the s-row failures, on the built groups and on tampered inputs; a
failure decided in v is labelled "in v", and the check takes one
pullback, over the s-row keys alone, on every input."""

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
    got = saito.pullback(cv, inv, jac, keys, tab)
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
    and its calls of openext's substitute_all, which forms v; dt/dv would
    be a second call."""
    seen, subs = [], []
    pullback, substitute = openext.pullback, openext.substitute_all

    def recorded(T, first, second, keys, table):
        seen.append((first, list(keys)))
        return pullback(T, first, second, keys, table)

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


def s_row_only(family, n, seen) -> bool:
    """Whether the one pullback took only the keys (N+1, b, c), with
    e_{N+1} as its first matrix."""
    m = n + 1
    ((first, keys),) = seen
    live = [(a, al) for a, row in enumerate(first, 1) for al, e in enumerate(row, 1) if e]
    return live == [(m, m)] and keys == [
        (m, i, j) for i, j in combinations_with_replacement(range(1, m + 1), 2)
    ]


def agrees(rep: Report, want: Report, n: int) -> bool:
    """Same label, ok and count as the full comparison, the same s-row
    failures in order, the rest labelled "in v", and failures in v exactly
    when the reference fails an entry (a, b, c) with a <= N: the
    pulled-back closed block and s-column are right exactly when every key
    in v holds."""
    s_row = f"c^{n + 1}_"
    in_v = [f for f in rep.failures if not f.startswith(s_row)]
    closed = [f for f in want.failures if not f.startswith(s_row)]
    return (
        (rep.label, rep.ok, rep.checked) == (want.label, want.ok, want.checked)
        and all(f.endswith(" in v") for f in in_v)
        and rep.failures[len(in_v) :] == tuple(f for f in want.failures if f not in closed)
        and bool(in_v) == bool(closed)
    )


class TestSameReports:
    @pytest.mark.parametrize("family, n", GROUPS)
    def test_built_groups_take_the_fast_path(self, monkeypatch, family, n):
        extension_of(family, n)
        rep, seen, subs = pullbacks(monkeypatch, family, n)
        assert rep.ok and rep == reference_extension(family, n)
        # one pullback, over the s-row only, and no dt/dv formed
        assert s_row_only(family, n, seen)
        assert subs == 1

    @pytest.mark.parametrize("family, n", [(f, n) for f in "AD" for n in (11, 12, 13)])
    def test_ranks_past_groups(self, monkeypatch, family, n):
        # the rest of what verify all serves (up to MAX_RANK 13), on the
        # same one path
        extension_of(family, n)
        rep, seen, subs = pullbacks(monkeypatch, family, n)
        assert rep.ok and rep.checked == (n + 1) * (n + 1) * (n + 2) // 2
        assert s_row_only(family, n, seen)
        assert subs == 1

    @pytest.mark.parametrize("family, n", GROUPS)
    @pytest.mark.parametrize("power", [1, 2])
    def test_tampered_unfolding(self, monkeypatch, family, n, power):
        # the relations cv is read off change and T's do not.  Where the
        # closed block or the s-column moves, keys fail in v; where only
        # the s-row moves (A1, whose closed block is c^1_(1,1) = 1), only
        # s-row entries fail.  A tamper that leaves dL/dx in no shape the
        # relations take is refused alike
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
            assert agrees(rep, want, n) and not rep.ok
            assert s_row_only(family, n, seen)
        else:
            assert got == want

    @pytest.mark.parametrize("family, n", GROUPS)
    def test_tampered_open_potential(self, monkeypatch, family, n):
        # the s-row: F° plus a monomial of its weight; every key in v
        # holds, and only the s-row entries fail
        ext = extension_of(family, n)
        bad = replace(ext, potential=ext.potential + one_monomial(ext.potential))
        monkeypatch.setattr(openext, f"open_potential_{family}", lambda n: bad)
        want = reference_extension(family, n)
        rep, seen, _ = pullbacks(monkeypatch, family, n)
        assert rep == want and not rep.ok
        assert all(f.startswith(f"c^{n + 1}_") for f in rep.failures)
        assert s_row_only(family, n, seen)

    @pytest.mark.parametrize("family, n", GROUPS)
    def test_base_not_the_build(self, monkeypatch, family, n):
        # F bumped on the extension's base: the check reads its base off
        # frobenius_structure, the build whose read-off proved F''' = J^3 T,
        # so the Report is the untampered one
        ext = extension_of(family, n)
        want = reference_extension(family, n)
        base = ext.base
        bad_base = replace(base, potential=base.potential + one_monomial(base.potential))
        bad = replace(ext, base=bad_base)
        monkeypatch.setattr(openext, f"open_potential_{family}", lambda n: bad)
        rep, seen, _ = pullbacks(monkeypatch, family, n)
        assert rep.ok and rep == want
        assert s_row_only(family, n, seen)


class Unread:
    """An entry of T that fails the test if pullback reads it."""

    def __bool__(self):
        raise AssertionError("pullback read an entry its first matrix skips")


def triple_sum(T, first, second, key, table) -> MPoly:
    """sum first[a][al] * second[i][be] * second[j][ga] * T(a, i, j) over
    every a, i, j with the three factors nonzero, T symmetric in i, j."""
    al, be, ga = key
    total = MPoly.zero(table)
    for a, f in enumerate((row[al - 1] for row in first), 1):
        for i, g in enumerate((row[be - 1] for row in second), 1):
            for j, h in enumerate((row[ga - 1] for row in second), 1):
                if f and g and h:
                    total = total + f * g * h * T.get((a, *sorted((i, j))), MPoly.zero(table))
    return total


class TestSRowPullback:
    @pytest.mark.parametrize("family, n", [("A", 3), ("A", 7), ("D", 4), ("D", 7)])
    def test_reads_only_the_s_rows(self, monkeypatch, family, n):
        # the check's first matrix is e_{N+1}, so pullback indexes only the
        # rows T(N+1, i, .): with every other entry sealed, it returns the
        # same pulled-back s-row, which is the brute-force triple sum
        seen = []
        pullback = openext.pullback
        monkeypatch.setattr(openext, "pullback", lambda *args: seen.append(args) or pullback(*args))
        assert openext.verify_extension_theorems(family, n).ok
        ((cv, first, second, keys, tab),) = seen
        m = n + 1
        sealed = {key: t if key[0] == m else Unread() for key, t in cv.items()}
        assert len(sealed) > sum(key[0] == m for key in cv)
        got = saito.pullback(sealed, first, second, keys, tab)
        assert got == pullback(cv, first, second, keys, tab)
        for key in keys:
            assert got[key] == triple_sum(cv, first, second, key, tab), key


class TestDecision:
    def test_each_guard_refuses(self, monkeypatch):
        # A4 with one input broken at a time: a broken key in v fails
        # alone, and J e_1 != e_1 is refused
        family, n = "A", 4
        m = n + 1
        base = extension_of(family, n).base
        constants = milnor.extended_constants

        def broken(key):
            def patched(*args):
                cv = constants(*args)
                return {**cv, key: cv.get(key, 0) + 1}

            monkeypatch.setattr(openext, "extended_constants", patched)
            rep, seen, _ = pullbacks(monkeypatch, family, n)
            monkeypatch.setattr(openext, "extended_constants", constants)
            assert s_row_only(family, n, seen)
            return rep.failures

        # (a) an entry of the s-column
        assert broken((1, 2, m)) == (f"c^1_(2,{m}) in v",)
        # (d) one closed entry: eta_v's column 1 is T(a, 1, 1) = delta_aN,
        # so c^1_(2,3) moves the key (N, 2, 3) alone
        assert broken((1, 2, 3)) == (f"c^{n}_(2,3) in v",)
        # (b) J e_1 is not e_1
        t1 = MPoly.variable(base.table, "t1")
        skew = replace(base, v_of_t=(base.v_of_t[0], base.v_of_t[1] + t1, *base.v_of_t[2:]))
        monkeypatch.setattr(openext, "frobenius_structure", lambda *_: skew)
        with pytest.raises(PolyError, match="dv/dt1 is not e1"):
            openext.verify_extension_theorems(family, n)
