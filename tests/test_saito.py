"""Flat structures of the A and D singularities: frozen coordinates,
metrics and potentials, the graded inversion against the fixed-point loop
it replaced, the residue route against the tensor route, the WDVV and
homogeneity sweeps, and negative controls on tampered data."""

from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openwdvv import saito
from openwdvv.coxeter import (
    _restriction_images,
    _source_family,
    coxeter_spec,
    coxeter_structure,
)
from openwdvv.exactalg import (
    GaussianRational,
    MPoly,
    PolyError,
    VarTable,
    dot,
    parse,
    replace,
    substitute_all,
)
from openwdvv.milnor import StructureTensor
from openwdvv.openext import open_potential_D
from openwdvv.saito import (
    flat_coords_A,
    flat_coords_D,
    frobenius_structure,
    from_potential,
    invert_coords,
    invert_matrix,
    metric_and_potential,
    partials,
    pullback,
    residue_structure,
    singularity_data,
    t_table,
    third_derivatives,
    verify_homogeneity,
    verify_wdvv,
)

FAMILIES = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
            ("D", 3), ("D", 4), ("D", 5), ("D", 6))
ZERO, ONE = GaussianRational(0), GaussianRational(1)
# small Gaussian rationals, real ones drawn more often
GAUSS = st.builds(
    GaussianRational,
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.sampled_from((0, 0, 1, Fraction(-1, 2))),
)


def _matmul(a, b):
    n = len(b)
    return [[sum((row[k] * b[k][j] for k in range(n)), ZERO) for j in range(len(b[0]))]
            for row in a]


def fixed_point_inverse(t_of_v, ttab, images):
    """The inversion the graded pass replaced: iterate v <- images - h(v)
    over every coordinate at once until it stabilizes, at most N + 1 times."""
    vtab = t_of_v[0].table
    hs = [t - MPoly.variable(vtab, nm) for t, nm in zip(t_of_v, vtab.names)]
    current = dict(zip(vtab.names, images))
    for _ in range(len(t_of_v) + 1):
        nxt = {
            nm: img - h
            for nm, img, h in zip(vtab.names, images, substitute_all(hs, current, ttab))
        }
        if nxt == current:
            return [current[nm] for nm in vtab.names]
        current = nxt
    raise AssertionError("the fixed-point loop did not stabilize")


def restriction(tag):
    """(source family, source rank, images) of a restricted group."""
    spec = coxeter_spec(tag)
    family, m = _source_family(spec)
    return family, m, list(_restriction_images(spec, t_table(spec.q)))


def triple_sum(T, first, second, key):
    """sum first[a][al] second[i][be] second[j][ga] T[(a, min, max of i, j)]
    over every source triple, an absent entry of T read as zero."""
    al, be, ga = key
    idx = range(1, len(first) + 1)
    want = MPoly.zero(first[0][0].table)
    for a, i, j in product(idx, repeat=3):
        t = T.get((a, min(i, j), max(i, j)))
        if t is not None:
            want = want + first[a - 1][al - 1] * second[i - 1][be - 1] * second[j - 1][ga - 1] * t
    return want


class TestFlatCoordinates:
    def test_a3_frozen(self):
        fs = frobenius_structure("A", 3)
        vtab = fs.v_table
        assert [p.text() for p in fs.t_of_v] == ["v1 - 1/2*v3^2", "v2", "v3"]
        assert [p.text() for p in fs.v_of_t] == ["t1 + 1/2*t3^2", "t2", "t3"]
        assert vtab.names == ("v1", "v2", "v3")

    def test_triangular_with_unit_leading_term(self):
        for family, n in FAMILIES:
            fs = frobenius_structure(family, n)
            for a, t in enumerate(fs.t_of_v, start=1):
                lead = MPoly.variable(fs.v_table, f"v{a}")
                tail = t - lead
                assert all(sum(exp) >= 2 for exp in tail.terms), (family, n, a)

    def test_round_trip_is_identity(self):
        for family, n in FAMILIES:
            fs = frobenius_structure(family, n)
            for a, t in enumerate(fs.t_of_v, start=1):
                back = t.substitute(
                    {f"v{k}": fs.v_of_t[k - 1] for k in range(1, fs.rank + 1)},
                    fs.table,
                )
                assert back == MPoly.variable(fs.table, f"t{a}")

    def test_invert_rejects_non_triangular(self):
        vtab = VarTable(("v1",), (Fraction(1),))
        ttab = VarTable(("t1",), (Fraction(1),))
        bad = 2 * MPoly.variable(vtab, "v1")
        with pytest.raises(PolyError):
            invert_coords([bad], ttab)

    def test_graded_inverse_equals_fixed_point_loop(self):
        cases = [("A", n, None) for n in range(1, 11)]
        cases += [("D", n, None) for n in range(3, 10)]
        tags = [f"B{n}" for n in range(2, 7)] + [f"I2({k})" for k in range(3, 11)]
        cases += [restriction(tag) for tag in tags + ["H3"]]
        for family, n, images in cases:
            coords = flat_coords_A(n) if family == "A" else flat_coords_D(n)
            if images is None:
                ttab = t_table(coords[0].table.weights)
                images = [MPoly.variable(ttab, nm) for nm in ttab.names]
            ttab = images[0].table
            want = fixed_point_inverse(coords, ttab, images)
            assert invert_coords(coords, ttab, images) == want, (family, n)

    def test_invert_refuses_non_graded_maps_at_once(self):
        vtab = VarTable(("v1", "v2"), (Fraction(1), Fraction(1, 2)))
        ttab = VarTable(("t1", "t2"), (Fraction(1), Fraction(1, 2)))
        v1, v2 = (MPoly.variable(vtab, nm) for nm in vtab.names)
        # t^2 leans on the heavier v1; the second map is a cycle, which the
        # fixed-point loop would iterate on with growing degree
        for t_of_v in ([v1, v2 + v1], [v1 + v2 * v2, v2 + v1 * v1]):
            with pytest.raises(PolyError, match="not graded"):
                invert_coords(t_of_v, ttab)
        with pytest.raises(PolyError, match="needs weights"):
            invert_coords([MPoly.variable(VarTable(("v1",)), "v1")], VarTable(("t1",)))

    def test_invert_along_zero_images(self):
        # A5 on the t2 = t4 = 0 subspace: the inverse equals the full
        # inverse restricted there, and passes back-substitution inside
        fs = frobenius_structure("A", 5)
        tab = VarTable(("t1", "t2", "t3"), (Fraction(1), Fraction(2, 3), Fraction(1, 3)))
        zero = MPoly.zero(tab)
        x1, x2, x3 = (MPoly.variable(tab, nm) for nm in tab.names)
        images = [x1, zero, x2, zero, x3]
        got = invert_coords(list(fs.t_of_v), tab, images)
        full = {f"t{a}": img for a, img in enumerate(images, start=1)}
        assert got == [v.substitute(full, tab) for v in fs.v_of_t]
        assert got[1] == zero and got[3] == zero
        with pytest.raises(PolyError):
            invert_coords(list(fs.t_of_v), tab, images[:4])

    def test_restriction_needs_weight_preserving_linear_images(self):
        tab = VarTable(("t1", "t2"), (Fraction(1), Fraction(1, 2)))
        x1, x2 = (MPoly.variable(tab, nm) for nm in tab.names)
        # A3 has weights 1, 3/4, 1/2: t2 cannot go to a weight-1/2 form
        for images in ([x1, x2, MPoly.zero(tab)], [x1, MPoly.zero(tab), x2 * x2]):
            with pytest.raises(PolyError):
                metric_and_potential(*singularity_data("A", 3), images)
        fs = metric_and_potential(
            *singularity_data("A", 3), [x1, MPoly.zero(tab), x2], "B2"
        )
        assert fs.potential == frobenius_structure("A", 3).potential.substitute(
            {"t1": x1, "t2": MPoly.zero(tab), "t3": x2}, tab
        )
        assert fs.label == "B2" and fs.t_of_v is None

    def test_invert_matrix(self):
        one = GaussianRational(1)
        two = GaussianRational(2)
        inv = invert_matrix(((one, two), (GaussianRational(0), one)))
        assert inv == ((one, -two), (GaussianRational(0), one))
        with pytest.raises(PolyError):
            invert_matrix(((one, one), (one, one)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_invert_matrix_property(self, data):
        # A = P*L*U with P a permutation, L unit lower and U upper
        # triangular with a nonzero diagonal: invertible, and sparse when
        # the drawn entries are; a signed permutation is one such A
        n = data.draw(st.integers(1, 5), label="n")
        entry = st.one_of(st.just(ZERO), st.just(ZERO), GAUSS)
        nonzero = GAUSS.filter(bool)
        lower = [[data.draw(entry) if j < i else ONE if j == i else ZERO
                  for j in range(n)] for i in range(n)]
        upper = [[data.draw(nonzero) if j == i else data.draw(entry) if j > i else ZERO
                  for j in range(n)] for i in range(n)]
        perm = data.draw(st.permutations(range(n)), label="perm")
        lu = _matmul(lower, upper)
        a = [lu[perm[i]] for i in range(n)]
        ident = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        inv = invert_matrix(a)
        assert _matmul(a, inv) == ident and _matmul(inv, a) == ident
        assert all(isinstance(x, GaussianRational) for row in inv for x in row)
        if n > 1:
            # a row set to a combination of the others leaves A singular
            # (p == q when n == 2)
            rows = data.draw(st.permutations(range(n)), label="rows")
            r, p, q = rows[0], rows[1], rows[-1]
            c = data.draw(GAUSS, label="c")
            a[r] = [x + c * y for x, y in zip(a[p], a[q])]
            with pytest.raises(PolyError):
                invert_matrix(a)


class TestResidueRoute:
    def test_full_a_matches_tensor_route(self):
        for n in range(1, 9):
            got = residue_structure("A", n)
            want = metric_and_potential(*singularity_data("A", n))
            assert got == want, n

    def test_restrictions_match_tensor_route(self):
        tags = [f"B{n}" for n in range(2, 8)] + [f"I2({k})" for k in range(3, 13)]
        for tag in tags:
            family, m, images = restriction(tag)
            assert family == "A"
            got = residue_structure("A", m, images, tag)
            want = metric_and_potential(*singularity_data("A", m), images, tag)
            assert got.potential == want.potential, tag
            assert got.eta == want.eta and got.eta_inv == want.eta_inv, tag
            assert got.label == tag and got.t_of_v is None, tag

    def test_full_d_matches_tensor_route(self):
        for n in range(3, 11):
            got = residue_structure("D", n)
            want = metric_and_potential(*singularity_data("D", n))
            assert got == want, n

    def test_h3_matches_tensor_route(self):
        family, m, images = restriction("H3")
        assert (family, m) == ("D", 6)
        got = residue_structure(family, m, images, "H3")
        want = metric_and_potential(*singularity_data(family, m), images, "H3")
        assert got == want
        assert got.label == "H3" and got.t_of_v is None

    def test_lowered_tensor_entry_by_entry(self, monkeypatch):
        # along a restriction the pullback does not determine T, so the
        # routes must agree on T itself, as each hands it to the pullback
        def lowered(build, *args):
            seen = []

            def capture(T, *rest):
                seen.append(T)
                return pullback(T, *rest)

            monkeypatch.setattr(saito, "pullback", capture)
            build(*args)
            monkeypatch.undo()
            (T,) = seen
            return T

        cases = [("A", n, None, None) for n in range(1, 9)]
        cases += [("D", n, None, None) for n in range(3, 9)]
        cases += [(*restriction(tag), tag) for tag in ("B3", "I2(5)", "H3")]
        for family, m, images, tag in cases:
            got = lowered(residue_structure, family, m, images, tag)
            want = lowered(
                metric_and_potential, *singularity_data(family, m), images, tag
            )
            assert got.keys() == want.keys(), (family, m, tag)
            for abc, t in want.items():
                assert got[abc] == t, (family, m, tag, abc)

    def test_pullback_finds_repeated_rows(self, monkeypatch):
        # no build says which rows T(a, i, .) repeat: the pullback shares a
        # first-stage sum between rows that hold the same entry objects.
        # The row keys the routes once handed it are the oracle: the nonzero
        # rows of one entry identity must be exactly those of one key
        def sorted_pair(a, i):
            return (a, i) if a <= i else (i, a)

        def residue_row(family, m):
            # x-rows by a + i; for D_m rows (a, m) and (m, a) by a, (m, m) alone
            def row(a, i):
                return a + i if family == "A" or a < m and i < m else ("y", a + i - m)
            return row

        def classes(key, build, *args):
            seen = []

            def capture(T, *rest):
                seen.append(T)
                return pullback(T, *rest)

            monkeypatch.setattr(saito, "pullback", capture)
            build(*args)
            monkeypatch.undo()
            (T,) = seen
            live = sorted({a for a, _, _ in T})
            by_id, by_key = {}, {}
            for a, i in product(live, repeat=2):
                entries = [(j, T[(a, *sorted((i, j)))]) for j in live]
                ids = tuple((j, id(t)) for j, t in entries if t)
                if ids:  # the pullback forms no sum for a zero row
                    by_id.setdefault(ids, set()).add((a, i))
                    by_key.setdefault(key(a, i), set()).add((a, i))
            got = sorted(map(sorted, by_id.values()))
            assert got == sorted(map(sorted, by_key.values())), args
            # the grouping is not the trivial one past a single live index
            assert len(got) < len(live) ** 2 or len(live) == 1
            return len(got)

        cases = [("A", n, None, None) for n in range(1, 13)]
        cases += [("D", n, None, None) for n in range(3, 11)]
        tags = [f"B{n}" for n in range(2, 7)] + [f"I2({k})" for k in range(3, 11)]
        cases += [(*restriction(tag), tag) for tag in tags + ["H3"]]
        for family, m, images, tag in cases:
            got = classes(residue_row(family, m), residue_structure, family, m, images, tag)
            if images is None:
                assert got == (2 * m - 1 if family == "A" else (2 * m - 3) + m), (family, m)
        for family, ranks in (("A", range(1, 9)), ("D", range(3, 9))):
            for m in ranks:
                got = classes(sorted_pair, metric_and_potential, *singularity_data(family, m))
                assert got == m * (m + 1) // 2, (family, m)

    def test_refuses_other_d_relations(self, monkeypatch):
        u, coords = saito._flat_source("D", 4)
        x, y, v1 = (MPoly.variable(u.table, nm) for nm in ("x", "y", "v1"))
        for extra, which in ((x * y * y, "dL/dy"), (v1 * x ** 3, "dL/dx")):
            bad = replace(u, poly=u.poly + extra)
            monkeypatch.setattr(saito, "_flat_source", lambda f, n: (bad, coords))
            with pytest.raises(PolyError, match=which):
                residue_structure("D", 4)
        monkeypatch.undo()
        with pytest.raises(PolyError, match="no residue route"):
            residue_structure("E", 6)

    def test_refuses_imaginary_restrictions(self):
        # A3 on t2 = 0, t3 = i*t2: every surviving term is imaginary
        tab = VarTable(("t1", "t2"), (Fraction(1), Fraction(1, 2)))
        x1, x2 = (MPoly.variable(tab, nm) for nm in tab.names)
        images = [x1, MPoly.zero(tab), x2 * GaussianRational(0, 1)]
        for build in (
            lambda: residue_structure("A", 3, images, "im"),
            lambda: metric_and_potential(*singularity_data("A", 3), images, "im"),
        ):
            with pytest.raises(PolyError, match="imaginary"):
                build()

    def test_refuses_bad_images(self):
        tab = VarTable(("t1", "t2"), (Fraction(1), Fraction(1, 2)))
        x1, x2 = (MPoly.variable(tab, nm) for nm in tab.names)
        for images in ([x1, x2, MPoly.zero(tab)], [x1, MPoly.zero(tab), x2 * x2]):
            with pytest.raises(PolyError):
                residue_structure("A", 3, images)
        with pytest.raises(PolyError):
            residue_structure("A", 3, [x1, MPoly.zero(tab)])

    def test_tampered_coordinates_fail(self, monkeypatch):
        # t^2 of A4 picks up v4^2, of the same weight 4/5: still graded and
        # invertible, but no longer flat
        coords = flat_coords_A(4)
        v4 = MPoly.variable(coords[0].table, "v4")
        bad = coords[:1] + [coords[1] + v4 * v4] + coords[2:]
        monkeypatch.setattr(saito, "flat_coords_A", lambda n: bad)
        saito._flat_source.cache_clear()  # the source data are shared
        try:
            with pytest.raises(PolyError, match="integrability failure .* A4"):
                residue_structure("A", 4)
        finally:
            saito._flat_source.cache_clear()

    def test_tampered_d_coordinates_fail(self, monkeypatch):
        # t^2 of D5 picks up v3*v4, of the same weight 3/4: still graded and
        # invertible, but no longer flat
        coords = flat_coords_D(5)
        v3, v4 = (MPoly.variable(coords[0].table, nm) for nm in ("v3", "v4"))
        bad = coords[:1] + [coords[1] + v3 * v4] + coords[2:]
        monkeypatch.setattr(saito, "flat_coords_D", lambda n: bad)
        saito._flat_source.cache_clear()
        try:
            with pytest.raises(PolyError, match="integrability failure .* D5"):
                residue_structure("D", 5)
        finally:
            saito._flat_source.cache_clear()


class TestPotentials:
    def test_frozen_low_rank(self):
        frozen = {
            ("A", 1): "1/6*t1^3",
            ("A", 2): "1/2*t1^2*t2 - 1/24*t2^4",
            ("A", 3): "1/2*t1*t2^2 + 1/2*t1^2*t3 - 1/4*t2^2*t3^2 + 1/60*t3^5",
        }
        for (family, n), text in frozen.items():
            fs = frobenius_structure(family, n)
            assert fs.potential.text() == text

    def test_metric_values(self):
        a3 = frobenius_structure("A", 3)
        for a in range(3):
            for b in range(3):
                assert a3.eta[a][b] == (1 if a + b == 2 else 0)
        d4 = frobenius_structure("D", 4)
        want = {(0, 2): 1, (2, 0): 1, (1, 1): 1, (3, 3): -1}
        for a in range(4):
            for b in range(4):
                assert d4.eta[a][b] == want.get((a, b), 0)

    def test_metric_inverse(self):
        for family, n in FAMILIES:
            fs = frobenius_structure(family, n)
            for a in range(fs.rank):
                for b in range(fs.rank):
                    got = sum(
                        (fs.eta[a][m] * fs.eta_inv[m][b] for m in range(fs.rank)),
                        GaussianRational(0),
                    )
                    assert got == (1 if a == b else 0)

    def test_delta_values(self):
        assert frobenius_structure("A", 3).delta == Fraction(1, 2)
        assert frobenius_structure("D", 4).delta == Fraction(2, 3)
        assert frobenius_structure("D", 5).delta == Fraction(3, 4)


class TestIdentitySweeps:
    def test_wdvv(self):
        for family, n in FAMILIES:
            rep = verify_wdvv(frobenius_structure(family, n))
            assert rep.ok, rep.summary()

    def test_homogeneity(self):
        for family, n in FAMILIES:
            rep = verify_homogeneity(frobenius_structure(family, n))
            assert rep.ok, rep.summary()


class TestThirdDerivatives:
    def test_matches_direct_contraction(self):
        # eta^-1 of D4 has a -1 entry and that of H3 a 1/2 entry: both raise
        # by re-keying and scaling
        for fs in (frobenius_structure("D", 4), coxeter_structure("H3")):
            self.check_against_direct_sums(fs)

    @staticmethod
    def check_against_direct_sums(fs):
        F, nm, n = fs.potential, fs.table.names, fs.rank
        d3, rows, raised = third_derivatives(F, fs.eta_inv, nm)
        assert len(d3) == n * (n + 1) * (n + 2) // 6
        for (a, b, c), p in d3.items():
            assert p == F.diff(nm[a - 1]).diff(nm[b - 1]).diff(nm[c - 1])
        assert len(raised) == n * (n + 1) // 2
        assert list(rows) == list(raised)
        for (a, b), row in rows.items():
            assert row == [d3[tuple(sorted((a, b, m)))] for m in range(1, n + 1)]
        for (a, b), row in raised.items():
            for v, got in enumerate(row, start=1):
                want = MPoly.zero(fs.table)
                for m in range(1, n + 1):
                    f3 = F.diff(nm[a - 1]).diff(nm[b - 1]).diff(nm[m - 1])
                    want = want + f3 * fs.eta_inv[v - 1][m - 1]
                assert got == want
        # the unit slice raises to the identity: c^v_(1,b) = delta^v_b
        for b in range(1, n + 1):
            assert raised[(1, b)] == [
                MPoly.constant(fs.table, int(v == b)) for v in range(1, n + 1)
            ]

    def test_partials_through_a_pole(self):
        # the D5 open potential has a t5^2/(2s) term, so the s-derivatives
        # run through negative powers
        fo = open_potential_D(5).potential
        nm = fo.table.names
        for order, count in ((1, 6), (2, 21), (3, 56)):
            got = partials(fo, nm, order)
            assert len(got) == count
            for key, p in got.items():
                assert list(key) == sorted(key)
                assert p == reduce(MPoly.diff, (nm[k - 1] for k in key), fo)
        assert partials(fo, nm, 0) == {(): fo}


class TestPullback:
    TAB = VarTable(("x", "y"))
    # three source indices onto two targets; first has a zero row (2) and
    # second has one (3)
    FIRST = ("x", "2"), ("0", "0"), ("y", "x+y")
    SECOND = ("1", "y"), ("x", "0"), ("0", "0")

    def brute(self, T, first, second, key):
        al, be, ga = key
        want = MPoly.zero(self.TAB)
        for a, i, j in product(range(1, 4), repeat=3):
            f = first[a - 1][al - 1] * second[i - 1][be - 1] * second[j - 1][ga - 1]
            if f:
                want = want + f * T[(a, min(i, j), max(i, j))]
        return want

    def test_matches_quadruple_sum(self):
        tab = self.TAB
        first = [[parse(e, tab) for e in row] for row in self.FIRST]
        second = [[parse(e, tab) for e in row] for row in self.SECOND]
        # only the entries a zero-skipping contraction may read: a != 2 and
        # i, j != 3; any other lookup raises KeyError
        T = {
            (a, i, j): parse(f"{a}*x^{i} - {j}*y + {a * i * j}", tab)
            for a in (1, 3)
            for i, j in combinations_with_replacement((1, 2), 2)
        }
        axes = (1, 2)
        restricted = [
            (al, be, ga)
            for al in axes
            for be, ga in combinations_with_replacement(axes, 2)
        ]
        symmetric = list(combinations_with_replacement(axes, 3))
        for keys in (restricted, symmetric, restricted[1:2]):
            got = pullback(T, first, second, iter(keys), tab)
            assert list(got) == keys
            for key in keys:
                assert got[key] == self.brute(T, first, second, key)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_triple_sum(self, data):
        # sparse matrices with zero rows and columns, a tensor with zero and
        # absent entries, and any list of distinct keys, both orders of the
        # lower slots included
        tab = self.TAB
        n = data.draw(st.integers(1, 4), label="source rank")
        m = data.draw(st.integers(1, 3), label="target rank")
        texts = ("1", "-2", "x", "y", "x - 3*y", "1/2*x*y")
        entry = st.one_of(st.just("0"), st.just("0"), st.sampled_from(texts))

        def matrix(label):
            rows = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                      min_size=n, max_size=n), label=label)
            return [[parse(e, tab) for e in row] for row in rows]

        first, second = matrix("first"), matrix("second")
        T = {}
        for a in range(1, n + 1):
            for i, j in combinations_with_replacement(range(1, n + 1), 2):
                e = data.draw(st.one_of(st.none(), entry), label=f"T{a}{i}{j}")
                if e is not None:
                    T[(a, i, j)] = parse(e, tab)
        keys = data.draw(st.lists(st.tuples(*[st.integers(1, m)] * 3), unique=True,
                                  max_size=8), label="keys")
        got = pullback(T, first, second, keys, tab)
        assert list(got) == keys
        for abc in keys:
            assert got[abc] == triple_sum(T, first, second, abc) and got[abc].table is tab

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shared_rows_match_triple_sum(self, data):
        # every entry of T is one of a few parsed polynomials, so rows often
        # hold the same objects and share their first-stage sums; a text
        # drawn twice gives equal entries of distinct objects, and zero and
        # absent entries are included
        tab = self.TAB
        n = data.draw(st.integers(1, 4), label="source rank")
        m = data.draw(st.integers(1, 3), label="target rank")
        texts = ("0", "1", "-2", "x", "y", "x - 3*y", "1/2*x*y")
        pool = [parse(e, tab) for e in data.draw(
            st.lists(st.sampled_from(texts), min_size=1, max_size=3), label="pool")]
        T = {}
        for a in range(1, n + 1):
            for i, j in combinations_with_replacement(range(1, n + 1), 2):
                k = data.draw(st.none() | st.integers(0, len(pool) - 1), label=f"T{a}{i}{j}")
                if k is not None:
                    T[(a, i, j)] = pool[k]

        def matrix(label):
            cells = st.lists(st.sampled_from(("0", "0") + texts), min_size=m, max_size=m)
            grid = data.draw(st.lists(cells, min_size=n, max_size=n), label=label)
            return [[parse(e, tab) for e in row] for row in grid]

        first, second = matrix("first"), matrix("second")
        keys = data.draw(st.lists(st.tuples(*[st.integers(1, m)] * 3), unique=True,
                                  max_size=8), label="keys")
        got = pullback(T, first, second, keys, tab)
        assert list(got) == keys
        for abc in keys:
            assert got[abc] == triple_sum(T, first, second, abc) and got[abc].table is tab

    def test_rows_of_one_object_share_a_first_stage_sum(self, monkeypatch):
        # rows (1, 1) and (1, 2) of T(1, ., .) = q hold the same object at
        # each j: one first-stage sum per ga (2), then three L(1, be, ga)
        # and six outputs; a copy of q in each slot takes one per row (4)
        tab = self.TAB
        first = [[parse(e, tab) for e in row] for row in (("1", "x"), ("0", "0"))]
        second = [[parse(e, tab) for e in row] for row in (("1", "x"), ("y", "2"))]
        keys = [(al, *bg) for al in (1, 2) for bg in combinations_with_replacement((1, 2), 2)]
        calls = []

        def counted(pairs, table):
            calls.append(None)
            return dot(pairs, table)

        monkeypatch.setattr(saito, "dot", counted)
        slots = [(1, 1, 1), (1, 1, 2), (1, 2, 2)]
        shared = dict.fromkeys(slots, parse("x + y", tab))
        copies = {abc: parse("x + y", tab) for abc in slots}
        counts, results = [], []
        for T in (shared, copies):
            calls.clear()
            results.append(pullback(T, first, second, keys, tab))
            counts.append(len(calls))
        assert counts == [2 + 3 + 6, 4 + 3 + 6]
        for got in results:
            assert all(got[k] == triple_sum(shared, first, second, k) for k in keys)


class TestFromPotential:
    def test_reads_back_pipeline_data(self):
        src = frobenius_structure("D", 4)
        fs = from_potential("again", src.potential)
        assert fs.eta == src.eta and fs.delta == src.delta

    def test_rejects_degenerate_metric(self):
        tab = VarTable(("t1", "t2"), (Fraction(1), Fraction(1, 2)))
        with pytest.raises(PolyError):
            from_potential("bad", parse("1/6*t1^3", tab))

    def test_rejects_zero_potential(self):
        tab = VarTable(("t1", "t2"), (Fraction(1), Fraction(1, 2)))
        with pytest.raises(PolyError, match="zero potential"):
            from_potential("z", MPoly.zero(tab))


class TestNegativeControls:
    def test_corrupted_zero_metric_entry_fails(self):
        fs = frobenius_structure("A", 3)
        eta = [list(row) for row in fs.eta]
        eta_inv = [list(row) for row in fs.eta_inv]
        assert eta[0][0] == 0
        eta[0][0] = GaussianRational(1)
        eta_inv[0][0] = GaussianRational(1)
        bad = replace(
            fs,
            eta=tuple(tuple(r) for r in eta),
            eta_inv=tuple(tuple(r) for r in eta_inv),
        )
        assert not verify_wdvv(bad).ok

    def test_tampered_potential_fails_wdvv(self):
        fs = frobenius_structure("A", 4)
        bump = parse("t2^2*t4^2", fs.table)
        bad = replace(fs, potential=fs.potential + bump)
        assert not verify_wdvv(bad).ok

    def test_tampered_potential_fails_homogeneity(self):
        fs = frobenius_structure("A", 4)
        bad = replace(fs, potential=fs.potential + parse("t4^3", fs.table))
        assert not verify_homogeneity(bad).ok

    def test_tampered_tensor_fails_integrability(self):
        # c^2_{23} += v4, symmetrically: the pulled-back c_{abc} are then no
        # third derivatives of one potential
        u, ten, coords = singularity_data("A", 4)
        entries = [[list(row) for row in mat] for mat in ten.entries]
        bump = entries[1][1][2] + MPoly.variable(ten.table, "v4")
        entries[1][1][2] = entries[1][2][1] = bump
        bad = StructureTensor(
            ten.table, tuple(tuple(tuple(r) for r in m) for m in entries), ten.l
        )
        with pytest.raises(PolyError, match="A4"):
            metric_and_potential(u, bad, coords)
