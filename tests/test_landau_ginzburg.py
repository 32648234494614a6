"""Landau-Ginzburg oracles for the A_n structures, and for the gradient of
the D_n open potential.

W = p^(n+1) + (n+1) sum_k v_k p^(k-1) is n + 1 times the A_n unfolding at
x = p.  Three classical formulas read the flat coordinates, the second
derivatives of F and the gradient of F° off fractional powers of W
(Dijkgraaf, Verlinde & Verlinde, Nucl. Phys. B 352 (1991)).  They share
nothing with the residue route, the Milnor ring or the read-off, so they
guard every A potential independently of how its third derivatives are
contracted.

With W/p^(n+1) = 1 + sum_{j=2..n+1} g_j p^(-j), g_j = (n+1) v_(n+2-j), the
coefficients f_k of (W/p^(n+1))^e follow Miller's power recurrence
f_0 = 1, f_k = (1/k) sum_j ((e+1) j - k) g_j f_(k-j) (Knuth, TAOCP vol. 2,
§4.7), one dot each; then W^(a/(n+1)) = sum_k f_k p^(a-k), and f^(a)
below is that series at e = a/(n+1)."""

from fractions import Fraction

from openwdvv.exactalg import MPoly, dot, substitute_all
from openwdvv.openext import open_potential_A, open_potential_D
from openwdvv.saito import flat_coords_A, frobenius_structure, partials

RANKS = range(1, 11)


def lg_series(n: int, a: int, length: int, vtab) -> list:
    """f_0..f_(length-1) of (W/p^(n+1))^(a/(n+1)) over the v table."""
    g = {j: MPoly.variable(vtab, f"v{n + 2 - j}") * (n + 1) for j in range(2, n + 2)}
    e = Fraction(a, n + 1)
    f = [MPoly.constant(vtab, 1)]
    for k in range(1, length):
        pairs = ((f[k - j], gj * ((e + 1) * j - k)) for j, gj in g.items() if j <= k)
        f.append(dot(pairs, vtab, k))
    return f


def test_flat_coordinates():
    # (a) t_g = res W^((n+1-g)/(n+1)) / (n+1-g)
    for n in RANKS:
        coords = flat_coords_A(n)
        vtab = coords[0].table
        for g, t in enumerate(coords, start=1):
            a = n + 1 - g
            f = lg_series(n, a, n + 3 - g, vtab)
            assert f[n + 2 - g] * Fraction(1, a) == t, (n, g)


def test_second_derivatives():
    # (b) d_al d_be F = res[W^(al/(n+1)) d_p (W^(be/(n+1)))_+] / (al be)
    #     at v = v(t), for 1 <= al <= be <= n
    for n in RANKS:
        fs = frobenius_structure("A", n)
        vtab, ttab = fs.v_table, fs.table
        series = [lg_series(n, a, 2 * n + 1, vtab) for a in range(1, n + 1)]
        at_t = dict(zip(vtab.names, fs.v_of_t))
        f = [substitute_all(s, at_t, ttab) for s in series]
        d2 = partials(fs.potential, ttab.names, 2)
        for al in range(1, n + 1):
            for be in range(al, n + 1):
                pairs = (
                    (f[be - 1][k], f[al - 1][al + be - k] * (be - k))
                    for k in range(be)
                )
                assert dot(pairs, ttab, al * be) == d2[(al, be)], (n, al, be)


def test_open_gradient():
    # (c) dF°/dt_al = (W^(al/(n+1)))_+ at p = s, over al, at v = v(t)
    for n in RANKS:
        ext = open_potential_A(n)
        fs, tab = ext.base, ext.table
        s = MPoly.variable(tab, "s")
        at_t = dict(zip(fs.v_table.names, substitute_all(fs.v_of_t, {}, tab)))
        for al in range(1, n + 1):
            f = substitute_all(lg_series(n, al, al + 1, fs.v_table), at_t, tab)
            pairs = ((f[k], s ** (al - k)) for k in range(al + 1))
            assert dot(pairs, tab, al) == ext.potential.diff(f"t{al}"), (n, al)


def test_open_gradient_D():
    # (c) for D_n: eliminating y from the unfolding by dL/dy = 0
    # (y = -v_n/(2x)) leaves L_D = x^(n-1)/(n-1) + sum_(k<n) v_k x^(k-1)
    # - v_n^2/(4x), and dF°/ds = L_D at x = s^2/2, at v = v(t).  This shares
    # no code with the extended algebra or its relations.
    for n in range(3, 9):
        ext = open_potential_D(n)
        tab = ext.table
        x = MPoly.variable(tab, "s") ** 2 / 2
        v = substitute_all(ext.base.v_of_t, {}, tab)
        ld = x ** (n - 1) / (n - 1) - v[n - 1] * v[n - 1] * x ** -1 / 4
        for k in range(1, n):
            ld = ld + v[k - 1] * x ** (k - 1)
        assert ext.potential.diff("s") == ld, n
