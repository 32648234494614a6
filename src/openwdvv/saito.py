"""Flat coordinates, the Saito metric, and Frobenius potentials for the A
and D singularities, plus exact WDVV and homogeneity verifiers.

Flat coordinates come from closed-form sums over exponent tuples; the
coordinate change is inverted exactly in one pass of increasing weight.
Coordinates and potential are formed as ints over one denominator;
Fractions are made only for weights, delta, the metric (invert_matrix)
and the factors of verify_homogeneity.
Two routes give the flat third derivatives c_{abc}.  Every build, A_n,
D_n and each restriction of them (B_n, I2(k), H3), takes the residue
route (residue_structure): the lowered tensor comes from one residue
sequence r_s = [phi_l] NF(x^s), read off the relations of dL/dx and
dL/dy, so no Milnor algebra is built.  The tensor route
(metric_and_potential, fed by singularity_data) lowers, substitutes and
pulls back Milnor structure constants; the tests keep it as the oracle of
the residue route.  Both hand c_{abc} to one read-off: the potential has no
term below cubic (3 - delta > 2 >= q_a + q_b), so each monomial is fixed
by the c_{abc} of its three smallest indices; the third partials that
check integrability then give the metric and grading, as from_potential
does for printed potentials.  `pullback` is the one Jacobian contraction
of a three-index tensor, `partials` the one table of shared partial
derivatives and `_contractions` the one memo of the bilinear
contractions the verifiers compare; every module builds its tensors and
identity sweeps on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .exactalg import (
    GaussianRational,
    MPoly,
    PolyError,
    VarTable,
    _FIELD,
    _ImagePowers,
    _WIDTH,
    _render_term,
    dot,
    rat,
    substitute_all,
)
from .milnor import (
    StructureTensor,
    Unfolding,
    build_closed_algebra,
    build_unfolding,
    parameter_table,
    structure_constants,
)
from .report import Report

__all__ = [
    "FrobeniusStructure",
    "flat_coords_A",
    "flat_coords_D",
    "invert_coords",
    "metric_and_potential",
    "residue_structure",
    "frobenius_structure",
    "singularity_data",
    "third_derivatives",
    "verify_wdvv",
    "verify_homogeneity",
    "t_table",
    "from_potential",
    "invert_matrix",
    "pullback",
    "partials",
]


def t_table(weights) -> VarTable:
    """Flat-coordinate table t1..tN with the given weights."""
    names = tuple(f"t{k}" for k in range(1, len(weights) + 1))
    return VarTable(names, tuple(Fraction(w) for w in weights))


@dataclass(frozen=True)
class FrobeniusStructure:
    """A potential in flat coordinates with its constant metric and grading.

    t_of_v / v_of_t are the exact coordinate changes when the structure
    comes from a singularity; they are None for the Coxeter potentials,
    which live on a subspace of a singularity's flat coordinates or are
    printed.
    """

    label: str
    rank: int
    table: VarTable  # t1..tN with weights
    delta: Fraction
    eta: tuple  # rank x rank GaussianRational
    eta_inv: tuple
    potential: MPoly
    v_table: VarTable | None = None
    t_of_v: tuple | None = None
    v_of_t: tuple | None = None

    @property
    def weights(self) -> tuple:
        return self.table.weights


# ---------- exact linear algebra ----------


def invert_matrix(rows) -> tuple:
    """Exact inverse of a square GaussianRational matrix (Gauss-Jordan)."""
    n = len(rows)
    aug = [
        [GaussianRational(x.re, x.im) for x in row]
        + [GaussianRational(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise PolyError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = GaussianRational(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


# ---------- flat coordinates ----------


def _weighted_keys(weights, total, bases=None) -> list:
    """(key, m, p, q) for each tuple a >= 0 with sum weights[i]*a[i] == total,
    in lexicographic order: key packs a (slot i at bit 16i, no bias),
    m = sum(a) and p/q = prod bases[i]^a[i] / prod a[i]! (bases default 1)."""
    bases = bases or [1] * len(weights)
    last = len(weights) - 1
    out = []

    def rec(i, rem, key, m, p, q):
        w, b, sh = weights[i], bases[i], _WIDTH * i
        if i == last:
            a, r = divmod(rem, w)
            if not r:
                out.append((key + (a << sh), m + a, p * b ** a, q * math.factorial(a)))
            return
        for a in range(rem // w + 1):
            rec(i + 1, rem - w * a, key + (a << sh), m + a, p, q)
            p *= b
            q *= a + 1

    rec(0, total, 0, 0, 1, 1)
    return out


def flat_coords_A(n: int) -> list:
    """Flat coordinates t^1..t^n of A_n as polynomials in v_1..v_n."""
    u = build_unfolding("A", n)
    vtab = parameter_table(u)
    wts = [n + 2 - i for i in range(1, n + 1)]
    step = n + 1
    # t^g at v^a: prod_{0 < k < m} (n + 1 - g - k(n + 1)) / prod a_i!, m = sum(a)
    coords = [
        MPoly._from_ratios(vtab, {
            key: (math.prod(range(-g, -g - (m - 1) * step, -step)), q)
            for key, m, _, q in _weighted_keys(wts, n + 2 - g)
        })
        for g in range(1, n + 1)
    ]
    _check_flat_homogeneity(coords, u)
    return coords


def flat_coords_D(n: int) -> list:
    """Flat coordinates of D_n; t^n = v_n, the rest are sums over tuples in
    v_1..v_{n-1}."""
    u = build_unfolding("D", n)
    vtab = parameter_table(u)
    wts = [n - i for i in range(1, n)]
    step = 2 * (n - 1)
    coords = []
    for g in range(1, n):
        # t^g at v^a: (-1/2)^{m-1} prod_{k < m-1} (2g - 1 + 2k(n - 1)) / prod a_i!
        ratios = {}
        for key, m, _, q in _weighted_keys(wts, n - g):
            p = math.prod(range(2 * g - 1, 2 * g - 1 + (m - 1) * step, step))
            ratios[key] = (p if m % 2 else -p, q << (m - 1))
        coords.append(MPoly._from_ratios(vtab, ratios))
    coords.append(MPoly.variable(vtab, f"v{n}"))
    _check_flat_homogeneity(coords, u)
    return coords


def _check_flat_homogeneity(coords, u: Unfolding):
    for g, t in enumerate(coords, start=1):
        if t.weighted_degree() != u.weights[g - 1]:
            raise PolyError(f"t^{g} of {u.label()} is not homogeneous of q_{g}")


def invert_coords(t_of_v, ttab: VarTable, images=None):
    """Exact inverse v_a(t) of a graded triangular coordinate change, taken
    along a linear embedding of ttab into the flat coordinates.

    images[a] is the flat coordinate t^a as a weight-preserving linear form
    over ttab; by default it is the a-th variable of ttab.  Write
    t^a = v_a + h_a(v).  In a graded change h_a involves only variables
    lighter than v_a, so one pass in increasing weight solves
    v_a = images[a] - h_a(v) with every v in h_a already known.  Every h_a
    and the check go through one table of monomial images, so each power
    and monomial of the solved v is formed once.  An h_a that involves a
    variable not yet solved is refused, and the result is checked by exact
    back-substitution against the images.
    """
    vtab = t_of_v[0].table
    n = len(t_of_v)
    if images is None:
        images = [MPoly.variable(ttab, nm) for nm in ttab.names]
    if len(images) != n:
        raise PolyError(f"{len(images)} images given for {n} flat coordinates")
    if vtab.weights is None:
        raise PolyError("coordinate table needs weights")
    names = vtab.names
    # one table of monomial images, grown by each solved v_a: every image it
    # holds involves solved variables only, so no entry goes stale
    powers = _ImagePowers(vtab, ttab, {})
    for a in sorted(range(n), key=vtab.weights.__getitem__):
        h = t_of_v[a] - MPoly.variable(vtab, names[a])
        late = [
            nm
            for j, nm in enumerate(names)
            if j not in powers.imgs and h.depends_on(nm)
        ]
        if late:
            raise PolyError(
                f"t^{a + 1} is not graded: {late[0]} is not lighter than {names[a]}"
            )
        powers.imgs[a] = images[a] - powers.apply(h)
    if [powers.apply(t) for t in t_of_v] != list(images):
        raise PolyError("inverse fails exact back-substitution")
    return [powers.imgs[a] for a in range(n)]


# ---------- tensor calculus ----------


def pullback(T, first, second, keys, table) -> dict:
    """out[(al, be, ga)] = sum first[a][al] * second[i][be] * second[j][ga]
    * T[(a, i, j)] for every (al, be, ga) in keys.

    T is keyed (a, i, j) with i <= j, so it is symmetric in its last two
    slots.  The matrices are lists of rows indexed by the source index;
    indices are 1-based, zero entries are skipped, and one index is
    contracted at a time.  Only the partial sums that keys need are formed.
    """
    keys = list(keys)
    c1 = [_live(col) for col in zip(*first)]
    c2 = [_live(col) for col in zip(*second)]
    # (al, be, j) with second[j][ga] != 0, then (al, i, j) with
    # second[i][be] != 0 under each of them
    need2 = dict.fromkeys((al, be, j) for al, be, ga in keys for j, _ in c2[ga - 1])
    need1 = dict.fromkeys(
        (al, i, j) if i <= j else (al, j, i)
        for al, be, j in need2
        for i, _ in c2[be - 1]
    )
    p1 = {
        (al, i, j): dot(((f, T[(a, i, j)]) for a, f in c1[al - 1]), table)
        for al, i, j in need1
    }
    p2 = {
        (al, be, j): dot(
            ((g, p1[(al, i, j) if i <= j else (al, j, i)]) for i, g in c2[be - 1]),
            table,
        )
        for al, be, j in need2
    }
    return {
        (al, be, ga): dot(((g, p2[(al, be, j)]) for j, g in c2[ga - 1]), table)
        for al, be, ga in keys
    }


def _live(row) -> list:
    """The (index, entry) pairs of the nonzero entries of row, 1-based."""
    return [(i, e) for i, e in enumerate(row, 1) if e]


def _contractions(rows, cols, table):
    """form(r, c) = sum_i rows[r][i] * cols[c][i], taken only over the i
    where both entries are nonzero and formed at most once per (r, c).

    rows and cols map keys to sequences indexed alike; row entries are
    MPoly over table, column entries MPoly or scalars.  Callers that want
    a symmetry shared pass the canonical (r, c) themselves.
    """
    rows = {r: _live(row) for r, row in rows.items()}
    cols = {c: dict(_live(col)) for c, col in cols.items()}
    formed = {r: {} for r in rows}  # a memo per row keeps no (r, c) tuples

    def form(r, c):
        memo = formed[r]
        p = memo.get(c)
        if p is None:
            col = cols[c]
            pairs = [(f, col[i]) for i, f in rows[r] if i in col]
            p = memo[c] = dot(pairs, table)
        return p

    return form


def partials(f: MPoly, names, order: int) -> dict:
    """Every partial derivative of f of the given order in names, keyed by
    the sorted 1-based index tuple; each is one derivative of a lower
    partial, so every lower partial is taken once."""
    level = {(): f}
    for _ in range(order):
        level = {
            key + (c,): p.diff(names[c - 1])
            for key, p in level.items()
            for c in range(key[-1] if key else 1, len(names) + 1)
        }
    return level


# ---------- metric and potential ----------


def _metric(t1_slice, m: int) -> tuple:
    """(eta, eta_inv) from the t1 slice {(b, c): d3F/dt1 dtb dtc, b <= c}
    of an m-dimensional structure; every entry must be constant."""
    rows = []
    for b in range(1, m + 1):
        row = []
        for c in range(1, m + 1):
            e = t1_slice[(b, c) if b <= c else (c, b)]
            if e.total_degree() > 0:
                raise PolyError(f"metric entry ({b},{c}) is not constant: {e.text()}")
            row.append(e.constant_term())
        rows.append(row)
    return tuple(tuple(row) for row in rows), invert_matrix(rows)


def _target(weights, images) -> tuple:
    """(ttab, images, restricted) of a build on the flat coordinates of the
    given weights: the identity onto t_table(weights) by default, else the
    images, each checked to be a weight-preserving linear form."""
    if images is None:
        ttab = t_table(weights)
        return ttab, [MPoly.variable(ttab, nm) for nm in ttab.names], False
    for a, (img, q) in enumerate(zip(images, weights), start=1):
        if img and (img.total_degree() != 1 or img.weighted_degree() != q):
            raise PolyError(f"image of t{a} is not a linear form of weight {q}")
    return images[0].table, list(images), True


def _read_off(cflat, ttab: VarTable, label: str, restricted: bool):
    """The structure whose potential has the flat third derivatives cflat
    {(a, b, c): c_abc, a <= b <= c} over ttab, as from_potential's.

    F has no term below cubic (3 - delta > 2 >= q_a + q_b), so its monomial
    n*t_a*t_b*t_c with a <= b <= c and n free of t_1..t_{c-1} comes from
    c_abc alone, over the falling factor the three derivatives put on it.
    Every c_abc must then be a third derivative of F (integrability); those
    third partials give the t1 slice, which must be a constant
    nondegenerate metric.  A restricted group must come out real.
    """
    if ttab.laurent_index is not None:
        raise PolyError(f"no read-off of {label} over a table with a Laurent slot")
    parts = ({}, {})  # packed key -> (p, q), real and imaginary
    for abc, c in cflat.items():
        low = (1 << (_WIDTH * (abc[-1] - 1))) - 1  # the fields of t_1..t_{c-1}
        up = sum(1 << (_WIDTH * (a - 1)) for a in abc)
        mult = [(_WIDTH * (a - 1), abc.count(a)) for a in set(abc)]
        for part, maps in zip(parts, (c._num, c._im or {})):
            for k, v in maps.items():
                if not k & low:
                    k += up
                    fall = math.prod(math.perm((k >> sh) & _FIELD, r) for sh, r in mult)
                    part[k] = (v, c._den * fall)
    potential = MPoly._from_ratios(ttab, *parts)

    d3 = partials(potential, ttab.names, 3)
    for (al, be, ga), want in cflat.items():
        if d3[(al, be, ga)] != want:
            raise PolyError(f"integrability failure at ({al},{be},{ga}) for {label}")
    if restricted and potential._im:
        raise PolyError(f"restriction for {label} left imaginary parts")
    m = ttab.arity
    pairs = combinations_with_replacement(range(1, m + 1), 2)
    return _structure(label, potential, {(b, c): d3[(1, b, c)] for b, c in pairs})


def metric_and_potential(
    u: Unfolding, tensor: StructureTensor, t_of_v, images=None, label=None
) -> FrobeniusStructure:
    """The potential whose third derivatives are the structure constants in
    flat coordinates, on the flat coordinates of u or on a linear subspace
    of them, as from_potential's structure: the tensor route.  No build
    takes it; it is the oracle of residue_structure in the tests, and it
    takes any unfolding whose structure tensor and flat coordinates are
    given.

    The fully lowered tensor is the phi_l-coefficient of triple products;
    pulling it through the Jacobian of v(t) gives c_{abc} = d3F/dt.dt.dt
    directly, and _read_off takes F and its checks from there.

    images gives every flat coordinate t^a as a weight-preserving linear
    form over a target table whose t1 is the unit coordinate; the default
    is the identity onto t_table(u.weights).  The Euler field is diagonal,
    so restriction commutes with every step: v(t) is inverted over the
    target table, the Jacobian has one column per target coordinate, and
    only source indices whose Jacobian row is nonzero enter the lowered
    triples and the contractions.  The potential is then F(images); the
    coordinate changes are kept only for the identity.
    """
    n = u.rank
    ttab, images, restricted = _target(u.weights, images)
    tnames = ttab.names
    m = ttab.arity
    v_of_t = invert_coords(t_of_v, ttab, images)
    jac = [[v.diff(nm) for nm in tnames] for v in v_of_t]
    live = [a for a in range(1, n + 1) if any(jac[a - 1])]

    # c_{abc} = sum_d c^d_{ab} * c^l_{dc}, then v -> v(t), all triples
    # through one table of powers of v(t).
    keys = list(combinations_with_replacement(live, 3))
    lowered = [
        dot(
            ((tensor.c(d, a, b), tensor.c(tensor.l, d, c)) for d in range(1, n + 1)),
            tensor.table,
        )
        for a, b, c in keys
    ]
    vmap = dict(zip(tensor.table.names, v_of_t))
    low = dict(zip(keys, substitute_all(lowered, vmap, ttab)))

    sym = {
        (a, b, c): low[tuple(sorted((a, b, c)))]
        for a in live
        for b, c in combinations_with_replacement(live, 2)
    }
    cflat = pullback(
        sym, jac, jac, combinations_with_replacement(range(1, m + 1), 3), ttab
    )
    fs = _read_off(cflat, ttab, label or u.label(), restricted)
    if not restricted:
        fs = replace(
            fs, v_table=tensor.table, t_of_v=tuple(t_of_v), v_of_t=tuple(v_of_t)
        )
    return fs


def residue_structure(
    family: str, n: int, images=None, label=None
) -> FrobeniusStructure:
    """The structure of A_n or D_n, or its restriction along images, read
    off one residue sequence r_s = [phi_l] NF(x^s) of the Milnor ring.

    dL/dv_a = phi_a, with phi_a = x^{a-1} for every a of A_n and every
    a < n of D_n, where phi_n = y.  The lowered tensor
    T(a, b, c) = [phi_l] NF(phi_a phi_b phi_c) of three x-monomials is
    then r_{a+b+c-3}.  A_n reads r_s at x^{n-1}, off x^s mod W'.  D_n reads
    it at x^{n-2} and reduces its y insertions to r by xy = h and
    y^2 = sum_j s_j x^j (_d_relations): T(a, b, n) = h r_{a+b-3},
    T(a, n, n) = sum_j s_j r_{a-1+j} and T(n, n, n) = 0.  The r_s are
    formed over the target ring, with v already v(t), and pulled back
    through J = dv/dt.  No Milnor algebra is built.  images and label are
    as for metric_and_potential, and _read_off makes the same checks.
    """
    if family not in ("A", "D"):
        raise PolyError(f"no residue route for family {family!r}")
    u, t_of_v = _flat_source(family, n)
    vtab = t_of_v[0].table
    ttab, images, restricted = _target(u.weights, images)
    v_of_t = invert_coords(t_of_v, ttab, images)
    vmap = dict(zip(vtab.names, v_of_t))

    # x^n = sum_j rho_j x^j in the Milnor ring, and phi_l = x^top
    if family == "A":  # W' = x^n + sum_{j < n} w_j x^j
        top = n - 1
        parts = u.poly.diff("x").collect(("x",))
        if parts.pop((n,)) != MPoly.constant(u.table, 1):
            raise PolyError(f"W' of {u.label()} is not monic")
        lower = substitute_all([-p for p in parts.values()], vmap, ttab)
        rho = dict(zip([j for (j,) in parts], lower))
    else:  # x y^2 = h y gives x^n = -h^2 + sum_{j < n-2} s_j x^{j+2}
        top = n - 2
        h, s = _d_relations(u, vmap, ttab)
        rho = {0: -(h * h)} | {j + 2: c for j, c in s.items() if j < top}
    r = _residues(rho, n, top, ttab)

    # c_{al be ga} = sum_k P_{al be}(k) R_ga(k), with the pair sums
    # P_{al be}(k) = sum_{a+b=k} J_{a al} J_{b be} and
    # R_ga(k) = sum_c J_{c ga} r_{k+c-3}, over live entries of the x rows of J
    m = ttab.arity
    cols = [_live([v.diff(nm) for v in v_of_t[: top + 1]]) for nm in ttab.names]
    ks = range(2, 2 * top + 3)
    R = [
        {k: dot(((j, r[k + c - 3]) for c, j in col if r[k + c - 3]), ttab) for k in ks}
        for col in cols
    ]
    P = {}
    for al, be in combinations_with_replacement(range(1, m + 1), 2):
        by_k = {}
        for a, ja in cols[al - 1]:
            for b, jb in cols[be - 1]:
                by_k.setdefault(a + b, []).append((ja, jb))
        P[(al, be)] = {k: dot(prs, ttab) for k, prs in by_k.items()}

    # D_n: with Y = J_{n .} the row of v_n, one y adds Y_al h Q_{be ga} with
    # Q_{be ga} = sum_k P_{be ga}(k) r_{k-3}, two y add Y_be Y_ga S_al with
    # S_al = sum_{c<n} J_{c al} T(c, n, n), each in its three rotations
    Y = [v_of_t[-1].diff(nm) for nm in ttab.names] if family == "D" else []
    ys = any(Y)
    if ys:
        hY = [h * y for y in Y]
        tnn = [
            dot(((w, r[c - 1 + j]) for j, w in s.items() if r[c - 1 + j]), ttab)
            for c in range(1, n)
        ]
        S = [
            dot(((j, tnn[c - 1]) for c, j in col if tnn[c - 1]), ttab) for col in cols
        ]
        Q = {
            bc: dot(((p, r[k - 3]) for k, p in pk.items() if k > 2 and r[k - 3]), ttab)
            for bc, pk in P.items()
        }
    cflat = {}
    for al, be, ga in combinations_with_replacement(range(1, m + 1), 3):
        rg = R[ga - 1]
        pairs = [(p, rg[k]) for k, p in P[(al, be)].items() if rg[k]]
        if ys:
            for a, b, c in ((al, be, ga), (be, al, ga), (ga, al, be)):
                if Y[a - 1]:
                    pairs.append((Q[(b, c)], hY[a - 1]))
                if Y[b - 1] and Y[c - 1]:
                    pairs.append((S[a - 1], Y[b - 1] * Y[c - 1]))
        cflat[(al, be, ga)] = dot(pairs, ttab)
    fs = _read_off(cflat, ttab, label or u.label(), restricted)
    if not restricted:
        fs = replace(fs, v_table=vtab, t_of_v=tuple(t_of_v), v_of_t=tuple(v_of_t))
    return fs


def _d_relations(u: Unfolding, vmap, ttab: VarTable) -> tuple:
    """(h, s) of D_n at v -> v(t): xy = h and y^2 = sum_j s[j] x^j in the
    Milnor ring, read off dL/dy = 2xy + nu and
    dL/dx = y^2 + x^{n-2} + sum_{j < n-2} w_j x^j, so h = -nu/2,
    s[n-2] = -1 and s[j] = -w_j.  Any other shape is refused."""
    n = u.n
    one = MPoly.constant(u.table, 1)
    dy = u.poly.diff("y").collect(("x", "y"))
    dx = u.poly.diff("x").collect(("x", "y"))
    nu = dy.pop((0, 0), MPoly.zero(u.table))
    if dy != {(1, 1): 2 * one}:
        raise PolyError(f"dL/dy of {u.label()} is not 2xy + nu")
    if (
        dx.pop((0, 2), None) != one
        or dx.pop((n - 2, 0), None) != one
        or any(b or a >= n - 2 for a, b in dx)
    ):
        raise PolyError(f"dL/dx of {u.label()} is not y^2 + x^{n - 2} + lower x")
    nu, *ws = substitute_all([nu, *dx.values()], vmap, ttab)
    s = {n - 2: MPoly.constant(ttab, -1)}
    s.update((a, -w) for (a, _), w in zip(dx, ws))
    return nu * rat(-1, 2), s


def _residues(rho, n: int, top: int, ttab: VarTable) -> list:
    """r_s = [x^top] NF(x^s) for s <= 3 top, given x^n = sum_j rho[j] x^j.

    x^s is its own normal form for s <= top, and r_s = sum_j rho[j]
    r_{s-n+j} from s = top + 1 on, one dot per residue; an index below
    zero stands for a normal form with no x^top term (for D_n the y of
    x^{n-1})."""
    r = [MPoly.zero(ttab)] * top + [MPoly.constant(ttab, 1)]
    for s in range(top + 1, 3 * top + 1):
        lo = s - n
        pairs = ((w, r[lo + j]) for j, w in rho.items() if lo + j >= 0 and r[lo + j])
        r.append(dot(pairs, ttab))
    return r


@lru_cache(maxsize=None)
def _flat_source(family: str, n: int) -> tuple:
    """The unfolding and flat coordinates (a tuple) of A_n or D_n, shared
    by every build from that source."""
    coords = flat_coords_A(n) if family == "A" else flat_coords_D(n)
    return build_unfolding(family, n), tuple(coords)


@lru_cache(maxsize=None)
def singularity_data(family: str, n: int) -> tuple:
    """The unfolding, structure tensor and flat coordinates (a tuple) of A_n
    or D_n, the inputs of metric_and_potential.  Cached; no build reads it,
    and the data serve the tensor route as the oracle of
    residue_structure."""
    u, coords = _flat_source(family, n)
    return u, structure_constants(build_closed_algebra(u)), coords


@lru_cache(maxsize=None)
def frobenius_structure(family: str, n: int) -> FrobeniusStructure:
    """Cached full structure of A_n or D_n (residue_structure)."""
    return residue_structure(family, n)


def _structure(label: str, potential: MPoly, t1_slice) -> FrobeniusStructure:
    """The structure of a flat potential whose t1 slice
    {(b, c): d3F/dt1 dtb dtc, b <= c} is given."""
    tab = potential.table
    if tab.weights is None:
        raise PolyError("potential table needs weights")
    d = potential.weighted_degree()
    if d is None:
        raise PolyError("the zero potential has no metric")
    eta, eta_inv = _metric(t1_slice, tab.arity)
    return FrobeniusStructure(
        label=label,
        rank=tab.arity,
        table=tab,
        delta=3 - d,
        eta=eta,
        eta_inv=eta_inv,
        potential=potential,
    )


def from_potential(label: str, potential: MPoly) -> FrobeniusStructure:
    """Frobenius data read off a printed or parsed flat potential: the
    metric is the constant t1 slice of the third derivatives, the grading
    comes from the table.  The built structures take the same data from
    the third partials their read-off already formed (_read_off)."""
    tab = potential.table
    return _structure(
        label, potential, partials(potential.diff(tab.names[0]), tab.names, 2)
    )


# ---------- verifiers ----------


def _first_monomial(p: MPoly) -> str:
    exp, c = p.sorted_terms()[0]
    body, neg = _render_term(p.table, exp, c)
    return ("-" if neg else "") + body


def third_derivatives(F: MPoly, eta_inv, names) -> tuple:
    """The third derivatives of F in the coordinates names, their rows and
    the raised structure constants built from them.

    d3[(a, b, c)] = d3F/dt^a dt^b dt^c for 1 <= a <= b <= c <= N,
    rows[(a, b)] lists c_{ab1}, ..., c_{abN} out of d3, and raised[(a, b)]
    lists c^v_{ab} = eta^{vm} c_{abm} for v = 1..N (a <= b), each one form
    of _contractions, so zero entries of d3F and of eta_inv are skipped.
    Nothing is cached: every caller sweeps the tensors once and drops them.
    """
    n = len(names)
    idx = range(1, n + 1)
    d3 = partials(F, names, 3)
    rows = {
        (a, b): [d3[tuple(sorted((a, b, m)))] for m in idx]
        for a, b in combinations_with_replacement(idx, 2)
    }
    form = _contractions(rows, dict(enumerate(eta_inv, 1)), F.table)
    raised = {ab: [form(ab, v) for v in idx] for ab in rows}
    return d3, rows, raised


def verify_wdvv(fs: FrobeniusStructure) -> Report:
    """Exact associativity check of the flat structure constants.

    Sweeps the unit condition d3F/dt1.dta.dtb = eta_ab and the quadruple
    identities for alpha < delta, beta < gamma; the residual is skew under
    either swap, so the restricted sweep is exhaustive.

    Identity (alpha, beta, gamma, delta) compares P(alpha beta; gamma delta)
    with P(delta beta; gamma alpha), where P(ab; cd) = sum_v c_{abv} c^v_{cd}.
    P is symmetric within each pair and, since eta^{-1} is symmetric, under
    swapping the two pairs, so each P is formed once per call, keyed by the
    sorted pair of sorted pairs, over the v that are live in both rows
    (_contractions).
    """
    n = fs.rank
    tab = fs.table
    d3, rows, raised = third_derivatives(fs.potential, fs.eta_inv, tab.names)
    # rows (c_{ab1}, ..., c_{abN}) against the columns raised[(c, d)]
    form = _contractions(rows, raised, tab)

    def contraction(a, b, c, d):
        ab = (a, b) if a <= b else (b, a)
        cd = (c, d) if c <= d else (d, c)
        return form(ab, cd) if ab <= cd else form(cd, ab)

    failures = []
    checked = 0
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            checked += 1
            want = MPoly.constant(tab, fs.eta[a - 1][b - 1])
            if d3[(1, a, b)] != want:
                failures.append(f"unit({a},{b})")

    for al in range(1, n + 1):
        for de in range(al + 1, n + 1):
            for be in range(1, n + 1):
                for ga in range(be + 1, n + 1):
                    checked += 1
                    left = contraction(al, be, ga, de)
                    right = contraction(de, be, ga, al)
                    if left != right:
                        failures.append(
                            f"({al},{be},{ga},{de}): {_first_monomial(left - right)}"
                        )
    return Report(f"wdvv({fs.label})", checked, tuple(failures))


def verify_homogeneity(fs: FrobeniusStructure) -> Report:
    """Euler(F) = (3 - delta) F, and E t^i = q_i t^i when maps are present."""
    failures = []
    d = 3 - fs.delta
    checked = 1
    if fs.potential.euler() != fs.potential * rat(d.numerator, d.denominator):
        failures.append("potential")
    if fs.t_of_v is not None:
        for g, t in enumerate(fs.t_of_v, start=1):
            checked += 1
            qg = fs.weights[g - 1]
            if t.euler() != t * rat(qg.numerator, qg.denominator):
                failures.append(f"t^{g}")
    return Report(f"homogeneity({fs.label})", checked, tuple(failures))
