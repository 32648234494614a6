"""Flat coordinates, the Saito metric, and Frobenius potentials for the A
and D singularities, plus exact WDVV and homogeneity verifiers.

Flat coordinates come from closed-form sums over exponent tuples; the
coordinate change is inverted exactly in one pass of increasing weight.
Coordinates and potential are formed as ints over one denominator;
Fractions are made only for weights, delta, the metric (invert_matrix)
and the factors of verify_homogeneity.
Every structure is built by one driver (_build) from the fully lowered
tensor T(a, b, c) = [phi_l] phi_a phi_b phi_c at v = v(t), and two routes
form T.  Every build, A_n, D_n and each restriction of them (B_n, I2(k),
H3), takes the residue route (residue_structure): T is read off one
residue sequence r_s = [phi_l] NF(x^s), from the relations of dL/dx and
dL/dy, so no Milnor algebra is built.  The tensor route
(metric_and_potential, fed by singularity_data) lowers Milnor structure
constants and substitutes v(t); the tests keep it as the oracle of the
residue route.  The driver pulls T back through J = dv/dt to the flat
third derivatives c_{abc}; each route names the rows of T that are equal
by a row key (a + i for a residue x-row, the sorted pair for the
symmetric tensor route), so the pullback forms one first-stage sum per
distinct row.  F is read off the c_{abc}: the potential has no term
below cubic (3 - delta > 2 >= q_a + q_b), so each monomial is fixed by the
c_{abc} of its three smallest indices; the third partials that check
integrability then give the metric and grading, as from_potential does
for printed potentials.  `pullback` is the one Jacobian contraction
of a three-index tensor, `partials` the one table of shared partial
derivatives and `_contractions` the one memo of the bilinear
contractions the verifiers compare; every module builds its tensors and
identity sweeps on them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
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
from .report import Report, tally

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


def _extend(table: VarTable, delta) -> VarTable:
    """table plus the Laurent slot s of weight (1 - delta)/2."""
    return VarTable(table.names + ("s",), table.weights + ((1 - delta) / 2,), "s")


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
    """Exact inverse of a square GaussianRational matrix (Gauss-Jordan).

    Only the nonzero entries of the pivot row are scaled and eliminated
    with, and a unit pivot is not scaled, so a sparse metric (a signed
    permutation, say) costs little more than its nonzero entries."""
    n = len(rows)
    one, zero = GaussianRational(1), GaussianRational(0)
    aug = [
        [*row] + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise PolyError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        live = [(k, x) for k, x in enumerate(aug[col]) if x]
        if aug[col][col] != 1:
            inv = one / aug[col][col]
            live = [(k, x * inv) for k, x in live]
            for k, x in live:
                aug[col][k] = x
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                row = aug[r]
                for k, x in live:
                    row[k] = row[k] - f * x
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


def pullback(T, first, second, keys, table, row) -> dict:
    """out[(al, be, ga)] = sum first[a][al] * second[i][be] * second[j][ga]
    * T[(a, i, j)] for every (al, be, ga) in keys.

    T is keyed (a, i, j) with i <= j, so it is symmetric in its last two
    slots.  The matrices are lists of rows indexed by the source index;
    indices are 1-based and zero entries are skipped.  One index is
    contracted at a time, the two lower slots first and over the nonzero
    entries of T only:

        P(k, ga) = sum_j T[(a, i, j)] * second[j][ga]   for k = row(a, i)
        L(a, be, ga) = sum_i second[i][be] * P(row(a, i), ga)   (be <= ga)
        out = sum_a first[a][al] * L(a, be, ga)

    row(a, i) is the row key of the row T(a, i, .): rows that share a key
    must be equal entry by entry, and P is formed once per (row key, ga),
    the first time L needs it.  A tensor whose rows repeat (a residue T,
    where T(a, i, .) depends on a + i) so forms one first-stage sum per
    distinct row; row = lambda a, i: (a, i) makes each (a, i) its own
    row.  L is symmetric in (be, ga), so it is formed once per unordered
    pair.  Only the partial sums that keys need and that have a nonzero
    term are formed; an empty one is left out of the next contraction.
    """
    keys = list(keys)
    c1 = [_live(col) for col in zip(*first)]
    c2 = [_live(col) for col in zip(*second)]
    rows2 = [dict(_live(row)) for row in second]
    # the nonzero T[(a, i, j)] by (a, i), both orders of i != j
    lower = {}
    for (a, i, j), t in T.items():
        if t:
            lower.setdefault((a, i), []).append((j, t))
            if i != j:
                lower.setdefault((a, j), []).append((i, t))
    # each nonzero row (a, i): its entries and the memo of its first-stage
    # sums by ga, one memo per row key
    shared = {}
    rows1 = {
        ai: shared.setdefault(row(*ai), (pairs, {})) for ai, pairs in lower.items()
    }
    # (a, be, ga) under each key, and the nonzero rows (a, i) with
    # second[i][be] != 0 by (a, be)
    need2 = dict.fromkeys(
        (a, be, ga) if be <= ga else (a, ga, be)
        for al, be, ga in keys
        for a, _ in c1[al - 1]
    )
    lifts = {
        (a, be): [(*rows1[(a, i)], g) for i, g in c2[be - 1] if (a, i) in rows1]
        for a, be in dict.fromkeys((a, be) for a, be, _ in need2)
    }
    p2 = {}
    for a, be, ga in need2:
        pairs = []
        for entries, memo, g in lifts[(a, be)]:
            p = memo.get(ga, False)
            if p is False:  # not formed yet; None marks an empty sum
                terms = [(t, rows2[j - 1][ga]) for j, t in entries if ga in rows2[j - 1]]
                p = memo[ga] = dot(terms, table) if terms else None
            if p is not None:
                pairs.append((p, g))
        if pairs:
            p2[(a, be, ga)] = dot(pairs, table)
    out = {}
    for al, be, ga in keys:
        low = (be, ga) if be <= ga else (ga, be)
        pairs = [(p2[(a, *low)], f) for a, f in c1[al - 1] if (a, *low) in p2]
        out[(al, be, ga)] = dot(pairs, table) if pairs else MPoly.zero(table)
    return out


def _live(row) -> list:
    """The (index, entry) pairs of the nonzero entries of row, 1-based."""
    return [(i, e) for i, e in enumerate(row, 1) if e]


def _raise_row(live, pick, table) -> tuple:
    """(p, e) with sum_m eta^{vm} pick(m) = e * p, for the live entries
    [(m, eta^{vm})] of one row of eta^{-1} (_live): a one-entry row (every
    constructed group's) re-keys, p = pick(m) and e = eta^{vm}; any other
    row takes one dot and e = 1."""
    if len(live) == 1:
        ((m, e),) = live
        return pick(m), e
    return dot([(pick(m), e) for m, e in live], table), 1


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


def _build(u: Unfolding, t_of_v, images, label, lowered) -> FrobeniusStructure:
    """The structure of u on its flat coordinates, or on the linear subspace
    images, given the fully lowered tensor T(a, b, c) = [phi_l]
    phi_a phi_b phi_c at v = v(t): the one driver of both routes.

    images and the target table are checked (_target), v(t) is inverted over
    the target table (invert_coords) and J = dv/dt has one column per target
    coordinate.  lowered(v_of_t, ttab, keys) gives T at each sorted triple
    of keys, the source indices whose row of J is nonzero, and the row key
    row(a, i) under which rows T(a, i, .) are equal; one pullback gives
    c_{al be ga} = sum J_{a al} J_{b be} J_{c ga} T(a, b, c), forming one
    first-stage sum per row key, and _read_off takes F and its checks from
    there.  The Euler field is diagonal, so restriction commutes with every
    step; the coordinate changes are kept only for the identity.
    """
    ttab, images, restricted = _target(u.weights, images)
    v_of_t = invert_coords(t_of_v, ttab, images)
    jac = [[v.diff(nm) for nm in ttab.names] for v in v_of_t]
    live = [a for a, row in enumerate(jac, 1) if any(row)]
    keys = list(combinations_with_replacement(live, 3))
    values, row = lowered(v_of_t, ttab, keys)
    low = dict(zip(keys, values))
    T = {
        (a, b, c): low[tuple(sorted((a, b, c)))]
        for a in live
        for b, c in combinations_with_replacement(live, 2)
    }
    targets = combinations_with_replacement(range(1, ttab.arity + 1), 3)
    cflat = pullback(T, jac, jac, targets, ttab, row)
    fs = _read_off(cflat, ttab, label or u.label(), restricted)
    if not restricted:
        vtab = t_of_v[0].table
        fs = replace(fs, v_table=vtab, t_of_v=tuple(t_of_v), v_of_t=tuple(v_of_t))
    return fs


def metric_and_potential(
    u: Unfolding, tensor: StructureTensor, t_of_v, images=None, label=None
) -> FrobeniusStructure:
    """The potential whose third derivatives are the structure constants in
    flat coordinates, on the flat coordinates of u or on a linear subspace
    of them, as from_potential's structure: the tensor route.  No build
    takes it; it is the oracle of residue_structure in the tests, and it
    takes any unfolding whose structure tensor and flat coordinates are
    given.

    T(a, b, c) = sum_d c^d_{ab} c^l_{dc} is formed in v and substituted at
    v(t), every triple through one table of powers of v(t); _build pulls it
    back and reads F off.  images gives every flat coordinate t^a as a
    weight-preserving linear form over a target table whose t1 is the unit
    coordinate; the default is the identity onto t_table(u.weights).  The
    potential is then F(images).
    """
    n = u.rank

    def lowered(v_of_t, ttab, keys):
        low = [
            dot(
                ((tensor.c(d, a, b), tensor.c(tensor.l, d, c)) for d in range(1, n + 1)),
                tensor.table,
            )
            for a, b, c in keys
        ]
        vmap = dict(zip(parameter_table(u).names, v_of_t))
        # T is symmetric in all three slots, so rows (a, i) and (i, a) agree
        return substitute_all(low, vmap, ttab), _sorted_pair

    return _build(u, t_of_v, images, label, lowered)


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
    T(a, n, n) = sum_j s_j r_{a-1+j} and T(n, n, n) = 0.  T(1, 1, n) is
    [x^{n-2}] y = 0.  So T(a, i, .) depends on a + i alone when a, i < n,
    and on the other index alone when one of them is n: those are the row
    keys lowered hands the pullback.  The r_s are formed over the target
    ring, with v already v(t), and _build pulls T back and reads F off, as for
    metric_and_potential.  No Milnor algebra is built.  images and label
    are as for metric_and_potential, and the same checks are made.
    """
    if family not in ("A", "D"):
        raise PolyError(f"no residue route for family {family!r}")
    u, t_of_v = _flat_source(family, n)

    def d_row(a, i):
        # x-rows by a + i; rows (a, n) and (n, a) by ("y", a), (n, n) by ("y", n)
        return a + i if a < n and i < n else ("y", a + i - n)

    def lowered(v_of_t, ttab, keys):
        vmap = dict(zip(t_of_v[0].table.names, v_of_t))
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
        if family == "A":
            return [r[a + b + c - 3] for a, b, c in keys], _x_row
        # T(a, b, n) = hr[a + b - 2]; hr[0] is T(1, 1, n) = [x^top] y = 0
        zero = MPoly.zero(ttab)
        hr = [zero] + [h * x for x in r[: 2 * top]]
        return [
            r[a + b + c - 3] if c < n
            else hr[a + b - 2] if b < n
            else dot(((w, r[a - 1 + j]) for j, w in s.items() if r[a - 1 + j]), ttab)
            if a < n
            else zero
            for a, b, c in keys
        ], d_row

    return _build(u, t_of_v, images, label, lowered)


def _sorted_pair(a, i):
    """The row key of a tensor symmetric in all three slots."""
    return (a, i) if a <= i else (i, a)


def _x_row(a, i):
    """The row key of an x-row T(a, i, .) = r_{a+i+.-3} of a residue T."""
    return a + i


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
    lists c^v_{ab} = eta^{vm} c_{abm} for v = 1..N (a <= b), each row v of
    eta_inv raised by _raise_row.
    Every call builds them; the verifiers call _tables, which builds them
    for F lifted to the extended table, once per potential in a _sharing
    block.
    """
    n = len(names)
    idx = range(1, n + 1)
    d3 = partials(F, names, 3)
    rows = {
        (a, b): [d3[tuple(sorted((a, b, m)))] for m in idx]
        for a, b in combinations_with_replacement(idx, 2)
    }
    lives = [_live(row) for row in eta_inv]

    def entry(row, live):
        p, e = _raise_row(live, lambda m: row[m - 1], F.table)
        return p if e == 1 else p * e

    raised = {ab: [entry(row, live) for live in lives] for ab, row in rows.items()}
    return d3, rows, raised


def _wdvv_contractions(rows, raised, table):
    """contraction(a, b, c, d) = P(ab; cd) = sum_v c_{abv} c^v_{cd} over
    third_derivatives' rows and raised.  P is symmetric within each pair
    and, eta^{-1} being symmetric, under the pair swap, so each P is formed
    once, keyed by the sorted pair of sorted pairs (_contractions)."""
    form = _contractions(rows, raised, table)

    def contraction(a, b, c, d):
        ab = (a, b) if a <= b else (b, a)
        cd = (c, d) if c <= d else (d, c)
        return form(ab, cd) if ab <= cd else form(cd, ab)

    return contraction


# The tables shared in the running _sharing block, by key; None outside one.
_SHARED = ContextVar("shared_tables", default=None)


@contextmanager
def _sharing():
    """Within the block, a table built through _shared is built once per
    key, compared by value; the tables are dropped when the block ends."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _shared(key, build):
    memo = _SHARED.get()
    if memo is None:
        return build()
    got = memo.get(key)
    if got is None:
        got = memo[key] = build()
    return got


def _tables(F: MPoly, eta_inv, table: VarTable) -> tuple:
    """(F, d3, raised, contraction): F lifted to table, whose first slots
    are F's, third_derivatives' d3 and raised of it and the P memo on them.
    table starts t1..tN, s: verify_wdvv passes _extend's table and the
    open sweeps that of F°, so in a _sharing block the closed and open
    sweeps of F read one set."""

    def build():
        lifted = F.substitute({}, table)
        d3, rows, raised = third_derivatives(lifted, eta_inv, F.table.names)
        return lifted, d3, raised, _wdvv_contractions(rows, raised, table)

    return _shared((F, eta_inv, table), build)


def verify_wdvv(fs: FrobeniusStructure) -> Report:
    """Exact associativity check of the flat structure constants.

    Sweeps the unit condition d3F/dt1.dta.dtb = eta_ab and the quadruple
    identities for alpha < delta, beta < gamma; the residual is skew under
    either swap, so the restricted sweep is exhaustive.

    Identity (alpha, beta, gamma, delta) compares P(alpha beta; gamma delta)
    with P(delta beta; gamma alpha), where P(ab; cd) = sum_v c_{abv} c^v_{cd}
    is formed once (_wdvv_contractions).  F is lifted to the extended
    table, where the open sweeps of F read the same tables (_tables); a
    residual free of s renders the same there.
    """
    n = fs.rank
    tab = _extend(fs.table, fs.delta)
    _, d3, _, contraction = _tables(fs.potential, fs.eta_inv, tab)

    def outcomes():
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                want = MPoly.constant(tab, fs.eta[a - 1][b - 1])
                yield d3[(1, a, b)] != want and f"unit({a},{b})"
        for al in range(1, n + 1):
            for de in range(al + 1, n + 1):
                for be in range(1, n + 1):
                    for ga in range(be + 1, n + 1):
                        left = contraction(al, be, ga, de)
                        right = contraction(de, be, ga, al)
                        yield left != right and (
                            f"({al},{be},{ga},{de}): {_first_monomial(left - right)}"
                        )

    return tally(f"wdvv({fs.label})", outcomes())


def verify_homogeneity(fs: FrobeniusStructure) -> Report:
    """Euler(F) = (3 - delta) F, and E t^i = q_i t^i when maps are present."""

    def outcomes():
        F = fs.potential
        d = 3 - fs.delta
        yield F.euler() != F * rat(d.numerator, d.denominator) and "potential"
        for g, t in enumerate(fs.t_of_v or (), start=1):
            qg = fs.weights[g - 1]
            yield t.euler() != t * rat(qg.numerator, qg.denominator) and f"t^{g}"

    return tally(f"homogeneity({fs.label})", outcomes())
