"""Flat coordinates, the Saito metric, and Frobenius potentials for the A
and D singularities, plus exact WDVV and homogeneity verifiers.

Flat coordinates come from closed-form sums over exponent tuples; the
coordinate change is inverted exactly in one pass of increasing weight.
Coordinates and potential are formed as ints over one denominator;
Fractions are made only for weights, delta, the metric (invert_matrix)
and the degrees verify_homogeneity compares.
Every structure is built by one driver (_build) from the fully lowered
tensor T(a, b, c) = [phi_l] phi_a phi_b phi_c at v = v(t), and two routes
form T.  Every build, A_n, D_n and each restriction of them (B_n, I2(k),
H3), takes the residue route (residue_structure): T is read off one
residue sequence r_s = [phi_l] NF(x^s), from the relations of dL/dx and
dL/dy, so no Milnor algebra is built.  The tensor route
(metric_and_potential, fed by singularity_data) lowers Milnor structure
constants and substitutes v(t); the tests keep it as the oracle of the
residue route.  The driver pulls T back through J = dv/dt to the flat
third derivatives c_{abc}, forming one first-stage sum per set of rows
of T that hold the same entry objects (a residue x-row reuses the r_s,
and every permutation of a triple reads one entry), so neither route
says which rows repeat.  F is read off the c_{abc}: the potential has no
term below cubic (3 - delta > 2 >= q_a + q_b), so each monomial is fixed
by the c_{abc} of its three smallest indices; the third partials that
check integrability then give the metric and grading, as from_potential
does for printed potentials.  `pullback` is the one Jacobian contraction
of a three-index tensor, `partials` the one table of shared partial
derivatives and `_contractions` the one memo of the bilinear
contractions the verifiers compare; every module builds its tensors and
identity sweeps on them.  Every WDVV quadruple is an entry of a
commutator of the multiplications L_b, so one certificate decides them
all (_certified: every L commutes with L_2, and L_2 is cyclic by one
Krylov determinant mod a prime); each is compared only when it does not.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import combinations_with_replacement

from .exactalg import (
    GaussianRational,
    MPoly,
    PolyError,
    Record,
    VarTable,
    _ImagePowers,
    dot,
    from_third_partials,
    replace,
    substitute_all,
    values_mod,
)
from .milnor import (
    StructureTensor,
    Unfolding,
    _a_relations,
    _d_relations,
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


class FrobeniusStructure(Record):
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


def flat_coords_A(n: int) -> list:
    """Flat coordinates t^1..t^n of A_n as polynomials in v_1..v_n."""
    u = build_unfolding("A", n)
    vtab = parameter_table(u)
    step = n + 1
    # t^g at v^a: prod_{0 < k < m} (n + 1 - g - k(n + 1)) / prod a_i!, m = sum(a)
    coords = [
        MPoly._from_ratios(vtab, {
            key: (math.prod(range(-g, -g - (m - 1) * step, -step)), q)
            for key, m, _, q in vtab.weighted_keys(vtab.names, q_g)
        })
        for g, q_g in enumerate(u.weights, start=1)
    ]
    _check_flat_homogeneity(coords, u)
    return coords


def flat_coords_D(n: int) -> list:
    """Flat coordinates of D_n; t^n = v_n, the rest are sums over tuples in
    v_1..v_{n-1}."""
    u = build_unfolding("D", n)
    vtab = parameter_table(u)
    step = 2 * (n - 1)
    coords = []
    for g, q_g in enumerate(u.weights[: n - 1], start=1):
        # t^g at v^a: (-1/2)^{m-1} prod_{k < m-1} (2g - 1 + 2k(n - 1)) / prod a_i!
        ratios = {}
        for key, m, _, q in vtab.weighted_keys(vtab.names[: n - 1], q_g):
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
    indices are 1-based and zero entries are skipped.  One index is
    contracted at a time, the two lower slots first and over the nonzero
    entries of T only:

        P(a, i, ga) = sum_j T[(a, i, j)] * second[j][ga]
        L(a, be, ga) = sum_i second[i][be] * P(a, i, ga)   (be <= ga)
        out = sum_a first[a][al] * L(a, be, ga)

    Rows T(a, i, .) that hold the same entry objects at the same j share
    one P per ga, formed the first time L needs it: a tensor whose rows
    repeat (a residue T, where T(a, i, .) depends on a + i) so forms one
    first-stage sum per distinct row.  A row is keyed by the ids of its
    entries, which T keeps alive for the whole call, so only rows of the
    same objects merge; equal rows of distinct objects are summed apart,
    which costs time and never correctness.  Only the rows whose a has a
    nonzero entry in first are indexed and keyed, and no other entry of T
    is read.  L is symmetric in (be, ga),
    so it is formed once per unordered pair.  Only the partial sums that
    keys need and that have a nonzero term are formed; an empty one is
    left out of the next contraction.
    """
    keys = list(keys)
    c1 = [_live(col) for col in zip(*first)]
    c2 = [_live(col) for col in zip(*second)]
    rows2 = [dict(_live(row)) for row in second]
    # the nonzero T[(a, i, j)] by (a, i), both orders of i != j, for the a
    # that first reads
    read = {a for col in c1 for a, _ in col}
    lower = {}
    for (a, i, j), t in T.items():
        if a in read and t:
            lower.setdefault((a, i), []).append((j, t))
            if i != j:
                lower.setdefault((a, j), []).append((i, t))
    # each nonzero row (a, i): its entries and the memo of its first-stage
    # sums by ga, one memo per row of the same entry objects
    shared = {}
    rows1 = {
        ai: shared.setdefault(tuple((j, id(t)) for j, t in pairs), (pairs, {}))
        for ai, pairs in lower.items()
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

    F has no term below cubic (3 - delta > 2 >= q_a + q_b), so
    from_third_partials reads it off.  Every c_abc must be a third partial
    of F (integrability), the t1 slice a constant nondegenerate metric, and
    a restricted group real."""
    potential = from_third_partials(cflat, ttab)

    d3 = partials(potential, ttab.names, 3)
    for (al, be, ga), want in cflat.items():
        if d3[(al, be, ga)] != want:
            raise PolyError(f"integrability failure at ({al},{be},{ga}) for {label}")
    if restricted and not potential.is_real():
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
    coordinate.  lowered(vmap, ttab, keys) gives T at each sorted triple of
    keys, the source indices whose row of J is nonzero, with vmap the
    substitution v -> v(t); every permutation of a triple reads that one
    entry.  One pullback gives c_{al be ga} = sum J_{a al} J_{b be} J_{c ga}
    T(a, b, c), and _read_off takes F and its checks from there.  The
    Euler field is diagonal, so restriction commutes with every step; the
    coordinate changes are kept only for the identity.
    """
    ttab, images, restricted = _target(u.weights, images)
    v_of_t = invert_coords(t_of_v, ttab, images)
    vtab = t_of_v[0].table
    jac = [[v.diff(nm) for nm in ttab.names] for v in v_of_t]
    live = [a for a, row in enumerate(jac, 1) if any(row)]
    keys = list(combinations_with_replacement(live, 3))
    low = dict(zip(keys, lowered(dict(zip(vtab.names, v_of_t)), ttab, keys)))
    T = {
        (a, b, c): low[tuple(sorted((a, b, c)))]
        for a in live
        for b, c in combinations_with_replacement(live, 2)
    }
    targets = combinations_with_replacement(range(1, ttab.arity + 1), 3)
    cflat = pullback(T, jac, jac, targets, ttab)
    fs = _read_off(cflat, ttab, label or u.label(), restricted)
    if not restricted:
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

    def lowered(vmap, ttab, keys):
        low = [
            dot(
                ((tensor.c(d, a, b), tensor.c(tensor.l, d, c)) for d in range(1, n + 1)),
                tensor.table,
            )
            for a, b, c in keys
        ]
        return substitute_all(low, vmap, ttab)

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
    and on the other index alone when one of them is n; _residue_tensor
    gives the rows of one such class the same objects, so the pullback
    forms their first-stage sums once.  The r_s are formed over the target
    ring, with v already v(t), and _build pulls T back and reads F off, as
    for metric_and_potential.  No Milnor algebra is built.  images and
    label are as for metric_and_potential, and the same checks are made.
    """
    if family not in ("A", "D"):
        raise PolyError(f"no residue route for family {family!r}")
    u, t_of_v = _flat_source(family, n)
    return _build(u, t_of_v, images, label, partial(_residue_tensor, u))


def _residue_tensor(u: Unfolding, vmap, ttab: VarTable, keys) -> list:
    """T(a, b, c) = [phi_l] phi_a phi_b phi_c of A_n or D_n at v -> vmap,
    over ttab, at each sorted triple of keys (residue_structure); entries
    read off one r_s or h r_s are that one object."""
    n = u.n
    # x^n = sum_j rho_j x^j in the Milnor ring, and phi_l = x^top
    if u.family == "A":
        top = n - 1
        rho = _a_relations(u, vmap, ttab)
    else:  # x y^2 = h y gives x^n = -h^2 + sum_{j < n-2} s_j x^{j+2}
        top = n - 2
        h, s = _d_relations(u, vmap, ttab)
        rho = {0: -(h * h)} | {j + 2: c for j, c in s.items() if j < top}
    r = _residues(rho, n, top, ttab)
    if u.family == "A":
        return [r[a + b + c - 3] for a, b, c in keys]
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
    ]


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
    return MPoly(p.table, dict(p.sorted_terms()[:1])).text()


def third_derivatives(F: MPoly, eta_inv, names) -> tuple:
    """The third derivatives of F in the coordinates names, their rows and
    the raised structure constants built from them.

    d3[(a, b, c)] = d3F/dt^a dt^b dt^c for 1 <= a <= b <= c <= N,
    rows[(a, b)] lists c_{ab1}, ..., c_{abN} out of d3, and raised[(a, b)]
    lists c^v_{ab} = eta^{vm} c_{abm} for v = 1..N (a <= b), each row v of
    eta_inv raised by _raise_row.
    Every call builds them; the verifiers call _tables, which keeps the
    last set, built for F lifted to the extended table, until a call asks
    for another potential.
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


# The last tables of each kind ("closed": _tables, "open":
# openext._open_tables) with the key they were built for.
_SLOTS = {}


def _shared(kind: str, key, build):
    """build()'s tables for key, kept in kind's slot until a call of that
    kind asks for another key, compared by value: consecutive calls on one
    potential build one set, and a variant never reads another's."""
    if kind not in _SLOTS or _SLOTS[kind][0] != key:
        _SLOTS.pop(kind, None)  # free the old set before building the new
        _SLOTS[kind] = (key, build())
    return _SLOTS[kind][1]


# _cyclic evaluates at slot j (1-based) = 7 + 3j modulo this prime, which is
# 1 mod 4, so i has an image and evaluation is a ring map (values_mod)
_PRIME = 10**9 + 9


def _cyclic(columns, table: VarTable) -> bool:
    """Whether the matrix A with these columns (MPolys over table) is
    cyclic: the Krylov determinant det(e1, A e1, ..., A^(m-1) e1) is nonzero
    at the point mod _PRIME, so nonzero.  False also when undecided."""
    m = len(columns)
    point = [7 + 3 * j for j in range(1, table.arity + 1)]
    flat = values_mod((e for col in columns for e in col), point, _PRIME)
    if flat is None:
        return False
    cols = [flat[c * m : (c + 1) * m] for c in range(m)]
    rows, v = [], [1] + [0] * (m - 1)
    for _ in range(m):
        rows.append(v)
        v = [sum(x * col[r] for x, col in zip(v, cols)) % _PRIME for r in range(m)]
    for c in range(m):  # the determinant is nonzero when every column has a pivot
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            return False
        rows.remove(pivot)
        f = pow(pivot[c], -1, _PRIME)
        rows = [[(x - r[c] * f * y) % _PRIME for x, y in zip(r, pivot)] for r in rows]
    return True


def _certified(contraction, raised, eta_inv, table: VarTable) -> bool:
    """Whether every quadruple of verify_wdvv holds; False also when
    undecided.  With (L_b)^v_c = c^v_bc, quadruple (al, be, ga, de) is the
    entry (al, de) of the skew (eta^{-1})^{-1} [L_be, L_ga] when eta^{-1}
    is symmetric and invertible.  If every L_ga, L_1 included (it is the
    identity only while the unit rows hold), commutes with a cyclic L_2,
    each is a polynomial in L_2 (Gantmacher, vol. 1, ch. VIII): all commute."""
    n = len(eta_inv)
    if n < 2 or eta_inv != tuple(zip(*eta_inv)):
        return False
    try:
        invert_matrix(eta_inv)
    except PolyError:
        return False
    return all(
        contraction(al, 2, ga, de) == contraction(de, 2, ga, al)
        for ga in range(1, n + 1)
        if ga != 2
        for al in range(1, n + 1)
        for de in range(al + 1, n + 1)
    ) and _cyclic([raised[(c, 2) if c < 2 else (2, c)] for c in range(1, n + 1)], table)


def _tables(F: MPoly, eta_inv, table: VarTable) -> tuple:
    """(F, d3, raised, contraction, certified): F lifted to table, whose
    first slots are F's, third_derivatives' d3 and raised of it, the P memo
    on them and the certificate certified() of every quadruple (_certified,
    on first call).  table starts t1..tN, s: verify_wdvv passes _extend's
    table and the open sweeps that of F°, so consecutive closed and open
    sweeps of F read one set (_shared's "closed" slot)."""

    def build():
        lifted = F.substitute({}, table)
        d3, rows, raised = third_derivatives(lifted, eta_inv, F.table.names)
        contraction = _wdvv_contractions(rows, raised, table)
        certified = cache(lambda: _certified(contraction, raised, eta_inv, table))
        return lifted, d3, raised, contraction, certified

    return _shared("closed", (F, eta_inv, table), build)


def verify_wdvv(fs: FrobeniusStructure) -> Report:
    """Exact associativity check of the flat structure constants.

    Sweeps the unit condition d3F/dt1.dta.dtb = eta_ab and the quadruple
    identities for alpha < delta, beta < gamma; the residual is skew under
    either swap, so the restricted sweep is exhaustive.

    Identity (alpha, beta, gamma, delta) compares P(alpha beta; gamma delta)
    with P(delta beta; gamma alpha), where P(ab; cd) = sum_v c_{abv} c^v_{cd}
    is formed once (_wdvv_contractions).  Every quadruple passes uncompared
    when the commutation certificate certified() holds (_certified), and is
    compared and labelled otherwise.  F is lifted to the extended table,
    where the open sweeps of F read the same tables (_tables); a residual
    free of s renders the same there.
    """
    n = fs.rank
    tab = _extend(fs.table, fs.delta)
    _, d3, _, contraction, certified = _tables(fs.potential, fs.eta_inv, tab)

    def outcomes():
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                want = MPoly.constant(tab, fs.eta[a - 1][b - 1])
                yield d3[(1, a, b)] != want and f"unit({a},{b})"
        held = certified()
        for al in range(1, n + 1):
            for de in range(al + 1, n + 1):
                for be in range(1, n + 1):
                    for ga in range(be + 1, n + 1):
                        if held:
                            yield False
                            continue
                        left = contraction(al, be, ga, de)
                        right = contraction(de, be, ga, al)
                        yield left != right and (
                            f"({al},{be},{ga},{de}): {_first_monomial(left - right)}"
                        )

    return tally(f"wdvv({fs.label})", outcomes())


def verify_homogeneity(fs: FrobeniusStructure) -> Report:
    """Euler(F) = (3 - delta) F, and E t^i = q_i t^i when maps are present."""

    def outcomes():
        yield not fs.potential.is_homogeneous(3 - fs.delta) and "potential"
        for g, t in enumerate(fs.t_of_v or (), start=1):
            yield not t.is_homogeneous(fs.weights[g - 1]) and f"t^{g}"

    return tally(f"homogeneity({fs.label})", outcomes())
