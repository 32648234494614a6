"""Flat coordinates, the Saito metric, and Frobenius potentials for the A
and D singularities, plus exact WDVV and homogeneity verifiers.

Flat coordinates come from closed-form sums over exponent tuples; the
coordinate change is inverted exactly in one pass of increasing weight.
Two routes give the flat third derivatives c_{abc}.  A_n and every
restriction of it take the residue route (residue_structure_A): the
lowered tensor is r_{a+b+c-3}, one residue sequence of W' = dL/dx, so no
Milnor algebra is built.  D_n and H3 take the tensor route
(metric_and_potential): Milnor structure constants, lowered, substituted
and pulled back.  Both hand c_{abc} to one read-off: the potential has no
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
    "residue_structure_A",
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


def _weighted_tuples(weights, total):
    """All nonnegative integer tuples a with sum weights[i]*a[i] == total."""
    out = []

    def rec(i, rem, acc):
        if i == len(weights):
            if rem == 0:
                out.append(tuple(acc))
            return
        w = weights[i]
        top = rem // w
        for a in range(top + 1):
            acc.append(a)
            rec(i + 1, rem - w * a, acc)
            acc.pop()

    rec(0, total, [])
    return out


def flat_coords_A(n: int) -> list:
    """Flat coordinates t^1..t^n of A_n as polynomials in v_1..v_n."""
    u = build_unfolding("A", n)
    vtab = parameter_table(u)
    wts = [n + 2 - i for i in range(1, n + 1)]
    coords = []
    for g in range(1, n + 1):
        terms = {}
        for alpha in _weighted_tuples(wts, n + 2 - g):
            m = sum(alpha)
            c = rat(1, n + 1 - g)
            for k in range(m):
                c = c * (n + 1 - g - k * (n + 1))
            for a in alpha:
                c = c / math.factorial(a)
            terms[alpha] = GaussianRational(c)
        coords.append(MPoly(vtab, terms))
    _check_flat_homogeneity(coords, u)
    return coords


def flat_coords_D(n: int) -> list:
    """Flat coordinates of D_n; t^n = v_n, the rest are sums over tuples in
    v_1..v_{n-1}."""
    u = build_unfolding("D", n)
    vtab = parameter_table(u)
    wts = [n - i for i in range(1, n)]
    coords = []
    for g in range(1, n):
        terms = {}
        for alpha in _weighted_tuples(wts, n - g):
            m = sum(alpha)
            c = rat(-1, 2) ** (m - 1)
            for k in range(m - 1):
                c = c * (2 * g - 1 + 2 * k * (n - 1))
            for a in alpha:
                c = c / math.factorial(a)
            terms[alpha + (0,)] = GaussianRational(c)
        coords.append(MPoly(vtab, terms))
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
    v_a = images[a] - h_a(v) with every v in h_a already known, and each
    h_a is substituted once.  An h_a that involves a variable not yet
    solved is refused, and the result is checked by exact
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
    solved = {}
    for a in sorted(range(n), key=vtab.weights.__getitem__):
        h = t_of_v[a] - MPoly.variable(vtab, names[a])
        late = [nm for nm in names if nm not in solved and h.depends_on(nm)]
        if late:
            raise PolyError(
                f"t^{a + 1} is not graded: {late[0]} is not lighter than {names[a]}"
            )
        solved[names[a]] = images[a] - h.substitute(solved, ttab)
    if substitute_all(t_of_v, solved, ttab) != list(images):
        raise PolyError("inverse fails exact back-substitution")
    return [solved[nm] for nm in names]


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
    terms = {}
    for key, c in cflat.items():
        for exp, coeff in c.terms.items():
            if any(exp[: key[-1] - 1]):
                continue
            e = list(exp)
            for a in key:
                e[a - 1] += 1
            fall = math.prod(math.perm(e[a - 1], key.count(a)) for a in set(key))
            terms[tuple(e)] = coeff / fall
    potential = MPoly(ttab, terms)

    d3 = partials(potential, ttab.names, 3)
    for (al, be, ga), want in cflat.items():
        if d3[(al, be, ga)] != want:
            raise PolyError(f"integrability failure at ({al},{be},{ga}) for {label}")
    if restricted and any(c.im for c in potential.terms.values()):
        raise PolyError(f"restriction for {label} left imaginary parts")
    m = ttab.arity
    pairs = combinations_with_replacement(range(1, m + 1), 2)
    return _structure(label, potential, {(b, c): d3[(1, b, c)] for b, c in pairs})


def metric_and_potential(
    u: Unfolding, tensor: StructureTensor, t_of_v, images=None, label=None
) -> FrobeniusStructure:
    """The potential whose third derivatives are the structure constants in
    flat coordinates, on the flat coordinates of u or on a linear subspace
    of them, as from_potential's structure: the tensor route, taken for
    D_n and H3 and kept as the oracle of residue_structure_A.

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


def residue_structure_A(n: int, images=None, label=None) -> FrobeniusStructure:
    """The structure of A_n, or its restriction along images, read off the
    residue sequence of W' = dL/dx.

    dL/dv_a = x^{a-1} and W' = x^n + ... is monic, so the lowered tensor
    [x^{n-1}] NF(x^{a-1} x^{b-1} x^{c-1}) depends on a + b + c alone: it is
    r_{a+b+c-3} with r_s = [x^{n-1}](x^s mod W').  The r_s are formed over
    the target ring, with v already v(t), and pulled back as
    c_{al be ga} = sum J_{a,al} J_{b,be} J_{c,ga} r_{a+b+c-3} with
    J = dv/dt.  No Milnor algebra is built.  images and label are as for
    metric_and_potential, and _read_off makes the same checks.
    """
    u, t_of_v = _flat_source("A", n)
    vtab = t_of_v[0].table
    ttab, images, restricted = _target(u.weights, images)
    v_of_t = invert_coords(t_of_v, ttab, images)

    # W' = x^n + sum_{j < n} w_j x^j, each -w_j over the target ring.
    # x^{s+n} = x^s (x^n - W') mod W', so r_{s+n} = -sum_j w_j r_{s+j},
    # from r_0..r_{n-1} = 0, ..., 0, 1 (x^s for s < n is its own normal form).
    parts = u.poly.diff("x").collect(("x",))
    if parts.pop((n,)) != MPoly.constant(u.table, 1):
        raise PolyError(f"W' of {u.label()} is not monic")
    vmap = dict(zip(vtab.names, v_of_t))
    lower = substitute_all([-p for p in parts.values()], vmap, ttab)
    neg_w = list(zip([j for (j,) in parts], lower))
    r = [MPoly.zero(ttab)] * (n - 1) + [MPoly.constant(ttab, 1)]
    for s in range(2 * n - 2):
        r.append(dot(((w, r[s + j]) for j, w in neg_w if r[s + j]), ttab))

    # c_{al be ga} = sum_k P_{al be}(k) R_ga(k), with the pair sums
    # P_{al be}(k) = sum_{a+b=k} J_{a al} J_{b be} and
    # R_ga(k) = sum_c J_{c ga} r_{k+c-3}, all over live Jacobian entries
    m = ttab.arity
    cols = [_live([v.diff(nm) for v in v_of_t]) for nm in ttab.names]
    ks = range(2, 2 * n + 1)
    R = [
        {k: dot(((j, r[k + c - 3]) for c, j in col if r[k + c - 3]), ttab) for k in ks}
        for col in cols
    ]
    cflat = {}
    for al, be in combinations_with_replacement(range(1, m + 1), 2):
        by_k = {}
        for a, ja in cols[al - 1]:
            for b, jb in cols[be - 1]:
                by_k.setdefault(a + b, []).append((ja, jb))
        pair = {k: dot(prs, ttab) for k, prs in by_k.items()}
        for ga in range(be, m + 1):
            rg = R[ga - 1]
            cflat[(al, be, ga)] = dot(
                ((p, rg[k]) for k, p in pair.items() if rg[k]), ttab
            )
    fs = _read_off(cflat, ttab, label or u.label(), restricted)
    if not restricted:
        fs = replace(fs, v_table=vtab, t_of_v=tuple(t_of_v), v_of_t=tuple(v_of_t))
    return fs


@lru_cache(maxsize=None)
def _flat_source(family: str, n: int) -> tuple:
    """The unfolding and flat coordinates (a tuple) of A_n or D_n, shared
    by every build from that source."""
    coords = flat_coords_A(n) if family == "A" else flat_coords_D(n)
    return build_unfolding(family, n), tuple(coords)


@lru_cache(maxsize=None)
def singularity_data(family: str, n: int) -> tuple:
    """The unfolding, structure tensor and flat coordinates (a tuple) of A_n
    or D_n, the inputs of metric_and_potential.  Cached, so D6 and its
    H3 restriction share one Milnor algebra; the A_n data serve only as
    the oracle of residue_structure_A."""
    u, coords = _flat_source(family, n)
    return u, structure_constants(build_closed_algebra(u)), coords


@lru_cache(maxsize=None)
def frobenius_structure(family: str, n: int) -> FrobeniusStructure:
    """Cached full structure of A_n (residue_structure_A) or D_n
    (metric_and_potential)."""
    if family == "A":
        return residue_structure_A(n)
    return metric_and_potential(*singularity_data(family, n))


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
