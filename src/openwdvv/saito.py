"""Flat coordinates, the Saito metric, and Frobenius potentials for the A
and D singularities, plus exact WDVV and homogeneity verifiers.

Flat coordinates come from closed-form sums over exponent tuples; the
coordinate change is inverted exactly as a graded fixed point.  The
potential is read off its flat third derivatives c_{abc}: it has no term
below cubic (3 - delta > 2 >= q_a + q_b), so each monomial is fixed by
the c_{abc} of its three smallest indices, and from_potential then takes
the metric and grading from it, as it does for every other structure.
`pullback` is the one Jacobian contraction of a three-index tensor,
`partials` the one table of shared partial derivatives and `_contractions`
the one memo of the bilinear contractions the verifiers compare; every
module builds its tensors and identity sweeps on them.
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
    over ttab; by default it is the a-th variable of ttab.  Iterates
    v <- images - h(v), where h collects the nonlinear terms of t(v); the
    weight grading makes this a nilpotent fixed-point problem, and the
    result is checked by exact back-substitution against the images.
    """
    vtab = t_of_v[0].table
    n = len(t_of_v)
    if images is None:
        images = [MPoly.variable(ttab, nm) for nm in ttab.names]
    if len(images) != n:
        raise PolyError(f"{len(images)} images given for {n} flat coordinates")
    hs = [t - MPoly.variable(vtab, nm) for t, nm in zip(t_of_v, vtab.names)]
    current = dict(zip(vtab.names, images))
    for _ in range(n + 1):
        nxt = {
            nm: img - h
            for nm, img, h in zip(vtab.names, images, substitute_all(hs, current, ttab))
        }
        if nxt == current:
            break
        current = nxt
    else:
        raise PolyError("coordinate inversion did not stabilize")
    if substitute_all(t_of_v, current, ttab) != list(images):
        raise PolyError("inverse fails exact back-substitution")
    return [current[nm] for nm in vtab.names]


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


def metric_and_potential(
    u: Unfolding, tensor: StructureTensor, t_of_v, images=None, label=None
) -> FrobeniusStructure:
    """The potential whose third derivatives are the structure constants in
    flat coordinates, on the flat coordinates of u or on a linear subspace
    of them, as from_potential's structure.

    The fully lowered tensor is the phi_l-coefficient of triple products;
    pulling it through the Jacobian of v(t) gives c_{abc} = d3F/dt.dt.dt
    directly.  F is read off c_{abc}: its monomial n*t_a*t_b*t_c with
    a <= b <= c and n free of t_1..t_{c-1} comes from c_{abc} alone, over
    the falling factor the three derivatives put on it.  Every c_{abc} must
    then be a third derivative of F (integrability), and from_potential
    checks that the t1 slice is a constant nondegenerate metric.

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
    q = u.weights
    if images is None:
        ttab = t_table(q)
        images = [MPoly.variable(ttab, nm) for nm in ttab.names]
        restricted = False
    else:
        ttab = images[0].table
        restricted = True
        for a, img in enumerate(images):
            if img and (img.total_degree() != 1 or img.weighted_degree() != q[a]):
                raise PolyError(
                    f"image of t{a + 1} is not a linear form of weight {q[a]}"
                )
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

    # each monomial of F is read once, off the key of its three smallest indices
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

    label = label or u.label()
    d3 = partials(potential, tnames, 3)
    for (al, be, ga), want in cflat.items():
        if d3[(al, be, ga)] != want:
            raise PolyError(f"integrability failure at ({al},{be},{ga}) for {label}")

    fs = from_potential(label, potential)
    if not restricted:
        fs = replace(
            fs, v_table=tensor.table, t_of_v=tuple(t_of_v), v_of_t=tuple(v_of_t)
        )
    return fs


@lru_cache(maxsize=None)
def singularity_data(family: str, n: int) -> tuple:
    """The unfolding, structure tensor and flat coordinates (a tuple) of A_n
    or D_n, the inputs of metric_and_potential.  Cached, so the full
    structure and every restriction from the same source share one Milnor
    algebra."""
    u = build_unfolding(family, n)
    tensor = structure_constants(build_closed_algebra(u))
    coords = flat_coords_A(n) if family == "A" else flat_coords_D(n)
    return u, tensor, tuple(coords)


@lru_cache(maxsize=None)
def frobenius_structure(family: str, n: int) -> FrobeniusStructure:
    """Cached full pipeline for A_n or D_n."""
    return metric_and_potential(*singularity_data(family, n))


def from_potential(label: str, potential: MPoly) -> FrobeniusStructure:
    """Frobenius data read off a flat potential: the metric is the constant
    t1 slice of the third derivatives, the grading comes from the table.
    Every structure is built here, metric_and_potential's included."""
    tab = potential.table
    if tab.weights is None:
        raise PolyError("potential table needs weights")
    d = potential.weighted_degree()
    if d is None:
        raise PolyError("the zero potential has no metric")
    eta, eta_inv = _metric(
        partials(potential.diff(tab.names[0]), tab.names, 2), tab.arity
    )
    return FrobeniusStructure(
        label=label,
        rank=tab.arity,
        table=tab,
        delta=3 - d,
        eta=eta,
        eta_inv=eta_inv,
        potential=potential,
    )


# ---------- verifiers ----------


def _first_monomial(p: MPoly) -> str:
    exp, c = p.sorted_terms()[0]
    body, neg = _render_term(p.table, exp, c)
    return ("-" if neg else "") + body


def third_derivatives(F: MPoly, eta_inv, names) -> tuple:
    """The third derivatives of F in the coordinates names and the raised
    structure constants built from them.

    d3[(a, b, c)] = d3F/dt^a dt^b dt^c for 1 <= a <= b <= c <= N, and
    raised[(a, b)] lists c^v_{ab} = eta^{vm} d3F/dt^a dt^b dt^m for
    v = 1..N (a <= b), each one form of _contractions, so zero entries of
    d3F and of eta_inv are skipped.  Nothing is cached: every caller
    sweeps the tensors once and drops them.
    """
    n = len(names)
    idx = range(1, n + 1)
    d3 = partials(F, names, 3)
    pairs = list(combinations_with_replacement(idx, 2))
    form = _contractions(
        {(a, b): [d3[tuple(sorted((a, b, m)))] for m in idx] for a, b in pairs},
        dict(enumerate(eta_inv, 1)),
        F.table,
    )
    raised = {ab: [form(ab, v) for v in idx] for ab in pairs}
    return d3, raised


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
    d3, raised = third_derivatives(fs.potential, fs.eta_inv, tab.names)
    # rows (c_{ab1}, ..., c_{abN}) against the columns raised[(c, d)]
    lower = {
        (a, b): [d3[tuple(sorted((a, b, v)))] for v in range(1, n + 1)]
        for a, b in raised
    }
    form = _contractions(lower, raised, tab)

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
