"""Open extensions of the A and D Frobenius structures.

The extension adds one variable s of weight (1 - delta)/2 and a function
F°(t, s) solving the open WDVV system attached to the closed potential.
For A the potential comes from a closed correlator formula; for D it is
an explicit s-series whose coefficients are the coordinate changes
v_k(t), with a single simple pole t_n^2/(2s).

Verifiers in this module treat every statement as an exact polynomial
(or Laurent polynomial) identity: the open WDVV equations themselves,
the flat F-manifold axioms for the vector potential, the matching of the
extended multiplication tensor with (F, F°), and the combinatorial
omega-identities that drive the D-case proof.  The extension and omega
checks read the extended multiplication off milnor.extended_constants,
one recurrence over the defining relations, formed over the ring they
compare in (the flat coordinates, or the parameter ring), so they build
no extended algebra and substitute no tensor; the extension check
pulls back only the s-row and decides the rest in v.
verify_vector_potential(ext) reads the vector axioms off the closed and
open WDVV contractions of the same tables (_open_tables) as the other
checks.  The last set of
closed and of open tables outlives its call (saito._shared), so
consecutive sweeps of equal (F, F°) build one set.  The open WDVV and
vector identities are entries of commutators of the multiplications on
t1..tN, s, so one certificate decides them all (_open_certified), and a
sweep compares identity by identity only when it does not.  Every
verifier yields one outcome per identity and report.tally counts them.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from itertools import chain, combinations_with_replacement, repeat

from .exactalg import (
    GaussianRational,
    MPoly,
    PolyError,
    Record,
    VarTable,
    dot,
    rat,
    sqrt_coefficient,
    substitute_all,
)
from .milnor import build_unfolding, extended_constants, parameter_table
from .report import Report, tally
from .saito import (
    FrobeniusStructure,
    _contractions,
    _cyclic,
    _extend,
    _first_monomial,
    _flat_source,
    _live,
    _raise_row,
    _residue_tensor,
    _shared,
    _tables,
    frobenius_structure,
    partials,
    pullback,
)

__all__ = [
    "OpenExtension",
    "OmegaSequence",
    "extended_table",
    "open_extension",
    "open_generator_A",
    "open_potential_A",
    "open_potential_D",
    "check_foan_relation",
    "extract_v_from_open_D",
    "open_wdvv_equations",
    "open_wdvv_eq2",
    "verify_open_wdvv",
    "verify_vector_potential",
    "verify_extension_theorems",
    "omega_sequence",
    "check_coefw_lemma",
    "check_dn_second_derivative_identity",
    "rspin_convention_rescale",
]


def extended_table(fs: FrobeniusStructure) -> VarTable:
    """t1..tN plus the Laurent slot s of weight (1 - delta)/2."""
    return _extend(fs.table, fs.delta)


class OpenExtension(Record):
    """A closed Frobenius structure with a solution F° of its open WDVV
    system; unit and homogeneity conditions hold by construction."""

    base: FrobeniusStructure
    table: VarTable  # t1..tN, s
    potential: MPoly  # F°

    @property
    def label(self) -> str:
        return self.base.label

    def vector_potential(self) -> tuple:
        """(eta^{1mu} dF/dt^mu, ..., eta^{Nmu} dF/dt^mu, F°) over the
        extended table."""
        tab = self.table
        F = self.base.potential.substitute({}, tab)
        grads = [F.diff(nm) for nm in self.base.table.names]
        raised = (
            _raise_row(_live(row), lambda m: grads[m - 1], tab)
            for row in self.base.eta_inv
        )
        return tuple(p * e for p, e in raised) + (self.potential,)


def open_extension(base: FrobeniusStructure, fo: MPoly) -> OpenExtension:
    """Wrap F° after checking the unit and homogeneity conditions exactly.

    dF°/dt1 = s pins both unit conditions at once (no linear terms are
    admitted, so the integration constant is zero)."""
    tab = fo.table
    if fo.diff(base.table.names[0]) != MPoly.variable(tab, "s"):
        raise PolyError(f"unit condition fails for {base.label}")
    if not fo.is_homogeneous((3 - base.delta) / 2):
        raise PolyError(f"homogeneity fails for {base.label}")
    return OpenExtension(base, tab, fo)


def open_generator_A(n: int, tab: VarTable) -> MPoly:
    """F° of the A_n extension from the closed correlator formula over an
    extended table whose weights are the A_n weights of the coordinates it
    keeps (every other t^a is zero; B_N and I2(k) pass their own tables):
    each monomial prod (t^a)^{m_a} * s^k of weighted degree (n + 2)/(n + 1)
    with (n_pts + k - 2)! over its automorphisms prod m_a! * k!."""
    if tab.weights[tab.index("s")] != rat(1, n + 1):
        raise PolyError(f"the A{n} generator needs a table whose s has weight 1/{n + 1}")
    return MPoly._from_ratios(tab, {
        key: (math.factorial(m - 2), q)
        for key, m, _, q in tab.weighted_keys(tab.names, rat(n + 2, n + 1))
    })


@lru_cache(maxsize=None)
def open_potential_A(n: int) -> OpenExtension:
    """F° of the A extension (open_generator_A) over the A_n structure."""
    base = frobenius_structure("A", n)
    return open_extension(base, open_generator_A(n, extended_table(base)))


@lru_cache(maxsize=None)
def open_potential_D(n: int) -> OpenExtension:
    """F° of the D extension: the closed s-series evaluated on v_k(t)."""
    base = frobenius_structure("D", n)
    tab = extended_table(base)
    s = MPoly.variable(tab, "s")
    v = substitute_all(base.v_of_t, {}, tab)
    fo = s ** (2 * n - 1) / (2 ** (n - 2) * (2 * n - 1) * (2 * n - 2))
    for k in range(1, n):
        fo = fo + v[k - 1] * s ** (2 * k - 1) / (2 ** (k - 1) * (2 * k - 1))
    fo = fo + v[n - 1] * v[n - 1] * s ** -1 / 2
    return open_extension(base, fo)


def check_foan_relation(ext: OpenExtension) -> bool:
    """dF°/ds = s^{n+1}/(n+1) + sum_k s^{k-1} v_k(t) for an A extension:
    the s-derivative of F° carries the full coordinate change v(t)."""
    base = ext.base
    n = base.rank
    tab = ext.table
    s = MPoly.variable(tab, "s")
    rhs = s ** (n + 1) / (n + 1)
    for k, vk in enumerate(substitute_all(base.v_of_t, {}, tab), start=1):
        rhs = rhs + vk * s ** (k - 1)
    return ext.potential.diff("s") == rhs


def extract_v_from_open_D(ext: OpenExtension) -> list:
    """Read the coordinate change back off the s-expansion of a D-type F°:
    v_k = 2^{k-1}(2k-1) Coef_{s^{2k-1}} for k < n, and v_n is the square
    root of twice the pole coefficient (a perfect-square monomial)."""
    base = ext.base
    n = base.rank
    ttab = base.table
    coef = ext.potential.collect(("s",))
    zero = MPoly.zero(ext.table)
    out = []
    for k in range(1, n):
        c = coef.get((2 * k - 1,), zero)
        out.append((c * (2 ** (k - 1) * (2 * k - 1))).substitute({}, ttab))
    pole = coef.get((-1,), zero) * 2
    if len(pole) != 1:
        raise PolyError("pole coefficient is not a monomial")
    ((exp, c),) = pole.terms.items()
    if any(e % 2 for e in exp):
        raise PolyError("pole coefficient is not a perfect square")
    root = {nm: e // 2 for nm, e in zip(ext.table.names, exp) if e}
    out.append(MPoly.monomial(ttab, sqrt_coefficient(c), root))
    return out


def open_wdvv_equations(base: FrobeniusStructure, fo: MPoly):
    """Yield (label, left, right) for every open WDVV equation of F° over
    base; F° solves the system exactly when left == right for all of them.

    The table of F° starts t1..tN, s and may carry further names (the
    unknowns of an ansatz); second partials are taken in t1..tN, s only.
    eq1(alpha,beta,gamma) is skew under the alpha/gamma swap and
    eq2(alpha,beta) symmetric in (alpha, beta), so alpha < gamma resp.
    alpha <= beta is an exhaustive sweep.

    eq1(alpha,beta,gamma) compares Q(alpha beta; gamma) with
    Q(gamma beta; alpha) and eq2(alpha,beta) has left side Q(alpha beta; s),
    where Q(ab; g) = sum_v c^v_{ab} d2F°/dt^v dt^g + d2F°/dt^a dt^b
    d2F°/ds dt^g.  Q is symmetric in (a, b), so each Q is formed once per
    call, over the v that are live on both sides (saito._contractions)."""
    *_, o2, q = _open_tables(base, fo)
    return chain(_eq1(base.rank, q), _eq2(base.rank, q, o2))


def open_wdvv_eq2(base: FrobeniusStructure, fo: MPoly, al: int, be: int) -> tuple:
    """(left, right) of eq2(al, be) alone, as open_wdvv_equations forms it."""
    *_, o2, q = _open_tables(base, fo)
    s_ix = base.rank + 1
    return q(al, be, s_ix), o2(s_ix, al) * o2(s_ix, be)


def _open_certified(n: int, certified, raised, o2, q, table: VarTable) -> bool:
    """Whether every eq1, eq2 and vector row holds: saito._certified on
    t1..tN, s, with (L~_b)^a_c = d2F^a/dt^b dt^c (F^a = eta^{a mu} dF/dt^mu,
    F^s = F°); False also when undecided.  [L~_b, L~_c] has the closed
    block [L_b, L_c] and the s-row Q(cd; b) - Q(bd; c) (eq1), the s-row of
    [L~_b, L~_s] is eq2(b, d)'s residual, every other entry is 0, and the
    vector rows are entries of these.  So certified(), [L~_2, L~_g] = 0 for
    every g and a cyclic L~_2 suffice."""
    s = n + 1
    return (
        certified()
        and all(
            q(ga, de, 2) == q(2, de, ga)
            for ga in range(1, s)
            if ga != 2
            for de in range(1, s)
        )
        and all(q(2, de, s) == o2(s, 2) * o2(s, de) for de in range(1, s))
        and _cyclic(
            [raised[(c, 2) if c < 2 else (2, c)] + [o2(2, c)] for c in range(1, s)]
            + [[MPoly.zero(table)] * n + [o2(2, s)]],
            table,
        )
    )


def _open_tables(base: FrobeniusStructure, fo: MPoly) -> tuple:
    """(F, raised, closed, certified, open_certified, o2, q) over the
    table of F°: the first four are saito._tables' of the closed potential
    lifted there, o2(a, b) = d2F°/dt^a dt^b in t1..tN, s with s the index
    N+1, q(a, b, g) = Q(ab; g) = sum_v c^v_{ab} o2(v, g) + o2(a, b) o2(s, g),
    and open_certified() the certificate of the open families
    (_open_certified), on first call.

    Q is symmetric in (a, b), so q forms each Q once, on first use, keyed
    by the sorted (a, b) and g.  Consecutive sweeps of equal (F, F°) read
    one set of these tables (saito._shared's "open" slot)."""
    tab = fo.table
    n = base.rank
    F, _, raised, closed, certified = _tables(base.potential, base.eta_inv, tab)

    def build():
        d2o = partials(fo, tab.names[: n + 1], 2)

        def o2(a, b):
            return d2o[(a, b) if a <= b else (b, a)]

        # rows (c^1_ab, ..., c^N_ab, o2(a, b)) for a <= b, columns o2(., g)
        idx = range(1, n + 2)
        form = _contractions(
            {ab: row + [d2o[ab]] for ab, row in raised.items()},
            {g: [o2(v, g) for v in idx] for g in idx},
            tab,
        )

        def q(a, b, g):
            return form((a, b) if a <= b else (b, a), g)

        return cache(lambda: _open_certified(n, certified, raised, o2, q, tab)), o2, q

    kept = _shared("open", (base.potential, base.eta_inv, tab, fo), build)
    return F, raised, closed, certified, *kept


def _eq1(n: int, q):
    """(label, left, right) of every eq1, in sweep order."""
    for be in range(1, n + 1):
        for al in range(1, n + 1):
            for ga in range(al + 1, n + 1):
                yield f"eq1({al},{be},{ga})", q(al, be, ga), q(ga, be, al)


def _eq2(n: int, q, o2):
    """(label, left, right) of every eq2, in sweep order."""
    for al in range(1, n + 1):
        for be in range(al, n + 1):
            yield f"eq2({al},{be})", q(al, be, n + 1), o2(n + 1, al) * o2(n + 1, be)


def verify_open_wdvv(ext: OpenExtension) -> Report:
    """Both open WDVV families (open_wdvv_equations) plus the unit and
    homogeneity conditions.  D-type residuals pass through poles down to
    s^-4 and must still cancel identically.  Every eq1 and eq2 passes
    uncompared when the commutation certificate open_certified() holds
    (_open_certified); otherwise each is compared and labelled."""
    base = ext.base
    n = base.rank
    fo = ext.potential
    *_, open_certified, o2, q = _open_tables(base, fo)

    def outcomes():
        for al in range(1, n + 1):
            yield bool(o2(1, al)) and f"unit(1,{al})"
        yield o2(1, n + 1) != MPoly.constant(ext.table, 1) and "unit(1,s)"
        yield not fo.is_homogeneous((3 - base.delta) / 2) and "homogeneity"
        if open_certified():
            yield from repeat(False, n * n * (n - 1) // 2 + n * (n + 1) // 2)
            return
        for label, left, right in chain(_eq1(n, q), _eq2(n, q, o2)):
            yield left != right and f"{label}: {_first_monomial(left - right)}"

    return tally(f"open-wdvv({base.label})", outcomes())


def verify_vector_potential(ext: OpenExtension) -> Report:
    """Flat F-manifold axioms of the vector potential (F^1, ..., F^N, F°),
    F^a = eta^{a mu} dF/dt^mu, over t1..tN, s (s the index N+1): the unit
    condition d2F^a/dt1 dt^b = delta^a_b, the quadratic compatibility,
    and the conformal condition E(F^a) = (1 + q_a) F^a.

    Compatibility (alpha, beta, gamma, delta) compares L(alpha, beta;
    gamma delta) with L(alpha, gamma; beta delta), where L(a, b; cd) =
    sum_mu d2F^a/dt^b dt^mu d2F^mu/dt^c dt^d.  No component is
    differentiated twice: d2F^a/dt^b dt^c = c^a_bc for a, b, c <= N, and
    every L is read off the contractions the WDVV sweeps form once per call:
    - L(a, b; cd) = sum_a' eta^{aa'} P(a'b; cd) for a, b, c, d <= N, with
      P verify_wdvv's (saito._wdvv_contractions), each side raised by one
      eta-weighted dot.
    - L(s, b; cd) = Q(cd; b) (_open_tables) for c, d <= N, and the side
      of eq2(b, c) when d = s.
    - L(a, b; cd) = 0 for a <= N when b, c or d is s, since dF^a/ds = 0.
    Each row is an entry of [L~_beta, L~_gamma], so every row passes
    uncompared when certified() and open_certified() both hold
    (_open_certified), as in verify_wdvv and verify_open_wdvv; otherwise
    each is compared.  The conformal condition is read off the weighted
    degrees of F^a's terms; a one-entry row of eta^{-1} reads dF/dt^a'
    (saito._raise_row).  Trivially equal identities are counted as passes.
    The Report is labelled vector-potential(vector(<label of ext>))."""
    base = ext.base
    n = base.rank
    m = n + 1
    tab = ext.table
    fo = ext.potential
    F, raised, closed, certified, open_certified, o2, q = _open_tables(base, fo)
    eta_live = [_live(row) for row in base.eta_inv]

    def compatibility():
        for be in range(1, m + 1):
            for ga in range(be + 1, m + 1):
                for al in range(1, m + 1):
                    for de in range(1, m + 1):
                        if de == m or (al <= n and ga == m):
                            yield False  # both sides vanish or are one product
                            continue
                        if al <= n:
                            left, right = (
                                dot([(closed(a1, b, c, de), e) for a1, e in eta_live[al - 1]], tab)
                                for b, c in ((be, ga), (ga, be))
                            )
                        else:
                            left = o2(be, m) * o2(de, m) if ga == m else q(ga, de, be)
                            right = q(be, de, ga)
                        yield left != right and (
                            f"({al},{be},{ga},{de}): {_first_monomial(left - right)}"
                        )

    def outcomes():
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                want = MPoly.constant(tab, 1 if a == b else 0)
                got = o2(1, b) if a == m else raised[(1, b)][a - 1] if b <= n else want
                yield got != want and f"unit({a},{b})"
        if certified() and open_certified():
            yield from repeat(False, m * m * m * (m - 1) // 2)
        else:
            yield from compatibility()
        grads = [F.diff(nm) for nm in tab.names[:n]]
        for a in range(1, m + 1):
            comp = _raise_row(eta_live[a - 1], lambda a1: grads[a1 - 1], tab)[0] if a <= n else fo
            yield not comp.is_homogeneous(1 + tab.weights[a - 1]) and f"conformal({a})"

    return tally(f"vector-potential(vector({ext.label}))", outcomes())


def verify_extension_theorems(family: str, n: int) -> Report:
    """The extended multiplication tensor, rewritten in the flat
    coordinates (t^1..t^N, s = v_{N+1}), must equal eta^{a mu} F_{mu b c}
    on the first N slots and d2F°/dt^b dt^c on the last one.  The tensor
    cv is extended_constants' at v = v(t): the theorem is proved for the
    ring its relations define, which the tests check entry by entry
    against milnor's confluent rewrite system.

    Only the s-row holds what the build has not proved, so each key
    (a, i, j) with a <= N is decided in v and only the keys (N+1, b, c)
    are pulled back, with e_{N+1} as pullback's first matrix.  Row and
    column N+1 of J = dv/dt and of J^{-1} are e_{N+1}, so the pulled-back
    s-column is zero exactly when cv(a, i, N+1) = 0 for a <= N, and the
    closed block is C = J^{-1} cv J J.  The base is the library's build,
    whose read-off proved F''' = J^3 T for T = saito._residue_tensor at
    v = v(t), and T(., ., 1) is the residue pairing eta_v; with J e_1 = e_1
    (else PolyError), eta_t = F'''(1, ., .) = J^T eta_v J.  So
    eta_t C = J^T (eta_v cv) J J, and C = eta_t^{-1} F''' exactly when
    sum_d T(a, d, 1) cv(d, i, j) = T(a, i, j) for a, i, j <= N, formed once
    per distinct column cv(., i, j) (for A, one per i + j).  A key decided
    in v fails as c^a_(i,j) in v."""
    if family not in ("A", "D"):
        raise PolyError("extension theorems cover A and D only")
    ext = open_potential_A(n) if family == "A" else open_potential_D(n)
    base = frobenius_structure(family, n)
    tab = ext.table
    m = n + 1

    v = substitute_all(base.v_of_t, {}, tab)
    sub = dict(zip(base.v_table.names, v))
    cv = extended_constants(build_unfolding(family, n), sub, tab)
    # rows by source index: jac[b][be] = dv_b/dt^be; the last source and
    # target slot is s = v_{N+1}
    zero, one = MPoly.zero(tab), MPoly.constant(tab, 1)
    s_row = [zero] * n + [one]
    jac = [[vb.diff(x) for x in tab.names[:n]] + [zero] for vb in v] + [s_row]
    if [row[0] for row in jac[:n]] != [one] + [zero] * (n - 1):
        raise PolyError(f"dv/dt1 is not e1 for {base.label}")

    idx = range(1, n + 1)
    triples = list(combinations_with_replacement(idx, 3))
    values, _ = _residue_tensor(_flat_source(family, n)[0], sub, tab, triples)
    low = dict(zip(triples, values))

    def T(a, b, c):
        return low[tuple(sorted((a, b, c)))]

    pairing = [[T(a, d, 1) for d in idx] for a in idx]

    @cache
    def lower(col):
        return [dot(zip(row, col), tab) for row in pairing]

    lowered = {
        (i, j): lower(tuple(cv.get((d, i, j), zero) for d in idx))
        for i, j in combinations_with_replacement(idx, 2)
    }
    pairs = list(combinations_with_replacement(range(1, m + 1), 2))
    first = [[zero] * m] * n + [s_row]  # e_{N+1} picks a = N+1
    got = pullback(cv, first, jac, [(m, i, j) for i, j in pairs], tab, lambda a, i: (a, i))
    *_, o2, _ = _open_tables(base, ext.potential)

    def outcomes():
        for a in idx:
            for i, j in pairs:
                bad = cv.get((a, i, j)) if j > n else lowered[(i, j)][a - 1] != T(a, i, j)
                yield bool(bad) and f"c^{a}_({i},{j}) in v"
        for (_, be, ga), p in got.items():
            yield p != o2(be, ga) and f"c^{m}_({be},{ga})"

    return tally(f"extension({family}{n})", outcomes())


class OmegaSequence(Record):
    """omega_0..omega_kmax over v_1..v_{n-1}, the w-coefficient generating
    polynomials of the extended D algebra in the shifted variables
    sbar_i = (1 - i) v_i."""

    n: int
    table: VarTable
    omegas: tuple


def _omegas(table: VarTable, n: int, kmax: int) -> list:
    """The closed multinomial form of omega_0..omega_kmax over table, which
    holds v_1..v_{n-1} with their D_n weights: omega_k sums over the
    monomials of weighted degree k/(n - 1)."""
    names = table.names[: n - 1]
    bases = [1 - i for i in range(1, n)]
    return [
        MPoly._from_ratios(table, {
            key: (math.factorial(m) * p // q, 1)
            for key, m, p, q in table.weighted_keys(names, rat(k, n - 1), bases)
        })
        for k in range(kmax + 1)
    ]


def omega_sequence(n: int, kmax: int) -> OmegaSequence:
    """Closed multinomial form of every omega_k (weighted degree k/(n - 1))
    up to kmax, cross-checked by the recursion omega_{k+1} = sum_i sbar_{n-i} omega_{k+1-i}."""
    u = build_unfolding("D", n)
    vtab = VarTable(u.table.names[2 : n + 1], u.table.weights[2 : n + 1])
    closed = _omegas(vtab, n, kmax)
    sbar = [
        (1 - i) * MPoly.variable(vtab, f"v{i}") for i in range(1, n)
    ]
    for k in range(kmax):
        pairs = [(sbar[n - i - 1], closed[k + 1 - i]) for i in range(1, min(n, k + 2))]
        if dot(pairs, vtab) != closed[k + 1]:
            raise PolyError(f"omega recursion fails at k={k + 1} for D{n}")
    return OmegaSequence(n, vtab, tuple(closed))


def check_coefw_lemma(n: int) -> bool:
    """The w-component of [x^{a+b-2}] in the extended D algebra equals the
    omega expansion for all 1 <= a, b <= n-1 (zero when a + b <= n)."""
    u = build_unfolding("D", n)
    ctab = _extend(parameter_table(u), u.delta)  # v1..vN, s = v_{N+1}
    coef = extended_constants(u, {}, ctab)
    omegas = _omegas(ctab, n, max(n - 3, 0))
    zero = MPoly.zero(ctab)
    for p in range(2, 2 * n - 1):
        i = max(1, p - n + 1)  # x^(p-2) = phi_i phi_(p-i), both x-monomials
        got = coef.get((n + 1, i, p - i), zero)
        # sum_k omega_k s^(2j-1) / 2^j with j = p - n - k, one monomial per j
        want = dot([
            (omegas[p - n - j], MPoly.monomial(ctab, rat(1, 2**j), {"s": 2 * j - 1}))
            for j in range(p - n, 0, -1)
        ], ctab)
        if got != want:
            return False
    return True


def check_dn_second_derivative_identity(n: int) -> bool:
    """The telescoped second-derivative identity of the flat coordinates:
    d2t/dv_a dv_b minus the sbar-shifted tail collapses to
    -(2(a+b-n)-1)/2 * dt/dv_{a+b-n}, and both sides vanish for a+b <= n."""
    base = frobenius_structure("D", n)
    vtab = base.v_table
    vn = vtab.names
    # -sbar_i = (i - 1) v_i, the weights of the tail
    neg_sbar = [(i - 1) * MPoly.variable(vtab, f"v{i}") for i in range(1, n)]
    zero = MPoly.zero(vtab)
    for g in range(1, n):
        t = base.t_of_v[g - 1]
        d2 = partials(t, vn[: n - 1], 2)
        # the right side of every (a, b) with a + b - n = c >= 1
        rhs = [zero] + [t.diff(vn[c - 1]) * rat(-(2 * c - 1), 2) for c in range(1, n - 1)]
        for a in range(1, n):
            for b in range(1, n):
                lhs = dot(
                    [(d2[(a, b) if a <= b else (b, a)], 1)]
                    + [
                        (neg_sbar[n - i - 1], d2[(a - i, b) if a - i <= b else (b, a - i)])
                        for i in range(1, a)
                    ],
                    vtab,
                )
                if lhs != rhs[max(a + b - n, 0)]:
                    return False
    return True


def rspin_convention_rescale(p: MPoly, direction: str) -> MPoly:
    """Move between the singularity and r-spin normalizations.

    Every variable is scaled by -r with r = (number of t-slots) + 1, and
    the whole function by (-r)^-3 (closed) or (-r)^-2 (open, detected by
    the s slot); 'to_rspin' and 'from_rspin' are mutually inverse.  On the
    closed A_n potentials to_rspin gives the published genus-0 r-spin
    correlators, and on the open ones (k + l - 2)!/(-r)^(k+l-2) for
    l closed and k boundary insertions (tests), a convention not yet
    matched to a published one."""
    tab = p.table
    is_open = tab.laurent_index is not None
    base_power = 2 if is_open else 3
    r = tab.arity if is_open else tab.arity + 1
    if direction == "to_rspin":
        sign = 1
    elif direction == "from_rspin":
        sign = -1
    else:
        raise PolyError(f"unknown direction {direction!r}")
    # c * x^e picks up (-r)^(sign*(base_power - |e|)): scale every variable
    # by (-r)^-sign and the whole function by (-r)^(sign*base_power).
    scale = GaussianRational(-r) ** -sign
    images = {nm: MPoly.monomial(tab, scale, {nm: 1}) for nm in tab.names}
    return p.substitute(images, tab) * GaussianRational(-r) ** (sign * base_power)
