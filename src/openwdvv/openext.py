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
omega-identities that drive the D-case proof.  verify_vector_potential
(ext) reads the vector axioms off the closed and open WDVV contractions
of the same tables (_open_tables) as the other checks.  A call builds
its own tables, except in a saito._sharing block (one per A/D group of
`verify all`), where the sweeps of equal (F, F°) build one set.  Every
verifier yields one outcome per identity and report.tally counts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from .exactalg import (
    GaussianRational,
    MPoly,
    PolyError,
    VarTable,
    dot,
    rat,
    sqrt_coefficient,
    substitute_all,
)
from .milnor import (
    build_extended_algebra,
    build_unfolding,
    structure_constants,
)
from .report import Report, tally
from .saito import (
    FrobeniusStructure,
    _contractions,
    _extend,
    _first_monomial,
    _live,
    _raise_row,
    _shared,
    _tables,
    _weighted_keys,
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
    "extended_algebra",
    "verify_extension_theorems",
    "omega_sequence",
    "check_coefw_lemma",
    "check_dn_second_derivative_identity",
    "rspin_convention_rescale",
]


def extended_table(fs: FrobeniusStructure) -> VarTable:
    """t1..tN plus the Laurent slot s of weight (1 - delta)/2."""
    return _extend(fs.table, fs.delta)


@dataclass(frozen=True)
class OpenExtension:
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
    if fo.euler() != fo * rat((3 - base.delta) / 2):
        raise PolyError(f"homogeneity fails for {base.label}")
    return OpenExtension(base, tab, fo)


def open_generator_A(n: int, tab: VarTable, slots=None) -> MPoly:
    """F° of the A_n extension from the closed correlator formula, over a
    table t1..tk, s whose t-slots are the coordinates t^a, a in slots
    (default 1..n), in order; every other t^a is zero.  B_N and I2(k) pass
    the A coordinates their subspace keeps.

    The coefficient of prod (t^a)^{m_a} * s^k is (n_pts + k - 2)! divided
    by the automorphisms prod m_a! * k!, summed over the multiplicity
    vectors with sum m_a * (n + 2 - a) + k = n + 2."""
    slots = range(1, n + 1) if slots is None else slots
    if tab.arity != len(slots) + 1:
        raise PolyError(f"the A{n} generator needs the table t1..t{len(slots)}, s")
    return MPoly._from_ratios(tab, {
        key + tab._one: (math.factorial(m - 2), q)
        for key, m, _, q in _weighted_keys([n + 2 - a for a in slots] + [1], n + 2)
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
    return _equations(base.rank, q, o2)


def open_wdvv_eq2(base: FrobeniusStructure, fo: MPoly, al: int, be: int) -> tuple:
    """(left, right) of eq2(al, be) alone, as open_wdvv_equations forms it."""
    *_, o2, q = _open_tables(base, fo)
    s_ix = base.rank + 1
    return q(al, be, s_ix), o2(s_ix, al) * o2(s_ix, be)


def _open_tables(base: FrobeniusStructure, fo: MPoly) -> tuple:
    """(F, raised, closed, o2, q) over the table of F°: F, raised and the
    P memo closed are saito._tables' of the closed potential lifted there,
    o2(a, b) = d2F°/dt^a dt^b in t1..tN, s with s the index N+1, and
    q(a, b, g) = Q(ab; g) = sum_v c^v_{ab} o2(v, g) + o2(a, b) o2(s, g).

    Q is symmetric in (a, b), so q forms each Q once, on first use, keyed
    by the sorted (a, b) and g.  In a saito._sharing block the sweeps of
    equal (F, F°) read one set of these tables."""
    tab = fo.table
    n = base.rank
    F, _, raised, closed = _tables(base.potential, base.eta_inv, tab)

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

        return o2, q

    o2, q = _shared((base.potential, base.eta_inv, tab, fo), build)
    return F, raised, closed, o2, q


def _equations(n: int, q, o2):
    for be in range(1, n + 1):
        for al in range(1, n + 1):
            for ga in range(al + 1, n + 1):
                yield f"eq1({al},{be},{ga})", q(al, be, ga), q(ga, be, al)
    for al in range(1, n + 1):
        for be in range(al, n + 1):
            yield f"eq2({al},{be})", q(al, be, n + 1), o2(n + 1, al) * o2(n + 1, be)


def verify_open_wdvv(ext: OpenExtension) -> Report:
    """Both open WDVV families (open_wdvv_equations) plus the unit and
    homogeneity conditions.  D-type residuals pass through poles down to
    s^-4 and must still cancel identically."""
    base = ext.base
    n = base.rank
    fo = ext.potential
    *_, o2, q = _open_tables(base, fo)

    def outcomes():
        for al in range(1, n + 1):
            yield bool(o2(1, al)) and f"unit(1,{al})"
        yield o2(1, n + 1) != MPoly.constant(ext.table, 1) and "unit(1,s)"
        yield fo.euler() != fo * rat((3 - base.delta) / 2) and "homogeneity"
        for label, left, right in _equations(n, q, o2):
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
      P verify_wdvv's (saito._wdvv_contractions), raised by
      saito._raise_row.  A row of eta^{-1} with one live entry e (every
      constructed group's) compares two P's and scales only a failure's
      residual by e; other rows take one dot.
    - L(s, b; cd) = Q(cd; b) (_open_tables) for c, d <= N, and
      d2F°/dt^b ds d2F°/dt^c ds when d = s, the same on both sides.
    - L(a, b; cd) = 0 for a <= N when b, c or d is s, since dF^a/ds = 0.
    The conformal condition of a one-entry row reads dF/dt^a' itself.
    Trivially equal identities are counted as passes.  The Report is
    labelled vector-potential(vector(<label of ext>))."""
    base = ext.base
    n = base.rank
    m = n + 1
    tab = ext.table
    fo = ext.potential
    F, raised, closed, o2, q = _open_tables(base, fo)
    eta_live = [_live(row) for row in base.eta_inv]

    def lowered(a, pick):
        return _raise_row(eta_live[a - 1], pick, tab)

    def outcomes():
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                want = MPoly.constant(tab, 1 if a == b else 0)
                got = o2(1, b) if a == m else raised[(1, b)][a - 1] if b <= n else want
                yield got != want and f"unit({a},{b})"
        for be in range(1, m + 1):
            for ga in range(be + 1, m + 1):
                for al in range(1, m + 1):
                    for de in range(1, m + 1):
                        if de == m or (al <= n and ga == m):
                            yield False  # both sides vanish or are one product
                            continue
                        if al <= n:
                            left, e = lowered(al, lambda a1: closed(a1, be, ga, de))
                            right, _ = lowered(al, lambda a1: closed(a1, ga, be, de))
                        else:
                            e = 1
                            left = o2(be, m) * o2(de, m) if ga == m else q(ga, de, be)
                            right = q(be, de, ga)
                        yield left != right and (
                            f"({al},{be},{ga},{de}): {_first_monomial((left - right) * e)}"
                        )
        grads = [F.diff(nm) for nm in tab.names[:n]]
        for a in range(1, m + 1):
            comp = lowered(a, lambda a1: grads[a1 - 1])[0] if a <= n else fo
            yield comp.euler() != comp * rat(1 + tab.weights[a - 1]) and f"conformal({a})"

    return tally(f"vector-potential(vector({ext.label}))", outcomes())


@lru_cache(maxsize=None)
def extended_algebra(family: str, n: int):
    """The extended Milnor algebra of A_n or D_n.  Cached, so the extension
    and omega checks of one sweep share one algebra and its normal forms."""
    return build_extended_algebra(build_unfolding(family, n))


def verify_extension_theorems(family: str, n: int) -> Report:
    """The extended multiplication tensor, rewritten in the flat
    coordinates (t^1..t^N, s = v_{N+1}), must equal eta^{a mu} F_{mu b c}
    on the first N slots and d2F°/dt^b dt^c on the last one."""
    if family not in ("A", "D"):
        raise PolyError("extension theorems cover A and D only")
    ext = open_potential_A(n) if family == "A" else open_potential_D(n)
    base = ext.base
    tab = ext.table
    nm = tab.names
    m = n + 1
    tensor = structure_constants(extended_algebra(family, n))

    v = substitute_all(base.v_of_t, {}, tab)
    sub = dict(zip(base.v_table.names, v))
    vmap = {**sub, f"v{m}": MPoly.variable(tab, "s")}
    # every (a, i, j) with i <= j: the keys of the tensor and of its pullback
    idx = range(1, m + 1)
    keys = [(a, i, j) for a in idx for i, j in combinations_with_replacement(idx, 2)]
    cv = dict(zip(keys, substitute_all((tensor.c(*key) for key in keys), vmap, tab)))

    # Rows by source index: jac[b][be] = dv_b/dt^be, inv[a][al] = dt^al/dv_a
    # at v(t); the last source and target slot is s = v_{N+1}.
    zero = MPoly.zero(tab)
    s_row = [zero] * n + [MPoly.constant(tab, 1)]
    jac = [[vb.diff(x) for x in nm[:n]] + [zero] for vb in v] + [s_row]
    dt = substitute_all((t.diff(vn) for vn in sub for t in base.t_of_v), sub, tab)
    inv = [dt[a * n : (a + 1) * n] + [zero] for a in range(n)] + [s_row]
    got = pullback(cv, inv, jac, keys, tab, lambda a, i: (a, i))

    _, raised, _, o2, _ = _open_tables(base, ext.potential)

    def outcomes():
        for (al, be, ga), p in got.items():
            if al > n:
                want = o2(be, ga)
            elif ga <= n:
                want = raised[(be, ga)][al - 1]
            else:
                want = zero
            yield p != want and f"c^{al}_({be},{ga})"

    return tally(f"extension({family}{n})", outcomes())


@dataclass(frozen=True)
class OmegaSequence:
    """omega_0..omega_kmax over v_1..v_{n-1}, the w-coefficient generating
    polynomials of the extended D algebra in the shifted variables
    sbar_i = (1 - i) v_i."""

    n: int
    table: VarTable
    omegas: tuple


def omega_sequence(n: int, kmax: int) -> OmegaSequence:
    """Closed multinomial form of every omega_k up to kmax, cross-checked
    against the recursion omega_{k+1} = sum_i sbar_{n-i} omega_{k+1-i}."""
    u = build_unfolding("D", n)
    vtab = VarTable(u.table.names[2 : n + 1], u.table.weights[2 : n + 1])
    wts = [n - i for i in range(1, n)]
    bases = [1 - i for i in range(1, n)]
    closed = [
        MPoly._from_ratios(vtab, {
            key: (math.factorial(m) * p // q, 1)
            for key, m, p, q in _weighted_keys(wts, k, bases)
        })
        for k in range(kmax + 1)
    ]
    sbar = [
        (1 - i) * MPoly.variable(vtab, f"v{i}") for i in range(1, n)
    ]
    for k in range(kmax):
        rec = MPoly.zero(vtab)
        for i in range(1, n):
            if k + 1 - i >= 0:
                rec = rec + sbar[n - i - 1] * closed[k + 1 - i]
        if rec != closed[k + 1]:
            raise PolyError(f"omega recursion fails at k={k + 1} for D{n}")
    return OmegaSequence(n, vtab, tuple(closed))


def check_coefw_lemma(n: int) -> bool:
    """The w-component of [x^{a+b-2}] in the extended D algebra equals the
    omega expansion for all 1 <= a, b <= n-1 (zero when a + b <= n)."""
    alg = extended_algebra("D", n)
    ctab = alg.table
    omegas = omega_sequence(n, max(n - 3, 0)).omegas
    lifted = [w.substitute({}, ctab) for w in omegas]
    s = MPoly.variable(ctab, f"v{n + 1}")
    for p in range(2, 2 * n - 1):
        xs = MPoly.monomial(alg.table, 1, {"x": p - 2})
        got = alg.coeffs(xs)[alg.rank - 1]
        want = MPoly.zero(ctab)
        for k in range(p - n):
            want = want + lifted[k] * s ** (2 * p - 2 * n - 1 - 2 * k) / 2 ** (
                p - n - k
            )
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
    for g in range(1, n):
        t = base.t_of_v[g - 1]
        d2 = partials(t, vn[: n - 1], 2)
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
                if a + b >= n + 1:
                    rhs = t.diff(vn[a + b - n - 1]) * rat(
                        -(2 * (a + b - n) - 1), 2
                    )
                else:
                    rhs = MPoly.zero(vtab)
                if lhs != rhs:
                    return False
    return True


def rspin_convention_rescale(p: MPoly, direction: str) -> MPoly:
    """Move between the singularity and r-spin normalizations.

    Every variable is scaled by -r with r = (number of t-slots) + 1, and
    the whole function by (-r)^-3 (closed) or (-r)^-2 (open, detected by
    the s slot); 'to_rspin' and 'from_rspin' are mutually inverse."""
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
