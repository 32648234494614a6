"""Universal unfoldings of the A/D/E singularities and their Milnor-type
quotient algebras.

The closed algebra of an unfolding L(x, y, v) is C[x, y, v]/(dL/dx, dL/dy),
a free module over the parameter ring with the classical monomial basis.
The extended algebras adjoin a generator w subject to

    A_N:  w = dL/dx,             dL/dy = 0,  w*x = v_{N+1}*w
    D_N:  w = v_{N+1}*dL/dx,     dL/dy = 0,  2*w*x = v_{N+1}^2*w

over C[v] resp. C[v, v_{N+1}^{-1}]; both stay free of rank N+1.
extended_constants forms their structure constants over any target ring
straight from these relations, one recurrence for NF(x^k); the library
reads the extended multiplication there, and build_extended_algebra with
structure_constants is its oracle in the tests.

Reduction to the basis uses a small hand-oriented rewrite system per
algebra rather than generic Groebner machinery: each rule replaces one
generator monomial by lower terms, and normal forms are exactly the basis
monomials.  "Lower" is an integer weight order on (x, y, w): A (2, 1, 1),
D (2, n-1, 1), E6/E7/E8 (2, 3)/(1, 2)/(3, 5); a rule that does not
strictly decrease it is refused at construction, so reduction terminates.
check_confluence proves the normal forms unique by joining every critical
pair of rules (Newman's lemma).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import ge, mul

from .exactalg import MPoly, PolyError, Record, VarTable, dot, substitute_all
from .report import Report, tally

__all__ = [
    "Unfolding",
    "QuotientAlgebra",
    "StructureTensor",
    "build_unfolding",
    "build_closed_algebra",
    "build_extended_algebra",
    "structure_constants",
    "extended_constants",
    "check_confluence",
]

_E_ORDER = {6: (2, 3), 7: (1, 2), 8: (3, 5)}  # (x, y) weights; see the docstring
_E_BASIS = {
    6: ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 1)),
    7: ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (4, 0)),
    8: ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (2, 1), (3, 1)),
}


class Unfolding(Record):
    """A versal deformation L(x, y, v_1..v_N) with its quasi-homogeneous data.

    l is the distinguished basis index: the Saito pairing of two basis
    vectors is the coefficient of phi_l in their product.
    """

    family: str  # 'A' | 'D' | 'E'
    n: int  # subscript: A_n, D_n, E_n
    rank: int  # number of deformation parameters
    table: VarTable  # x, y, v1..vN with weights
    poly: MPoly
    basis: tuple  # gen-exponent pairs (a, b) meaning x^a*y^b
    l: int  # 1-based

    @property
    def weights(self) -> tuple:
        """Weights q_1..q_N of the deformation parameters."""
        return self.table.weights[2:]

    @property
    def delta(self) -> Fraction:
        return 1 - self.weights[self.l - 1]

    def label(self) -> str:
        return f"{self.family}{self.n}"


def _vnames(rank: int) -> tuple:
    return tuple(f"v{k}" for k in range(1, rank + 1))


def parameter_table(u: Unfolding) -> VarTable:
    """The deformation-parameter ring v_1..v_N with its weights."""
    return VarTable(u.table.names[2:], u.table.weights[2:])


@lru_cache(maxsize=None)
def build_unfolding(family: str, n: int) -> Unfolding:
    """Universal unfolding of A_n, D_n (n >= 3), or E_n (n in {6, 7, 8}),
    built once per process: an Unfolding is frozen and its MPoly immutable."""
    if family == "A":
        if n < 1:
            raise PolyError("A_n needs n >= 1")
        qx = Fraction(1, n + 1)
        qv = tuple(Fraction(n + 2 - k, n + 1) for k in range(1, n + 1))
        tab = VarTable(("x", "y") + _vnames(n), (qx, Fraction(1, 2)) + qv)
        x = MPoly.variable(tab, "x")
        y = MPoly.variable(tab, "y")
        lam = x ** (n + 1) / (n + 1) + y * y
        for k in range(1, n + 1):
            lam = lam + MPoly.variable(tab, f"v{k}") * x ** (k - 1)
        basis = tuple((k, 0) for k in range(n))
        l = n
    elif family == "D":
        if n < 3:
            raise PolyError("D_n needs n >= 3")
        qx = Fraction(1, n - 1)
        qv = tuple(Fraction(n - k, n - 1) for k in range(1, n)) + (
            Fraction(n, 2 * (n - 1)),
        )
        tab = VarTable(
            ("x", "y") + _vnames(n), (qx, Fraction(n - 2, 2 * (n - 1))) + qv
        )
        x = MPoly.variable(tab, "x")
        y = MPoly.variable(tab, "y")
        lam = x ** (n - 1) / (n - 1) + x * y * y
        for k in range(1, n):
            lam = lam + MPoly.variable(tab, f"v{k}") * x ** (k - 1)
        lam = lam + MPoly.variable(tab, f"v{n}") * y
        basis = tuple((k, 0) for k in range(n - 1)) + ((0, 1),)
        l = n - 1
    elif family == "E":
        if n not in (6, 7, 8):
            raise PolyError("E_n needs n in {6, 7, 8}")
        germ = {6: ((4, 0), (0, 3)), 7: ((3, 1), (0, 3)), 8: ((5, 0), (0, 3))}[n]
        (ax, ay), (bx, by) = germ
        # Germ weights solve q_x*ax + q_y*ay = 1 = q_x*bx + q_y*by.
        qy = Fraction(1, 3)
        qx = {6: Fraction(1, 4), 7: Fraction(2, 9), 8: Fraction(1, 5)}[n]
        basis = _E_BASIS[n]  # the unfolding monomials are the Milnor basis
        qv = tuple(1 - qx * a - qy * b for (a, b) in basis)
        tab = VarTable(("x", "y") + _vnames(n), (qx, qy) + qv)
        x = MPoly.variable(tab, "x")
        y = MPoly.variable(tab, "y")
        lam = x ** ax * y ** ay + x ** bx * y ** by
        for k, (a, b) in enumerate(basis, start=1):
            lam = lam + MPoly.variable(tab, f"v{k}") * x ** a * y ** b
        l = n
    else:
        raise PolyError(f"unknown family {family!r}")

    u = Unfolding(family, n, n, tab, lam, basis, l)
    if lam.euler() != lam:
        raise PolyError(f"Euler identity fails for {u.label()}")
    return u


class QuotientAlgebra:
    """A free quotient of C[x, y(, w), v] presented by oriented rewrite rules.

    gens lists which table slots are generators; basis and rule left-hand
    sides are exponent tuples over those slots.  Each rule must strictly
    decrease the generator weight order (module docstring), else PolyError.
    Normal forms are memoized, so repeated products (structure constants,
    associativity sweeps) stay cheap.  The algebra has one table: its
    basis coefficients (coeffs) stay on it, with the generator slots zero.
    """

    def __init__(self, unfolding, table, gens, basis, rules, extended):
        self.unfolding = unfolding
        self.table = table
        self.gens = tuple(gens)
        self.gen_slots = tuple(table.index(g) for g in gens)
        self.basis = tuple(tuple(b) for b in basis)
        self.rules = tuple(rules)  # (lhs gen-exponents, rhs MPoly over table)
        self.extended = extended
        self._rhs_parts = {lhs: rhs.collect(self.gens) for lhs, rhs in self.rules}
        n = unfolding.n
        wts = {"A": (2, 1, 1), "D": (2, n - 1, 1)}.get(unfolding.family) or _E_ORDER[n]
        for lhs, parts in self._rhs_parts.items():
            for g in parts:
                if sum(map(mul, wts, g)) >= sum(map(mul, wts, lhs)):
                    raise PolyError(f"rule {lhs} -> {g} does not decrease in {self.label()}")
        self._phis = tuple(self._gen_monomial(b) for b in self.basis)
        self._memo = {}

    @property
    def rank(self) -> int:
        return len(self.basis)

    def label(self) -> str:
        kind = "ext" if self.extended else "closed"
        return f"{self.unfolding.label()} {kind}"

    def phi(self, k: int) -> MPoly:
        """k-th basis monomial (1-based) as a polynomial."""
        return self._phis[k - 1]

    def _gen_monomial(self, g) -> MPoly:
        exp = [0] * self.table.arity
        for slot, e in zip(self.gen_slots, g):
            exp[slot] = e
        return MPoly.monomial(self.table, 1, dict(zip(self.table.names, exp)))

    def _nf_gen(self, g) -> MPoly:
        got = self._memo.get(g)
        if got is not None:
            return got
        lhs = next((l for l, _ in self.rules if all(map(ge, g, l))), None)
        if lhs is None:
            got = self._memo[g] = self._gen_monomial(g)
            return got
        residual = tuple(ge - le for ge, le in zip(g, lhs))
        acc = dot(
            (
                (part, self._nf_gen(tuple(a + b for a, b in zip(residual, rg))))
                for rg, part in self._rhs_parts[lhs].items()
            ),
            self.table,
        )
        self._memo[g] = acc
        return acc

    def normal_form(self, p: MPoly) -> MPoly:
        """Reduce to the basis by the first matching rule; unique, as
        check_confluence proves."""
        if p.table != self.table:
            raise PolyError("polynomial is over a foreign table")
        return dot(
            ((part, self._nf_gen(g)) for g, part in p.collect(self.gens).items()),
            self.table,
        )

    def coeffs(self, p: MPoly) -> list:
        """Basis coefficients of normal_form(p), as collect() leaves them:
        over the algebra table, with the generator slots zero."""
        parts = self.normal_form(p).collect(self.gens)
        for g in parts:
            if g not in self.basis:
                raise PolyError(f"normal form leaves the basis span: {g}")
        zero = MPoly.zero(self.table)
        return [parts.get(b, zero) for b in self.basis]


class StructureTensor(Record):
    """Structure constants c[a][i][j] over the algebra table, with the
    generator slots zero; the metric row is c[l]: eta(d/dv_i, d/dv_j) =
    c^l_{ij}."""

    table: VarTable
    entries: tuple
    l: int

    @property
    def rank(self) -> int:
        return len(self.entries)

    def c(self, a: int, i: int, j: int) -> MPoly:
        """Entry c^a_{ij}, all indices 1-based."""
        return self.entries[a - 1][i - 1][j - 1]


def _dx(u: Unfolding) -> MPoly:
    return u.poly.diff("x")


def _dy(u: Unfolding) -> MPoly:
    return u.poly.diff("y")


def _v(tab: VarTable, k: int) -> MPoly:
    return MPoly.variable(tab, f"v{k}")


def build_closed_algebra(u: Unfolding) -> QuotientAlgebra:
    """C[x, y, v]/(dL/dx, dL/dy) with the classical basis."""
    tab = u.table
    x = MPoly.variable(tab, "x")
    y = MPoly.variable(tab, "y")
    n = u.n
    if u.family == "A":
        rules = [
            ((0, 1), MPoly.zero(tab)),  # y = 0
            ((n, 0), x ** n - _dx(u)),  # x^n -> -sum (k-1) v_k x^(k-2)
        ]
    elif u.family == "D":
        xy_rhs = -_v(tab, n) / 2  # from dL/dy = 2xy + v_n
        y2_rhs = y * y - _dx(u)  # y^2 -> -x^(n-2) - sum (k-1) v_k x^(k-2)
        xn_rhs = _v(tab, n) / 2 * y
        for k in range(2, n):
            xn_rhs = xn_rhs - (k - 1) * _v(tab, k) * x ** (k - 1)
        rules = [
            ((1, 1), xy_rhs),
            ((0, 2), y2_rhs),
            ((n - 1, 0), xn_rhs),
        ]
    elif u.family == "E":
        dx, dy = _dx(u), _dy(u)
        if n == 6:
            rules = [
                ((3, 0), x ** 3 - dx / 4),
                ((0, 2), y * y - dy / 3),
            ]
        elif n == 8:
            rules = [
                ((4, 0), x ** 4 - dx / 5),
                ((0, 2), y * y - dy / 3),
            ]
        else:  # E7: x^2*y and y^2 from the partials, x^5 bootstrapped
            r1 = ((2, 1), x * x * y - dx / 3)
            r2 = ((0, 2), y * y - dy / 3)
            partial = QuotientAlgebra(u, tab, ("x", "y"), u.basis, [r1, r2], False)
            x5_rhs = partial.normal_form(x ** 2 * (x ** 3 - dy))
            rules = [r1, r2, ((5, 0), x5_rhs)]
    else:  # pragma: no cover
        raise PolyError(f"unknown family {u.family!r}")
    return QuotientAlgebra(u, tab, ("x", "y"), u.basis, rules, False)


def _a_relations(u: Unfolding, vmap, ttab: VarTable) -> dict:
    """rho of A_n at v -> v(t): x^n = sum_j rho[j] x^j in the Milnor ring,
    read off W' = dL/dx = x^n + sum_{j < n} w_j x^j, so rho[j] = -w_j.  A
    W' that is not monic is refused."""
    parts = u.poly.diff("x").collect(("x",))
    if parts.pop((u.n,)) != MPoly.constant(u.table, 1):
        raise PolyError(f"W' of {u.label()} is not monic")
    lower = substitute_all([-p for p in parts.values()], vmap, ttab)
    return dict(zip([j for (j,) in parts], lower))


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
    return nu * Fraction(-1, 2), s


def _extended_table(u: Unfolding, laurent: bool) -> VarTable:
    n = u.n
    if u.family == "A":
        qv1 = Fraction(1, n + 1)
        qw = Fraction(n, n + 1)
    else:
        qv1 = Fraction(1, 2 * (n - 1))
        qw = 1 - Fraction(1, 2 * (n - 1))
    names = ("x", "y", "w") + _vnames(n) + (f"v{n + 1}",)
    weights = (
        (u.table.weights[0], u.table.weights[1], qw) + u.weights + (qv1,)
    )
    return VarTable(names, weights, f"v{n + 1}" if laurent else None)


def build_extended_algebra(u: Unfolding) -> QuotientAlgebra:
    """Rank N+1 extension with the extra generator w; A and D only."""
    n = u.n
    if u.family == "A":
        tab = _extended_table(u, laurent=False)
        x = MPoly.variable(tab, "x")
        w = MPoly.variable(tab, "w")
        s = MPoly.variable(tab, f"v{n + 1}")
        xn_rhs = w
        w2 = s ** n
        for k in range(2, n + 1):
            xn_rhs = xn_rhs - (k - 1) * _v(tab, k) * x ** (k - 2)
            w2 = w2 + (k - 1) * _v(tab, k) * s ** (k - 2)
        rules = [
            ((0, 1, 0), MPoly.zero(tab)),  # y = 0
            ((1, 0, 1), s * w),  # w*x = v_{n+1}*w
            ((n, 0, 0), xn_rhs),  # x^n = w - sum (k-1) v_k x^(k-2)
            ((0, 0, 2), w2 * w),
        ]
        basis = tuple((k, 0, 0) for k in range(n)) + ((0, 0, 1),)
    elif u.family == "D":
        tab = _extended_table(u, laurent=True)
        x = MPoly.variable(tab, "x")
        y = MPoly.variable(tab, "y")
        w = MPoly.variable(tab, "w")
        s = MPoly.variable(tab, f"v{n + 1}")
        vn = _v(tab, n)
        y2_rhs = s ** -1 * w - x ** (n - 2)
        xn_rhs = s / 2 * w + vn / 2 * y
        w2 = s ** (2 * n - 3) / 2 ** (n - 2) + vn * vn * s ** -3
        for k in range(2, n):
            vk = _v(tab, k)
            y2_rhs = y2_rhs - (k - 1) * vk * x ** (k - 2)
            xn_rhs = xn_rhs - (k - 1) * vk * x ** (k - 1)
            w2 = w2 + (k - 1) * vk * s ** (2 * k - 3) / 2 ** (k - 2)
        rules = [
            ((1, 1, 0), -vn / 2),  # x*y = -v_n/2
            ((1, 0, 1), s * s / 2 * w),  # w*x = v_{n+1}^2/2 * w
            ((0, 1, 1), -vn * s ** -2 * w),  # w*y = -v_n/v_{n+1}^2 * w
            ((0, 2, 0), y2_rhs),
            ((n - 1, 0, 0), xn_rhs),
            ((0, 0, 2), w2 * w),
        ]
        basis = tuple((k, 0, 0) for k in range(n - 1)) + ((0, 1, 0), (0, 0, 1))
    else:
        raise PolyError("extended algebra is defined for A and D only")
    return QuotientAlgebra(u, tab, ("x", "y", "w"), basis, rules, True)


def structure_constants(alg: QuotientAlgebra) -> StructureTensor:
    """All products phi_i*phi_j expanded over the basis, each coefficient
    as coeffs gives it."""
    n = alg.rank
    entries = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            cs = alg.coeffs(alg.phi(i) * alg.phi(j))
            for a in range(n):
                entries[a][i - 1][j - 1] = cs[a]
                entries[a][j - 1][i - 1] = cs[a]
    frozen = tuple(tuple(tuple(row) for row in mat) for mat in entries)
    return StructureTensor(alg.table, frozen, alg.unfolding.l)


def extended_constants(u: Unfolding, vmap, tab: VarTable) -> dict:
    """The nonzero structure constants {(a, i, j): c^a_ij, i <= j} of the
    extended algebra of A_n or D_n at v -> vmap, over tab, whose slot s
    stands for v_{N+1}; indices are 1-based over the basis of
    build_extended_algebra: x^0..x^(top-1), then y for D, then w.

    The relations are those of the module docstring, written through the
    closed ring's (_a_relations, _d_relations, as saito.residue_structure
    reads them).  A, where x^n = sum_j rho_j x^j:
    x^n = w + sum_j rho_j x^j, x^k w = s^k w and
    w^2 = W'(s) w = (s^n - sum_j rho_j s^j) w.  D, where xy = h and
    y^2 = sum_j s_j x^j: y^2 = s^-1 w + sum_j s_j x^j,
    x^(n-1) = (s/2) w - h y + sum_{j < n-2} s_j x^(j+1),
    x^k w = (s^2/2)^k w, y w = 2h s^-2 w and
    w^2 = (4h^2 s^-3 - sum_j s_j s (s^2/2)^j) w.  NF(x^k) is x times
    NF(x^(k-1)), one dot per component, so no algebra is built and nothing
    is substituted after; the tests check every entry against
    structure_constants(build_extended_algebra(u))."""
    n = u.n
    m = n + 1
    zero, one = MPoly.zero(tab), MPoly.constant(tab, 1)

    def s_pow(e, c=1):
        return MPoly.monomial(tab, c, {"s": e})

    if u.family == "A":
        top, lam = n, s_pow(1)
        rho = _a_relations(u, vmap, tab)
        xhi = {**rho, n: one}  # x * x^(n-1), over the 0-based basis
        T = {(m, m, m): s_pow(n) - dot(((r, s_pow(j)) for j, r in rho.items()), tab)}
        T.update(((m, i, m), s_pow(i - 1)) for i in range(1, m))
    else:
        top, lam = n - 1, s_pow(2, Fraction(1, 2))
        h, sj = _d_relations(u, vmap, tab)
        xhi = {j + 1: c for j, c in sj.items() if j < top - 1}
        xhi.update({n - 1: -h, n: s_pow(1, Fraction(1, 2))})
        T = {
            (m, m, m): dot(
                [(h * h, s_pow(-3, 4))]
                + [(c, s_pow(2 * j + 1, Fraction(-1, 2 ** j))) for j, c in sj.items()],
                tab,
            ),
            (m, n, m): h * s_pow(-2, 2),
            (m, n, n): s_pow(-1),
            (n, 1, n): one,
        }
        T.update(((j + 1, n, n), c) for j, c in sj.items())
        T.update(((i - 1, i, n), h) for i in range(2, n))
        T.update(((m, i, m), s_pow(2 * i - 2, Fraction(1, 2 ** (i - 1)))) for i in range(1, n))
    # x e_b = sum_a X[a][b] e_a: the rows of X, by the 0-based a
    rows = [[(a - 1, 1)] if 0 < a < top else [] for a in range(m)]
    for a, c in xhi.items():
        rows[a].append((top - 1, c))
    rows[n].append((n, lam))  # x w = lam w
    if u.family == "D":
        rows[0].append((n - 1, h))  # x y = h
    nf = [[one if a == k else zero for a in range(m)] for k in range(top)]
    for _ in range(top - 1):
        c = nf[-1]
        nf.append([dot([(c[b], f) for b, f in row if c[b]], tab) for row in rows])
    for i in range(top):
        for j in range(i, top):
            T.update(((a, i + 1, j + 1), p) for a, p in enumerate(nf[i + j], 1) if p)
    return T


def check_confluence(alg: QuotientAlgebra) -> Report:
    """Proof that normal forms are unique: for every two rules whose left
    sides l1, l2 share a generator, (lcm/l1)*r1 and (lcm/l2)*r2 reduce to
    one normal form (coprime pairs join by Buchberger's first criterion);
    with the decreasing order checked at construction, Newman's lemma gives
    confluence.  checked counts the overlapping pairs."""

    def outcomes():
        for i, (l1, r1) in enumerate(alg.rules):
            for l2, r2 in alg.rules[i + 1 :]:
                if not any(a and b for a, b in zip(l1, l2)):
                    continue
                lcm = tuple(map(max, l1, l2))
                left, right = (
                    alg.normal_form(alg._gen_monomial([c - e for c, e in zip(lcm, l)]) * r)
                    for l, r in ((l1, r1), (l2, r2))
                )
                yield left != right and f"{l1}/{l2}"

    return tally(f"confluence({alg.label()})", outcomes())

