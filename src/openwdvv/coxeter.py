"""Frobenius potentials of the finite Coxeter groups and the
classification of their open extensions.

The group fixes the construction (coxeter_structure).  A_N and D_N come
from the singularity pipeline.  B_N, I2(k) and H3 run the A_{2N-1},
A_{k-1} and D6 builds on a linear subspace of their flat coordinates:
the images of the source coordinates are target coordinates, zeros, and
for H3 an imaginary multiple of t2.  Every source takes the residue route
of saito.residue_structure over the group's own coordinates, and no
Milnor algebra is built.  F4 and H4 carry printed potentials in a
normalization that differs from that route by coordinate rescalings, so
they are stored as fixtures and every claim about them is checked in
place.  No E potential is built; the D and E nonexistence checks reduce
one product of their closed Milnor algebras.
Also here: the open solution families of A_N, B_N and I2(k) with the
lambda-rescaling action, the boundary correlator recursion, the
homogeneous open ansatz that the I2 classification and the H3
obstruction solve, and the exact nonexistence checks for the rest.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .exactalg import (
    GaussianRational,
    MPoly,
    PolyError,
    Record,
    VarTable,
    parse,
    rat,
    sqrt_coefficient,
)
from .milnor import build_closed_algebra, build_unfolding
from .openext import (
    _extend,
    extended_table,
    open_extension,
    open_generator_A,
    open_potential_A,
    open_wdvv_eq2,
)
from .report import Report, tally
from .saito import (
    FrobeniusStructure,
    from_potential,
    frobenius_structure,
    residue_structure,
    t_table,
    third_derivatives,
)

__all__ = [
    "CoxeterSpec",
    "SolutionFamily",
    "coxeter_spec",
    "potential_coxeter",
    "coxeter_structure",
    "printed_potential",
    "printed_open_potential",
    "open_family",
    "lambda_rescale",
    "boundary_power",
    "correlator_recursion_A",
    "obstruction_check",
    "classify_I2",
]

_E_DEGREES = {
    6: (12, 9, 8, 6, 5, 2),
    7: (18, 14, 12, 10, 8, 6, 2),
    8: (30, 24, 20, 18, 14, 12, 8, 2),
}


class CoxeterSpec(Record):
    """Invariant-degree data of a finite irreducible Coxeter group.

    degrees lists d_1..d_N in the coordinate order of the potential, so
    q_a = d_a/h with q_1 = 1 and h = d_1 the Coxeter number."""

    tag: str
    family: str  # 'A' | 'B' | 'D' | 'E' | 'F' | 'H' | 'I2'
    n: int  # subscript; the k of I2(k)
    rank: int
    degrees: tuple

    @property
    def h(self) -> int:
        return self.degrees[0]

    @property
    def q(self) -> tuple:
        return tuple(Fraction(d, self.h) for d in self.degrees)

    @property
    def delta(self) -> Fraction:
        return 1 - Fraction(2, self.h)


def coxeter_spec(tag: str) -> CoxeterSpec:
    """Parse a group tag: 'A5', 'B3', 'D4', 'E7', 'F4', 'H3', 'H4', 'I2(6)'.
    The spec carries the tag in that canonical spelling."""
    m = re.fullmatch(r"I2\(([0-9]+)\)|([A-Z])([0-9]+)", tag)
    if m is None:
        raise PolyError(f"unknown Coxeter group {tag!r}")
    family = "I2" if m[1] else m[2]
    n = int(m[1] or m[3])
    if family == "A" and n >= 1:
        degrees = tuple(n + 2 - a for a in range(1, n + 1))
    elif family == "B" and n >= 2:
        degrees = tuple(2 * (n + 1 - a) for a in range(1, n + 1))
    elif family == "D" and n >= 3:
        degrees = tuple(2 * (n - a) for a in range(1, n)) + (n,)
    elif family == "E" and n in (6, 7, 8):
        degrees = _E_DEGREES[n]
    elif family == "F" and n == 4:
        degrees = (12, 8, 6, 2)
    elif family == "H" and n in (3, 4):
        degrees = (10, 6, 2) if n == 3 else (30, 20, 12, 2)
    elif family == "I2" and n >= 3:
        degrees = (n, 2)
    else:
        raise PolyError(f"unknown Coxeter group {tag!r}")
    canonical = f"I2({n})" if family == "I2" else f"{family}{n}"
    spec = CoxeterSpec(canonical, family, n, 2 if family == "I2" else n, degrees)
    if spec.h != max(degrees):
        raise PolyError(f"degree table of {tag} is inconsistent")
    return spec


def _spec(group) -> CoxeterSpec:
    return group if isinstance(group, CoxeterSpec) else coxeter_spec(group)


# ---------- printed fixtures ----------


def _fixture_text(name: str) -> str:
    from importlib import resources  # only the printed potentials read it

    return (
        resources.files(__package__).joinpath("fixtures", name).read_text().strip()
    )


def printed_potential(tag: str) -> MPoly:
    """A potential transcribed verbatim from its published display."""
    if tag not in ("D4", "D5", "F4", "H3", "H4"):
        raise PolyError(f"no printed potential stored for {tag}")
    tab = t_table(coxeter_spec(tag).q)
    return parse(_fixture_text(f"{tag.lower()}_closed.txt" if tag[0] == "D" else f"{tag.lower()}.txt"), tab)


def printed_open_potential(tag: str) -> MPoly:
    """The published open potential of D4 or D5, with its simple pole."""
    if tag not in ("D4", "D5"):
        raise PolyError(f"no printed open potential stored for {tag}")
    u = build_unfolding("D", int(tag[1]))
    tab = _extend(t_table(u.weights), u.delta)
    return parse(_fixture_text(f"{tag.lower()}_open.txt"), tab)


# ---------- restricted potentials ----------


def _source_family(spec: CoxeterSpec) -> tuple:
    if spec.family == "B":
        return "A", 2 * spec.n - 1
    if spec.family == "I2":
        return "A", spec.n - 1
    if spec.tag == "H3":
        return "D", 6
    raise PolyError(f"no potential is constructed for {spec.tag}")


def _restriction_images(spec: CoxeterSpec, target: VarTable) -> tuple:
    """Every source flat coordinate, in order, as a target coordinate,
    zero, or (for H3) an imaginary multiple of t2."""
    _, m = _source_family(spec)
    images = [MPoly.zero(target)] * m
    if spec.family == "B":
        for a in range(1, spec.n + 1):
            images[2 * a - 2] = MPoly.variable(target, f"t{a}")
    elif spec.family == "I2":
        images[0] = MPoly.variable(target, "t1")
        images[spec.n - 2] = MPoly.variable(target, "t2")
    else:  # H3 from D6
        images[0] = MPoly.variable(target, "t1")
        images[2] = MPoly.variable(target, "t2")
        images[4] = MPoly.variable(target, "t3")
        images[5] = MPoly.monomial(target, GaussianRational(0, 1), {"t2": 1})
    return tuple(images)


def _restricted_structure(spec: CoxeterSpec) -> FrobeniusStructure:
    """The source singularity's residue build (saito.residue_structure)
    run on the group's subspace of its flat coordinates; the potential is
    the source potential there."""
    family, m = _source_family(spec)
    images = _restriction_images(spec, t_table(spec.q))
    return residue_structure(family, m, images, spec.tag)


@lru_cache(maxsize=None)
def _built_structure(tag: str) -> FrobeniusStructure:
    spec = coxeter_spec(tag)
    if tag in ("F4", "H4"):
        fs = from_potential(tag, printed_potential(tag))
    else:  # E6-E8 are refused by _source_family
        fs = _restricted_structure(spec)
    if fs.delta != spec.delta:
        raise PolyError(f"degree of the {tag} potential is off")
    return fs


def coxeter_structure(group) -> FrobeniusStructure:
    """The Frobenius structure of a finite Coxeter group, by the route the
    group fixes: A_N and D_N are frobenius_structure; B_N, I2(k) and H3
    are restricted from A_{2N-1}, A_{k-1} and D6 on the residue route
    (see the module docstring); F4 and H4 are printed, as their
    restriction runs through E-type flat coordinates, which this library
    does not construct; E6-E8 are refused.  The restricted and printed
    potentials must have the group's weighted degree 3 - delta and are
    cached by canonical tag, so every spelling of a group shares one
    entry; cache_info and cache_clear are those of that cache."""
    spec = _spec(group)
    if spec.family in ("A", "D"):
        return frobenius_structure(spec.family, spec.n)
    return _built_structure(spec.tag)


coxeter_structure.cache_info = _built_structure.cache_info
coxeter_structure.cache_clear = _built_structure.cache_clear


def potential_coxeter(group) -> MPoly:
    """The Frobenius potential of a finite Coxeter group (coxeter_structure)."""
    return coxeter_structure(group).potential


# ---------- open solution families ----------


class SolutionFamily(Record):
    """An open WDVV solution family of one group: lambda runs over the
    domain, and for the rank-2 groups of even Coxeter number (even I2(k)
    and B2 = I2(4)) a sign branch doubles the family.  Only for I2(k) is
    it proved to hold every solution (classify_I2); B2 shares I2(4)'s
    potential, generator, domain and branches, and A2 those of I2(3)."""

    spec: CoxeterSpec
    base: FrobeniusStructure
    domain: str  # 'C' | 'C*'
    branches: tuple  # ('plus',) | ('plus', 'minus')
    generator: MPoly  # plus branch at lambda = 1
    coefficients: tuple | None = None  # solved beta_0..beta_top, if classified

    def member(self, lam=1, branch: str = "plus") -> MPoly:
        if branch not in self.branches:
            raise PolyError(f"{self.spec.tag} has no {branch} branch")
        fo = self.generator
        if branch == "minus":
            tab = fo.table
            fo = 2 * MPoly.variable(tab, "t1") * MPoly.variable(tab, "s") - fo
        return lambda_rescale(fo, lam)

    def extension(self, lam=1, branch: str = "plus"):
        return open_extension(self.base, self.member(lam, branch))


def lambda_rescale(fo: MPoly, lam) -> MPoly:
    """lambda^{-1} F°(t, lambda s): the term c t^m s^j picks up lambda^{j-1},
    in one pass over the terms (MPoly.scale_terms); lambda = 1 returns F°
    itself.

    lambda = 0 keeps exactly the s-linear part and is defined only when
    F° vanishes at s = 0 (and has no pole)."""
    tab = fo.table
    s = tab.laurent
    if s is None:
        raise PolyError("open potential table has no s slot")
    if not isinstance(lam, GaussianRational):
        lam = GaussianRational(rat(lam))
    if lam:
        return fo if lam == 1 else fo.scale_terms(s, lambda j: lam ** (j - 1))
    parts = fo.collect((s,))
    if any(j <= 0 for (j,) in parts):
        raise PolyError("lambda = 0 needs F° to vanish at s = 0")
    return parts.get((1,), MPoly.zero(tab)) * MPoly.variable(tab, s)


@lru_cache(maxsize=None)
def _built_family(tag: str) -> SolutionFamily:
    spec = coxeter_spec(tag)
    if spec.family == "A":
        ext = open_potential_A(spec.n)
        base, gen = ext.base, ext.potential
    elif spec.family in ("B", "I2"):
        base = coxeter_structure(tag)
        gen = open_generator_A(_source_family(spec)[1], extended_table(base))
    else:
        raise PolyError(f"{spec.tag} has no polynomial open solutions")
    domain = "C*" if (0,) in gen.collect((gen.table.laurent,)) else "C"
    expected = (
        "C*"
        if (spec.family == "A" and spec.n >= 2)
        or (spec.family == "I2" and spec.n % 2)
        else "C"
    )
    if domain != expected:
        raise PolyError(f"lambda-domain of {spec.tag} contradicts the table")
    # the reflection 2*t1*s - F° solves too for the rank-2 groups of even
    # h: even I2(k) and B2 = I2(4), not A2 = I2(3)
    branches = ("plus", "minus") if spec.rank == 2 and spec.h % 2 == 0 else ("plus",)
    open_extension(base, gen)  # unit and homogeneity
    return SolutionFamily(spec, base, domain, branches, gen)


def open_family(group) -> SolutionFamily:
    """The open solution family of A_N, B_N or I2(k).

    The generator of B_N and I2(k) is F°_{A_m} on the group's subspace,
    built from its closed form on the A_m flat coordinates that stay live
    there; the lambda-domain is read off mechanically (0 is admissible
    exactly when the s-free part vanishes) and must agree with the
    classification table.  Cached by canonical tag."""
    return _built_family(_spec(group).tag)


open_family.cache_info = _built_family.cache_info
open_family.cache_clear = _built_family.cache_clear


# ---------- boundary correlators of A_N ----------


def boundary_power(N: int, t) -> int:
    """The power k of sigma in <tau_a1 .. tau_an sigma^k>° of A_N, forced
    by homogeneity: k = N + 2 - sum(N + 2 - a) over the insertions t."""
    return N + 2 - sum(N + 2 - a for a in t)


# Largest predicted work N^2 * C(N + m, m) of correlator_recursion_A, with
# m = min(max_n, (N + 2) // 2): C(N + m, m) tuples, each costing about N
# (its values are ratios of factorials up to N!), and one more N to bound
# few insertions at large N.  From the command line (2-core shared host)
# A21 with 10 insertions took 55 s, A23 with 9 27 s, and A56 with 5 and
# A86 with 4 10 s, at most 60 MB; a refusal ends in 0.2 s.
MAX_CORRELATOR_WORK = 2 * 10**10


def correlator_recursion_A(N: int, max_n: int) -> dict:
    """All <tau_a1 .. tau_an sigma^k>° of A_N with n <= max_n insertions,
    from the two seeds by splitting off the first two insertions.

    Keys are sorted insertion tuples; k = boundary_power(N, abar) is forced
    by homogeneity and tuples with k < 0 are omitted (their value is 0).
    Every insertion adds at least 2 to sum(N + 2 - a), so no tuple of
    more than (N + 2) // 2 insertions has k >= 0 and none is enumerated.
    Reciprocal factorials of negative integers vanish, which silently
    prunes inadmissible splittings.  A request whose predicted work
    exceeds MAX_CORRELATOR_WORK is refused before anything is built, and
    so is one whose table could not be printed: the largest value is the
    empty tuple's N!, and an integer of more digits than
    sys.get_int_max_str_digits() allows has no decimal text."""
    if max_n < 0:
        raise PolyError("the insertion count bound must be nonnegative")
    m = min(max_n, (N + 2) // 2)
    budget = MAX_CORRELATOR_WORK
    # N^2 alone refuses the largest N before math.comb runs
    if N > 0 and (N * N > budget or N * N * math.comb(N + m, m) > budget):
        raise PolyError(
            f"correlators of A{N} with up to {m} insertions exceed the work "
            f"budget N^2 * C(N + m, m) <= {budget}"
        )
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if N > 0 and limit and _factorial_exceeds(N, limit):
        raise PolyError(
            f"correlators of A{N} hold {N}!, which has more than {limit} "
            f"digits, the most an integer may be printed with"
        )
    coxeter_spec(f"A{N}")
    fact = math.factorial
    memo = {}

    def corr(t):
        k = boundary_power(N, t)
        if k < 0:
            return rat(0)
        got = memo.get(t)
        if got is not None:
            return got
        if not t:
            val = rat(fact(N))
        elif len(t) == 1:
            val = rat(fact(t[0] - 1))
        else:
            rest = t[2:]
            acc = rat(0)
            for mask in range(1 << len(rest)):
                S = [rest[i] for i in range(len(rest)) if mask >> i & 1]
                Sc = [rest[i] for i in range(len(rest)) if not mask >> i & 1]
                I = tuple(sorted([t[0], *S]))
                J = tuple(sorted([t[1], *Sc]))
                kI, kJ = boundary_power(N, I), boundary_power(N, J)
                if kI >= 1 and kJ >= 1:
                    acc += corr(I) * corr(J) / (fact(kI - 1) * fact(kJ - 1))
                I2 = tuple(sorted([t[0], t[1], *S]))
                k2 = boundary_power(N, I2)
                kJ2 = boundary_power(N, tuple(Sc))
                if Sc and k2 >= 0 and kJ2 >= 2:
                    acc -= corr(I2) * corr(tuple(sorted(Sc))) / (
                        fact(k2) * fact(kJ2 - 2)
                    )
            val = acc * fact(k)
        memo[t] = val
        return val

    table = {}
    for n in range(m + 1):
        for t in combinations_with_replacement(range(1, N + 1), n):
            if boundary_power(N, t) >= 0:
                table[t] = corr(t)
    return table


def _factorial_exceeds(N: int, digits: int) -> bool:
    """N! has more than digits decimal digits, that is N! >= 10^digits:
    read off log10 N! = lgamma(N + 1) / ln 10, and decided exactly when
    the estimate lies within one of the edge."""
    est = math.lgamma(N + 1) / math.log(10)
    if abs(est - digits) > 1:
        return est > digits
    return math.factorial(N) >= 10**digits


# ---------- the homogeneous open ansatz ----------


def _open_ansatz(base: FrobeniusStructure) -> MPoly:
    """F° = t1*s + sum_m b_m * m/m! over the t1-free monomials m in t, s of
    weighted degree (3 - delta)/2 (m! = prod of its exponents' factorials;
    the unit condition leaves no other t1 term), over the extended table
    followed by the weight-0 unknowns b0, b1, ... in weighted_keys order."""
    ext = extended_table(base)
    shape = ext.weighted_keys(ext.names[1:], (3 - base.delta) / 2)
    m = len(shape)
    names = ext.names + tuple(f"b{j}" for j in range(m))
    tab = VarTable(names, ext.weights + (Fraction(0),) * m, "s")
    ratios = {tab.pack((1,) + (0,) * (base.rank - 1) + (1,) + (0,) * m): (1, 1)}
    for j, (key, _, _, q) in enumerate(shape):
        ratios[tab.pack(ext.unpack(key) + tuple(int(i == j) for i in range(m)))] = (1, q)
    return MPoly._from_ratios(tab, ratios)


# ---------- nonexistence obstructions ----------

_E_PATTERNS = {
    # (alpha, beta) and the nonzero components of c^mu_{alpha,beta}
    6: (3, 3, {1: "-1/3*v3", 2: "-1/3*v5", 4: "-1/3*v6"}),
    7: (3, 4, {1: "-1/3*v2", 2: "-2/3*v4", 3: "-1/3*v5", 4: "-1*v6", 6: "-4/3*v7"}),
    8: (3, 3, {1: "-1/3*v3", 2: "-1/3*v5", 4: "-1/3*v7", 6: "-1/3*v8"}),
}


def _check_weight_sums(spec: CoxeterSpec, sums):
    """Each (label, value, printed) must match its printed value and
    exceed (3 - delta)/2, which kills the corresponding F° derivative:
    two outcomes per sum."""
    bound = Fraction(3 - spec.delta, 2)
    for label, value, printed in sums:
        yield value != printed and f"{label} != {printed}"
        yield value <= bound and f"{label} <= (3-delta)/2"


def _obstruction_de(spec: CoxeterSpec):
    """D_n and E6-E8: the one product phi_al*phi_be of the closed Milnor
    algebra, reduced to the basis, must be the pattern row c^mu_{al,be}
    for every mu, and the weight sums must rule the open terms out.  Only
    that product is reduced; no structure tensor is built.  The patterns
    are parsed over the algebra table, where coeffs leaves the row, and
    the unfolding's parameter weights must be the degree table's."""
    alg = build_closed_algebra(build_unfolding(spec.family, spec.n))
    tab = alg.table
    q = spec.q
    h = spec.h
    yield alg.unfolding.weights != q and "parameter weights disagree with the degree table"
    if spec.family == "D":
        n = spec.n
        al, be = 2, n
        comps = {1: f"-1/2*v{n}"}
        sums = [
            (f"q2+q{n}", q[1] + q[n - 1], Fraction(3 * n - 4, 2 * (n - 1))),
            (f"2*q{n}+1/h", 2 * q[n - 1] + Fraction(1, h), Fraction(2 * n + 1, 2 * (n - 1))),
        ]
    else:
        al, be, comps = _E_PATTERNS[spec.n]
        if spec.n == 6:
            sums = [("2*q3", 2 * q[2], Fraction(4, 3))]
        elif spec.n == 7:
            sums = [
                ("q3+q4", q[2] + q[3], Fraction(11, 9)),
                ("q2+q3+1/h", q[1] + q[2] + Fraction(1, h), Fraction(3, 2)),
                ("q2+q4+1/h", q[1] + q[3] + Fraction(1, h), Fraction(25, 18)),
            ]
        else:
            sums = [("2*q3", 2 * q[2], Fraction(4, 3))]
    row = alg.coeffs(alg.phi(al) * alg.phi(be))
    for mu in range(1, spec.rank + 1):
        want = parse(comps[mu], tab) if mu in comps else MPoly.zero(tab)
        yield row[mu - 1] != want and f"c^{mu}_({al},{be})"
    yield from _check_weight_sums(spec, sums)


def _obstruction_printed(spec: CoxeterSpec):
    """F4 and H4: on the printed potential, c^mu_{2,2} vanishes at t = 0
    and its t2-derivative is exactly delta^{mu,1}, while the weight of
    t2^2 rules the remaining open WDVV term out."""
    fs = coxeter_structure(spec)
    tab = fs.table
    _, _, raised = third_derivatives(fs.potential, fs.eta_inv, tab.names)
    for mu, c in enumerate(raised[(2, 2)], start=1):
        yield bool(c.constant_term()) and f"c^{mu}_(2,2) at t=0"
        want = MPoly.constant(tab, 1 if mu == 1 else 0)
        yield c.diff("t2") != want and f"dc^{mu}_(2,2)/dt2"
    yield from _check_weight_sums(spec, [("2*q2", 2 * spec.q[1], Fraction(4, 3))])


def _obstruction_h3():
    """H3: the unit and homogeneity conditions leave a 9-parameter space
    of candidate F° (_open_ansatz); d2/dt2^2 of eq2(2,3) has (t,s)-free
    part exactly 2, independently of the parameters, on the built H3."""
    fs = coxeter_structure("H3")
    fo = _open_ansatz(fs)
    tab = fo.table
    yield tab.arity != 4 + 9 and "candidate space dimension"
    left, right = open_wdvv_eq2(fs, fo, 2, 3)
    r = (left - right).diff("t2").diff("t2")
    free = r.collect(tab.names[:4]).get((0, 0, 0, 0), MPoly.zero(tab))
    yield free != MPoly.constant(tab, 2) and "residual constant"


def obstruction_check(group) -> Report:
    """Exact nonexistence evidence for the groups without polynomial
    open solutions; every subcheck is a polynomial or rational identity.
    The argument that applies yields one outcome per subcheck."""
    spec = _spec(group)
    if spec.family == "D" and spec.n >= 4 or spec.family == "E":
        outcomes = _obstruction_de(spec)
    elif spec.tag in ("F4", "H4"):
        outcomes = _obstruction_printed(spec)
    elif spec.tag == "H3":
        outcomes = _obstruction_h3()
    else:
        raise PolyError(f"no obstruction argument applies to {spec.tag}")
    return tally(f"obstruction({spec.tag})", outcomes)


# ---------- classification for I2(k) ----------


def classify_I2(k: int, free_coefficient=None) -> SolutionFamily:
    """Solve the open WDVV system for I2(k) over the homogeneous ansatz.

    Only one equation is not forced by the unit condition; its rows in
    (t2, s)-bidegree form a triangular system.  Odd k: the top
    coefficient is free and everything else follows linearly.  Even k:
    the top coefficient is fixed up to sign (the square root must be
    rational, otherwise there is no polynomial solution and that is
    reported as an error), the next row vanishes identically, one lower
    coefficient is free, and the rest follow linearly.  The free
    coefficient defaults to the generator's value, so the plus branch
    reproduces open_family exactly; other values land elsewhere on the
    lambda-orbit."""
    fam = open_family(coxeter_spec(f"I2({k})"))
    base = fam.base
    fact = math.factorial
    fo_sym = _open_ansatz(base)  # b_i <-> t2^i s^(k+1-2i)
    btab = fo_sym.table
    bnames = btab.names[3:]
    left, right = open_wdvv_eq2(base, fo_sym, 2, 2)
    E = left - right

    gen = fam.generator

    def gen_beta(i):
        j = k + 1 - 2 * i
        return gen.coefficient({"t2": i, "s": j}) * (fact(i) * fact(j))

    free_index = len(bnames) - (1 if k % 2 else 2)
    free = gen_beta(free_index) if free_coefficient is None else (
        free_coefficient
        if isinstance(free_coefficient, GaussianRational)
        else GaussianRational(rat(free_coefficient))
    )
    if k % 2 and not free:
        raise PolyError("the top coefficient of an odd family is nonzero")
    sol = {f"b{free_index}": free}

    def known_images():
        return {bn: MPoly.constant(btab, v) for bn, v in sol.items()}

    rows = E.collect(("t2", "s"))
    for i in range(k - 1):
        row = rows.get((k - 2 - i, 2 * i), MPoly.zero(btab))
        P = row.substitute(known_images(), btab)
        unknowns = [bn for bn in bnames if bn not in sol and P.depends_on(bn)]
        if not unknowns:
            if P:
                raise PolyError(f"inconsistent row {i} for I2({k})")
            continue
        if len(unknowns) > 1:
            raise PolyError(f"row {i} for I2({k}) is not triangular")
        bu = unknowns[0]
        # P = sum c[e] * bu^e, the c[e] constants
        c = {e: part.constant_term() for (e,), part in P.collect((bu,)).items()}
        deg = max(c)
        b = c.get(0, GaussianRational(0))
        if deg == 1:
            sol[bu] = -b / c[1]
        elif deg == 2 and 1 not in c:
            root = sqrt_coefficient(-b / c[2])
            want = gen_beta(int(bu[1:]))
            if want != root and want != -root:
                raise PolyError(f"branch value of {bu} disagrees with the generator")
            sol[bu] = want
        else:
            raise PolyError(f"row {i} for I2({k}) is not linear or a pure square")
    if len(sol) != len(bnames):
        raise PolyError(f"underdetermined system for I2({k})")
    if E.substitute(known_images(), btab):
        raise PolyError(f"solved coefficients for I2({k}) leave a residual")

    tab = extended_table(base)
    fo = fo_sym.substitute(
        {bn: MPoly.constant(tab, v) for bn, v in sol.items()}, tab
    )
    open_extension(base, fo)
    if free_coefficient is None and fo != gen:
        raise PolyError(f"classification of I2({k}) misses the generator")
    return SolutionFamily(
        fam.spec,
        base,
        fam.domain,
        fam.branches,
        fo,
        tuple(sol[bn] for bn in bnames),
    )
