"""Command line front end.

Examples:

    openwdvv potential D 4
    openwdvv open-potential I2 6 --lambda 1/2 --format json
    openwdvv flat-coords A 3
    openwdvv correlators A 4 --max-n 5
    openwdvv verify open-wdvv D 5
    openwdvv verify all --max-rank 5
    openwdvv classify I2 4 --branch minus
    openwdvv obstruction H 3

Groups are named by a family token and an integer, so 'I2 6' stands
for I2(6).  The groups each 'verify' identity takes:

    wdvv                every constructed group: A, B, D, I2, F4, H3, H4
    open-wdvv, vector   A, B, D and I2
    extension           A and D
    foan                A
    extract, omega      D

'verify all' takes no group; it sweeps those identities, the I2
classification and the obstructions over every group up to --max-rank
(the list is _sweep), through the builders the single requests use;
the parts of each group and branch read one set of tables (_verify_all).
Only open-wdvv and vector take --lambda and --branch, and only 'verify
all' takes --max-rank, from 1 to MAX_RANK (13); any other use of them
exits 2.  A member at a nonzero --lambda is verified through its
generator, the member at lambda = 1 (_member), so a group's open checks
read one set of open tables whatever --lambda each is given.

Exit status is 0 when every requested identity holds, 1 when a
verification or classification fails, and 2 for requests the library
cannot serve (unknown groups, inadmissible lambda, and so on).

main may be called any number of times in one process: the argument
parser is built on the first call and reused by every later one.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Callable
from functools import lru_cache

from .coxeter import (
    boundary_power,
    classify_I2,
    correlator_recursion_A,
    coxeter_spec,
    coxeter_structure,
    lambda_rescale,
    obstruction_check,
    open_family,
    potential_coxeter,
    printed_open_potential,
    printed_potential,
)
from .exactalg import GaussianRational, MPoly, ParseError, PolyError, Record, rat
from .openext import (
    check_coefw_lemma,
    check_dn_second_derivative_identity,
    check_foan_relation,
    extract_v_from_open_D,
    omega_sequence,
    open_extension,
    open_potential_A,
    open_potential_D,
    verify_extension_theorems,
    verify_open_wdvv,
    verify_vector_potential,
)
from .report import Report, merge, tally
from .saito import _flat_source, invert_coords, t_table, verify_wdvv


def _tag(family: str, n: int) -> str:
    return f"I2({n})" if family == "I2" else f"{family}{n}"


def _scalar(text: str) -> GaussianRational:
    if not re.fullmatch(r"-?\d+(/\d+)?", text.strip()):
        raise PolyError(f"not an integer or p/q rational: {text!r}")
    _, slash, den = text.strip().partition("/")
    if slash and not int(den):
        raise PolyError(f"zero denominator in {text!r}")
    return GaussianRational(rat(text.strip()))


def _scalar_text(c: GaussianRational) -> str:
    if not c.im:
        return str(c.re)
    re = "" if not c.re else f"{c.re}"
    im = f"{c.im}*i"
    if not re:
        return im
    return f"{re}+{im}" if str(c.im)[0] != "-" else f"{re}{im}"


def _scalar_json(c: GaussianRational) -> list:
    return [
        [int(c.re.numerator), int(c.re.denominator)],
        [int(c.im.numerator), int(c.im.denominator)],
    ]


def _poly_json(p: MPoly) -> dict:
    return json.loads(p.to_json())


def _emit_poly(p: MPoly, fmt: str) -> None:
    print(p.to_json() if fmt == "json" else p.text())


def _emit_report(rep: Report, fmt: str, parts=None) -> int:
    if fmt == "json":

        def fields(r: Report) -> dict:
            return {
                "label": r.label,
                "checked": r.checked,
                "failures": list(r.failures),
                "ok": r.ok,
            }

        obj = fields(rep)
        if parts is not None:
            obj["reports"] = [fields(r) for r in parts]
        print(json.dumps(obj, indent=2))
    else:
        if parts is not None:
            for r in parts:
                print(r.summary())
        print(rep.summary())
    return 0 if rep.ok else 1


# ---------- verb handlers ----------


def _cmd_potential(args) -> int:
    tag = _tag(args.family, args.n)
    p = printed_potential(tag) if args.source == "printed" else potential_coxeter(tag)
    _emit_poly(p, args.format)
    return 0


def _lambda_branch(args) -> tuple:
    """--lambda and --branch as given, or their defaults 1 and plus."""
    return ("1" if args.lam is None else args.lam), (args.branch or "plus")


def _cmd_open_potential(args) -> int:
    tag = _tag(args.family, args.n)
    lam_text, branch = _lambda_branch(args)
    lam = _scalar(lam_text)
    if args.source == "printed":
        if branch != "plus":
            raise PolyError("printed open potentials have no sign branch")
        p = lambda_rescale(printed_open_potential(tag), lam)
    else:
        p = _open_ext_for(args.family, args.n, lam, branch).potential
    _emit_poly(p, args.format)
    return 0


def _coords(args, forward: bool) -> int:
    if args.family not in ("A", "D"):
        raise PolyError("flat coordinates are constructed for A and D only")
    # only the coordinate change: no potential is built
    u, t_of_v = _flat_source(args.family, args.n)
    ttab = t_table(u.weights)
    if forward:
        pairs = list(zip(ttab.names, t_of_v))
    else:
        pairs = list(zip(t_of_v[0].table.names, invert_coords(t_of_v, ttab)))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "group": _tag(args.family, args.n),
                    "coords": [
                        {"name": nm, "expr": _poly_json(p)} for nm, p in pairs
                    ],
                },
                indent=2,
            )
        )
    else:
        for nm, p in pairs:
            print(f"{nm} = {p.text()}")
    return 0


def _cmd_correlators(args) -> int:
    if args.family != "A":
        raise PolyError("boundary correlators are computed for A only")
    table = correlator_recursion_A(args.n, args.max_n)
    items = sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0]))

    if args.format == "json":
        print(
            json.dumps(
                {
                    "group": _tag(args.family, args.n),
                    "entries": [
                        {
                            "insertions": list(t),
                            "boundary_power": boundary_power(args.n, t),
                            "value": [int(v.numerator), int(v.denominator)],
                        }
                        for t, v in items
                    ],
                },
                indent=2,
            )
        )
    else:
        for t, v in items:
            taus = " ".join(f"tau_{a}" for a in t)
            k = boundary_power(args.n, t)
            head = f"<{taus} sigma^{k}>" if taus else f"<sigma^{k}>"
            print(f"{head} = {v}")
    return 0


def _open_ext_for(family: str, n: int, lam, branch: str):
    if family == "D":
        if branch != "plus":
            raise PolyError(f"{_tag(family, n)} has no sign branch")
        ext = open_potential_D(n)
        if lam == 1:
            return ext
        return open_extension(ext.base, lambda_rescale(ext.potential, lam))
    return open_family(_tag(family, n)).extension(lam, branch)


# ---------- identities ----------
#
# Every builder takes (family, n, lam, branch) and returns one Report.  The
# builders name the library functions at call time, so wrappers installed
# on the module globals (tracing, for one) see every call.


def _wdvv(family, n, lam, branch) -> Report:
    return verify_wdvv(coxeter_structure(_tag(family, n)))


def _member(verify, family, n, lam, branch) -> Report:
    """verify's Report on the lambda-member of the family, read off its
    generator (the member at lambda = 1) when that passes.

    For lambda != 0, sigma: s -> lambda s is an automorphism of the ring
    of t and s (Laurent in s), and the member is lambda^-1 sigma(F°).  So
    o2 = d2F°/dt^a dt^b becomes lambda^([a=s] + [b=s] - 1) sigma(o2),
    Q(ab; g) becomes lambda^([g=s] - 1) sigma(Q) for a, b <= N, and L~_b
    becomes lambda^[b=s] D sigma(L~_b) D^-1 with D = diag(1, ..., 1,
    lambda^-1): each unit, homogeneity, eq1, eq2, compatibility and
    conformal row of the member holds exactly when the generator's does,
    under the same labels and counts.  A passing generator's Report is
    therefore the member's; a failing one, or lambda = 0 (no automorphism),
    verifies the member itself, so its failure labels are its own."""
    if lam:
        rep = verify(_open_ext_for(family, n, 1, branch))
        if rep.ok or lam == 1:
            return rep
    return verify(_open_ext_for(family, n, lam, branch))


def _open_wdvv(family, n, lam, branch) -> Report:
    return _member(verify_open_wdvv, family, n, lam, branch)


def _extension(family, n, lam, branch) -> Report:
    return verify_extension_theorems(family, n)


def _refusal(fn, *args):
    """The message of the PolyError fn(*args) raises, as a failure label,
    or False when it returns."""
    try:
        fn(*args)
    except PolyError as exc:
        return str(exc) or repr(exc)
    return False


def _foan(family, n, lam, branch) -> Report:
    ok = check_foan_relation(open_potential_A(n))
    return tally(f"foan(A{n})", [not ok and "s-derivative expansion"])


def _extract(family, n, lam, branch) -> Report:
    ext = open_potential_D(n)
    ok = extract_v_from_open_D(ext) == list(ext.base.v_of_t)
    return tally(f"extract(D{n})", [not ok and "recovered v(t)"])


def _vector(family, n, lam, branch) -> Report:
    return _member(verify_vector_potential, family, n, lam, branch)


def _omega(family, n, lam, branch) -> Report:
    return tally(f"omega(D{n})", [
        _refusal(omega_sequence, n, 2 * n),
        not check_coefw_lemma(n) and "boundary coefficient expansion",
        not check_dn_second_derivative_identity(n) and "second-derivative reduction",
    ])


def _classification(family, n, lam, branch) -> Report:
    return tally(f"classification(I2({n}))", [_refusal(classify_I2, n)])


def _obstruction(family, n, lam, branch) -> Report:
    return obstruction_check(_tag(family, n))


class _Identity(Record):
    build: Callable  # (family, n, lam, branch) -> Report
    families: tuple | None = None  # None: the library refuses what it lacks
    refusal: str = ""  # the error for a family outside families
    choice: bool = True  # a 'verify' choice, not only a part of 'verify all'
    member: bool = False  # takes --lambda and --branch (an open family member)


_CHECKS = {
    "wdvv": _Identity(_wdvv),
    "open-wdvv": _Identity(_open_wdvv, member=True),
    "extension": _Identity(_extension),
    "foan": _Identity(_foan, ("A",), "the s-derivative expansion is an A identity"),
    "extract": _Identity(_extract, ("D",), "coordinate recovery is a D identity"),
    "vector": _Identity(_vector, member=True),
    "omega": _Identity(_omega, ("D",), "the omega identities are D identities"),
    # reached from the command line by 'classify' and 'obstruction'
    "classification": _Identity(_classification, choice=False),
    "obstruction": _Identity(_obstruction, choice=False),
}

_IDENTITIES = (*(k for k, c in _CHECKS.items() if c.choice), "all")

_PRINTED = (("F", 4), ("H", 3), ("H", 4))  # swept whatever the rank bound

# Largest 'verify all --max-rank'.  From the command line (median of three)
# rank 12 takes 1.95 s at 32 MB peak RSS and rank 13 4.6 s at 43 MB, well
# within a minute; the bound is kept until it is measured again past rank
# 13, where the sweeps without certificates took 199 s at 827 MB (rank 14).
MAX_RANK = 13


def _sweep(max_rank: int):
    """Every part of 'verify all', in order, as (identity, family, n, branch)."""

    def ranks(lo):
        return range(lo, max_rank + 1)

    for family, lo in (("A", 1), ("D", 3), ("B", 2)):
        for n in ranks(lo):
            yield "wdvv", family, n, "plus"
    for k in range(3, 9):
        yield "wdvv", "I2", k, "plus"
    for family, n in _PRINTED:
        yield "wdvv", family, n, "plus"
    for n in ranks(1):
        for ident in ("open-wdvv", "extension", "foan", "vector"):
            yield ident, "A", n, "plus"
    for n in ranks(3):
        for ident in ("open-wdvv", "extension", "extract", "vector", "omega"):
            yield ident, "D", n, "plus"
    for n in ranks(2):
        yield "open-wdvv", "B", n, "plus"
    for k in range(3, 9):
        for branch in open_family(f"I2({k})").branches:
            yield "open-wdvv", "I2", k, branch
        yield "classification", "I2", k, "plus"
    for n in ranks(4):
        yield "obstruction", "D", n, "plus"
    for n in range(6, min(max_rank, 8) + 1):
        yield "obstruction", "E", n, "plus"
    for family, n in _PRINTED:
        yield "obstruction", family, n, "plus"


# The parts of a group that read one set of tables, in the order its step
# runs them: the extension check's pullback ends before any table.
_SHARED_PARTS = ("extension", "wdvv", "open-wdvv", "vector")


def _verify_all(max_rank: int) -> list:
    """The Reports of 'verify all', in _sweep's order.  The _SHARED_PARTS
    of each group and branch run as one step, each through its builder,
    so each part reads the tables that saito._shared kept of the part
    before (the open-wdvv part of B_n or I2(k) reads the closed tables and
    certificate of its wdvv part).  The step runs where the sweep reaches
    the group's last shared part, so that what its parts cache is built no
    earlier than there."""
    plan = list(_sweep(max_rank))
    groups = {}
    for part in plan:
        ident, family, n, branch = part
        if ident in _SHARED_PARTS:
            groups.setdefault((family, n, branch), []).append(part)
    one = GaussianRational(1)
    done = {}
    for part in plan:
        ident, family, n, branch = part
        group = groups.get((family, n, branch), ())
        if part not in group:
            done[part] = _CHECKS[ident].build(family, n, one, branch)
        elif part == group[-1]:
            for shared in sorted(group, key=lambda p: _SHARED_PARTS.index(p[0])):
                done[shared] = _CHECKS[shared[0]].build(family, n, one, branch)
    return [done[part] for part in plan]


def _cmd_verify(args) -> int:
    if args.identity == "all":
        takes = {"--max-rank"}
    elif _CHECKS[args.identity].member:
        takes = {"--lambda", "--branch"}
    else:
        takes = set()
    given = {
        flag
        for flag, value in (
            ("--lambda", args.lam),
            ("--branch", args.branch),
            ("--max-rank", args.max_rank),
        )
        if value is not None
    }
    if given - takes:
        unused = ", ".join(sorted(given - takes))
        raise PolyError(f"verify {args.identity} does not take {unused}")
    if args.identity == "all":
        max_rank = 5 if args.max_rank is None else args.max_rank
        if args.family is not None:
            raise PolyError("verify all takes no group; bound it with --max-rank")
        if not 1 <= max_rank <= MAX_RANK:
            raise PolyError(f"--max-rank must be between 1 and {MAX_RANK}, not {max_rank}")
        parts = _verify_all(max_rank)
        rep = merge(f"all(max_rank={max_rank})", parts)
        return _emit_report(rep, args.format, parts)
    if args.family is None or args.n is None:
        raise PolyError(f"verify {args.identity} needs a group")
    lam, branch = _lambda_branch(args)
    check = _CHECKS[args.identity]
    if check.families is not None and args.family not in check.families:
        raise PolyError(check.refusal)
    rep = check.build(args.family, args.n, _scalar(lam), branch)
    return _emit_report(rep, args.format)


def _cmd_classify(args) -> int:
    if args.family != "I2":
        raise PolyError("the classification verb covers I2 only")
    coxeter_spec(_tag(args.family, args.n))  # an unknown group exits 2, not 1
    lam_text, branch = _lambda_branch(args)
    lam = _scalar(lam_text)
    open_family(_tag(args.family, args.n))  # cached; an unbuildable group exits 2
    try:
        fam = classify_I2(args.n)
    except PolyError as exc:
        print(f"classification failed: {exc}", file=sys.stderr)
        return 1
    member = fam.member(lam, branch)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "group": fam.spec.tag,
                    "domain": fam.domain,
                    "branches": list(fam.branches),
                    "coefficients": [_scalar_json(c) for c in fam.coefficients],
                    "lambda": lam_text,
                    "branch": branch,
                    "member": _poly_json(member),
                },
                indent=2,
            )
        )
    else:
        print(f"group: {fam.spec.tag}")
        print(f"lambda domain: {fam.domain}")
        print(f"branches: {' '.join(fam.branches)}")
        for i, c in enumerate(fam.coefficients):
            print(f"beta_{i} = {_scalar_text(c)}")
        print(f"member(lambda={lam_text}, {branch}) = {member.text()}")
    return 0


def _cmd_obstruction(args) -> int:
    return _emit_report(obstruction_check(_tag(args.family, args.n)), args.format)


# ---------- argument wiring ----------


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json"), default="text", help="output form"
    )
    lam = argparse.ArgumentParser(add_help=False)
    lam.add_argument(
        "--lambda",
        dest="lam",
        metavar="P/Q",
        help="rescaling parameter, a rational like 2 or 1/2 (default 1); "
        "attach a negative one with '=', as in --lambda=-1/3",
    )
    lam.add_argument(
        "--branch", choices=("plus", "minus"), help="sign branch (default plus)"
    )

    p = argparse.ArgumentParser(
        prog="openwdvv",
        description="exact potentials, open extensions and identity checks "
        "for the Coxeter families",
    )
    sub = p.add_subparsers(dest="verb", required=True, metavar="verb")

    def group_args(sp, optional=False):
        kw = {"nargs": "?", "default": None} if optional else {}
        sp.add_argument("family", help="A, B, D, E, F, H or I2", **kw)
        sp.add_argument("n", type=int, help="rank subscript (the k of I2)", **kw)

    sp = sub.add_parser("potential", parents=[fmt], help="closed potential")
    group_args(sp)
    sp.add_argument("--source", choices=("auto", "printed"), default="auto")
    sp.set_defaults(fn=_cmd_potential)

    sp = sub.add_parser("open-potential", parents=[fmt, lam], help="open potential")
    group_args(sp)
    sp.add_argument("--source", choices=("auto", "printed"), default="auto")
    sp.set_defaults(fn=_cmd_open_potential)

    sp = sub.add_parser("flat-coords", parents=[fmt], help="t as polynomials in v")
    group_args(sp)
    sp.set_defaults(fn=lambda a: _coords(a, True))

    sp = sub.add_parser("invert-coords", parents=[fmt], help="v as polynomials in t")
    group_args(sp)
    sp.set_defaults(fn=lambda a: _coords(a, False))

    sp = sub.add_parser("correlators", parents=[fmt], help="boundary correlators")
    group_args(sp)
    sp.add_argument("--max-n", type=int, default=5, help="largest insertion count")
    sp.set_defaults(fn=_cmd_correlators)

    sp = sub.add_parser("verify", parents=[fmt, lam], help="run identity sweeps")
    sp.add_argument("identity", choices=_IDENTITIES)
    group_args(sp, optional=True)
    sp.add_argument(
        "--max-rank", type=int,
        help=f"rank bound for 'verify all' (default 5, at most {MAX_RANK})",
    )
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser(
        "classify", parents=[fmt, lam], help="solve the open system for I2"
    )
    group_args(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser(
        "obstruction", parents=[fmt], help="nonexistence checks for a group"
    )
    group_args(sp)
    sp.set_defaults(fn=_cmd_obstruction)

    return p


def main(argv=None) -> int:
    """Serve one request (sys.argv[1:] when argv is None); return its exit status.

    --help and argument usage errors raise SystemExit, as argparse does.
    main may be called any number of times in one process.  The parser is
    built on the first call and reused: parse_args leaves it unchanged and
    returns a new namespace, so no option carries over to a later request.
    """
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PolyError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
