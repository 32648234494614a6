"""Seeded request streams for the three workloads.

A request is the argv list handed to ``openwdvv.cli.main``.  Each workload
is a list of templates; a template fixes the verb and group and says which
free choices (output format, lambda, sign branch) the seed may make.  The
multiset of verbs and groups never depends on the seed, so the work in one
iteration is the same for every seed; only the choices and, for `session`,
the order of the groups move.

``domain(workload)`` enumerates every request a seed can produce, which is
what ``record.py`` runs to build the table of expected outputs.
"""

from __future__ import annotations

import itertools
import random

FORMATS = ("text", "json")
# Nonzero only: lambda = 0 is admissible for some groups and not others, and
# the exit code of an inadmissible lambda is due to change (see NOTES.md).
LAMBDAS = ("1", "2", "1/2", "-1/3", "3/2")
BRANCHES = ("plus", "minus")


def _t(argv: str, fmt=FORMATS, lam=False, branch=False, rc=0):
    """Template: argv words, allowed formats, lambda and branch freedom,
    and the exit code the request must return."""
    return (tuple(argv.split()), tuple(fmt), lam, branch, rc)


def _sweep():
    return [[[_t("verify all --max-rank 6")]]]


def _build():
    # Ranks are distinct, so no frobenius_structure result is reused.  For
    # each small group the seed picks the verb; all three build the whole
    # structure.  The order is fixed, smallest first: shuffling it would
    # only move garbage-collection work between requests.
    small = ("potential", "flat-coords", "invert-coords")
    return [
        [
            [_t(f"{verb} A 5") for verb in small],
            [_t(f"{verb} D 5") for verb in small],
            [_t(f"{verb} A 6") for verb in small],
            [_t(f"{verb} D 6") for verb in small],
            [_t("invert-coords A 8", fmt=("json",))],
            [_t("flat-coords D 8", fmt=("text",))],
            [_t("potential D 9", fmt=("text",))],
            [_t("potential A 10", fmt=("text",))],
        ]
    ]


def _session():
    # A user works through one group at a time, so each group's requests
    # stay together in the order below (the first builds the structure the
    # rest reuse) and the seed orders the groups.  Shuffling single
    # requests instead moved the first-touch builds between requests from
    # one iteration to the next, which moved p90 by a fifth.
    out = []
    for n in range(3, 8):
        g = f"A {n}"
        out.append([
            _t(f"potential {g}"),
            _t(f"open-potential {g}", lam=True),
            _t(f"verify wdvv {g}"),
            _t(f"verify open-wdvv {g}", lam=True),
            _t(f"verify extension {g}"),
            _t(f"verify foan {g}"),
            _t(f"verify vector {g}", lam=True),
            _t(f"correlators {g} --max-n 4"),
        ])
    for n in range(4, 8):
        g = f"D {n}"
        out.append([
            _t(f"potential {g}"),
            _t(f"open-potential {g}", lam=True),
            _t(f"verify wdvv {g}"),
            _t(f"verify open-wdvv {g}", lam=True),
            _t(f"verify extension {g}"),
            _t(f"verify extract {g}"),
            _t(f"verify omega {g}"),
            _t(f"verify vector {g}", lam=True),
        ])
    for k in range(3, 11):
        g = f"I2 {k}"
        even = k % 2 == 0
        out.append([
            _t(f"potential {g}"),
            _t(f"open-potential {g}", lam=True, branch=even),
            _t(f"verify open-wdvv {g}", lam=True, branch=even),
            _t(f"classify {g}", lam=True, branch=even),
        ])
    # Single requests, each a unit of its own.
    out += [[_t(f"obstruction {g}")] for g in ("E 6", "E 7", "E 8", "F 4", "H 3", "H 4")]
    out += [
        [_t("potential F 4")],
        [_t("potential H 4")],
        [_t("potential D 4 --source printed")],
        [_t("potential D 5 --source printed")],
        # Requests the library must refuse.
        [_t("verify open-wdvv F 4", rc=2)],
        [_t("potential E 6", rc=2)],
        [_t("verify extract A 4", rc=2)],
    ]
    return [[[t] for t in unit] for unit in out]


# Each workload is a list of units, a unit a list of slots that run in that
# order, and a slot the templates one request of an iteration is drawn
# from.  Only `session` shuffles its units.
WORKLOADS = {"sweep": _sweep, "build": _build, "session": _session}


def _lambda_words(lam: str) -> list:
    # argparse takes "-1/3" after a space for an option flag, so negative
    # values must be attached with "=" (see NOTES.md).
    return [f"--lambda={lam}"] if lam.startswith("-") else ["--lambda", lam]


def _render(tpl, fmt, lam, branch) -> tuple:
    words, _, _, _, rc = tpl
    argv = list(words)
    if lam is not None:
        argv += _lambda_words(lam)
    if branch is not None:
        argv += ["--branch", branch]
    argv += ["--format", fmt]
    return argv, rc


def _choose(slot, draws, iteration: int):
    """One request of a slot.  Each choice takes the option the seed drew,
    moved on by the iteration number, so the iterations of a run take the
    alternatives in turn."""

    def pick(options, u):
        return options[(int(u * len(options)) + iteration) % len(options)]

    u_tpl, u_fmt, u_lam, u_branch = draws
    tpl = pick(slot, u_tpl)
    _, fmts, lam, branch, _ = tpl
    return _render(
        tpl,
        pick(fmts, u_fmt),
        pick(LAMBDAS, u_lam) if lam else None,
        pick(BRANCHES, u_branch) if branch else None,
    )


def _expand(tpl):
    _, fmts, lam, branch, _ = tpl
    for fmt, lv, bv in itertools.product(
        fmts, LAMBDAS if lam else (None,), BRANCHES if branch else (None,)
    ):
        yield _render(tpl, fmt, lv, bv)


def requests(workload: str, seed: int, iteration: int) -> list:
    """The [(argv, expected exit code), ...] stream of one iteration.

    The seed draws a starting option for every choice, and iteration i
    takes the option i places on, so a run of a few iterations covers
    every format, branch and, nearly, every lambda of each request: the
    work of a run depends little on the seed.  On `session` each iteration
    also has its own order of units.  The same (seed, iteration) always
    gives the same stream.
    """
    rng = random.Random(f"{workload}:{seed}")
    units = [
        [_choose(slot, [rng.random() for _ in range(4)], iteration) for slot in unit]
        for unit in WORKLOADS[workload]()
    ]
    if workload == "session":
        random.Random(f"{workload}:{seed}:{iteration}").shuffle(units)
    return [req for unit in units for req in unit]


def domain(workload: str) -> list:
    """Every (argv, expected exit code) that requests() can produce."""
    return [
        req
        for unit in WORKLOADS[workload]()
        for slot in unit
        for t in slot
        for req in _expand(t)
    ]
