"""Pass/fail reports for identity sweeps."""

from __future__ import annotations

from .exactalg import Record


class Report(Record):
    """Outcome of one exact verification sweep.

    checked is the number of identities the sweep covers, counted by
    tally, whether compared one by one or decided by a verdict; failures
    holds one short label per violated identity, e.g. an index quadruple
    plus the first offending monomial.
    """

    label: str
    checked: int
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return f"{self.label}: pass ({self.checked} identities)"
        head = "; ".join(self.failures[:3])
        more = "" if len(self.failures) <= 3 else f" (+{len(self.failures) - 3} more)"
        return f"{self.label}: FAIL {len(self.failures)}/{self.checked}: {head}{more}"


def tally(label: str, outcomes) -> Report:
    """The Report of a sweep that yields one outcome per identity it
    covers: a false value when the identity holds, its failure label
    when it does not.  Sweeps write `left != right and label`, so a label
    is formatted only for an identity that fails."""
    checked = 0
    failures = []
    for outcome in outcomes:
        checked += 1
        if outcome:
            failures.append(outcome)
    return Report(label, checked, tuple(failures))


def merge(label: str, reports) -> Report:
    """Fold several reports into one."""
    reports = list(reports)
    checked = sum(r.checked for r in reports)
    failures = []
    for r in reports:
        failures.extend(f"{r.label}: {f}" for f in r.failures)
    return Report(label, checked, tuple(failures))
