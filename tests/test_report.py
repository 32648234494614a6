"""report.tally, the one ledger of the identity sweeps."""

import ast
from pathlib import Path

import openwdvv
from openwdvv.report import Report, tally

SRC = Path(openwdvv.__file__).parent


class TestTally:
    def test_no_outcomes(self):
        assert tally("empty", []) == Report("empty", 0, ())
        assert tally("empty", iter(())).ok

    def test_false_values_pass(self):
        assert tally("sweep", [False, "", None]) == Report("sweep", 3, ())

    def test_failures_keep_their_order(self):
        got = tally("sweep", (x for x in [False, "b", None, "a", "", "c"]))
        assert got == Report("sweep", 6, ("b", "a", "c"))
        assert got.summary() == "sweep: FAIL 3/6: b; a; c"


def report_calls(path: Path) -> list:
    """Line numbers of the calls of Report (by name or attribute) in path."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "Report"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "Report"
        )
    ]


def test_only_report_builds_reports():
    # every sweep yields its outcomes to tally, which alone counts them
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"saito.py", "openext.py", "cli.py"}
    found = {
        p.name: lines
        for p in modules
        if p.name != "report.py" and (lines := report_calls(p))
    }
    assert found == {}
    assert report_calls(SRC / "report.py")  # the guard sees a call where one is
