"""The immutable records and the import they cost.

Every structure of the library (VarTable, Report, the unfoldings, tensors,
Frobenius structures, open extensions, omega sequences, Coxeter specs and
solution families, and the CLI's identity table) is an exactalg.Record.
These tests pin the record semantics callers rely on (construction,
defaults, equality and hash by value within one class, immutability,
repr, and replace), and guard the cold start of the command line: no
library module imports dataclasses, inspect or typing, and a bare
interpreter that imports openwdvv.cli loads none of them, nor
importlib.resources."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from openwdvv import cli
from openwdvv.coxeter import coxeter_spec, open_family
from openwdvv.exactalg import MPoly, PolyError, Record, VarTable, replace
from openwdvv.milnor import StructureTensor, build_unfolding
from openwdvv.openext import omega_sequence, open_potential_A
from openwdvv.report import Report
from openwdvv.saito import frobenius_structure

SRC = Path(__file__).resolve().parents[1] / "src"
COSTLY = ("dataclasses", "inspect", "typing")


def _tensor():
    tab = VarTable(("v1", "v2"))
    one, zero = MPoly.constant(tab, 1), MPoly.zero(tab)
    return StructureTensor(tab, (((one, zero), (zero, one)), ((zero, one), (one, zero))), 2)


# (factory, field order); each factory returns a valid record
RECORDS = {
    "VarTable": (lambda: VarTable(("x", "s"), (1, 2), "s"), ("names", "weights", "laurent")),
    "Report": (lambda: Report("demo", 2, ("broken",)), ("label", "checked", "failures")),
    "Unfolding": (
        lambda: build_unfolding("A", 3),
        ("family", "n", "rank", "table", "poly", "basis", "l"),
    ),
    "StructureTensor": (_tensor, ("table", "entries", "l")),
    "FrobeniusStructure": (
        lambda: frobenius_structure("A", 3),
        ("label", "rank", "table", "delta", "eta", "eta_inv", "potential",
         "v_table", "t_of_v", "v_of_t"),
    ),
    "OpenExtension": (lambda: open_potential_A(3), ("base", "table", "potential")),
    "OmegaSequence": (lambda: omega_sequence(4, 3), ("n", "table", "omegas")),
    "CoxeterSpec": (lambda: coxeter_spec("B3"), ("tag", "family", "n", "rank", "degrees")),
    "SolutionFamily": (
        lambda: open_family("I2(5)"),
        ("spec", "base", "domain", "branches", "generator", "coefficients"),
    ),
    "_Identity": (
        lambda: cli._CHECKS["omega"],
        ("build", "families", "refusal", "choice", "member"),
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    make, fields = RECORDS[request.param]
    rec = make()
    assert type(rec).__name__ == request.param and isinstance(rec, Record)
    return rec, fields


class TestRecordSemantics:
    def test_built_by_position_and_by_keyword_alike(self, record):
        rec, fields = record
        values = [getattr(rec, f) for f in fields]
        by_position = type(rec)(*values)
        by_keyword = type(rec)(**dict(zip(fields, values)))
        assert by_position == by_keyword == rec
        assert by_position is not rec

    def test_equal_by_value_with_one_hash(self, record):
        rec, _ = record
        copy = replace(rec)
        assert copy is not rec
        assert copy == rec and not copy != rec
        assert hash(copy) == hash(rec)
        assert len({rec, copy}) == 1

    def test_never_equal_to_a_tuple_or_another_record_class(self, record):
        rec, fields = record
        values = tuple(getattr(rec, f) for f in fields)
        twin_class = type("Twin", (Record,), {"__annotations__": dict.fromkeys(fields)})
        twin = twin_class(*values)
        assert rec != values and values != rec
        assert rec != twin and twin != rec
        assert twin == twin_class(*values)

    def test_assignment_and_deletion_raise(self, record):
        rec, fields = record
        for name in (fields[0], "undeclared"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, fields[0])
        assert getattr(rec, fields[0]) is not None

    def test_repr_names_every_field_in_order(self, record):
        rec, fields = record
        body = ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields)
        assert repr(rec) == f"{type(rec).__name__}({body})"

    def test_replace_changes_one_field_in_a_new_record(self, record):
        rec, fields = record
        last = fields[-1]
        changed = replace(rec, **{last: None})
        assert changed is not rec and getattr(changed, last) is None
        assert all(getattr(changed, f) is getattr(rec, f) for f in fields[:-1])
        with pytest.raises(TypeError):
            replace(rec, undeclared=1)

    def test_defaults_apply(self):
        tab = VarTable(("x",))
        assert (tab.weights, tab.laurent) == (None, None)
        assert Report("demo", 0).failures == ()
        assert cli._CHECKS["wdvv"] == cli._Identity(cli._wdvv, None, "", True, False)
        fs = frobenius_structure("A", 2)
        bare = type(fs)(*(getattr(fs, f) for f in RECORDS["FrobeniusStructure"][1][:7]))
        assert (bare.v_table, bare.t_of_v, bare.v_of_t) == (None, None, None)
        fam = open_family("I2(5)")
        assert replace(fam).coefficients is None
        assert repr(Report("demo", 2)) == "Report(label='demo', checked=2, failures=())"

    def test_replace_runs_the_validation_again(self):
        tab = VarTable(("x", "y"), (1, 2))
        with pytest.raises(PolyError):
            replace(tab, names=("x", "x"))
        with pytest.raises(PolyError):
            replace(tab, weights=(1,))
        moved = replace(tab, laurent="y")
        assert moved.laurent_index == 1 and tab.laurent_index is None


def _imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


class TestColdStart:
    def test_no_module_imports_dataclasses_inspect_or_typing(self):
        found = sorted(
            (path.name, name)
            for path in (SRC / "openwdvv").glob("*.py")
            for name in _imports(ast.parse(path.read_text()))
            if name.split(".")[0] in COSTLY
        )
        assert found == []

    def test_bare_interpreter_import_loads_none_of_them(self):
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); import openwdvv.cli; "
            "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe, str(SRC), *COSTLY, "importlib.resources"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""
