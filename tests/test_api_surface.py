"""The public API has no name that nothing calls by accident: every
__all__ name and every public method of a library class is used by its
own module or another library module, or is one of the listed entry
points that only the tests and users call, each named in README with its
role."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "openwdvv"

# public names no library module uses, by module; a method as Class.name
UNCALLED = {
    ("exactalg", "MPoly.from_json"),
    ("milnor", "build_extended_algebra"),
    ("milnor", "check_confluence"),
    ("openext", "OpenExtension.vector_potential"),
    ("openext", "open_wdvv_equations"),
    ("openext", "rspin_convention_rescale"),
    ("saito", "metric_and_potential"),
    ("saito", "singularity_data"),
    ("saito", "verify_homogeneity"),
}


def _exported(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts]
    return []


def _methods(tree: ast.Module) -> list:
    """Class.name of every public method (properties too) of every public
    class the module defines."""
    return [
        f"{cls.name}.{f.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
    ]


def _references(tree: ast.Module) -> set:
    """Names the code mentions; docstrings and __all__ strings do not count."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _uncalled() -> set:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    refs = {mod: _references(tree) for mod, tree in trees.items()}
    return {
        (mod, name)
        for mod, tree in trees.items()
        for name in _exported(tree) + _methods(tree)
        if not any(name.split(".")[-1] in used for used in refs.values())
    }


def test_public_names_without_a_library_caller_are_the_listed_ones():
    assert _uncalled() == UNCALLED


def test_readme_names_every_uncalled_public_name():
    readme = (ROOT / "README.md").read_text()
    assert [name for _, name in sorted(UNCALLED) if f"`{name}`" not in readme] == []
