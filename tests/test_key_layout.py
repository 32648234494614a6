"""Only exactalg reads the packed exponent layout: no other library module
names the field constants, the Laurent bias, the packed-coefficient slots
of MPoly or the term renderer.  Other modules take keys from the public
VarTable queries (weighted_keys, pack, unpack) and hand them back to
exactalg unread."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "openwdvv"

LAYOUT = {
    "_WIDTH", "_FIELD", "_BIAS", "_TOP", "_one", "_field", "_num", "_den", "_im",
    "_render_term", "_biases", "_wnum", "_wden",
}


def _names(tree: ast.Module) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_only_exactalg_names_the_key_layout():
    found = {
        path.stem: sorted(_names(ast.parse(path.read_text())) & LAYOUT)
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "exactalg"
    }
    assert {mod: names for mod, names in found.items() if names} == {}

