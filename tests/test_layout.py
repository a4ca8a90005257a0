"""The (N, P) shim of the dual layer stays inside dec_layer."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rmab_dfl"
SHIM = {"build_returns_table", "ReturnsTable", "forward_pass", "DualSolution"}
HOMES = {"dec_layer.py", "__init__.py"}


def _names(tree):
    """Every identifier a module binds, reads, imports or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            if node.asname:
                yield node.asname
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_only_dec_layer_names_the_shim():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {m.name for m in modules} >= HOMES | {"checks.py", "learning.py", "cli.py"}
    offending = {}
    for module in modules:
        named = SHIM.intersection(_names(ast.parse(module.read_text(), str(module))))
        if module.name not in HOMES and named:
            offending[module.name] = sorted(named)
    assert not offending, f"modules outside dec_layer name the (N, P) shim: {offending}"
