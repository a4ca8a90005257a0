"""The scalar oracles stay independent of the package they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def _imported_modules(tree):
    """Every module an import statement or a dynamic import call names,
    relative imports as '.'-prefixed names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("__import__", "import_module") and node.args:
                arg = node.args[0]
                yield arg.value if isinstance(arg, ast.Constant) else "<dynamic>"


def test_oracles_import_nothing_from_the_package():
    modules = list(_imported_modules(ast.parse(ORACLES.read_text(), str(ORACLES))))
    assert "numpy" in modules
    offending = [
        m for m in modules
        if m.startswith(".") or m == "<dynamic>" or m.split(".")[0] == "rmab_dfl"
    ]
    assert not offending, f"tests/oracles.py imports {offending}"
