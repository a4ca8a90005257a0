"""The names only the benchmark calls stay in the modules that define them.

Ten names serve only perfbench/: dec_layer's (N, P) shim and the one-arm
and joint-policy wrappers of mdp and planning. Each may appear only in
the module that defines it (planning's WhittleTopB holds mdp's
WhittleTable), never in the package root, and in no test file but
tests/test_perfbench_contract.py, so that removing them deletes their
definitions and that file, and nothing else.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "rmab_dfl"
SHIM = {"build_returns_table", "ReturnsTable", "forward_pass", "DualSolution"}
WRAPPERS = {
    "TransitionTensor": {"mdp.py"},
    "WhittleTable": {"mdp.py", "planning.py"},
    "whittle_index": {"mdp.py"},
    "WhittleTopB": {"planning.py"},
    "FixedPerArmPolicy": {"planning.py"},
    "simulate_joint": {"planning.py"},
}
CONTRACT = "test_perfbench_contract.py"


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


def _offenders(paths, names, allowed=lambda name: ()) -> dict[str, list[str]]:
    """{file: the names it may not name} for each file that names one; a
    file may name `name` if it is in allowed(name)."""
    offending = {}
    for path in paths:
        named = set(_names(ast.parse(path.read_text(), str(path))))
        if found := sorted(n for n in names & named if path.name not in allowed(n)):
            offending[path.name] = found
    return offending


def test_only_dec_layer_names_the_shim():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {m.name for m in modules} >= {"__init__.py", "dec_layer.py", "checks.py", "cli.py"}
    offending = _offenders(modules, SHIM, lambda name: {"dec_layer.py"})
    assert not offending, f"modules outside dec_layer name the (N, P) shim: {offending}"


def test_only_their_modules_name_the_wrappers():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {m.name for m in modules} >= {"__init__.py", "mdp.py", "planning.py", "learning.py"}
    offending = _offenders(modules, WRAPPERS.keys(), WRAPPERS.get)
    assert not offending, f"modules name another module's wrapper: {offending}"


def test_only_the_contract_tests_name_them():
    tests = sorted(TESTS.glob("*.py"))
    offending = _offenders([t for t in tests if t.name != CONTRACT], SHIM | WRAPPERS.keys())
    assert not offending, f"test files outside {CONTRACT} name them: {offending}"
    assert CONTRACT in {t.name for t in tests}
