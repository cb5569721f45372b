"""Checks on the package source itself."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twoneg"


def test_no_assert_in_package():
    """`python -O` strips `assert`, so no check in the package, nor in the
    fixture generators under tools/, may be one."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    assert sources
    found = [f"{path.relative_to(ROOT)}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_permutation_search_in_package():
    """Canonical forms are found by refinement; the factorial search over
    `itertools.permutations` survives only as the oracle in tests/."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if ((isinstance(node, ast.Attribute) and node.attr == "permutations"
                 and isinstance(node.value, ast.Name) and node.value.id == "itertools")
                    or (isinstance(node, ast.ImportFrom) and node.module == "itertools"
                        and any(alias.name == "permutations" for alias in node.names))):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


def test_every_exported_name_resolves():
    """Each module's `__all__` names only what it defines, so `import *`
    cannot break when a function leaves the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        name = "twoneg" if path.stem == "__init__" else f"twoneg.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], name
        exec(f"from {name} import *", {})


def test_code_is_built_only_from_the_goal_source():
    """The source `algebra._program` generates for a goal is the only code
    the package builds at run time: the builtins `exec`, `eval` and
    `compile` are called nowhere else (`re.compile` is an attribute call
    and does not count)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        inside = {id(call): fn.name for fn in functions for call in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval", "compile")):
                found.append((path.stem, inside.get(id(node)), node.func.id))
    assert sorted(found) == [("algebra", "_program", "compile"),
                             ("algebra", "_program", "exec")]
