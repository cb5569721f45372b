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


def test_every_exported_name_resolves():
    """Each module's `__all__` names only what it defines, so `import *`
    cannot break when a function leaves the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        name = "twoneg" if path.stem == "__init__" else f"twoneg.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], name
        exec(f"from {name} import *", {})
