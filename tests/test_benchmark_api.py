"""The benchmark in perfbench/ calls the program by name; renaming or
deleting a public function it uses would break it without failing any
other test.  These tests read perfbench/*.py with `ast` and check that every
name it takes from the package still resolves."""

from __future__ import annotations

import ast
import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _module(short: str):
    return importlib.import_module(f"twoneg.{short}")


def _used_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for `from twoneg.m import name` and for `m.name` where
    `m` came from `from twoneg import m`."""
    tree = ast.parse(path.read_text(), str(path))
    modules: set[str] = set()
    used: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "twoneg":
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("twoneg."):
            used.update((node.module.split(".", 1)[1], alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add((node.value.id, node.attr))
    return used


def _spans_constant(name: str):
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"spans.py defines no {name}")


def test_perfbench_sources_found():
    assert {p.name for p in SOURCES} >= {"work.py", "spans.py", "record.py", "run.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_names_used_by_perfbench_resolve(path):
    for short, name in sorted(_used_names(path)):
        assert hasattr(_module(short), name), f"{path.name} uses twoneg.{short}.{name}"


def test_cached_functions_keep_their_caches():
    for short, name in _spans_constant("CACHED"):
        fn = getattr(_module(short), name, None)
        assert fn is not None, f"spans.CACHED names twoneg.{short}.{name}"
        assert hasattr(fn, "cache_info"), f"twoneg.{short}.{name} lost its cache"


def test_span_names_resolve():
    for module in _spans_constant("MODULES"):
        _module(module)
    for dotted in _spans_constant("BUSY") + _spans_constant("CALLS"):
        short, name = dotted.split(".")
        assert callable(getattr(_module(short), name, None)), f"spans reads {dotted}"


def test_every_proof_fixture_has_a_recorded_answer():
    """perfbench/gen.py puts every tests/fixtures/*.prf into the warm-validity
    pool, and a query without an answer in record.json fails every run."""
    answers = json.loads((PERFBENCH / "record.json").read_text())
    fixtures = sorted((PERFBENCH.parent / "tests" / "fixtures").glob("*.prf"))
    assert fixtures
    missing = [p.name for p in fixtures if f"proof|{p.name}" not in answers]
    assert missing == []
