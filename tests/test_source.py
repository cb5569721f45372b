"""Checks on the package source itself."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from types import CodeType

from twoneg import algebra
from twoneg.formula import TOP, parse

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


def _product_names(path: Path) -> list[str | None]:
    """The function around each name of `product` in the module at `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    inside = {id(node): fn.name for fn in functions for node in ast.walk(fn)}
    return [inside.get(id(node)) for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "product")
            or (isinstance(node, ast.Name) and node.id == "product")
            or (isinstance(node, ast.alias) and node.name == "product")]


def test_no_valuation_product_in_the_algebra_searches():
    """An algebra's search runs as one compiled loop nest per goal: no
    function of `algebra.py` loops over `itertools.product` of valuations.
    `_program` alone names it, for the generated source of a goal of 20 or
    more atoms, whose atoms from the 20th on share the innermost loop
    (`tests/test_staged_search.py`)."""
    assert _product_names(PACKAGE / "algebra.py") == ["_program"]


def test_frames_name_no_product():
    """Frame truth sets and searches run the same loop nest as the algebra
    searches: `frames.py` names no `product` at all."""
    assert _product_names(PACKAGE / "frames.py") == []


def test_goal_source_defines_only_search():
    """`_program` compiles one form: the factory `make` defines `search`
    and nothing else, for either code, with no test, with each test and
    past 20 atoms."""
    many = parse(" | ".join(f"p{i}" for i in range(21)))
    cases = [((goal,), code, None) for goal in (TOP, parse("p & !q"), many)
             for code in (algebra._TABLE_CODE, algebra._UPSET_CODE)]
    cases += [((TOP, parse("p -> q"))[:k], code, test)
              for (code, k), test in algebra._TESTS.items()]
    for goals, code, test in cases:
        names = tuple(dict.fromkeys(n for g in goals for n in algebra.atoms(g)))
        make = algebra._program(goals, names, code, test)
        inner = [c for c in make.__code__.co_consts if isinstance(c, CodeType)]
        assert [c.co_name for c in inner] == ["search"], goals
        assert not any(isinstance(c, CodeType) for c in inner[0].co_consts), goals


def test_residuation_walk_is_called_only_by_ccpba_flags():
    """`algebra._residuation_witness` walks every (a, b) of an implication;
    `ccpba_flags` decides `is_pba` from the cached residuum and walks only
    to name a witness.  No other code of the package may name it: no call,
    import or alias elsewhere."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        inside = {id(node): fn.name for fn in functions for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Name) and node.id == "_residuation_witness")
                    or (isinstance(node, ast.Attribute) and node.attr == "_residuation_witness")
                    or (isinstance(node, ast.alias) and node.name == "_residuation_witness")):
                found.append((path.stem, inside.get(id(node))))
    assert found == [("algebra", "ccpba_flags")]


def test_only_lattice_builds_tables_from_an_order():
    """Meet, join and upset-lattice tables are built in `lattice.py` alone:
    no other module of the package calls `_bound_table` or defines
    `_upset_tables`; they read the order-keyed caches instead."""
    calls, defs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "_bound_table":
                    calls.append(path.stem)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "_upset_tables"):
                defs.append(path.stem)
    assert set(calls) == {"lattice"}
    assert defs == ["lattice"]


def test_catalog_views_are_not_read_by_the_package():
    """`all_lattices` and `all_posets` are views over the cached levels for
    tests, tools and the benchmark harness: no code of the package calls
    them.  The countermodel search walks the catalog's size sections and
    never names `enumerate_algebras`, which would build the whole catalog
    up to the bound first."""
    calls, named = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in ("all_lattices", "all_posets"):
                    calls.append(f"{path.stem}:{node.lineno}")
            elif name == "enumerate_algebras" and path.stem == "proofs":
                named.append(f"{path.stem}:{node.lineno}")
    assert calls == []
    assert named == []


def test_one_language_table():
    """What each target's language lacks, and the error kind a node of it
    raises, is stated once, in `algebra._LANGUAGES`, and read by the one
    walk `algebra._raise_first_error`.  No other code of the package spells
    those kinds, except the proof checker's own `wrong-language` for a goal
    outside a proof system; `frames.py` imports neither `subformulas` nor
    `Impl`; and the former algebra walk `_first_error` is gone."""
    kinds = {"implication-in-kim-language", "tilde-undefined", "wrong-language"}
    inside, outside, first_error = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        table = {id(node) for top in tree.body if isinstance(top, ast.Assign)
                 and any(getattr(t, "id", None) == "_LANGUAGES" for t in top.targets)
                 for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in kinds:
                (inside if id(node) in table else outside).append((path.stem, node.value))
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else None)
            if name == "_first_error":
                first_error.append(f"{path.stem}:{node.lineno}")
    assert sorted(inside) == [("algebra", k) for k in sorted(kinds)]
    assert {stem for stem, kind in outside} <= {"proofs"}
    assert {kind for stem, kind in outside} <= {"wrong-language"}
    assert first_error == []
    frames_tree = ast.parse((PACKAGE / "frames.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(frames_tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported.isdisjoint({"subformulas", "Impl", "Atom"})
    assert "_raise_first_error" in imported


def test_one_formula_parser():
    """`formula.parse` scans each text once and reads the token strings:
    the former tokenizer and its parser class survive only as the oracle
    in tests/ (`oracles.parse`), and no module of the package defines
    either, nor a second `parse` to fall back on."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name in ("_Parser", "_tokenize", "parse")):
                found.append((path.stem, node.name))
    assert found == [("formula", "parse")]
