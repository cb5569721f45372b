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
    and nothing else, for either row, with no test, with each test and
    past 20 atoms."""
    many = parse(" | ".join(f"p{i}" for i in range(21)))
    rows = (algebra._TABLES, algebra._UPSETS)
    cases = [((goal,), row, None) for goal in (TOP, parse("p & !q"), many) for row in rows]
    cases += [((TOP, parse("p -> q"))[:k], row, test)
              for row in rows for k, test in row[1].items()]
    for goals, row, test in cases:
        names = tuple(dict.fromkeys(n for g in goals for n in algebra.atoms(g)))
        make = algebra._program(goals, names, row, test)
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


def test_one_transpose_and_one_set_order():
    """The mask transpose (down-sets from up-sets, `sigma` from prime
    filters, a world's upsets from upset masks) and the set order
    (cardinality, then elements) are each defined once, in `lattice.py`;
    the former `_down` and `bridge._holders` are gone."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in ("_down", "_holders", "_transpose", "_set_order")):
                found.append((path.stem, node.name))
    assert sorted(found) == [("lattice", "_set_order"), ("lattice", "_transpose")]


def test_no_kind_switches():
    """A K_im-algebra is the implication-free reduct of a ccpBa and reads
    `impl` and `tilde_one` as None, so `algebra.py` and `bridge.py` test
    `alg.impl is None` instead of asking `isinstance` for `Algebra` or
    `KimAlgebra`.  The Kim laws have one gate, `algebra.build_kim`: `bridge`
    names neither `kim_violations` nor the former `_require_kim`.  A
    Hilbert goal f is searched as `top |- f`, so `proofs` no longer names
    `algebra_valid`."""
    trees = {stem: ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
             for stem in ("algebra", "bridge", "proofs")}

    def names(stem):
        return {node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name for node in ast.walk(trees[stem])
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias, ast.FunctionDef))}

    switches = [f"{stem}:{node.lineno}" for stem in ("algebra", "bridge")
                for node in ast.walk(trees[stem])
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and {getattr(n, "id", None) for n in ast.walk(node.args[1])}
                & {"Algebra", "KimAlgebra"}]
    assert switches == []
    assert names("bridge").isdisjoint({"kim_violations", "_require_kim"})
    assert "algebra_valid" not in names("proofs")


def _cache_bounds() -> str:
    """The README "Cache bounds" note, up to the next note."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("* **Cache bounds.**")
    return text[start:text.index("\n* **", start)]


_WRITES = {"__setitem__", "add", "append", "extend", "insert", "setdefault", "update"}


def _module_memos(path: Path) -> set[str]:
    """The module-level names bound to a dict, list or set that a top-level
    function, or a closure inside one, writes into."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    containers = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(node.value, (ast.Dict, ast.List, ast.Set))
                or isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) in ("dict", "list", "set")):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            containers.update(t.id for t in targets if isinstance(t, ast.Name))
    written = set()
    for fn in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                written.add(node.value)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _WRITES):
                written.add(node.func.value)
    return {node.id for node in written if isinstance(node, ast.Name)} & containers


def test_every_cache_is_documented():
    """Every cache the package keeps past a call is named in README "Cache
    bounds" as `module.name`: each module-level function with a
    `cache_clear` (an `lru_cache`, or `algebra._plan` with its memo), save
    one that only carries another's, and each module-level memo
    (`_module_memos`)."""
    named = _cache_bounds()
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"twoneg.{path.stem}")
        values = list(vars(module).values())
        for name, obj in vars(module).items():
            owner = getattr(getattr(obj, "cache_info", None), "__self__", obj)
            if (getattr(obj, "__module__", None) == module.__name__ and hasattr(obj, "cache_clear")
                    and (owner is obj or not any(owner is v for v in values))):
                found.append(f"{path.stem}.{name}")
        found += [f"{path.stem}.{name}" for name in _module_memos(path)]
    assert sorted(name for name in found if f"`{name}`" not in named) == []


def test_only_the_frame_search_memoizes_clauses():
    """`frames._no_successor_in` is a plain clause: it holds no dict or set
    and has no cache, so `bridge`'s complex algebra and (D)/(3) keep
    nothing.  The memo a search reads its clauses through, `_Answers`, is
    made inside `frames._bind` alone, per search, never at module level."""
    kept, made = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        inside = {id(node): fn.name for fn in functions for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_no_successor_in":
                kept += [f"{path.stem}:{n.lineno}" for n in ast.walk(node)
                         if isinstance(n, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp))
                         or isinstance(n, ast.Call)
                         and getattr(n.func, "id", None) in ("dict", "set")]
                kept += [f"{path.stem}:{d.lineno}" for d in node.decorator_list]
            elif isinstance(node, ast.Call) and "_Answers" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                made.append((path.stem, inside.get(id(node))))
    assert kept == []
    assert made and set(made) == {("frames", "_bind")}


def test_test_helpers_are_defined_once():
    """The formula strategy, the outcome of a call and its comparison live
    in `tests/support.py` and the `fork` frame fixture in
    `tests/conftest.py`; no test module defines its own, save the parser
    tests' deeper round-trip strategy and their `_outcome`, which also
    reads the expected token set."""
    helpers = {"formulas", "_formulas", "outcome", "_outcome", "same", "_same", "fork"}
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defined = [node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        defined += [t.id for node in tree.body if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)]
        found += [(path.stem, name) for name in defined if name in helpers]
    assert sorted(found) == [("conftest", "fork"), ("support", "formulas"),
                             ("support", "outcome"), ("support", "same"),
                             ("test_formula", "_outcome"), ("test_formula", "formulas")]


def test_every_import_is_used():
    """No module of the package, the tests or the tools imports a name it
    never reads, save the names it exports in `__all__` and the `from
    __future__` switches."""
    paths = [path for where in (PACKAGE, ROOT / "tests", ROOT / "tools")
             for path in sorted(where.glob("*.py"))]
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
                found += [f"{path.relative_to(ROOT)}:{name}" for name in bound
                          if name not in read and name not in exported]
    assert found == []
