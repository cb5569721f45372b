#!/usr/bin/env python3
"""Run the named source mutations of a catalogue against the tests meant to
catch them.

Each entry of the catalogue (a JSON list, by default tools/mutants.json)
names one exact edit and the tests that should fail under it:

    {"name": ..., "why": ..., "file": "src/twoneg/frames.py", "old": ...,
     "new": ..., "tests": ["tests/test_frame_evaluator.py::test_...", ...]}

`why`, the fault the edit stands for, is for the reader and optional.

For each entry the tool copies `src/`, `tests/` and `tools/` (and
`pyproject.toml`, for the pytest settings) into a fresh temporary
directory, applies the edit there when `old` occurs exactly once in the
file, and runs `python -m pytest` on the listed tests with that copy's
`src/` first on the import path.  It never writes to the tree it reads.
Each entry is reported on one line as

* `caught`: pytest exited non-zero: a test failed, the mutated code did not
  import (pytest exits 4 when `conftest.py` cannot import it), or the run
  took longer than TIMEOUT seconds;
* `survived`: the tests passed with the mutation in place;
* `stale`: `old` does not occur exactly once, or pytest collected no test
  (exit 5), so the entry no longer describes the code.

Before the mutations, the union of all listed tests runs once on an
unmutated copy, so every listed test exists and passes; if that run fails,
nothing is reported as caught and the exit code is 2.  Otherwise the exit
code is 1 when any entry survived or is stale, else 0.  Standard library
and pytest only:

    python tools/mutants.py                    # the whole catalogue
    python tools/mutants.py --catalogue other.json --root path/to/repo
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools")
FIELDS = ("name", "file", "old", "new", "tests")
TIMEOUT = 600.0  # seconds allowed to one pytest run


def load(path: Path) -> list[dict]:
    """The catalogue at `path`; an entry missing a field, or a name given
    twice, is an error, not a mutation to skip."""
    entries = json.loads(path.read_text(encoding="utf-8"))
    names = set()
    for entry in entries:
        missing = [f for f in FIELDS if f not in entry]
        if missing or not entry["tests"] or entry["name"] in names:
            raise SystemExit(f"{path}: bad entry {entry.get('name')!r}"
                             f" (missing {missing}, or no tests, or a repeated name)")
        names.add(entry["name"])
    return entries


def copy_tree(root: Path, into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", "out")
    for name in COPIED:
        shutil.copytree(root / name, into / name, ignore=ignore)
    if (root / "pyproject.toml").exists():
        shutil.copy(root / "pyproject.toml", into / "pyproject.toml")


def run_tests(where: Path, tests: list[str]) -> int | None:
    """pytest's exit code on `tests` in the copy at `where`, None on timeout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(where / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(argv, cwd=where, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def verdict(entry: dict, root: Path) -> tuple[str, str]:
    """(outcome, detail) of one entry, run in its own temporary copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        where = Path(tmp)
        copy_tree(root, where)
        target = where / entry["file"]
        if not target.is_file():
            return "stale", f"no file {entry['file']}"
        text = target.read_text(encoding="utf-8")
        found = text.count(entry["old"])
        if found != 1:
            return "stale", f"old text found {found} times in {entry['file']}"
        target.write_text(text.replace(entry["old"], entry["new"]), encoding="utf-8")
        code = run_tests(where, entry["tests"])
    if code is None:
        return "caught", f"timed out after {TIMEOUT:.0f} s"
    if code == 0:
        return "survived", "the tests passed"
    if code == 5:
        return "stale", "pytest exit 5: no test collected"
    return "caught", f"pytest exit {code}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--catalogue", type=Path, default=ROOT / "tools" / "mutants.json")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="the tree whose src/, tests/ and tools/ are copied")
    args = parser.parse_args(argv)
    entries = load(args.catalogue)
    root = args.root.resolve()

    tests = list(dict.fromkeys(t for e in entries for t in e["tests"]))
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as tmp:
        copy_tree(root, Path(tmp))
        base = run_tests(Path(tmp), tests)
    if base != 0:
        print(f"baseline: the listed tests fail without any mutation (pytest exit {base})")
        return 2

    outcomes = []
    for entry in entries:
        start = time.perf_counter()
        outcome, detail = verdict(entry, root)
        outcomes.append(outcome)
        print(f"{outcome:8} {entry['name']}: {detail} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    counts = {k: outcomes.count(k) for k in ("caught", "survived", "stale")}
    print(" ".join(f"{k}={v}" for k, v in counts.items()))
    return 1 if counts["survived"] or counts["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
