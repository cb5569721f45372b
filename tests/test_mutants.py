"""`tools/mutants.py` on a toy tree: a mutation the tests catch, one that
stops `conftest.py` from importing the code (pytest exit 4, caught too), one
the tests miss, and one whose old text no longer occurs, which is reported
as stale rather than skipped.  The tree the tool reads is left as it was."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"

TOY = "def double(x):\n    return 2 * x\n\n\ndef unused(x):\n    return x\n"
TOY_TEST = "from toy import double\n\n\ndef test_double():\n    assert double(3) == 6\n"
TOY_CONFTEST = "import toy  # noqa: F401\n"


def test_caught_survived_and_stale(tmp_path):
    root = tmp_path / "repo"
    for name, text in (("src/toy.py", TOY), ("tests/test_toy.py", TOY_TEST),
                       ("tests/conftest.py", TOY_CONFTEST), ("tools/README", "toy\n")):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    test = ["tests/test_toy.py::test_double"]
    catalogue = tmp_path / "mutants.json"
    catalogue.write_text(json.dumps([
        {"name": "times-three", "file": "src/toy.py", "old": "2 * x", "new": "3 * x",
         "tests": test},
        {"name": "no-import", "file": "src/toy.py", "old": "def double(x):",
         "new": "def double(x)", "tests": test},
        {"name": "unused-changed", "file": "src/toy.py", "old": "return x\n",
         "new": "return -x\n", "tests": test},
        {"name": "gone", "file": "src/toy.py", "old": "x + x", "new": "x", "tests": test},
    ]))
    before = {p: p.read_text() for p in root.rglob("*") if p.is_file()}
    done = subprocess.run([sys.executable, str(TOOL), "--root", str(root),
                           "--catalogue", str(catalogue)],
                          capture_output=True, text=True, timeout=60)
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines[:4]] == [
        ["caught", "times-three:"], ["caught", "no-import:"],
        ["survived", "unused-changed:"], ["stale", "gone:"]]
    assert "pytest exit 4" in lines[1]
    assert "old text found 0 times" in lines[3]
    assert lines[4] == "caught=2 survived=1 stale=1"
    assert done.returncode == 1
    assert {p: p.read_text() for p in root.rglob("*") if p.is_file()} == before
