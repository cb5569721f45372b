"""The catalogs of every class at sizes 2..8 must match the frozen digests in
tests/fixtures/catalog_digests.json entry by entry: same names, same tables,
same order.  At sizes 9..14 each (class, size) section must match its frozen
entry count and its digest of the names and entry digests in catalog order."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from twoneg.algebra import enumerate_algebras

TOOL = Path(__file__).resolve().parent.parent / "tools" / "catalog_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("catalog_digests", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("cls", ["pba", "ccpba", "cvcpba", "kim", "kim_vee"])
def test_catalog_matches_frozen_digests(fixtures_dir, cls):
    tool = _tool()
    frozen = json.loads((fixtures_dir / "catalog_digests.json").read_text())
    got = [[alg.name, tool.entry_digest(alg)]
           for alg in enumerate_algebras(cls, tool.MAX_SIZE)]
    assert got == frozen[cls]


@pytest.mark.parametrize("cls", ["pba", "ccpba", "cvcpba", "kim", "kim_vee"])
def test_catalog_sections_match_frozen_digests(fixtures_dir, cls):
    frozen = json.loads((fixtures_dir / "catalog_digests.json").read_text())
    rows = [row for row in frozen["sections"] if row[0] == cls]
    assert [row[1] for row in rows] == list(range(9, 15))
    assert _tool().section_digests(cls) == rows


@pytest.mark.parametrize("tool,name", [("oracle_counts.py", "enumeration_counts.json"),
                                       ("catalog_digests.py", "catalog_digests.json")])
def test_json_fixtures_regenerate(regenerate, fixtures_dir, tool, name):
    """The tool, run from a copy, writes its fixture byte for byte."""
    written = regenerate(tool) / name
    assert written.read_bytes() == (fixtures_dir / name).read_bytes()
