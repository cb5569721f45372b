"""The catalogs of every class at sizes 2..8 must match the frozen digests in
tests/fixtures/catalog_digests.json entry by entry: same names, same tables,
same order.  At sizes 9..14 each (class, size) section must match its frozen
entry count and its digest of the names and entry digests in catalog order.
Up to size 14 each section's entry count must also match the orbit count
of tests/fixtures/orbit_counts.json, which `tools/orbit_counts.py` derives
from the posets alone, without the catalog's canonical pass."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from twoneg.algebra import CATALOG_CLASSES, _section, enumerate_algebras

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


@pytest.mark.parametrize("cls", CATALOG_CLASSES)
def test_section_sizes_match_orbit_counts(fixtures_dir, cls):
    counts = json.loads((fixtures_dir / "orbit_counts.json").read_text())
    sizes = range(2, 15)
    assert [len(_section(cls, n)) for n in sizes] == [counts[str(n)][cls] for n in sizes]


@pytest.mark.parametrize("tool,name", [("oracle_counts.py", "enumeration_counts.json"),
                                       ("catalog_digests.py", "catalog_digests.json"),
                                       ("orbit_counts.py", "orbit_counts.json")])
def test_json_fixtures_regenerate(regenerate, fixtures_dir, tool, name):
    """The tool, run from a copy, writes its fixture byte for byte."""
    written = regenerate(tool) / name
    assert written.read_bytes() == (fixtures_dir / name).read_bytes()
