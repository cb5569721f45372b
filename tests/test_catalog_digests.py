"""The catalogs of every class at sizes 2..8 must match the frozen digests in
tests/fixtures/catalog_digests.json entry by entry: same names, same tables,
same order."""

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
