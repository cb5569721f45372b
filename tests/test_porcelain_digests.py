"""The porcelain output of a fixed matrix of CLI commands must match the
frozen digests in tests/fixtures/porcelain_digests.json: same argv, same exit
code, same stdout."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "porcelain_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("porcelain_digests", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_porcelain_matches_frozen_digests(fixtures_dir):
    tool = _tool()
    frozen = json.loads((fixtures_dir / "porcelain_digests.json").read_text())
    assert [r["argv"] for r in frozen] == tool.matrix()
    for want in frozen:
        assert tool.record(want["argv"]) == want


def test_porcelain_fixture_regenerates(regenerate, fixtures_dir):
    """The tool, run from a copy, writes its fixture byte for byte."""
    name = "porcelain_digests.json"
    written = regenerate("porcelain_digests.py") / name
    assert written.read_bytes() == (fixtures_dir / name).read_bytes()
