"""The porcelain output of a fixed matrix of CLI commands must match the
frozen digests in tests/fixtures/porcelain_digests.json: same argv, same exit
code, same stdout.  Comments, blank lines and spacing in the input files the
matrix reads change neither."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from twoneg import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "porcelain_digests.py"
INPUTS = (".alg", ".frm", ".prf")


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


LAYOUTS = {
    "comments": lambda lines: "".join(f"# note {i}\n\n{line}  # on line {i}\n"
                                      for i, line in enumerate(lines)),
    "spacing": lambda lines: "".join(" \t" + "  \t".join(line.split()) + " \t\n"
                                     for line in lines),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_porcelain_ignores_file_layout(layout, tmp_path):
    """Every matrix command that reads an input file, run on a copy with
    comments and blank lines, or with tabs and extra spaces, inserted: same
    exit code and stdout.  The copy sits at the same relative path."""
    tool = _tool()
    runs = [argv for argv in tool.matrix() if any(a.endswith(INPUTS) for a in argv)]
    assert {argv[1] for argv in runs} >= {"classify", "check-algebra", "canonical",
                                          "complex", "duality", "translate", "check-proof"}
    for argv in runs:
        for arg in argv:
            if arg.endswith(INPUTS):
                copy = tmp_path / arg
                copy.parent.mkdir(parents=True, exist_ok=True)
                copy.write_text(LAYOUTS[layout]((tool.ROOT / arg).read_text().splitlines()))
        out = io.StringIO()
        with contextlib.chdir(tmp_path), contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert (code, out.getvalue()) == tool.run(argv), argv
