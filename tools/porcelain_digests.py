#!/usr/bin/env python3
"""Freeze the porcelain output of the CLI over a fixed matrix of commands.

Each command of the matrix runs in-process through `twoneg.cli.main` with
`--porcelain`, from the repository root, so every path in it is relative to
that root.  Its argv, exit code and a digest of its stdout are written, one
record a line, to tests/fixtures/porcelain_digests.json;
tests/test_porcelain_digests.py runs the matrix again and compares.  The
inputs are found next to the imported package, so a copy of this script run
from elsewhere reads the same files.  Regenerate only when an output is meant
to change:

    PYTHONPATH=src python tools/porcelain_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import twoneg
from twoneg import cli, proofs

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "porcelain_digests.json"
ROOT = Path(twoneg.__file__).resolve().parents[2]
FIXTURES = "tests/fixtures"

GOALS = ("p | ~p", "~~p -> p", "!p | !!p", "(p -> q) | (q -> p)", "~p -> !p")
HILBERT_GOALS = ("p | ~p", "~~p -> p")
SEQUENT_GOALS = ("~~p |- p", "~p |- !p")
CLASSES = ("pba", "ccpba", "cvcpba", "kim", "kim_vee")
PARSES = ("(p -> q) | !!p & ~(q -> p)", "~~p <-> p", "p & (q", "!top -> bot")
# The command each `bad_*.frm` fixture runs through, by its frame kind.
REJECTS = {"subnormal": "complex", "nhat": "translate", "compat": "duality"}


def _words(path: Path, directive: str) -> list[str]:
    """The words after the first `directive` line of a fixture."""
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith(directive + " "):
            return line.split()[1:]
    return []


def _evals(names: list[str]) -> tuple[tuple[str, str], ...]:
    """The `eval` goals over an algebra with elements `names`, each with the
    element its one `--assign p=...` binds: a `~` (an error on a pBa), an
    unbound `q` after a `~` (which error comes first), an unbound `q` alone,
    and p on the first element (index 0, which is bound) and on the last."""
    return (("~p -> !p", names[1]), ("p -> ~q", names[0]), ("(p -> q) | !p", names[0]),
            ("p & !!p", names[0]), ("p & !!p", names[-1]))


def matrix() -> list[list[str]]:
    """The argv of every command, in a fixed order."""
    fixtures = ROOT / FIXTURES
    runs = []
    for path in sorted(fixtures.glob("*.alg")):
        alg = f"{FIXTURES}/{path.name}"
        runs += [["check-algebra", alg], ["classify", alg], ["canonical", alg],
                 ["duality", alg]]
        names = _words(path, "elements")
        for u in ((names[0], names[-1]), (names[1], names[-1]), (names[-1], names[0])):
            runs.append(["build-au", alg, "--u", ",".join(u)])
        runs += [["valid", alg, goal] for goal in GOALS]
        runs += [["eval", alg, goal, "--assign", f"p={e}"] for goal, e in _evals(names)]
    frame = f"{FIXTURES}/three_world.frm"
    runs += [["translate", frame], ["complex", frame], ["duality", frame]]
    runs += [[REJECTS[_words(path, "frame")[0]], f"{FIXTURES}/{path.name}"]
             for path in sorted(fixtures.glob("bad_*.frm"))]
    runs += [["check-proof", f"{FIXTURES}/{path.name}"]
             for path in sorted(fixtures.glob("*.prf"))]
    for system in proofs.system_names():
        sequent = system in proofs.SEQUENT_SYSTEMS
        for goal in SEQUENT_GOALS if sequent else HILBERT_GOALS:
            runs.append(["countermodel", "--system", system, "--max-size", "4"]
                        + (["--sequent", goal] if sequent else [goal]))
    runs += [["enumerate", "--class", cls, "--size", str(size)]
             for cls in CLASSES for size in (1, 4, 8)]
    runs += [["parse", text] for text in PARSES]
    return [["--porcelain"] + argv for argv in runs]


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI run from the repository root."""
    out = io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def record(argv: list[str]) -> dict:
    code, stdout = run(argv)
    return {"argv": argv, "exit": code,
            "stdout": hashlib.sha256(stdout.encode()).hexdigest()[:16]}


def main() -> None:
    lines = [json.dumps(record(argv)) for argv in matrix()]
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
