from __future__ import annotations

import functools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from twoneg import cli, frames, proofs
from twoneg.algebra import read_algebra
from twoneg.bridge import canonical_frame_ccpba
from twoneg.cli import main
from twoneg.errors import FileFormatError
from twoneg.formula import MAX_DEPTH, MAX_NODES, parse, subformulas

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_command(capsys):
    code, out = run(capsys, "--porcelain", "parse", "~p -> !q | r")
    assert code == 0
    assert "ast=Impl(Tilde(p),Or(Neg(q),r))" in out


def test_parse_syntax_error(capsys):
    code, out = run(capsys, "parse", "p ->")
    assert code == 2
    assert "syntax-error" in out


def test_check_algebra(capsys, fixtures_dir):
    code, out = run(capsys, "check-algebra", str(fixtures_dir / "h6_x.alg"))
    assert code == 0
    assert "tilde_one: x" in out


def test_check_algebra_rejects(tmp_path, capsys):
    bad = tmp_path / "m3.alg"
    bad.write_text("algebra m3\nelements 0 x y z 1\nleq 0 x\nleq 0 y\nleq 0 z\n"
                   "leq x 1\nleq y 1\nleq z 1\nend\n")
    code, out = run(capsys, "check-algebra", str(bad))
    assert code == 1
    assert "not-distributive" in out


@pytest.mark.parametrize("order,error,witness", [
    ("0<a a<b b<a b<1", "not-a-poset", "('a', 'b')"),
    ("a<c b<c c<1", "missing-glb", "('a', 'b')"),
    ("0<a 0<b a<c a<d b<c b<d c<1 d<1", "missing-glb", "('c', 'd')"),
    ("0<a 0<b", "missing-lub", "('a', 'b')"),
    ("0<a a<b b<1 0<c c<1", "not-distributive", "('b', 'a', 'c')"),
])
def test_check_algebra_names_the_order_fault(tmp_path, capsys, order, error, witness):
    """A cycle, no bottom, a missing meet, no top and a non-distributive order."""
    pairs = [p.split("<") for p in order.split()]
    elements = dict.fromkeys(e for p in pairs for e in p)
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra bad\nelements " + " ".join(elements) + "\n"
                   + "".join(f"leq {a} {b}\n" for a, b in pairs) + "end\n")
    code, out = run(capsys, "--porcelain", "check-algebra", str(bad))
    assert (code, out) == (1, f"accepted=false\nerror={error}\nwitness={witness}\n")


@pytest.mark.parametrize("key,line", [("tilde_one", "tilde_one 0"),
                                      ("algebra", "algebra other")])
def test_duplicate_algebra_directive_rejected(tmp_path, capsys, key, line):
    dup = tmp_path / "dup.alg"
    dup.write_text(f"algebra c3\nelements 0 a 1\nleq 0 a\nleq a 1\ntilde_one 1\n{line}\nend\n")
    code, out = run(capsys, "--porcelain", "check-algebra", str(dup))
    assert code == 2
    assert "error=duplicate-directive" in out and repr(key) in out


def test_repeated_algebra_leq_rejected(tmp_path, capsys):
    dup = tmp_path / "dup.alg"
    dup.write_text("algebra c3\nelements 0 a 1\nleq 0 a\nleq a 1\nleq 0 a\nend\n")
    code, out = run(capsys, "--porcelain", "check-algebra", str(dup))
    assert (code, out) == (2, "error=bad-line\n"
                              "detail=bad-line at 'leq 0 a': leq 0 a already given\n")


def test_eval_duplicate_assignment_rejected(capsys, fixtures_dir):
    code, out = run(capsys, "--porcelain", "eval", str(fixtures_dir / "b_prime.alg"),
                    "p | ~p", "--assign", "p=a,p=0")
    assert code == 2
    assert "error=duplicate-assignment" in out and "'p'" in out


@pytest.mark.parametrize("assign", ["=a", "P=a", "1x=a", "top=a", "p=a,Q=b"])
def test_eval_assignment_to_no_atom_rejected(capsys, fixtures_dir, assign):
    """A name outside the atom grammar, or a keyword, binds nothing: it is
    rejected, never dropped."""
    code, out = run(capsys, "--porcelain", "eval", str(fixtures_dir / "h5.alg"), "top",
                    "--assign", assign)
    bad = assign.rpartition(",")[2]
    assert (code, out) == (2, f"error=bad-assignment\ndetail=bad-assignment at {bad!r}\n")


def test_classify(capsys, fixtures_dir):
    code, out = run(capsys, "--porcelain", "classify", str(fixtures_dir / "a_prime.alg"))
    assert code == 0
    assert "is_ccpba=true" in out
    assert "is_cvcpba=false" in out
    assert "is_cvcpba_witness=a" in out


def test_eval(capsys, fixtures_dir):
    code, out = run(capsys, "--porcelain", "eval", str(fixtures_dir / "b_prime.alg"),
                    "p | ~p", "--assign", "p=a")
    assert code == 0
    assert "value=1" in out


def test_valid_falsified(capsys, fixtures_dir):
    code, out = run(capsys, "--porcelain", "valid", str(fixtures_dir / "a_prime.alg"),
                    "p | ~p")
    assert code == 1
    assert "witness_p=a" in out


def test_valid_ok(capsys, fixtures_dir):
    code, out = run(capsys, "valid", str(fixtures_dir / "b_prime.alg"), "p | ~p")
    assert code == 0


def test_enumerate(capsys):
    code, out = run(capsys, "--porcelain", "enumerate", "--class", "ccpba",
                    "--size", "3")
    assert code == 0
    assert "count=2" in out


def test_enumerate_guard(capsys):
    code, out = run(capsys, "enumerate", "--class", "ccpba", "--size", "9")
    assert code == 3


def test_countermodel(capsys):
    code, out = run(capsys, "--porcelain", "countermodel", "--system", "ILM",
                    "--max-size", "3", "p | ~p")
    assert code == 1
    assert "countermodel=ccpba_3_0" in out
    assert "witness_p=e1" in out


def test_countermodel_guard_and_force(capsys):
    code, out = run(capsys, "--porcelain", "countermodel", "--system", "ILM",
                    "--max-size", "9", "p|~p")
    assert code == 3
    assert "error=bound-guard" in out
    code, out = run(capsys, "--porcelain", "countermodel", "--system", "ILM",
                    "--max-size", "9", "--force", "p|~p")
    assert code == 1
    assert "countermodel=ccpba_3_0" in out


def test_countermodel_none(capsys):
    code, out = run(capsys, "--porcelain", "countermodel", "--system", "ILM-v",
                    "--max-size", "4", "p | ~p")
    assert code == 0
    assert "countermodel=none" in out
    assert "no countermodel up to size 4" in out


@pytest.mark.parametrize("argv,code,lines", [
    (["enumerate", "--class", "pba", "--size", "0"], 2,
     ["error=bad-size", "detail=bad-size at 0"]),
    (["enumerate", "--class", "pba", "--size", "9"], 3,
     ["error=bound-guard", "detail=bound-guard at 'enumerate max_size': limit 8, requested 9"]),
    (["enumerate", "--class", "kim", "--size", "1"], 0,
     ["class=kim", "size=1", "count=0", "count_upto=0"]),
    (["enumerate", "--class", "kim", "--size", "1", "--allow-trivial"], 0,
     ["class=kim", "size=1", "count=1", "count_upto=1", "algebra=kim_1_0"]),
    (["countermodel", "--system", "ILM", "--max-size", "0", "p | ~p"], 2,
     ["formula=p | ~p", "error=bad-size", "detail=bad-size at 0"]),
    (["countermodel", "--system", "ILM", "--max-size", "-3", "p | ~p"], 2,
     ["formula=p | ~p", "error=bad-size", "detail=bad-size at -3"]),
    (["countermodel", "--system", "ILM", "--max-size", "1", "p | ~p"], 0,
     ["formula=p | ~p", "countermodel=none", "note=no countermodel up to size 1"]),
    (["countermodel", "--system", "ILM", "--max-size", "9", "p | ~p"], 3,
     ["formula=p | ~p", "error=bound-guard",
      "detail=bound-guard at 'countermodel max_size': limit 8, requested 9"]),
    (["countermodel", "--system", "Kim", "--max-size", "0", "p"], 2,
     ["formula=p", "error=wrong-goal-kind",
      "detail=wrong-goal-kind at 'Kim': expected a sequent"]),
])
def test_size_edge_cases(capsys, argv, code, lines):
    """Sizes below 1, over the guard and at the trivial size, each with its
    exit code and porcelain lines; the goal is checked before the size."""
    got, out = run(capsys, "--porcelain", *argv)
    assert (got, out.splitlines()) == (code, lines)


def test_countermodel_sequent(capsys):
    code, out = run(capsys, "--porcelain", "countermodel", "--system", "Kim",
                    "--max-size", "3", "--sequent", "~~p |- p")
    assert code == 1
    assert "size=2" in out


@pytest.mark.parametrize("sequent,offset", [
    ("p & |- q", 4),   # end of the lhs
    ("p |- q &", 8),   # end of the rhs, counted from the start of the sequent
    ("p |-  )", 6),
])
def test_sequent_syntax_error_offset(capsys, sequent, offset):
    """A syntax error in either side names its offset into the whole
    `--sequent` text."""
    code, out = run(capsys, "--porcelain", "countermodel", "--system", "Kim",
                    "--max-size", "3", "--sequent", sequent)
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "error=syntax-error"
    assert lines[1].startswith(f"detail=syntax-error at {offset}: ")


# A 25-atom goal that fails at the first valuation: a search nests at most
# 19 loops, and `eval` compiles no loop at all.
MANY = [f"p{i}" for i in range(25)]


def test_goal_of_25_atoms(capsys, tmp_path):
    path = tmp_path / "two.alg"
    path.write_text("algebra two\nelements 0 1\nleq 0 1\nend\n")
    goal = " | ".join(MANY)
    code, out = run(capsys, "--porcelain", "eval", str(path), "--assign",
                    ",".join(f"{p}=0" for p in MANY), "--", goal)
    assert (code, out.splitlines()) == (0, ["value=0"])
    code, out = run(capsys, "--porcelain", "valid", "--force", str(path), "--", goal)
    assert (code, out.splitlines()) == (1, ["valid=false"] + [f"witness_{p}=0"
                                                              for p in sorted(MANY)])


@pytest.mark.parametrize("system,sequent", [("ILM", "p |- q"), ("Kim", "~~p |- p")])
def test_countermodel_rejects_formula_and_sequent(capsys, system, sequent):
    code, out = run(capsys, "--porcelain", "countermodel", "--system", system,
                    "--max-size", "3", "p", "--sequent", sequent)
    assert code == 2
    assert out.splitlines()[0] == "error=conflicting-goals"


# A cold run imports only the modules its command uses: none of these loads
# `dataclasses`/`inspect` or the frame and duality modules, and `enumerate`
# does not load the proof module either.
NOT_LOADED = ("dataclasses", "inspect", "twoneg.frames", "twoneg.bridge", "twoneg.translate")
COLD_RUNS = {
    "enumerate": (["enumerate", "--class", "ccpba", "--size", "5"], NOT_LOADED + ("twoneg.proofs",)),
    "countermodel": (["countermodel", "--system", "ILM", "--max-size", "4", "p | ~p"], NOT_LOADED),
    "countermodel-sequent": (["countermodel", "--system", "Kim", "--max-size", "4",
                              "--sequent", "~~p |- p"], NOT_LOADED),
}


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=60)


@pytest.mark.parametrize("name", sorted(COLD_RUNS))
def test_cold_run_imports_only_what_it_uses(name):
    argv, absent = COLD_RUNS[name]
    done = _fresh("import sys\n"
                  "from twoneg import cli\n"
                  "code = cli.main(['--porcelain', *sys.argv[1:]])\n"
                  "print('loaded=' + ','.join(sorted(sys.modules)))\n"
                  "sys.exit(code)", *argv)
    assert done.returncode in (0, 1), done.stderr
    loaded = set(done.stdout.splitlines()[-1].removeprefix("loaded=").split(","))
    assert "twoneg.algebra" in loaded
    assert not loaded & set(absent), sorted(loaded & set(absent))


def test_lazy_package_attributes_resolve():
    done = _fresh("import twoneg\n"
                  "assert callable(twoneg.frames.read_frame)\n"
                  "from twoneg import *\n"
                  "assert callable(bridge.frame_embedding) and callable(translate.phi)\n"
                  "assert __version__ == twoneg.__version__\n"
                  "import sys\n"
                  "print(sorted(m for m in sys.modules if m.startswith('twoneg.')))")
    assert done.returncode == 0, done.stderr
    assert "'twoneg.frames'" in done.stdout and "'twoneg.proofs'" in done.stdout


def test_countermodel_parses_no_proof_scheme():
    """The axiom schemes and sequent rules are parsed on first use: a cold
    countermodel search never reads them, and SCHEMES parses only the schemes."""
    done = _fresh("from twoneg import cli, proofs\n"
                  "cli.main(['--porcelain', 'countermodel', '--system', 'ILM',\n"
                  "          '--max-size', '3', 'p | ~p'])\n"
                  "parsed = lambda: (proofs._schemes.cache_info().currsize,\n"
                  "                  proofs._sequent_rules.cache_info().currsize)\n"
                  "print(parsed())\n"
                  "assert proofs.SCHEMES is proofs.SCHEMES\n"
                  "print(parsed())")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["(0, 0)", "(1, 0)"], done.stdout


def test_translate(capsys, fixtures_dir):
    code, out = run(capsys, "translate", str(fixtures_dir / "three_world.frm"))
    assert code == 0
    assert "rn2 w0 w1" in out
    assert "direction: subnormal->nhat" in out


def test_translate_round_trip_via_file(capsys, tmp_path, fixtures_dir):
    out_file = tmp_path / "t.frm"
    code, _ = run(capsys, "translate", str(fixtures_dir / "three_world.frm"),
                  "-o", str(out_file))
    assert code == 0
    code, out = run(capsys, "translate", str(out_file))
    assert code == 0
    assert "y0 w2" in out


def test_complex(capsys, fixtures_dir):
    code, out = run(capsys, "--porcelain", "complex", str(fixtures_dir / "three_world.frm"))
    assert code == 0
    assert "size=5" in out
    assert "tilde_one {w2}" in out


def test_canonical(capsys, fixtures_dir):
    code, out = run(capsys, "canonical", str(fixtures_dir / "b_prime.alg"))
    assert code == 0
    assert "y0 F0 F1" in out


def test_canonical_with_no_prime_filters_starts_with_the_frame(capsys, tmp_path):
    """The one-element algebra has no prime filter, so no comment line: the
    output is the frame itself, with no blank line before it."""
    path = tmp_path / "one.alg"
    path.write_text("algebra one\nelements 0\ntilde_one 0\nend\n")
    code, out = run(capsys, "--porcelain", "canonical", str(path))
    assert code == 0
    assert out.startswith("out=frame subnormal one_canonical\n")
    text = "".join(line.removeprefix("out=") + "\n" for line in out.splitlines())
    assert frames.read_frame(text) == canonical_frame_ccpba(read_algebra(path.read_text()))


def test_canonical_rejects_pba(capsys, fixtures_dir):
    code, out = run(capsys, "canonical", str(fixtures_dir / "h6.alg"))
    assert code == 1
    assert "not-a-ccpba" in out


def test_duality(capsys, fixtures_dir):
    code, out = run(capsys, "--porcelain", "duality", str(fixtures_dir / "a_prime.alg"))
    assert code == 0
    assert "stone_isomorphism=true" in out
    code, out = run(capsys, "duality", str(fixtures_dir / "three_world.frm"))
    assert code == 0
    assert "frame_onto: true" in out


@pytest.mark.parametrize("command,code", [("duality", 2), ("canonical", 1)])
def test_plain_pba_has_no_canonical_frame(capsys, fixtures_dir, command, code):
    got, out = run(capsys, "--porcelain", command, str(fixtures_dir / "h6.alg"))
    assert got == code
    assert "error=not-a-ccpba" in out
    if command == "canonical":
        assert "accepted=false" in out
    else:
        assert "detail=not-a-ccpba at 'h6': no tilde_one attached" in out


def test_build_au(capsys, fixtures_dir):
    code, out = run(capsys, "build-au", str(fixtures_dir / "h6.alg"), "--u", "z,w")
    assert code == 0
    assert "elements (0,0) (0,y) (z,z) (z,w)" in out
    code, out = run(capsys, "build-au", str(fixtures_dir / "h6.alg"), "--u", "w,z")
    assert code == 1


@pytest.mark.parametrize("u,code,line", [
    ("{},{w0,w1,w2}", 0, "size=5"),
    (" {w1} , {w1,w2} ", 0, "size=4"),
    ("{w1,w2},{}", 1, "error=u-not-ordered"),
    ("{},{w0}", 2, "error=unknown-element"),
    ("{w1}", 2, "error=bad-u"),
    ("{},{w1},{}", 2, "error=bad-u"),
])
def test_build_au_names_with_commas(capsys, fixtures_dir, u, code, line):
    """`--u` cuts at the one comma with an element name on both sides; a
    lone comma still cuts, and no fitting comma among several is bad-u."""
    got, out = run(capsys, "--porcelain", "build-au",
                   str(fixtures_dir / "three_world_complex.alg"), "--u", u)
    assert got == code
    assert line + "\n" in out


def test_check_proof(capsys, fixtures_dir):
    code, out = run(capsys, "check-proof", str(fixtures_dir / "top_three_lines.prf"))
    assert code == 0
    code, out = run(capsys, "--porcelain", "check-proof",
                    str(fixtures_dir / "neg_bad_mp.prf"))
    assert code == 1
    assert "error=bad-mp" in out
    assert "line=2" in out


def test_malformed_input(capsys, tmp_path):
    bad = tmp_path / "x.alg"
    bad.write_text("nonsense\n")
    code, out = run(capsys, "check-algebra", str(bad))
    assert code == 2


@pytest.mark.parametrize("argv,ext", [
    (["classify", "x.txt"], ".alg"), (["translate", "x.txt"], ".frm"),
    (["duality", "x.txt"], ".frm"), (["check-proof", "x.txt"], ".prf"),
    (["eval", "x.frm", "p"], ".alg")], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_wrong_extension_is_malformed(capsys, argv, ext):
    """An input file whose name lacks its command's extension is malformed
    input, rejected before the file is opened."""
    code, out = run(capsys, "--porcelain", *argv)
    assert code == 2
    assert out == f"error=wrong-extension\ndetail=wrong-extension at '{argv[1]}': expected {ext}\n"


def test_porcelain_is_deterministic(capsys, fixtures_dir):
    _, out1 = run(capsys, "--porcelain", "classify", str(fixtures_dir / "h6_x.alg"))
    _, out2 = run(capsys, "--porcelain", "classify", str(fixtures_dir / "h6_x.alg"))
    assert out1 == out2
    _, out3 = run(capsys, "--porcelain", "enumerate", "--class", "kim", "--size", "4")
    _, out4 = run(capsys, "--porcelain", "enumerate", "--class", "kim", "--size", "4")
    assert out3 == out4


def test_emitted_files_reparse(capsys, tmp_path, fixtures_dir):
    out_alg = tmp_path / "c.alg"
    code, _ = run(capsys, "complex", str(fixtures_dir / "three_world.frm"),
                  "-o", str(out_alg))
    assert code == 0
    code, out = run(capsys, "check-algebra", str(out_alg))
    assert code == 0


def test_eval_multi_assignment_with_pair_names(capsys, tmp_path, fixtures_dir):
    out_alg = tmp_path / "au.alg"
    code, _ = run(capsys, "build-au", str(fixtures_dir / "h6.alg"), "--u", "z,w",
                  "-o", str(out_alg))
    assert code == 0
    # element names contain commas; the assignment splitter must keep them whole
    code, out = run(capsys, "--porcelain", "eval", str(out_alg),
                    "p | ~p & q", "--assign", "p=(0,y),q=(z,w)")
    assert code == 0
    assert "value=(z,w)" in out


SUBNORMAL_FORK = "frame subnormal a\nworlds w0 w1 w2\nleq w0 w1\nleq w0 w2\ny0 w2\n"


def test_duplicate_frame_directive_rejected(capsys, tmp_path):
    dup = tmp_path / "dup.frm"
    dup.write_text(SUBNORMAL_FORK + "frame compat b\nend\n")
    code, out = run(capsys, "--porcelain", "complex", str(dup))
    assert code == 2
    assert "error=duplicate-directive" in out and "'frame'" in out


@pytest.mark.parametrize("line", ["rn1 w0 w1", "c w0 w0"])
def test_frame_line_of_other_kind_rejected(capsys, tmp_path, line):
    bad = tmp_path / "bad.frm"
    bad.write_text(SUBNORMAL_FORK + line + "\nend\n")
    code, out = run(capsys, "--porcelain", "translate", str(bad))
    assert code == 2
    assert "error=line-of-other-kind" in out and repr(line) in out


@pytest.mark.parametrize("kind,lines,line,what", [
    ("subnormal", "leq w0 w1\nleq w0 w1\n", "leq w0 w1", "leq w0 w1"),
    ("subnormal", "y0 w1\ny0 w2 w1\n", "y0 w2 w1", "y0 world w1"),
    ("subnormal", "y0 w2 w2\n", "y0 w2 w2", "y0 world w2"),
    ("nhat", "rn1 w0 w0\nrn2 w0 w0\nrn1 w0 w0\n", "rn1 w0 w0", "rn1 w0 w0"),
    ("nhat", "rn2 w1 w1\nrn2 w1 w1\n", "rn2 w1 w1", "rn2 w1 w1"),
    ("compat", "c w1 w1\nc w1 w1\n", "c w1 w1", "c w1 w1"),
])
def test_repeated_frame_line_rejected(capsys, tmp_path, kind, lines, line, what):
    """A relation pair or a Y0 world given twice is malformed, never merged."""
    dup = tmp_path / "dup.frm"
    dup.write_text(f"frame {kind} a\nworlds w0 w1 w2\n{lines}end\n")
    code, out = run(capsys, "--porcelain", "translate", str(dup))
    assert (code, out) == (2, f"error=bad-line\ndetail=bad-line at {line!r}: "
                              f"{what} already given\n")


def test_frame_y0_line_under_compat_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.frm"
    bad.write_text("frame compat a\nworlds w0\ny0 w0\nend\n")
    code, out = run(capsys, "--porcelain", "duality", str(bad))
    assert code == 2
    assert "error=line-of-other-kind" in out


def test_comma_world_name_is_malformed_in_a_fresh_process(fixtures_dir):
    """`{a,b}` would name both the world `a,b` and the set {a, b}."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "twoneg.cli", "--porcelain", "complex",
                           str(fixtures_dir / "bad_comma_world.frm")], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stdout.startswith("error=bad-world-name\n") and "'a,b'" in done.stdout


@pytest.mark.parametrize("command,text", [
    ("duality", "frame compat f\nworlds a,b a b\nend\n"),
    ("translate", "frame nhat f\nworlds a b,\nrn1 a a\nrn1 b, b,\nend\n"),
])
def test_comma_world_name_rejected_in_every_kind(capsys, tmp_path, command, text):
    bad = tmp_path / "comma.frm"
    bad.write_text(text)
    code, out = run(capsys, "--porcelain", command, str(bad))
    assert code == 2 and out.startswith("error=bad-world-name\n")


# One body per file kind, each complete but for its `end`.
BODIES = {
    "alg": ("algebra a\nelements 0 1\nleq 0 1\n", read_algebra),
    "frm": ("frame subnormal f\nworlds w0 w1\nleq w0 w1\n", frames.read_frame),
    "prf": ("proof sequent Kim\n1 p |- p axiom A1\n", proofs.parse_proof),
}

# name -> (tail, (error kind, witness)), or None when the file is accepted
TAILS = {
    "content-after-end": ("end\nextra line\n", ("trailing-content", "extra line")),
    "second-end": ("end\n\nend\n", ("trailing-content", "end")),
    "no-end": ("", ("missing-end", None)),
    "end-with-comment": ("end # comment\n# more\n\n", None),
    "bad-line-no-end": ("extra line\n", ("bad-line", "extra line")),
}


@pytest.mark.parametrize("tail", sorted(TAILS))
@pytest.mark.parametrize("kind", sorted(BODIES))
def test_line_grammar_is_shared(kind, tail):
    body, read = BODIES[kind]
    text, expected = TAILS[tail]
    try:
        read(body + text)
        outcome = None
    except FileFormatError as e:
        outcome = (e.kind, e.witness)
    assert outcome == expected


DEEP_FORMULAS = {
    "negations": "!" * 3000 + "p",
    "parentheses": "(" * 200 + "p" + ")" * 200,
    "conjunction": "&".join(["p"] * 3000),
    "arrows": "->".join(["p"] * 3000),
}


@pytest.mark.parametrize("name", sorted(DEEP_FORMULAS))
def test_deep_formula_is_a_syntax_error(name):
    # a fresh process, so that a stack overflow would show as a traceback
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "twoneg.cli", "--porcelain", "parse",
                           DEEP_FORMULAS[name]], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "error=syntax-error" in done.stdout


def test_depth_cap_boundary(capsys):
    code, out = run(capsys, "--porcelain", "parse", "!" * MAX_DEPTH + "p")
    assert code == 0
    code, out = run(capsys, "--porcelain", "parse", "!" * (MAX_DEPTH + 1) + "p")
    assert code == 2
    code, out = run(capsys, "--porcelain", "parse", "(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH)
    assert code == 0
    code, out = run(capsys, "--porcelain", "parse", "&".join(["p"] * (MAX_DEPTH + 2)))
    assert code == 2


def test_iff_chain_node_cap():
    # `<->` shares both sides, so an 18-term chain is 786 427 occurrences;
    # a fresh process, so that a traceback would show
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "twoneg.cli", "--porcelain", "parse",
                           "<->".join(["p"] * 18)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "error=syntax-error" in done.stdout and str(MAX_NODES) in done.stdout


def test_iff_chain_under_node_cap(capsys):
    text = "<->".join(["p"] * 10)
    assert sum(1 for _ in subformulas(parse(text))) == 3067
    code, out = run(capsys, "--porcelain", "parse", text)
    assert code == 0 and "atoms=p" in out


def test_non_utf8_file_is_malformed(capsys, tmp_path):
    bad = tmp_path / "bad.prf"
    bad.write_bytes(b"proof hilbert ILM\n\xc8\xe8\n")
    code, out = run(capsys, "--porcelain", "check-proof", str(bad))
    assert code == 2 and "error=unreadable" in out


@pytest.mark.parametrize("text,error,where", [
    ("proof hilbert ILM\nproof sequent Kim\n1 p |- p axiom A1\nend\n",
     "duplicate-directive", "'proof'"),
    ("proof hilbert ILM\n1 p -> p -> p axiom A1\nqed p -> p -> p\nqed p\nend\n",
     "duplicate-directive", "'qed'"),
    ("proof sequent Kim\n1 p |- p axiom A1\n1 q |- q axiom A1\n2 q |- q rule R from 1\nend\n",
     "bad-line", "'1 q |- q axiom A1'"),
    ("proof hilbert ILM\n1 p -> p -> p axiom A1\n1 q -> q -> q axiom A1\nqed q -> q -> q\nend\n",
     "bad-line", "'1 q -> q -> q axiom A1'"),
])
def test_repeated_proof_directive_rejected(capsys, tmp_path, text, error, where):
    """A second header, a second qed or a repeated line number, in either
    proof mode, is rejected, never merged into the proof checked."""
    dup = tmp_path / "dup.prf"
    dup.write_text(text)
    code, out = run(capsys, "--porcelain", "check-proof", str(dup))
    assert code == 2
    assert f"error={error}\n" in out and where in out


def test_sequent_line_the_last_line_never_reaches_is_malformed(capsys, tmp_path):
    """Lines 1 and 2 are outside the derivation of line 3, so they are never
    checked; the first of them is rejected."""
    proof = tmp_path / "unused.prf"
    proof.write_text("proof sequent Kim\n1 p |- q axiom NOPE\n2 p -> q |- p axiom A1\n"
                     "3 p |- p axiom A1\nend\n")
    code, out = run(capsys, "--porcelain", "check-proof", str(proof))
    assert code == 2
    assert out == ("error=unused-line\ndetail=unused-line at '1 p |- q axiom NOPE': "
                   "line 1 is not used to derive the last line\n")


def test_hilbert_line_the_last_line_never_reaches_fails_the_proof(capsys, tmp_path):
    """Every line checks and the last is the goal, but line 1 is not used to
    derive it: the proof is rejected at line 1."""
    proof = tmp_path / "unused.prf"
    proof.write_text("proof hilbert ILM\n1 q -> p -> q axiom A1\n2 p -> q -> p axiom A1\n"
                     "qed p -> q -> p\nend\n")
    code, out = run(capsys, "--porcelain", "check-proof", str(proof))
    assert (code, out) == (1, "mode=hilbert\nsystem=ILM\ngoal=p -> q -> p\naccepted=false\n"
                              "error=unused-line\nline=1\n"
                              "detail=not used to derive the last line\n")


def test_algebra_file_without_header_is_malformed(capsys, tmp_path):
    """Like a `.frm` or `.prf` file, an `.alg` file starts with its header, so
    deleting the `algebra NAME` line cannot pass unseen."""
    path = tmp_path / "nameless.alg"
    path.write_text("elements 0 a 1\nleq 0 a\nleq a 1\nend\n")
    for command in ("check-algebra", "classify"):
        code, out = run(capsys, "--porcelain", command, str(path))
        assert (code, out) == (2, "error=missing-header\n"
                                  "detail=missing-header: expected 'algebra NAME'\n")


def test_decreasing_hilbert_line_number_fails_the_proof(capsys, tmp_path):
    proof = tmp_path / "order.prf"
    proof.write_text("proof hilbert ILM\n1 p -> p -> p axiom A1\n"
                     "0 q -> q -> q axiom A1\nqed q -> q -> q\nend\n")
    code, out = run(capsys, "--porcelain", "check-proof", str(proof))
    assert code == 1 and "error=bad-line-order\n" in out


@pytest.mark.parametrize("target", ["missing/x.out", "."])
@pytest.mark.parametrize("argv", [
    ("translate", "three_world.frm"), ("complex", "three_world.frm"),
    ("canonical", "h6_x.alg"), ("build-au", "h6_x.alg", "--u", "0,1")])
def test_unwritable_output_is_malformed_input(capsys, tmp_path, fixtures_dir, argv, target):
    """An -o path in a missing directory, or naming a directory, exits 2."""
    command, name, *rest = argv
    path = str(tmp_path / target)
    code, out = run(capsys, "--porcelain", command, str(fixtures_dir / name), *rest,
                    "-o", path)
    assert code == 2
    assert f"error=unwritable\ndetail=unwritable at {path!r}: " in out


def test_internal_error_exit_code(capsys, monkeypatch, fixtures_dir):
    for error in (RuntimeError, OSError):  # an OSError off stdout is a defect too
        def broken(args, rep):
            raise error("table out of step")

        monkeypatch.setattr(cli, "cmd_check_algebra", broken)
        code, out = run(capsys, "--porcelain", "check-algebra", str(fixtures_dir / "h6.alg"))
        assert code == 4
        assert out == f"error=internal-error\ndetail={error.__name__}: table out of step\n"
        assert "Traceback" not in capsys.readouterr().err


def _cli_into(stdout: str, buffered: bool, *args: str) -> subprocess.CompletedProcess:
    """A fresh CLI run of `args` whose stdout is /dev/full, closed, or a
    pipe whose read end was closed before the process started (EPIPE on
    every write).  Buffered, the write of an answer fails when `main`
    flushes; unbuffered, in the command's first `print`."""
    argv = [sys.executable, "-m", "twoneg.cli", *args]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), **({} if buffered else {"PYTHONUNBUFFERED": "1"}))
    run = functools.partial(subprocess.run, argv, stderr=subprocess.PIPE, text=True,
                            env=env, timeout=60)
    if stdout == "full":
        with open("/dev/full", "w") as full:
            return run(stdout=full)
    if stdout == "closed":
        return run(preexec_fn=lambda: os.close(1))
    read, write = os.pipe()
    os.close(read)
    try:
        return run(stdout=write)
    finally:
        os.close(write)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("stdout,buffered,args", [
    pytest.param(stdout, buffered, args,
                 id="-".join([stdout, "buffered" if buffered else "unbuffered", *name]))
    for name, args in [((), ("--porcelain", "parse", "p")), (("help",), ("--help",)),
                       (("parse-help",), ("parse", "--help"))]
    for buffered in (True, False) for stdout in ("full", "closed", "no-reader")])
def test_unwritable_stdout_is_a_crash(stdout, buffered, args):
    """An answer that cannot be written is exit 4 with the reason on stderr:
    never a traceback, never exit 0 with the answer lost, never the exit 1
    of a negative verdict.  Help is an answer too: argparse prints it before
    `main` reaches its output guard, and its own print drops a failed write."""
    done = _cli_into(stdout, buffered, *args)
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error=output-failed\ndetail=")


def test_interrupt_is_exit_130():
    """SIGINT during a search is exit 130, the shell's code for it, with one
    stderr line and no traceback.  The child's SIGINT is reset to the default
    first: Python leaves an inherited ignored SIGINT (a background job) as it
    is, and would then never see the signal."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    argv = [sys.executable, "-m", "twoneg.cli", "--porcelain", "countermodel",
            "--system", "ILM", "--max-size", "16", "--force", "p -> p"]
    reset = functools.partial(signal.signal, signal.SIGINT, signal.SIG_DFL)
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env, preexec_fn=reset) as child:
        first = child.stdout.readline()
        child.send_signal(signal.SIGINT)
        _, err = child.communicate(timeout=60)
    assert first == "formula=p -> p\n"
    assert child.returncode == 130
    assert err == "error=interrupted\n"
    assert "Traceback" not in err


def test_reader_gone_after_one_line_is_a_crash(tmp_path):
    """A reader that takes one line of an answer larger than a pipe buffer
    and then closes (`... | head -1`) leaves the rest unwritable: exit 4
    with the broken pipe on stderr."""
    path = tmp_path / "anti9.frm"
    path.write_text("frame subnormal anti9\nworlds a b c d e f g h i\nend\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "twoneg.cli", "--porcelain", "complex", str(path)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env) as child:
        child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        child.wait(timeout=60)
    assert child.returncode == 4
    assert err == "error=output-failed\ndetail=BrokenPipeError: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("args", [("--help",), ("parse", "--help")], ids=["top", "parse"])
def test_help_into_a_writable_stdout(capsys, args):
    """Help written is exit 0 with argparse's own text, and a usage error
    stays exit 2 with the usage on stderr."""
    with pytest.raises(SystemExit) as done:
        main(list(args))
    assert done.value.code == 0
    parser = cli.build_parser()
    if args[0] == "parse":
        parser = parser._subparsers._group_actions[0].choices["parse"]
    assert capsys.readouterr().out == parser.format_help()
    with pytest.raises(SystemExit) as done:
        main([*args[:-1], "--no-such-flag"])
    assert done.value.code == 2
    assert "usage: twoneg" in capsys.readouterr().err


def _a2_chain(lines: int, second: str) -> str:
    """Line i is `p |- p` by A2 from line i-1 and from `second` (a format
    of i); line 1 is an A1 axiom."""
    body = [f"{i} p |- p rule A2 from {i - 1} {second.format(i - 1)}"
            for i in range(2, lines + 1)]
    return "\n".join(["proof sequent Kim", "1 p |- p axiom A1", *body, "end"]) + "\n"


@pytest.mark.parametrize("name,lines,second,seconds", [
    ("shared", 60, "{}", 2),    # each line cites the previous one twice
    ("long", 1500, "1", 30),    # 1 500 levels deep
])
def test_proof_chain_checks_in_a_fresh_process(tmp_path, name, lines, second, seconds):
    path = tmp_path / f"{name}.prf"
    path.write_text(_a2_chain(lines, second))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "twoneg.cli", "--porcelain",
                           "check-proof", str(path)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert time.perf_counter() - start < seconds
    assert done.returncode == 0, done.stdout
    assert "accepted=true" in done.stdout
    assert "Traceback" not in done.stderr
