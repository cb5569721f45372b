from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from twoneg.cli import main
from twoneg.formula import MAX_DEPTH

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


@pytest.mark.parametrize("key,line", [("tilde_one", "tilde_one 0"),
                                      ("algebra", "algebra other")])
def test_duplicate_algebra_directive_rejected(tmp_path, capsys, key, line):
    dup = tmp_path / "dup.alg"
    dup.write_text(f"algebra c3\nelements 0 a 1\nleq 0 a\nleq a 1\ntilde_one 1\n{line}\nend\n")
    code, out = run(capsys, "--porcelain", "check-algebra", str(dup))
    assert code == 2
    assert "error=duplicate-directive" in out and repr(key) in out


def test_eval_duplicate_assignment_rejected(capsys, fixtures_dir):
    code, out = run(capsys, "--porcelain", "eval", str(fixtures_dir / "b_prime.alg"),
                    "p | ~p", "--assign", "p=a,p=0")
    assert code == 2
    assert "error=duplicate-assignment" in out and "'p'" in out


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


def test_countermodel_none(capsys):
    code, out = run(capsys, "--porcelain", "countermodel", "--system", "ILM-v",
                    "--max-size", "4", "p | ~p")
    assert code == 0
    assert "countermodel=none" in out
    assert "no countermodel up to size 4" in out


def test_countermodel_sequent(capsys):
    code, out = run(capsys, "--porcelain", "countermodel", "--system", "Kim",
                    "--max-size", "3", "--sequent", "~~p |- p")
    assert code == 1
    assert "size=2" in out


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


def test_build_au(capsys, fixtures_dir):
    code, out = run(capsys, "build-au", str(fixtures_dir / "h6.alg"), "--u", "z,w")
    assert code == 0
    assert "elements (0,0) (0,y) (z,z) (z,w)" in out
    code, out = run(capsys, "build-au", str(fixtures_dir / "h6.alg"), "--u", "w,z")
    assert code == 1


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


def test_frame_y0_line_under_compat_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.frm"
    bad.write_text("frame compat a\nworlds w0\ny0 w0\nend\n")
    code, out = run(capsys, "--porcelain", "duality", str(bad))
    assert code == 2
    assert "error=line-of-other-kind" in out


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
