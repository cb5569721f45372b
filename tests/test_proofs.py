from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from twoneg.algebra import algebra_valid, iso_check, sequent_valid
from twoneg.errors import AlgebraError, BoundGuardError, FileFormatError
from twoneg.formula import parse, substitute, Atom
from twoneg.proofs import (HILBERT_SYSTEMS, SCHEMES, SEQUENT_RULES,
                           SEQUENT_SYSTEMS, CheckResult, DerivationNode,
                           ProofLine, ProofScript, check_derivation,
                           check_hilbert, countermodel_search, expand_neg,
                           hilbert_proof_text, parse_proof, sequent_proof_text)

from support import PROOFS, kim_reduct

def test_goal_mismatch():
    script = ProofScript((ProofLine(1, parse("p -> (q -> p)"), ("axiom", "A1")),),
                         parse("q"))
    assert check_hilbert("ILM", script).error == "goal-mismatch"


def test_single_axiom_accepted():
    f = parse("p -> (q -> p)")
    script = ProofScript((ProofLine(1, f, ("axiom", "A1")),), f)
    assert check_hilbert("ILM", script).ok


def test_a12_only_in_ilm_v():
    f = parse("p | ~p")
    script = ProofScript((ProofLine(1, f, ("axiom", "A12")),), f)
    assert not check_hilbert("ILM", script).ok
    assert check_hilbert("ILM-v", script).ok


def test_jp_language_rejects_bot_and_neg():
    f = parse("bot -> p")
    script = ProofScript((ProofLine(1, f, ("axiom", "A8")),), f)
    res = check_hilbert("JP'", script)
    assert res.error == "wrong-language"
    neg = ProofLine(1, parse("!p -> (q -> !p)"), ("axiom", "A1"))
    assert check_hilbert("JP'", ProofScript((neg,), parse("p -> (q -> p)"))) == \
        CheckResult(False, "wrong-language", 1)
    g = parse("~~(~top -> q)")
    ok = ProofScript((ProofLine(1, g, ("axiom", "Pprime")),), g)
    assert check_hilbert("JP'", ok).ok


def test_ilm2_expands_neg():
    # !p -> (q -> !p) is an A1 instance once ! becomes -> bot
    f = parse("!p -> (q -> !p)")
    script = ProofScript((ProofLine(1, f, ("axiom", "A1")),), f)
    assert check_hilbert("ILM2", script).ok
    assert expand_neg(parse("!p")) == parse("p -> bot")


def test_every_cited_scheme_and_rule_is_defined():
    for system in HILBERT_SYSTEMS.values():
        assert set(system.axioms) <= set(SCHEMES), system.name
    for system in SEQUENT_SYSTEMS.values():
        assert set(system.rules) <= set(SEQUENT_RULES), system.name


def test_arity_error():
    leaf = DerivationNode(parse("!q"), parse("!p"), "A10")
    assert check_derivation("Kim", leaf).error == "arity-error"


def test_kim_prime_has_no_a16():
    node = DerivationNode(parse("~p"), parse("!(p & !~top)"), "A16")
    assert check_derivation("Kim", node).ok
    assert not check_derivation("Kim'", node).ok


def test_countermodel_p_or_not_p(a_prime):
    found = countermodel_search("ILM", parse("p | ~p"), 3)
    assert found is not None
    alg, valuation = found
    assert alg.size == 3
    mapping = iso_check(alg, a_prime)
    assert mapping is not None
    assert mapping[valuation["p"]] == "a"
    again = countermodel_search("ILM", parse("p | ~p"), 3)
    assert again[0] is found[0] or again[0] == found[0]
    assert again[1] == found[1]


def test_countermodel_bot_iff_tilde_top(b_prime):
    # the first witness in canonical order is the two-element algebra whose
    # distinguished element is the top; the three-element one also refutes it
    found = countermodel_search("ILM", parse("bot <-> ~top"), 3)
    assert found is not None
    alg, valuation = found
    assert alg.size == 2 and valuation == {}
    assert alg.tilde_one == alg.lattice.top
    assert not algebra_valid(b_prime, parse("bot <-> ~top")).valid


def test_countermodel_absent_for_em_extension():
    assert countermodel_search("ILM-v", parse("p | ~p"), 6) is None


def test_countermodel_sequent(b_prime):
    goal = (parse("~~p"), parse("p"))
    found = countermodel_search("Kim", goal, 3)
    assert found is not None
    alg, valuation = found
    assert alg.size == 2
    assert not sequent_valid(kim_reduct(b_prime), *goal).valid


def test_countermodel_axioms_sound():
    subst = {"a": Atom("p"), "b": Atom("q"), "c": Atom("r")}
    for sid in [f"A{i}" for i in range(1, 12)] + ["TD", "DNE", "Pprime", "A13"]:
        for scheme in SCHEMES[sid]:
            inst = substitute(scheme, subst)
            assert countermodel_search("ILM", inst, 3) is None, sid
    for sid, variants in SEQUENT_RULES.items():
        if sid == "A18":
            continue
        for premises, concl in variants:
            if premises:
                continue
            goal = (substitute(concl[0], subst), substitute(concl[1], subst))
            assert countermodel_search("Kim", goal, 3) is None, sid


def test_countermodel_guard():
    with pytest.raises(BoundGuardError):
        countermodel_search("ILM", parse("p"), 9)


def test_countermodel_language_checks():
    for system, goal, error in [
            ("JP'", parse("bot"), ("wrong-language", "bot", "")),
            ("Kim", (parse("p -> q"), parse("q")), ("wrong-language", "p -> q |- q", "")),
            ("Kim", parse("p"), ("wrong-goal-kind", "Kim", "expected a sequent")),
            ("ILM", (parse("p"), parse("p")), ("wrong-goal-kind", "ILM", "expected a formula")),
            # a sequent goal is a 2-tuple of formulas, checked before it is unpacked
            ("Kim", "p", ("wrong-goal-kind", "Kim", "expected a sequent")),
            ("Kim", (parse("p"),), ("wrong-goal-kind", "Kim", "expected a sequent")),
            ("Kim", (parse("p"),) * 3, ("wrong-goal-kind", "Kim", "expected a sequent")),
            ("Kim", ("p", "q"), ("wrong-goal-kind", "Kim", "expected a sequent")),
            ("nope", parse("p"), ("unknown-system", "nope", ""))]:
        with pytest.raises(AlgebraError) as e:
            countermodel_search(system, goal, 3)
        assert (e.value.kind, e.value.witness, e.value.detail) == error


def test_proof_text_round_trip(fixtures_dir):
    for name in PROOFS["hilbert"]:
        mode, system, script = parse_proof((fixtures_dir / name).read_text())
        assert parse_proof(hilbert_proof_text(system, script)) == (mode, system, script)
    mode, system, root = parse_proof((fixtures_dir / "kim_p7.prf").read_text())
    text = sequent_proof_text(system, root)
    mode2, system2, root2 = parse_proof(text)
    assert (root2.lhs, root2.rhs, root2.rule) == (root.lhs, root.rhs, root.rule)


def test_shared_premises_checked_once_in_preorder():
    # line 2 is met twice under line 3; the first failure in pre-order is 4
    text = "\n".join(["proof sequent Kim",
                      "1 q |- q axiom A1",
                      "2 q |- q rule A2 from 1 1",
                      "3 q |- q rule A2 from 2 2",
                      "4 q |- p axiom A1",
                      "5 q |- p rule A2 from 3 4",
                      "end"]) + "\n"
    _, system, root = parse_proof(text)
    assert check_derivation(system, root) == CheckResult(False, "bad-axiom", 4, "A1")


@pytest.mark.parametrize("second", ["{}", "1"])
def test_deep_and_shared_derivations_round_trip(second):
    body = [f"{i} p |- p rule A2 from {i - 1} {second.format(i - 1)}" for i in range(2, 1501)]
    text = "\n".join(["proof sequent Kim", "1 p |- p axiom A1", *body, "end"]) + "\n"
    _, system, root = parse_proof(text)
    assert check_derivation(system, root).ok
    assert sequent_proof_text(system, root) == text


def test_proof_fixtures_regenerate(regenerate, fixtures_dir):
    """The fixture tool, run from a copy, writes every .prf byte for byte."""
    written = sorted(regenerate("make_proof_fixtures.py").glob("*.prf"))
    assert [p.name for p in written] == sorted(p.name for p in fixtures_dir.glob("*.prf"))
    for path in written:
        assert path.read_bytes() == (fixtures_dir / path.name).read_bytes(), path.name


def test_proof_fixture_tool_stops_on_a_bad_construction():
    """A construction check of the fixture tool is no `assert`: under
    `python -O` a bad axiom instance still stops it with exit code 1."""
    tools = Path(__file__).resolve().parent.parent / "tools"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tools.parent / "src"), str(tools)]))
    run = subprocess.run([sys.executable, "-O", "-c",
                          "import make_proof_fixtures as m; m.Hilbert().ax('A1', m.P)"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 1
    assert run.stderr.strip() == "make_proof_fixtures: p is not an instance of A1"


def test_checker_rejections():
    """A justification that is neither an axiom nor modus ponens, a sequent
    with `->` and an unknown system."""
    goal = parse("p -> (q -> p)")
    rule = ProofScript((ProofLine(1, goal, ("rule", "A1")),), goal)
    assert check_hilbert("ILM", rule) == CheckResult(False, "bad-justification", 1)
    assert check_hilbert("nope", rule) == CheckResult(False, "unknown-system", None, "nope")
    impl = DerivationNode(parse("p -> q"), parse("p -> q"), "A1")
    assert check_derivation("Kim", impl) == \
        CheckResult(False, "wrong-language", None, "p -> q")
    leaf = DerivationNode(parse("p"), parse("p"), "A1")
    assert check_derivation("nope", leaf) == CheckResult(False, "unknown-system", None, "nope")


@pytest.mark.parametrize("text, kind, witness", [
    ("proof sequent Kim\nend\n", "empty-proof", None),
    ("proof hilbert ILM\n1 p mp 1\nqed p\nend\n", "bad-line", "1 p mp 1"),
    ("proof sequent Kim\n1 p |- p axiom A1\n2 p |- p rule A2 1\nend\n",
     "bad-line", "2 p |- p rule A2 1"),
    ("end\n", "missing-header", None)])
def test_proof_file_errors(text, kind, witness):
    with pytest.raises(FileFormatError) as e:
        parse_proof(text)
    assert (e.value.kind, e.value.witness) == (kind, witness)
