from __future__ import annotations

import pytest

from twoneg.algebra import (Algebra, algebra_valid, attach_negations, build_au,
                            classify_algebra, classify_negation_pair,
                            enumerate_algebras, evaluate, iso_check,
                            kim_reduct, read_algebra, sequent_valid,
                            tilde_one_candidates, write_algebra)
from twoneg import algebra
from twoneg.errors import AlgebraError, BoundGuardError, VerificationError
from twoneg.formula import parse
from twoneg.lattice import build_lattice


def test_tilde_one_candidate_sets(chain3, h5, h6):
    assert [chain3.elements[i] for i in tilde_one_candidates(chain3)] == ["0", "1"]
    assert [h5.elements[i] for i in tilde_one_candidates(h5)] == ["0", "a", "b", "1"]
    assert [h6.elements[i] for i in tilde_one_candidates(h6)] == ["0", "y", "x", "1"]


def test_three_chain_classifications(a_prime, b_prime):
    ra = classify_algebra(a_prime)
    assert ra.is_ccpba.holds and not ra.is_cvcpba.holds
    assert ra.is_cvcpba.witness == ("a",)
    rb = classify_algebra(b_prime)
    assert rb.is_ccpba.holds and rb.is_cvcpba.holds
    # ~ of b_prime sends every element to 1
    assert all(b_prime.tilde[i] == b_prime.lattice.top for i in range(3))


@pytest.mark.parametrize("t1,cvc,witness", [
    ("0", False, "a"), ("a", False, "b"), ("b", False, "a"), ("1", True, None),
])
def test_h5_classifications(h5, t1, cvc, witness):
    alg = attach_negations(h5, h5.index(t1))
    report = classify_algebra(alg)
    assert report.is_ccpba.holds
    assert report.is_cvcpba.holds == cvc
    if witness is not None:
        assert report.is_cvcpba.witness == (witness,)


@pytest.mark.parametrize("t1,cvc", [("0", False), ("y", False), ("x", True), ("1", True)])
def test_h6_classifications(h6, t1, cvc):
    alg = attach_negations(h6, h6.index(t1))
    report = classify_algebra(alg)
    assert report.is_ccpba.holds
    assert report.is_cvcpba.holds == cvc


def test_h6_w_violates_dne(h6):
    with pytest.raises(AlgebraError) as e:
        attach_negations(h6, h6.index("w"))
    assert e.value.kind == "dne-violation"
    alg = attach_negations(h6, h6.index("w"), require_dne=False)
    assert not classify_algebra(alg).is_ccpba.holds


def test_kite_constant_one_tilde(chain3):
    neg = (2, 0, 0)
    tilde = (2, 2, 2)
    kite = classify_negation_pair(chain3, neg, tilde)
    assert kite.minimal.holds and kite.em.holds and kite.dne_tilde_one.holds
    assert not kite.intuitionistic.holds
    assert kite.intuitionistic.witness == ("a",)


def test_kite_h6_w(h6):
    alg = attach_negations(h6, h6.index("w"), require_dne=False)
    kite = classify_negation_pair(h6, alg.neg, alg.tilde)
    assert kite.minimal.holds
    assert not kite.dne_tilde_one.holds


def test_kite_tilde_is_neg(chain3, a_prime):
    kite = classify_negation_pair(chain3, a_prime.neg, a_prime.neg)
    assert kite.intuitionistic.holds and kite.dne_tilde_one.holds
    assert not kite.em.holds and kite.em.witness == ("a",)


def test_kite_rejects_bad_companion(chain3):
    with pytest.raises(AlgebraError) as e:
        classify_negation_pair(chain3, (2, 2, 2), (2, 0, 0))
    assert e.value.kind == "neg-not-intuitionistic"


def test_evaluate_examples(a_prime, b_prime):
    v = {"p": 1}
    assert evaluate(b_prime, parse("p | ~p"), v) == 2
    assert evaluate(a_prime, parse("p | ~p"), v) == 1
    assert evaluate(a_prime, parse("top"), {}) == 2
    with pytest.raises(AlgebraError) as e:
        evaluate(a_prime, parse("q"), v)
    assert e.value.kind == "unbound-atom"
    with pytest.raises(AlgebraError) as e:
        evaluate(kim_reduct(b_prime), parse("p -> q"), {"p": 0, "q": 0})
    assert e.value.kind == "implication-in-kim-language"


def test_algebra_valid_examples(a_prime, b_prime):
    bad = algebra_valid(a_prime, parse("p | ~p"))
    assert not bad.valid and bad.valuation == {"p": "a"}
    assert algebra_valid(b_prime, parse("p | ~p")).valid
    for alg in enumerate_algebras("ccpba", 4):
        assert algebra_valid(alg, parse("!p -> ~p")).valid


def test_sequent_valid_examples(b_prime):
    reduct = kim_reduct(b_prime)
    verdict = sequent_valid(reduct, parse("~~p"), parse("p"))
    assert not verdict.valid and verdict.valuation == {"p": "0"}
    assert sequent_valid(reduct, parse("p"), parse("top")).valid
    for alg in enumerate_algebras("kim", 4):
        assert sequent_valid(alg, parse("~p"), parse("!(p & !~top)")).valid


def test_enumerate_exact_counts():
    cat3 = [a for a in enumerate_algebras("ccpba", 3) if a.size == 3]
    assert len(cat3) == 2
    assert len([a for a in enumerate_algebras("cvcpba", 3) if a.size == 3]) == 1
    assert len([a for a in enumerate_algebras("ccpba", 2) if a.size == 2]) == 2
    # distinguished elements of the two three-element algebras: bottom and top
    marks = sorted(a.tilde_one for a in cat3)
    assert marks == [0, 2]


def test_enumerate_guard():
    with pytest.raises(BoundGuardError):
        enumerate_algebras("ccpba", 9)
    enumerate_algebras("ccpba", 3, False, None)  # guard disabled


def test_enumerate_trivial_flag():
    assert all(a.size >= 2 for a in enumerate_algebras("ccpba", 3))
    with_trivial = enumerate_algebras("ccpba", 3, True)
    assert any(a.size == 1 for a in with_trivial)


def test_iso_check(a_prime, b_prime, chain3):
    assert iso_check(a_prime, b_prime) is None
    ident = iso_check(a_prime, a_prime)
    assert ident == {"0": "0", "a": "a", "1": "1"}
    chain4 = build_lattice(list("0ab1"), [("0", "a"), ("a", "b"), ("b", "1")])
    square = build_lattice(list("0pq1"), [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")])
    assert iso_check(attach_negations(chain4, 0), attach_negations(square, 0)) is None
    # relabelled copy is found isomorphic
    other = build_lattice(["bot", "mid", "top"], [("bot", "mid"), ("mid", "top")])
    assert iso_check(a_prime, attach_negations(other, 0)) == {
        "0": "bot", "a": "mid", "1": "top"}


def test_iso_check_raises_on_bad_bijection(monkeypatch, a_prime):
    # equal keys but a permutation that reverses the chain: the re-check must
    # raise, not assert (python -O strips asserts)
    perms = iter([[0, 1, 2], [2, 1, 0]])
    monkeypatch.setattr(algebra, "_canonical_data", lambda alg: ("key", next(perms)))
    with pytest.raises(VerificationError) as e:
        iso_check(a_prime, a_prime)
    assert e.value.kind == "iso-binary-mismatch"


def test_build_au_example(h6):
    base = attach_negations(h6, None, name="h6")
    au = build_au(base, h6.index("z"), h6.index("w"))
    assert au.lattice.elements == ("(0,0)", "(0,y)", "(z,z)", "(z,w)")
    tilde = {au.element(i): au.element(au.tilde[i]) for i in range(au.size)}
    # definitional formula values; the two fixed points of the printed table
    # contradict antitonicity and are not reproduced
    assert tilde == {"(0,0)": "(z,w)", "(0,y)": "(z,w)",
                     "(z,z)": "(0,y)", "(z,w)": "(0,y)"}
    assert classify_algebra(au).is_cvcpba.holds


def test_build_au_rejects_unordered(h6):
    base = attach_negations(h6, None)
    with pytest.raises(AlgebraError) as e:
        build_au(base, h6.index("w"), h6.index("z"))
    assert e.value.kind == "u-not-ordered"


def test_algebra_file_round_trip(fixtures_dir):
    text = (fixtures_dir / "h6_x.alg").read_text()
    alg = read_algebra(text)
    assert alg.name == "h6_x"
    assert alg.tilde_one == alg.lattice.index("x")
    assert read_algebra(write_algebra(alg)) == alg


def test_reduct_of_every_ccpba_is_kim():
    for alg in enumerate_algebras("ccpba", 4):
        kim_reduct(alg)  # raises if the negation laws fail
