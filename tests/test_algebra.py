from __future__ import annotations

import pytest

from twoneg.algebra import (Algebra, _is_residuum, algebra_valid, attach_negations,
                            build_au, build_kim, ccpba_flags, classify_algebra,
                            classify_negation_pair,
                            enumerate_algebras, evaluate, iso_check,
                            read_algebra, sequent_valid, write_algebra)
from twoneg import algebra
from twoneg.errors import AlgebraError, BoundGuardError, LatticeError, VerificationError
from twoneg.formula import parse
from twoneg.lattice import FiniteLattice, _residuum, build_lattice

from support import kim_reduct, table_record


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


def test_h6_w_violates_dne(h6):
    with pytest.raises(AlgebraError) as e:
        attach_negations(h6, h6.index("w"))
    assert e.value.kind == "dne-violation"
    alg = table_record(h6, h6.index("w"))
    assert not classify_algebra(alg).is_ccpba.holds


def test_kite_constant_one_tilde(chain3):
    neg = (2, 0, 0)
    tilde = (2, 2, 2)
    kite = classify_negation_pair(chain3, neg, tilde)
    assert kite.minimal.holds and kite.em.holds and kite.dne_tilde_one.holds
    assert not kite.intuitionistic.holds
    assert kite.intuitionistic.witness == ("a",)


def test_kite_h6_w(h6):
    alg = table_record(h6, h6.index("w"))
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
    with pytest.raises(AlgebraError) as e:
        enumerate_algebras("nope", 3)
    assert (e.value.kind, e.value.witness) == ("unknown-class", "nope")
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
    # another record type, another size, `~` on one side only
    chain2 = build_lattice(["0", "1"], [("0", "1")])
    assert iso_check(a_prime, kim_reduct(a_prime)) is None
    assert iso_check(a_prime, attach_negations(chain2, 0)) is None
    assert iso_check(attach_negations(chain3, None), a_prime) is None


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


def test_pba_flag_on_an_order_with_no_meets():
    """On a record over an order whose minimal elements 0 and a lie below b
    and have no meet, the cached residuum cannot be built, so `_is_residuum`
    is False and the residuation walk names the witness."""
    t, f = True, False
    leq = ((t, f, t), (f, t, t), (f, f, t))
    meet = ((0, 2, 0), (2, 1, 1), (0, 1, 2))
    lat = FiniteLattice(("0", "a", "b"), leq, meet, meet, 0, 2)
    impl = ((0, 0, 0),) * 3
    with pytest.raises(LatticeError) as e:
        _residuum(leq)
    assert e.value.kind == "missing-glb"
    assert not _is_residuum(lat, impl)
    pba, ccpba = ccpba_flags(Algebra("v", lat, impl, (0, 0, 0), None, None))
    assert (pba.holds, pba.witness) == (False, ("0", "0", "b"))
    assert (ccpba.holds, ccpba.witness) == (False, ())


def test_build_kim_names_the_first_failed_law():
    lat3 = build_lattice(["e0", "e1", "e2"], [("e0", "e1"), ("e1", "e2")])
    with pytest.raises(AlgebraError) as e:
        build_kim(lat3, (2, 0, 0), (0, 0, 0))
    assert (e.value.kind, e.value.witness, e.value.detail) == (
        "not-a-kim-algebra", ("e0",), "tilde-nor")
