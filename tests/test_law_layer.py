"""The negation-law layer against the former hand-chained code.

The oracles below are the former bodies of `minimal_negation_violation`,
`intuitionistic_negation_violation`, `kim_violations`,
`classify_negation_pair` and `classify_algebra`, which wrote the kite path
out three times and built every class flag by its own conjunction.  The law
layer now reads one path table (`algebra._PATH`) and one conjunction
(`algebra._all`), and the bridge and `build_au` run only the ccpba check
(`algebra.ccpba_flags`); every flag, witness and error must stay the same.
"""

from __future__ import annotations

import itertools
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from twoneg import algebra, bridge
from twoneg._record import replace
from twoneg.algebra import (ClassReport, Flag, KiteReport, _absorb, _antitone, _de_morgan,
                            _em, _flag, _intuit, _nor, _or_linear, _quasi,
                            _residuation_witness, build_au, classify_algebra,
                            classify_negation_pair, enumerate_algebras, kim_violations)
from twoneg.bridge import _require_ccpba, canonical_frame_ccpba, complex_algebra_subnormal
from twoneg.errors import AlgebraError
from twoneg.frames import is_identity
from twoneg.lattice import all_lattices, derive_heyting

from support import outcome, unary

LATTICES = all_lattices(6)


# -- the former code ---------------------------------------------------------

def minimal_negation_violation(lat, t):
    for law, check in (("antitone", _antitone), ("or-linear", _or_linear),
                       ("nor", _nor), ("quasi", _quasi), ("absorption", _absorb)):
        w = check(lat, t)
        if w is not None:
            return law, w
    return None


def intuitionistic_negation_violation(lat, t):
    v = minimal_negation_violation(lat, t)
    if v is not None:
        return v
    w = _intuit(lat, t)
    if w is not None:
        return ("intuitionistic", w)
    return None


def old_kim_violations(lat, neg, tilde):
    bad = intuitionistic_negation_violation(lat, neg)
    if bad is not None:
        return ("neg-" + bad[0], bad[1])
    bad = minimal_negation_violation(lat, tilde)
    if bad is not None:
        return ("tilde-" + bad[0], bad[1])
    t1 = tilde[lat.top]
    if neg[neg[t1]] != t1:
        return ("dne", (t1,))
    return None


def old_classify_negation_pair(lat, neg, tilde):
    bad = intuitionistic_negation_violation(lat, neg)
    if bad is not None:
        law, w = bad
        raise AlgebraError("neg-not-intuitionistic",
                           tuple(lat.elements[i] for i in w), law)
    pre_w = _antitone(lat, tilde) or _or_linear(lat, tilde) or _nor(lat, tilde)
    pre = _flag(lat, pre_w)
    quasi = Flag(False, pre.witness) if not pre.holds else _flag(lat, _quasi(lat, tilde))
    minimal = Flag(False, quasi.witness) if not quasi.holds else _flag(lat, _absorb(lat, tilde))
    intuit = Flag(False, minimal.witness) if not minimal.holds else _flag(lat, _intuit(lat, tilde))
    dem = _flag(lat, _de_morgan(lat, tilde))
    if intuit.holds and dem.holds:
        ortho = Flag(True)
    else:
        ortho = Flag(False, (intuit if not intuit.holds else dem).witness)
    em = _flag(lat, _em(lat, tilde))
    t1 = tilde[lat.top]
    dd = neg[neg[t1]]
    dne = Flag(True) if lat.leq[dd][t1] else Flag(False, (lat.elements[t1],))
    return KiteReport(pre, quasi, minimal, intuit, dem, ortho, em, dne)


def old_classify_algebra(alg):
    lat = alg.lattice
    pba = _flag(lat, _residuation_witness(lat, alg.impl))
    if alg.tilde is None:
        missing = Flag(False, ())
        return ClassReport(pba, missing, missing, missing, missing, missing, missing)
    t = alg.tilde
    t1 = alg.tilde_one
    dne_ok = alg.neg[alg.neg[t1]] == t1
    ccpba = Flag(pba.holds and dne_ok,
                 None if pba.holds and dne_ok else (pba.witness or (lat.elements[t1],)))
    em = _flag(lat, _em(lat, t))
    cvc = Flag(ccpba.holds and em.holds,
               None if ccpba.holds and em.holds else (ccpba.witness or em.witness))
    jp_w = next(((a,) for a in range(lat.size)
                 if t[t[alg.impl[t1][a]]] != lat.top), None)
    jp = Flag(pba.holds and jp_w is None,
              None if pba.holds and jp_w is None else (pba.witness or _flag(lat, jp_w).witness))
    kim_v = old_kim_violations(lat, alg.neg, t)
    kim = Flag(kim_v is None, None if kim_v is None
               else tuple(lat.elements[i] for i in kim_v[1]))
    kim_vee = Flag(kim.holds and em.holds,
                   None if kim.holds and em.holds else (kim.witness or em.witness))
    inv_w = next(((a,) for a in range(lat.size) if t[t[a]] != a), None)
    return ClassReport(pba, ccpba, cvc, jp, kim, kim_vee, _flag(lat, inv_w))


def old_ccpba_flags(alg):
    """The former route to the ccpba flag: the whole classification."""
    report = old_classify_algebra(alg)
    return report.is_pba, report.is_ccpba


# -- helpers -----------------------------------------------------------------

def _pseudo_complement(lat):
    return tuple(row[lat.bottom] for row in derive_heyting(lat))


def _assert_same_laws(lat, neg, tilde):
    assert kim_violations(lat, neg, tilde) == old_kim_violations(lat, neg, tilde)
    assert (outcome(classify_negation_pair, lat, neg, tilde)
            == outcome(old_classify_negation_pair, lat, neg, tilde))


def _assert_same_classes(alg):
    assert classify_algebra(alg) == old_classify_algebra(alg)
    assert algebra.ccpba_flags(alg) == old_ccpba_flags(alg)
    ccpba = old_ccpba_flags(alg)[1]
    if alg.tilde is None:
        want = ("AlgebraError", "not-a-ccpba", alg.name, "no tilde_one attached")
    elif ccpba.holds:
        want = alg
    else:
        want = ("AlgebraError", "not-a-ccpba", alg.name, str(ccpba.witness))
    assert outcome(_require_ccpba, alg) == want


@st.composite
def _negation(draw, lat):
    """A random map, a random antitone one (a random map met over each
    element's down-set), a lawful one (a -> t for some t), or a lawful one
    with one cell changed; then perhaps with t(bottom) = top forced."""
    n = lat.size
    impl = derive_heyting(lat)
    lawful = tuple(row[draw(st.integers(0, n - 1))] for row in impl)
    kind = draw(st.sampled_from(["random", "antitone", "lawful", "perturbed"]))
    if kind == "random":
        t = list(draw(unary(n)))
    elif kind == "antitone":
        r = draw(unary(n))
        t = [reduce(lambda x, b: lat.meet[x][r[b]], (b for b in range(n) if lat.leq[b][a]),
                    lat.top) for a in range(n)]
    else:
        t = list(lawful)
        if kind == "perturbed":
            t[draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        t[lat.bottom] = lat.top
    return tuple(t)


@st.composite
def _law_case(draw):
    lat = draw(st.sampled_from(LATTICES))
    neg = _pseudo_complement(lat) if draw(st.booleans()) else draw(_negation(lat))
    return lat, neg, draw(_negation(lat))


@st.composite
def _corruption(draw, alg, kinds=("none", "impl", "tilde_one", "tilde")):
    """A function that corrupts a record of `alg`'s size in one table cell or
    in its ~1 (one of `kinds`), or leaves it alone."""
    n = alg.size
    kind = draw(st.sampled_from(kinds))
    a, b, v = (draw(st.integers(0, n - 1)) for _ in range(3))

    def corrupt(rec):
        if kind == "impl":
            rows = [list(row) for row in rec.impl]
            rows[a][b] = v
            return replace(rec, impl=tuple(map(tuple, rows)))
        if kind == "tilde_one":
            return replace(rec, tilde_one=v)
        if kind == "tilde":
            tilde = list(rec.tilde)
            tilde[a] = v
            return replace(rec, tilde=tuple(tilde))
        return rec
    return corrupt


# -- the tests ---------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(_law_case())
def test_path_table_matches_former_ladder(case):
    """Same KiteReport or neg-not-intuitionistic error, same kim_violations."""
    _assert_same_laws(*case)


def test_every_antitone_map_on_small_lattices():
    """Every map that passes the first law, on every lattice of at most 5
    elements, against the pseudo-complement: where the later laws' order
    decides the first failure."""
    for lat in all_lattices(5):
        neg = _pseudo_complement(lat)
        for t in itertools.product(range(lat.size), repeat=lat.size):
            if _antitone(lat, t) is None:
                _assert_same_laws(lat, neg, t)


def test_every_tilde_one_classifies_as_before(candidate):
    """Every element of every lattice of at most 6 elements as ~1, those
    that break !!~1 = ~1 included."""
    for lat in LATTICES:
        neg = _pseudo_complement(lat)
        for t1 in range(lat.size):
            alg = candidate(lat, t1)
            _assert_same_classes(alg)
            _assert_same_laws(lat, neg, alg.tilde)
        _assert_same_classes(algebra.attach_negations(lat, None, name="pba"))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LATTICES).flatmap(
    lambda lat: st.tuples(st.just(lat), st.integers(0, lat.size - 1))), st.data())
def test_corrupted_records_classify_as_before(candidate, case, data):
    lat, t1 = case
    base = candidate(lat, t1)
    alg = replace(data.draw(_corruption(base))(base), name="corrupt")
    _assert_same_classes(alg)
    _assert_same_laws(lat, alg.neg, alg.tilde)


FRAMES = [canonical_frame_ccpba(alg) for alg in enumerate_algebras("ccpba", 5)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FRAMES), st.data())
def test_complex_algebra_check_matches_former_route(fr, data):
    """complex-not-ccpba and complex-not-cvcpba as the full classification
    of the (corrupted) upset algebra reported them."""
    corrupt = data.draw(_corruption(complex_algebra_subnormal(fr)))
    real = bridge.attach_negations
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bridge, "attach_negations", lambda *a, **k: corrupt(real(*a, **k)))
        got = outcome(complex_algebra_subnormal, fr)
    alg = corrupt(complex_algebra_subnormal(fr))
    report = old_classify_algebra(alg)
    if not report.is_ccpba.holds:
        want = ("VerificationError", "complex-not-ccpba", report.is_ccpba.witness, "")
    elif is_identity(fr) and not report.is_cvcpba.holds:
        want = ("VerificationError", "complex-not-cvcpba", report.is_cvcpba.witness, "")
    else:
        want = alg
    assert got == want


PBAS = enumerate_algebras("pba", 5)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PBAS).flatmap(lambda h: st.tuples(
    st.just(h), st.integers(0, h.size - 1), st.integers(0, h.size - 1))), st.data())
def test_build_au_check_matches_former_route(case, data):
    """au-not-ccpba (and every earlier error) as when the ccpba flag came
    from the full classification.  A corrupted implication or ~ table is
    caught by the cross-checks before it, a corrupted ~1 only by it."""
    h, u1, u2 = case
    if not h.lattice.leq[u1][u2]:
        u1 = h.lattice.bottom
    probe = build_au(h, u1, u2)
    corrupt = data.draw(_corruption(probe, ("impl", "tilde_one", "tilde_one", "tilde_one")))
    real = algebra.attach_negations
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "attach_negations", lambda *a, **k: corrupt(real(*a, **k)))
        got = outcome(build_au, h, u1, u2)
        # every check before the ccpba one, then that one by the former route
        mp.setattr(algebra, "ccpba_flags", lambda alg: (Flag(True), Flag(True)))
        want = outcome(build_au, h, u1, u2)
    if not isinstance(want, tuple):
        ccpba = old_ccpba_flags(want)[1]
        if not ccpba.holds:
            want = ("VerificationError", "au-not-ccpba", ccpba.witness, "")
    assert got == want
