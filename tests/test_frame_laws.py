"""The frame-law tables against the hand-written sequences they replaced.

Each frame kind's conditions are one table of (tag, witness) rows in
`twoneg.frames`; the builders, `nhat_violations`, `subcompat_violation` and
the complex-algebra builders in `twoneg.bridge` read them.  The former
sequences are the oracles in `oracles.py`, over their own copies of the
former cell-by-cell law witnesses, `~top`, condition (D)/(3), the identity
test and `phi`: on the posets of at most 5 worlds with random relations and
Y0, every builder must raise the same error (kind, witness and detail),
`nhat_violations` must list the same failures, and `tilde_top_worlds`,
`dne_tilde_top_witness`, `is_identity` and `phi` must agree with the
copies."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from twoneg.bridge import complex_algebra_compat, complex_algebra_subnormal
from twoneg.errors import AlgebraError
from twoneg.frames import (_COMPAT_LAWS, _NHAT_LAWS, _SUBCOMPAT_LAWS, _SUBNORMAL_LAWS,
                           CompatFrame, NhatFrame, SubNormalFrame, build_compat,
                           build_nhat, build_subnormal, dne_tilde_top_witness,
                           is_identity, nhat_violations, subcompat_violation,
                           tilde_top_worlds)
from twoneg.lattice import all_posets
from twoneg.translate import phi

import oracles
from support import outcome

POSETS = [leq for _, found in sorted(all_posets(5).items()) for leq in found]


def _relations(leq):
    """A random relation, or one that has stability, symmetry and
    condensation by construction: a common upper bound outside `skip`."""
    n = len(leq)
    cells = st.lists(st.lists(st.booleans(), min_size=n, max_size=n).map(tuple),
                     min_size=n, max_size=n).map(tuple)
    lawful = st.sets(st.integers(0, n - 1)).map(lambda skip: tuple(
        tuple(any(leq[x][z] and leq[y][z] and z not in skip for z in range(n))
              for y in range(n)) for x in range(n)))
    return st.one_of(cells, lawful)


@st.composite
def frames(draw):
    leq = draw(st.sampled_from(POSETS))
    rn1, rn2, c = (draw(_relations(leq)) for _ in range(3))
    y0 = draw(st.sets(st.integers(0, len(leq) - 1)))
    return leq, rn1, rn2, c, y0


def _pairs(names, rel):
    n = len(names)
    return [(names[x], names[y]) for x in range(n) for y in range(n) if rel[x][y]]


@settings(max_examples=250, deadline=None)
@given(frames())
def test_table_builders_match_the_hand_written_sequences(case):
    leq, rn1, rn2, c, y0 = case
    names = tuple(f"w{i}" for i in range(len(leq)))
    order = _pairs(names, leq)
    y0_names = [names[i] for i in sorted(y0)]
    assert (outcome(build_subnormal, names, order, y0_names)
            == outcome(oracles.build_subnormal, names, order, y0_names))
    rn1_pairs, rn2_pairs, c_pairs = (_pairs(names, r) for r in (rn1, rn2, c))
    assert (outcome(build_nhat, names, order, rn1_pairs, rn2_pairs)
            == outcome(oracles.build_nhat, names, order, rn1_pairs, rn2_pairs))
    nh = NhatFrame(names, leq, rn1, rn2)
    assert nhat_violations(nh) == oracles.nhat_violations(nh)
    for strict in (False, True):
        assert (outcome(build_compat, names, order, c_pairs, require_subcompat=strict)
                == outcome(oracles.build_compat, names, order, c_pairs,
                            require_subcompat=strict))
    cf = CompatFrame(names, leq, c)
    assert subcompat_violation(cf) == oracles.subcompat_violation(cf)
    sn = SubNormalFrame(names, leq, frozenset(y0))
    for fr in (sn, nh, cf):
        assert tilde_top_worlds(fr) == oracles.tilde_top_worlds(fr)
        assert dne_tilde_top_witness(fr) == oracles.dne_tilde_top_witness(fr)
        assert is_identity(fr) == oracles.is_identity(fr)
    assert outcome(phi, sn) == outcome(oracles.phi, sn)


def test_each_kind_lists_its_laws_in_checking_order():
    assert [tag for tag, _ in _SUBNORMAL_LAWS] == ["y0-not-upset", "D"]
    assert [tag for tag, _ in _NHAT_LAWS] == [
        "R1-stability", "R1-symmetry", "R1-condensation",
        "R2-stability", "R2-symmetry", "R2-condensation", "R1-reflexivity", "3"]
    assert [tag for tag, _ in _COMPAT_LAWS] == ["C-law"]
    assert [tag for tag, _ in _SUBCOMPAT_LAWS] == ["C-symmetry", "C-condensation", "3"]


CHAIN = ((True, True), (False, True))      # a <= b
ANTICHAIN = ((True, False), (False, True))
EMPTY = ((False, False), (False, False))

# One record-built frame per law that the bridge checks, breaking that law
# first; the builders reject each of them.
BROKEN = {
    "y0-not-upset": SubNormalFrame(("a", "b"), CHAIN, frozenset({0})),
    "D": SubNormalFrame(("a", "b"), CHAIN, frozenset({1})),
    "C-law": CompatFrame(("a", "b"), CHAIN, ((False, False), (False, True))),
    "C-symmetry": CompatFrame(("a", "b"), ANTICHAIN, ((False, True), (False, False))),
    "C-condensation": CompatFrame(("a", "b"), ANTICHAIN, ((False, True), (True, False))),
    "3": CompatFrame(("a", "b"), CHAIN, ((True, False), (False, False))),
}


@pytest.mark.parametrize("law", sorted(BROKEN))
def test_bridge_rejects_a_frame_breaking_each_law(law):
    fr = BROKEN[law]
    if isinstance(fr, SubNormalFrame):
        with pytest.raises(AlgebraError) as e:
            complex_algebra_subnormal(fr)
        assert (e.value.kind, e.value.detail) == ("not-a-subnormal-frame",
                                                  f"condition ({law}) fails")
    else:
        with pytest.raises(AlgebraError) as e:
            complex_algebra_compat(fr)
        assert (e.value.kind, e.value.witness) == ("not-a-subcompat-frame", law)


def test_nhat_violations_lists_every_failure():
    # On an antichain R1 = {aa, ab, bb} and R2 = {ab}: a sees b, not the
    # converse, and the two share no upper bound; ~top holds at b alone.
    fr = NhatFrame(("a", "b"), ANTICHAIN, ((True, True), (False, True)),
                   ((False, True), (False, False)))
    assert nhat_violations(fr) == [
        ("R1-symmetry", ("a", "b")), ("R1-condensation", ("a", "b")),
        ("R2-symmetry", ("a", "b")), ("R2-condensation", ("a", "b")), ("3", ("a",))]
    assert nhat_violations(NhatFrame(("a", "b"), CHAIN, EMPTY, EMPTY)) == [
        ("R1-reflexivity", ("a",))]
