"""Frame truth sets through the compiled goal program over world masks,
against the recursive frozenset walk it replaced.

`oracles.frame_walk` is the former body of `frames.truth_set`, and
`oracles.frame_scan` the former valuation search behind `frame_valid` and
`frame_sequent_valid`.  Truth sets and raised errors (kind and witness)
must agree on sub-normal, N-hat and compatibility frames: the shared frame
corpus (`support.FRAMES`), hand-built frames of 9 and 10 worlds, and N-hat
frames whose R1 is not the order; so must verdicts, falsifying valuations
and least worlds on the last two (the corpus's verdicts are compared in
`test_staged_search.py`).  The mask kernel `frames._no_successor_in`, the
per-search mappings `frames._bind` reads it through, and the complex
algebra of a compatibility frame are checked against the frozenset clause
`oracles.no_successor_in`."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from twoneg.algebra import VALID, enumerate_algebras
from twoneg.bridge import canonical_frame_kim, complex_algebra_compat
from twoneg.errors import FrameError
from twoneg.formula import TOP, And, Atom, Impl, Neg, atoms, parse
from twoneg import frames
from twoneg.frames import (NhatFrame, SubNormalFrame, _bind, _no_successor_in, _upsets,
                           build_compat, build_subnormal, frame_sequent_valid,
                           frame_upsets, frame_valid, truth_set)
from twoneg.lattice import _bits
from twoneg.translate import phi

from oracles import frame_scan, frame_walk as walk, no_successor_in
from support import FRAMES, NAMES, formulas, off_order, outcome, same


# Two 5-world chains, the second queer; the 3x3 grid; their phi images; and
# the two chains as a compatibility frame whose C lies below a2 or b1.
_CHAINS = ([f"a{i}" for i in range(5)] + [f"b{i}" for i in range(5)],
           [(f"a{i}", f"a{i + 1}") for i in range(4)] + [(f"b{i}", f"b{i + 1}") for i in range(4)])
_GRID = ([f"g{i}{j}" for i in range(3) for j in range(3)],
         [(f"g{i}{j}", f"g{i + 1}{j}") for i in range(2) for j in range(3)]
         + [(f"g{i}{j}", f"g{i}{j + 1}") for i in range(3) for j in range(2)])
_TWO_CHAINS = build_subnormal(*_CHAINS, [f"b{i}" for i in range(5)])
_GRID_FRAME = build_subnormal(*_GRID, [])
LARGE = [
    _TWO_CHAINS, phi(_TWO_CHAINS), phi(_GRID_FRAME),
    # a Y0 the builder rejects (condition D), read by the evaluator all the same
    SubNormalFrame(_GRID_FRAME.worlds, _GRID_FRAME.leq, frozenset({5, 7, 8})),
    build_compat(*_CHAINS, [(x, y) for block in (("a0", "a1", "a2"), ("b0", "b1"))
                            for x in block for y in block]),
]


def mask(s) -> int:
    return sum(1 << w for w in s)


names3 = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True).map(tuple)
goals = names3.flatmap(formulas)
names2 = st.lists(st.sampled_from(NAMES), min_size=1, max_size=2, unique=True).map(tuple)
goals2 = names2.flatmap(formulas)
sequents2 = names2.flatmap(lambda ns: st.tuples(formulas(ns), formulas(ns)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FRAMES + LARGE), goals, st.lists(st.sampled_from(NAMES), unique=True),
       st.randoms(use_true_random=False))
def test_truth_sets_agree(fr, f, bound, rnd):
    """Truth sets on valuations of the atoms `bound`; an atom of `f` left
    unbound competes in pre-order with `->` on a compatibility frame."""
    ups = frame_upsets(fr.leq)
    for _ in range(8):
        valuation = {name: rnd.choice(ups) for name in bound}
        expected = outcome(walk, fr, valuation, f)
        assert same(outcome(truth_set, fr, valuation, f), expected), (fr, f)
        if isinstance(expected, tuple):
            break


@pytest.mark.parametrize("text,kind,witness", [
    ("q & (p -> p)", "unbound-atom", "q"),
    ("(p -> p) & q", "wrong-language", lambda f: f.left),
    ("!p | ~(q -> r) | (p -> r)", "wrong-language", lambda f: f.left.right.child),
    ("~r & (r -> r)", "unbound-atom", "r"),
])
def test_first_offending_node_in_preorder(text, kind, witness):
    fr = build_compat(["a", "b"], [("a", "b")], [("a", "a")])
    f = parse(text)
    with pytest.raises(FrameError) as e:
        truth_set(fr, {"p": frozenset({1})}, f)
    assert e.value.kind == kind
    if callable(witness):
        assert e.value.witness is witness(f)
    else:
        assert e.value.witness == witness


@pytest.mark.parametrize("p", [frozenset({0}), frozenset({3}), frozenset({1, 5})])
def test_valuation_off_the_upsets_is_rejected(p):
    """On a <= b plus c, `p` must be an upset of the frame's worlds."""
    fr = build_subnormal(["a", "b", "c"], [("a", "b")], [])
    with pytest.raises(FrameError) as e:
        truth_set(fr, {"q": frozenset(), "p": p}, parse("q | !p"))
    assert (e.value.kind, e.value.witness) == ("valuation-not-upset", "p")


@pytest.mark.parametrize("lhs,rhs,witness", [
    ("p", "p -> q", lambda lhs, rhs: rhs),
    ("q -> p", "p -> q", lambda lhs, rhs: lhs),
    ("top", "!p | ~(q -> r) | (p -> r)", lambda lhs, rhs: rhs.left.right.child),
])
def test_validity_names_first_implication(lhs, rhs, witness):
    """On a compatibility frame `frame_sequent_valid` and `frame_valid` name
    the first `->` in pre-order, left side before right."""
    fr = build_compat(["a", "b"], [("a", "b")], [("a", "a")])
    lhs, rhs = parse(lhs), parse(rhs)
    for check, args in ((frame_sequent_valid, (lhs, rhs)), (frame_valid, (And(lhs, rhs),))):
        with pytest.raises(FrameError) as e:
            check(fr, *args)
        assert e.value.kind == "wrong-language"
        assert e.value.witness is witness(lhs, rhs)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(LARGE), goals2, sequents2)
def test_large_frame_verdicts_agree(fr, f, goal):
    assert same(outcome(frame_valid, fr, f), outcome(frame_scan, fr, TOP, f)), (fr, f)
    lhs, rhs = goal
    assert same(outcome(frame_sequent_valid, fr, lhs, rhs),
                outcome(frame_scan, fr, lhs, rhs)), (fr, goal)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32).map(off_order), goals2, sequents2,
       st.randoms(use_true_random=False))
def test_nhat_frame_off_the_order_agrees(fr, f, goal, rnd):
    """Truth sets and verdicts where `!` must read R1, not the order."""
    ups = frame_upsets(fr.leq)
    valuation = {name: rnd.choice(ups) for name in atoms(f)}
    assert same(outcome(truth_set, fr, valuation, f), outcome(walk, fr, valuation, f))
    assert same(outcome(frame_valid, fr, f), outcome(frame_scan, fr, TOP, f)), (fr, f)
    lhs, rhs = goal
    assert same(outcome(frame_sequent_valid, fr, lhs, rhs),
                outcome(frame_scan, fr, lhs, rhs)), (fr, goal)


def test_bang_reads_r1():
    """a <= b with R1 empty: no world has an R1-successor, so `!p` holds
    everywhere, though a and b both see b in the order."""
    fr = NhatFrame(("a", "b"), ((True, True), (False, True)),
                   ((False, False), (False, False)), ((True, True), (True, True)))
    p = Atom("p")
    assert truth_set(fr, {"p": frozenset({1})}, Neg(p)) == frozenset({0, 1})
    assert frame_valid(fr, Neg(p)) == VALID
    assert frame_valid(fr, Impl(Neg(p), Neg(p))) == VALID


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.booleans(), min_size=n, max_size=n).map(tuple),
             min_size=n, max_size=n).map(tuple),
    st.integers(0, 2**n - 1))))
def test_kernel_is_the_frozenset_clause(case):
    """On any relation and any set of worlds, upset or not."""
    rel, s = case
    assert _no_successor_in(rel)(s) == mask(no_successor_in(rel, frozenset(_bits(s))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32).map(off_order), st.randoms(use_true_random=False))
def test_one_clause_answers_repeated_masks(fr, rnd):
    """The mappings `_bind` hands one search, read by subscript with masks
    that repeat and interleave: the upsets of the order and the masks the
    clauses of R1 and R2 give them, most no upsets.  Every read, first or
    repeated, is the frozenset clause's, and a mapping keeps exactly the
    masks read from it."""
    _, _, order, bang, tilde, full, bottom = _bind(fr, lambda *ops: ops)
    assert (full, bottom) == ((1 << fr.size) - 1, 0)
    ups = list(_upsets(fr.leq))
    masks = ups + [_no_successor_in(r)(s) for r in (fr.rn1, fr.rn2) for s in ups]
    for rel, answers in ((fr.leq, order), (fr.rn1, bang), (fr.rn2, tilde)):
        assert not answers
        asked = rnd.choices(masks, k=4 * len(masks))
        for s in asked:
            assert answers[s] == mask(no_successor_in(rel, frozenset(_bits(s)))), (fr, rel, s)
        assert set(answers) == set(asked)


def test_a_subnormal_search_shares_the_order_clause():
    """`!` reads the order on a sub-normal or compatibility frame, so its
    search asks one mapping for both; an N-hat search gets three."""
    for fr in FRAMES:
        _, _, order, bang, tilde, _, _ = _bind(fr, lambda *ops: ops)
        assert (bang is order) == (fr.bang is fr.leq) and tilde is not order, fr
    _, _, order, bang, tilde, _, _ = _bind(off_order(7), lambda *ops: ops)
    assert len({id(order), id(bang), id(tilde)}) == 3


def test_the_duality_path_builds_no_memo(monkeypatch):
    """Condition (D)/(3), the complex compatibility algebra and the
    canonical Kim frame call the plain clause: none of them makes a search's
    mapping."""
    def refuse(clause):
        raise AssertionError("a clause memo outside a search")

    monkeypatch.setattr(frames, "_Answers", refuse)
    for alg in enumerate_algebras("kim", 6):
        fr = canonical_frame_kim(alg)
        assert frames.dne_tilde_top_witness(fr) is None
        assert complex_algebra_compat(fr).size == len(frame_upsets(fr.leq))
    with pytest.raises(AssertionError, match="outside a search"):
        frame_valid(fr, parse("~p | ~~p"))


@pytest.mark.parametrize("goal", ["!p | !!p", "!(p & q) -> !p | !q", "~(p -> q) | ~~p"])
def test_no_clause_memo_outlives_its_search(goal):
    """Frames over the same worlds with other orders, searched back to back
    with the same goal objects: each verdict is the oracle's, so no search
    reads a clause answer an earlier frame's search remembered."""
    worlds = ("a", "b", "c", "d")
    orders = ([], [("a", "b"), ("b", "c"), ("c", "d")], [("a", "b"), ("a", "c")],
              [("b", "d"), ("c", "d")])
    line = [build_subnormal(worlds, pairs, []) for pairs in orders]
    line += [SubNormalFrame(worlds, fr.leq, frozenset({3})) for fr in line[1:]]  # ~ reads Y0
    f = parse(goal)
    for fr in line + line[::-1]:
        assert outcome(frame_valid, fr, f) == outcome(frame_scan, fr, TOP, f), fr
        assert (outcome(frame_sequent_valid, fr, f.left, f.right)
                == outcome(frame_scan, fr, f.left, f.right)), fr


@pytest.mark.parametrize("alg", enumerate_algebras("kim", 6), ids=lambda a: a.name)
def test_complex_algebra_compat_tables(alg):
    """`!U` and `~U` of the canonical Kim frame's complex algebra, against
    the frozenset clause over its upsets."""
    fr = canonical_frame_kim(alg)
    kim = complex_algebra_compat(fr)
    ups = frame_upsets(fr.leq)
    assert kim.neg == tuple(ups.index(no_successor_in(fr.bang, u)) for u in ups)
    assert kim.tilde == tuple(ups.index(no_successor_in(fr.tilde, u)) for u in ups)
