"""Frame truth sets through the compiled goal program, against the recursive
frame walk it replaced.

`walk` is the former body of `frames.truth_set`, and `walk_falsifier` the
former valuation search behind `frame_valid`/`frame_sequent_valid`; both are
kept here as the oracle.  Truth sets, raised errors (kind and witness),
verdicts, falsifying valuations and least worlds must agree on sub-normal,
N-hat and compatibility frames."""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from twoneg.algebra import VALID, Verdict, enumerate_algebras
from twoneg.bridge import canonical_frame_ccpba, canonical_frame_kim
from twoneg.errors import FrameError
from twoneg.formula import (BOT, TOP, And, Atom, Bot, Impl, Neg, Or, Tilde, Top,
                            atoms, parse)
from twoneg.frames import (CompatFrame, SubNormalFrame, build_compat,
                           frame_sequent_valid, frame_upsets, frame_valid,
                           read_frame, truth_set)
from twoneg.translate import phi

FIXTURES = Path(__file__).parent / "fixtures"
SUBNORMAL = ([read_frame((FIXTURES / "three_world.frm").read_text())]
             + [canonical_frame_ccpba(alg) for alg in enumerate_algebras("ccpba", 6)])
FRAMES = (SUBNORMAL + [phi(fr) for fr in SUBNORMAL]
          + [canonical_frame_kim(alg) for alg in enumerate_algebras("kim", 6)])

# Names a careless code generator would confuse with its own identifiers.
NAMES = ["p", "q", "impl", "neg", "tilde", "bottom", "x0", "v0", "value"]


def walk(fr, valuation, f):
    n = fr.size
    every = frozenset(range(n))
    bang, tilde = fr.bang, fr.tilde

    def no_successor_in(rel, s):
        return frozenset(w for w in range(n)
                         if all(v not in s for v in range(n) if rel[w][v]))

    def rec(g):
        match g:
            case Top():
                return every
            case Bot():
                return frozenset()
            case Atom(name):
                if name not in valuation:
                    raise FrameError("unbound-atom", name)
                return valuation[name]
            case And(l, r):
                return rec(l) & rec(r)
            case Or(l, r):
                return rec(l) | rec(r)
            case Impl(l, r):
                if isinstance(fr, CompatFrame):
                    raise FrameError("wrong-language", g)
                left, right = rec(l), rec(r)
                return frozenset(
                    w for w in range(n)
                    if all(v in right for v in range(n)
                           if fr.leq[w][v] and v in left))
            case Neg(c):
                return no_successor_in(bang, rec(c))
            case Tilde(c):
                body = rec(c)
                # the sub-normal clause from the order and Y0, not from the
                # frame's `~` relation
                if isinstance(fr, SubNormalFrame):
                    return frozenset(
                        w for w in range(n)
                        if all(v in fr.y0 for v in range(n)
                               if fr.leq[w][v] and v in body))
                return no_successor_in(tilde, body)
        raise TypeError(f"not a formula: {g!r}")

    return rec(f)


def walk_falsifier(fr, names, sides):
    for combo in itertools.product(frame_upsets(fr.leq), repeat=len(names)):
        left, right = sides(dict(zip(names, combo)))
        if not left <= right:
            witness = {name: tuple(fr.worlds[i] for i in sorted(s))
                       for name, s in zip(names, combo)}
            return Verdict(False, witness, fr.worlds[min(left - right)])
    return VALID


# The walk raises at the first `->` of a compatibility frame's goal in
# pre-order, left side before right, on the first valuation tried.
def walk_valid(fr, f):
    every = frozenset(range(fr.size))
    return walk_falsifier(fr, atoms(f), lambda val: (every, walk(fr, val, f)))


def walk_sequent(fr, lhs, rhs):
    return walk_falsifier(fr, atoms(And(lhs, rhs)),
                          lambda val: (walk(fr, val, lhs), walk(fr, val, rhs)))


def outcome(fn, *args):
    """The result, or the kind and witness of the FrameError raised."""
    try:
        return fn(*args)
    except FrameError as e:
        return ("raised", e.kind, e.witness)


def same(a, b) -> bool:
    """Equal outcomes; an offending node must be the same object."""
    if isinstance(a, tuple) and isinstance(b, tuple) and a[1] == "wrong-language":
        return a[:2] == b[:2] and a[2] is b[2]
    return a == b


def formulas(names):
    leaves = st.one_of(st.sampled_from(names).map(Atom), st.just(TOP), st.just(BOT))

    def grow(kids):
        return st.one_of(
            st.builds(And, kids, kids), st.builds(Or, kids, kids),
            st.builds(Neg, kids), st.builds(Tilde, kids), st.builds(Impl, kids, kids),
            # `<->` as the parser builds it, sharing both sides
            st.builds(lambda a, b: And(Impl(a, b), Impl(b, a)), kids, kids))

    return st.recursive(leaves, grow, max_leaves=8)


names3 = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True)
goals = names3.flatmap(formulas)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FRAMES), goals, st.lists(st.sampled_from(NAMES), unique=True),
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


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FRAMES), goals)
def test_validity_verdicts_agree(fr, f):
    assert same(outcome(frame_valid, fr, f), outcome(walk_valid, fr, f)), (fr, f)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FRAMES), names3.flatmap(lambda ns: st.tuples(formulas(ns), formulas(ns))))
def test_sequent_verdicts_agree(fr, goal):
    lhs, rhs = goal
    assert same(outcome(frame_sequent_valid, fr, lhs, rhs),
                outcome(walk_sequent, fr, lhs, rhs)), (fr, goal)


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
