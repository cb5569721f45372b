"""Staged algebra searches against the straight-line scan they replaced.

`algebra.sequent_valid` runs one compiled loop nest per goal
(`algebra._program`).  `oracles.sequent_scan` calls each side's
straight-line program once per valuation, in `itertools.product` order.
Both must give the same `Verdict`, or raise the same error naming the same
node, on every catalog algebra up to size 5 of all five classes, with 0-3
atoms and goals whose lhs, rhs or both have a node the language lacks."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from twoneg import algebra
from twoneg.algebra import enumerate_algebras, sequent_valid
from twoneg.errors import AlgebraError
from twoneg.formula import BOT, TOP, And, Atom, Impl, Neg, Or, Tilde

from oracles import sequent_scan

CATALOG = [alg for cls in algebra.CATALOG_CLASSES for alg in enumerate_algebras(cls, 5)]

# Names a careless code generator would confuse with its own identifiers.
NAMES = ["p", "q", "dom", "bottom", "product", "x0", "v0"]


def outcome(fn, *args):
    """The verdict, or the kind of the error raised and its witness."""
    try:
        return fn(*args)
    except AlgebraError as e:
        return ("raised", e.kind, e.witness)


def same(a, b) -> bool:
    """Equal outcomes; an offending node must be the same object."""
    if isinstance(a, tuple) and isinstance(b, tuple) and isinstance(a[2], Impl | Tilde):
        return a[:2] == b[:2] and a[2] is b[2]
    return a == b


def formulas(names):
    leaves = st.sampled_from([TOP, BOT] + [Atom(n) for n in names])

    def grow(kids):
        return st.one_of(
            st.builds(And, kids, kids), st.builds(Or, kids, kids),
            st.builds(Neg, kids), st.builds(Tilde, kids), st.builds(Impl, kids, kids),
            # `<->` as the parser builds it, sharing both sides
            st.builds(lambda a, b: And(Impl(a, b), Impl(b, a)), kids, kids))

    return st.recursive(leaves, grow, max_leaves=8)


sequents = (st.lists(st.sampled_from(NAMES), max_size=3, unique=True)
            .flatmap(lambda ns: st.tuples(formulas(ns), formulas(ns))))


@settings(max_examples=100, deadline=None)
@given(sequents)
def test_algebra_searches_agree(goal):
    """Kim algebras lack `->` and plain pseudo-Boolean ones `~`, so the
    goals reach errors in the lhs, the rhs alone and both sides."""
    lhs, rhs = goal
    for alg in CATALOG:
        assert same(outcome(sequent_valid, alg, lhs, rhs),
                    outcome(sequent_scan, alg, lhs, rhs)), (alg.name, goal)


def test_every_error_case_is_reached():
    """The cases the property must cover, on a Kim algebra (no `->`) and a
    plain pseudo-Boolean one (no `~`): an error in the lhs, in the rhs alone
    (raised, or never reached because the lhs is never top), in both, and
    none."""
    kim = next(a for a in CATALOG if a.name == "kim_3_0")
    pba = next(a for a in CATALOG if a.name == "pba_3_0")
    p, q = Atom("p"), Atom("q")
    cases = [(kim, Impl(p, q), q), (kim, p, Impl(p, q)), (kim, BOT, Impl(p, q)),
             (kim, Impl(p, p), Impl(q, q)), (pba, Tilde(p), q), (pba, q, Tilde(p)),
             (pba, Neg(TOP), Tilde(q)), (pba, Or(p, Neg(p)), Neg(Neg(q)))]
    kinds = []
    for alg, lhs, rhs in cases:
        got = outcome(sequent_valid, alg, lhs, rhs)
        assert same(got, outcome(sequent_scan, alg, lhs, rhs)), (alg.name, lhs, rhs)
        kinds.append(got[1] if isinstance(got, tuple) else got.valid)
    assert kinds == ["implication-in-kim-language", "implication-in-kim-language", True,
                     "implication-in-kim-language", "tilde-undefined", "tilde-undefined",
                     True, False]
