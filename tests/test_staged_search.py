"""Staged searches against the scans they replaced.

`algebra.algebra_valid`, `algebra.sequent_valid`, `frames.frame_valid` and
`frames.frame_sequent_valid` run one compiled loop nest per goal
(`algebra._program`).  `oracles.sequent_scan` and `oracles.frame_scan`
loop over `itertools.product` of the valuations and evaluate each side by
a tree walk, sharing no code with the compiler.  Both must give the same
`Verdict`, world included, or raise the same error naming the same node:
on every catalog algebra up to size 5 of all five classes, and on the
sub-normal, N-hat and compatibility frames of the shared corpus
(`support.FRAMES`) and N-hat frames with R1 off the order, with 0-3 atoms
and goals whose lhs, rhs or both have a node the language lacks.
Goals of 21 and 25 atoms reach the innermost loop over `product`.  A search
skips the valuations its guards rule out, some of them by an absorbing law
(`algebra._ABSORBING`) that it checks on the tables it is given: records
whose tables break one such law must still get the scan's answer."""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from twoneg import algebra, frames
from twoneg._record import replace
from twoneg.algebra import ATOM_GUARD, algebra_valid, enumerate_algebras, evaluate, sequent_valid
from twoneg.formula import BOT, TOP, And, Atom, Impl, Neg, Or, Tilde, parse
from twoneg.frames import (WORLD_GUARD, build_subnormal, frame_sequent_valid, frame_upsets,
                           frame_valid, read_frame, truth_set)

from oracles import frame_scan, frame_walk, sequent_scan, walk
from support import CATALOG, FRAMES, NAMES, formulas, off_order, outcome, same


@functools.cache
def decided_early(names: tuple[str, ...]):
    """Sequents a guard can decide in the loop of the first atom: the lhs
    that atom or top, the rhs a connective between a formula of that atom
    alone and one of every atom, either way round."""
    first = formulas(names[:1])
    return st.tuples(st.sampled_from([TOP, Atom(names[0])]), st.builds(
        lambda op, k, u, flip: op(u, k) if flip else op(k, u),
        st.sampled_from([And, Or, Impl]), first, st.one_of(first, formulas(names)), st.booleans()))


def any_sequent(names: tuple[str, ...]):
    """Any sequent over `names`, each side with or without `->`, or one a
    guard can decide early."""
    plain = st.tuples(st.booleans(), st.booleans()).flatmap(
        lambda impl: st.tuples(formulas(names, impl[0]), formulas(names, impl[1])))
    return st.one_of(plain, decided_early(names)) if names else plain


sequents = (st.lists(st.sampled_from(NAMES), max_size=3, unique=True).map(tuple)
            .flatmap(any_sequent))


@settings(max_examples=100, deadline=None)
@given(sequents)
def test_algebra_searches_agree(goal):
    """The sequent and the rhs as a Hilbert goal.  Kim algebras lack `->`
    and plain pseudo-Boolean ones `~`, so the goals reach errors in the lhs,
    the rhs alone and both sides; a side drawn without `->` lets the Kim
    algebras search."""
    lhs, rhs = goal
    for alg in CATALOG:
        assert same(outcome(sequent_valid, alg, lhs, rhs),
                    outcome(sequent_scan, alg, lhs, rhs)), (alg.name, goal)
        assert same(outcome(algebra_valid, alg, rhs),
                    outcome(sequent_scan, alg, TOP, rhs)), (alg.name, rhs)


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


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(FRAMES), st.integers(0, 2**32).map(off_order)), sequents,
       st.sampled_from([None, 2, WORLD_GUARD]), st.sampled_from([None, 1, ATOM_GUARD]))
def test_frame_searches_agree(fr, goal, max_worlds, max_atoms):
    """A `->` on a compatibility frame, on either side, is rejected before
    the bounds are checked, the worlds before the atoms."""
    lhs, rhs = goal
    bounds = {"max_worlds": max_worlds, "max_atoms": max_atoms}
    assert same(outcome(frame_sequent_valid, fr, lhs, rhs, **bounds),
                outcome(frame_scan, fr, lhs, rhs, **bounds)), (fr, goal)
    assert same(outcome(frame_valid, fr, rhs, **bounds),
                outcome(frame_scan, fr, TOP, rhs, **bounds)), (fr, rhs)


def test_every_frame_case_is_reached():
    """On a compatibility frame of 4 worlds: `->` in the lhs, in the rhs
    alone and in both, `->` against a bound, each bound alone, both bounds,
    and a valid and a falsified goal."""
    fr = next(f for f in FRAMES if f.kind == "compat" and f.size == 4)
    p, q = Atom("p"), Atom("q")
    cases = [(Impl(p, q), q, {}), (p, Impl(p, q), {}), (Impl(p, p), Impl(q, q), {}),
             (p, Impl(p, q), {"max_worlds": 3, "max_atoms": 1}),
             (p, q, {"max_worlds": 3}), (p, q, {"max_atoms": 1}),
             (p, q, {"max_worlds": 3, "max_atoms": 1}), (Neg(p), Neg(p), {}), (p, q, {})]
    kinds = []
    for lhs, rhs, bounds in cases:
        got = outcome(frame_sequent_valid, fr, lhs, rhs, **bounds)
        assert same(got, outcome(frame_scan, fr, lhs, rhs, **bounds)), (lhs, rhs, bounds)
        kinds.append(got[1:3] if isinstance(got, tuple) else got.valid)
    assert kinds[:3] == [("wrong-language", cases[0][0]), ("wrong-language", cases[1][1]),
                         ("wrong-language", cases[2][0])]
    assert kinds[3:] == [("wrong-language", cases[3][1]), ("bound-guard", "frame worlds"),
                         ("bound-guard", "valuation atoms"), ("bound-guard", "frame worlds"),
                         True, False]


# The laws of an op table a guard may rest on, or that a guard could be
# tempted to: per law, the table it needs and where one entry breaks it.
BREAKS = {"top | b": "join", "a | top": "join", "bottom -> b": "impl", "a -> top": "impl",
          "top & top": "meet", "!bottom": "neg", "~bottom": "tilde"}


def broken(alg, law, a, value):
    """`alg` with one entry of the table of `law` (`BREAKS`) set to `value`,
    not the top: `top | a`, `a | top`, `bottom -> a` or `a -> top` for an
    element `a`, `top & top`, `!bottom` or `~bottom`.  The record is built
    directly, so nothing checks its tables."""
    lat = alg.lattice
    top, bottom = lat.top, lat.bottom
    name = BREAKS[law]
    at = {"top | b": (top, a), "a | top": (a, top), "bottom -> b": (bottom, a),
          "a -> top": (a, top), "top & top": (top, top)}.get(law)
    if at is None:  # `!` or `~`
        table = list(getattr(alg, name))
        table[bottom] = value
        return replace(alg, **{name: tuple(table)})
    rows = [list(row) for row in getattr(alg if name == "impl" else lat, name)]
    rows[at[0]][at[1]] = value
    rows = tuple(map(tuple, rows))
    if name == "impl":
        return replace(alg, impl=rows)
    return replace(alg, lattice=replace(lat, **{name: rows}))


@functools.cache
def law_breakers(law):
    """Catalog algebras with one entry of `law` broken, by any value but the
    top."""
    bases = st.sampled_from([a for a in CATALOG if getattr(a, BREAKS[law], True) is not None])
    return bases.flatmap(lambda alg: st.builds(
        broken, st.just(alg), st.just(law), st.integers(0, alg.size - 1),
        st.sampled_from([v for v in range(alg.size) if v != alg.lattice.top])))


@pytest.mark.parametrize("law", BREAKS, ids=lambda law: law.replace(" ", ""))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_searches_agree_on_tables_that_break_a_law(law, data):
    """Catalog algebras with one entry of an absorbing law broken: the
    guarded search gives the scan's verdict or error, as a sequent and as a
    Hilbert goal.  (Intact catalog algebras and frames: the tests above.)"""
    alg, (lhs, rhs) = data.draw(law_breakers(law)), data.draw(sequents)
    assert same(outcome(sequent_valid, alg, lhs, rhs), outcome(sequent_scan, alg, lhs, rhs))
    assert same(outcome(algebra_valid, alg, rhs), outcome(sequent_scan, alg, TOP, rhs))


def test_each_law_a_guard_reads_is_checked():
    """Per absorbing law, a sequent whose guard rests on it and that the
    3-element chain `ccpba_3_0` validates: there the guards skip every
    branch.  With the law's entry at the bottom set to the bottom, the
    sequent fails in a branch that guard would skip if it took the law for
    granted, and the search reports the scan's falsifier."""
    base = next(a for a in CATALOG if a.name == "ccpba_3_0")
    bottom = base.lattice.bottom
    for law, lhs, rhs in [("top | b", "q", "q | p"), ("a | top", "q", "p | q"),
                          ("bottom -> b", "!q", "q -> p"), ("a -> top", "q", "p -> q"),
                          ("top & top", "q", "(q | p) & (p | q)")]:
        lhs, rhs = parse(lhs), parse(rhs)
        assert sequent_valid(base, lhs, rhs) == sequent_scan(base, lhs, rhs) == algebra.VALID
        alg = broken(base, law, bottom, bottom)
        got = sequent_valid(alg, lhs, rhs)
        assert got == sequent_scan(alg, lhs, rhs) and not got.valid, law


def test_each_row_rules_out_only_what_its_stop_tests_never_pass(fork, fixtures_dir):
    """Per row of `algebra._program`, its formats read as Python over the
    values a search sees: the tables of every ccpba and Kim catalog entry up
    to size 5, and the upset masks of two sub-normal frames.  Wherever a
    known lhs fails the row's lhs format, no stop test holds for any rhs;
    and no stop test of (lhs, rhs) holds with the rhs at top.  Those are the
    two ways `algebra._guards` rules a test out before the innermost loop."""
    spaces = [(algebra._TABLES, dict(
        meet=alg.lattice.meet, join=alg.lattice.join, impl=alg.impl, neg=alg.neg,
        tilde=alg.tilde, top=alg.lattice.top, bottom=alg.lattice.bottom), range(alg.size))
        for cls in ("ccpba", "kim") for alg in enumerate_algebras(cls, 5)]
    for fr in (fork, read_frame((fixtures_dir / "three_world.frm").read_text())):
        spaces.append((algebra._UPSETS, dict(top=(1 << fr.size) - 1, bottom=0),
                       frames._upsets(fr.leq)))
    assert ({id(row) for row, _, _ in spaces}
            == {id(row) for _, _, row in algebra._LANGUAGES.values()})
    for (_, stops, fails, _), tables, values in spaces:
        for lhs, rhs in itertools.product(values, repeat=2):
            scope = dict(tables, lhs=lhs, rhs=rhs)
            passed = [k for k, test in stops.items()
                      if eval(test.format("lhs", "rhs"), {}, scope)]
            if eval(fails.format("lhs"), {}, scope):
                assert passed == [], (fails, lhs, rhs)
            if rhs == tables["top"]:
                assert 2 not in passed, (stops[2], lhs)


def test_goals_of_many_atoms_reach_the_product_loop():
    """21 atoms over the upsets of a 2-world chain, whose first falsifier
    moves the last two, which share the innermost loop; 25-atom
    evaluations and truth sets, one of them reading each atom alone."""
    fr = build_subnormal(["a", "b"], [("a", "b")], [])
    names = [f"p{i}" for i in range(21)]
    lhs = parse(f"({' | '.join(names[:19])} | top) & p19 & p20")
    got = frame_sequent_valid(fr, lhs, BOT, max_atoms=None)
    assert got == frame_scan(fr, lhs, BOT, max_atoms=None)
    assert (got.valuation["p19"], got.valuation["p20"], got.world) == (("b",), ("b",), "b")
    assert frame_valid(fr, parse(" | ".join(names)), max_atoms=None).valuation["p20"] == ()

    names = [f"p{i}" for i in range(25)]
    f = parse(" | ".join(f"({a} -> ~{b}) & !{c}"
                         for a, b, c in zip(names, names[1:], names[2:])))
    rnd = random.Random(25)
    for alg in CATALOG[::4]:
        for _ in range(3):
            valuation = {n: rnd.randrange(alg.size) for n in names}
            assert same(outcome(evaluate, alg, f, valuation), outcome(walk, alg, f, valuation))
    ups = frame_upsets(fr.leq)
    for _ in range(5):
        valuation = {n: rnd.choice(ups) for n in names}
        assert truth_set(fr, valuation, f) == frame_walk(fr, valuation, f)
    # each atom's own value, with all 25 atoms in order
    every = f"({' | '.join(names)} | top)"
    alg = CATALOG[-1]
    valuation = {n: rnd.randrange(alg.size) for n in names}
    upsets = {n: rnd.choice(ups) for n in names}
    for n in names:
        assert evaluate(alg, parse(f"{every} & {n}"), valuation) == valuation[n]
        assert truth_set(fr, upsets, parse(f"{every} & {n}")) == upsets[n]
