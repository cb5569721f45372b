"""The compiled evaluator against the recursive tree walk it replaced.

`oracles.walk` is the former body of `algebra.evaluate`: values, falsifying
valuations, error kinds and offending nodes must agree on every catalog
algebra up to size 5 of all five classes."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from twoneg import algebra, formula, frames
from twoneg.algebra import (VALID, Algebra, Verdict, algebra_valid, enumerate_algebras,
                            evaluate, sequent_valid)
from twoneg.bridge import canonical_frame_ccpba, canonical_frame_kim
from twoneg.errors import AlgebraError, FrameError
from twoneg.formula import TOP, Impl, Tilde, atoms, parse, subformulas
from twoneg.frames import frame_sequent_valid, frame_upsets, frame_valid, truth_set

from oracles import sequent_scan, walk
from support import formulas, kim_reduct, outcome, same

CATALOG = [alg for cls in algebra.CATALOG_CLASSES for alg in enumerate_algebras(cls, 5)]

# Names a careless code generator would confuse with its own identifiers.
NAMES = ["p", "q", "meet", "neg", "top_", "x0", "v0", "d0", "make", "search"]
names3 = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True).map(tuple)
goals = st.tuples(names3, st.booleans()).flatmap(lambda t: formulas(*t))


@settings(max_examples=60, deadline=None)
@given(goals)
def test_values_agree_on_every_valuation(f):
    """`evaluate` runs the goal's search over one-element domains; over the
    full domains with no test it stops at the first valuation."""
    names = tuple(atoms(f))
    for alg in CATALOG:
        expected = outcome(walk, alg, f, dict.fromkeys(names, 0))
        got = outcome(evaluate, alg, f, dict.fromkeys(names, 0))
        assert same(got, expected), (alg.name, f)
        if isinstance(expected, tuple):
            continue
        plan_names, offends, make = algebra._plan((f,), algebra._language(alg))
        assert plan_names == names and offends == (False,)
        search = algebra._bind(alg, make)
        assert search(*(range(alg.size),) * len(names)) == (0,) * len(names) + (expected,)
        for combo in itertools.product(range(alg.size), repeat=len(names)):
            value = walk(alg, f, dict(zip(names, combo)))
            assert search(*[(v,) for v in combo]) == combo + (value,)


@settings(max_examples=60, deadline=None)
@given(goals)
def test_validity_verdicts_agree(f):
    for alg in CATALOG:
        assert same(outcome(algebra_valid, alg, f),
                    outcome(sequent_scan, alg, TOP, f)), alg.name


@settings(max_examples=60, deadline=None)
@given(names3.flatmap(lambda names: st.tuples(formulas(names, False), formulas(names))))
def test_sequent_verdicts_agree(goal):
    # the lhs is implication-free, so on Kim algebras an implication in the
    # rhs alone is raised only when some valuation sends the lhs to top
    lhs, rhs = goal
    for alg in CATALOG:
        assert same(outcome(sequent_valid, alg, lhs, rhs),
                    outcome(sequent_scan, alg, lhs, rhs)), alg.name


@settings(max_examples=60, deadline=None)
@given(goals, st.lists(st.sampled_from(NAMES), unique=True))
def test_unbound_atom_errors_agree(f, bound):
    valuation = dict.fromkeys(bound, 0)
    for alg in CATALOG[:12] + CATALOG[-12:]:
        assert same(outcome(evaluate, alg, f, valuation), outcome(walk, alg, f, valuation))


@pytest.mark.parametrize("lhs,rhs,raises", [
    ("p & ~p", "p -> p", True),     # lhs is top at p = top
    ("bot", "p -> p", False),       # lhs is never top
    ("p -> p", "~p", True),         # lhs error, raised before the rhs
])
def test_rhs_only_error_waits_for_lhs(b_prime, lhs, rhs, raises):
    kim = kim_reduct(b_prime)
    l, r = parse(lhs), parse(rhs)
    if raises:
        with pytest.raises(AlgebraError) as e:
            sequent_valid(kim, l, r)
        assert e.value.kind == "implication-in-kim-language"
        assert e.value.witness is (l if "->" in lhs else r)
    else:
        assert sequent_valid(kim, l, r) == VALID


# Goals with a `->` or a `~`: lhs (None for a validity goal), rhs, and the
# targets that reject them.
PLAN_GOALS = [(None, "(p -> q) | ~p", {"kim", "pba", "compat"}),
              ("~p | q", "p -> q", {"kim", "pba", "compat"}),
              ("p -> q", "~q", {"kim", "pba", "compat"}),
              ("~p & q", "q | p", {"pba"})]


def test_plan_follows_language_and_object(b_prime):
    """A goal's plan is cached by value, so equal goals parsed afresh share
    it; the error kind must follow the target's language and the witness be
    the first offending node of that call's own goal, in whatever order the
    targets come.  Each order starts from an empty plan cache and runs twice."""
    kim = kim_reduct(b_prime)
    targets = {  # target, validity, sequent validity, lacked node, error kind
        "kim": (kim, algebra_valid, sequent_valid, Impl, "implication-in-kim-language"),
        "pba": (enumerate_algebras("pba", 3)[-1], algebra_valid, sequent_valid, Tilde,
                "tilde-undefined"),
        "ccpba": (b_prime, algebra_valid, sequent_valid, None, None),
        "compat": (canonical_frame_kim(kim), frame_valid, frame_sequent_valid, Impl,
                   "wrong-language"),
        "subnormal": (canonical_frame_ccpba(b_prime), frame_valid, frame_sequent_valid,
                      None, None),
    }

    def run(name, lhs_text, rhs_text):
        target, valid, sequent, lacks, _ = targets[name]
        rhs = parse(rhs_text)
        sides = (rhs,) if lhs_text is None else (parse(lhs_text), rhs)
        try:
            return valid(target, rhs) if lhs_text is None else sequent(target, *sides)
        except (AlgebraError, FrameError) as e:
            first = next(g for side in sides for g in subformulas(side) if type(g) is lacks)
            assert e.witness is first, (name, lhs_text, rhs_text)
            return e.kind

    for lhs, rhs, rejecting in PLAN_GOALS:
        expected = {}
        for name, (*_, kind) in targets.items():
            algebra._plan.cache_clear()
            expected[name] = run(name, lhs, rhs)
            if name in rejecting:
                assert expected[name] == kind, (name, lhs, rhs)
            else:
                assert isinstance(expected[name], Verdict), (name, lhs, rhs)
        for order in itertools.permutations(targets):
            algebra._plan.cache_clear()
            for name in order + order:  # the second round reuses the plans
                assert run(name, lhs, rhs) == expected[name], (order, name, lhs, rhs)


def test_planned_search_walks_no_goal(monkeypatch, b_prime):
    """Once a goal's plan is cached, searches over other algebras and frames
    of its language, with equal goals parsed afresh, neither walk nor
    compile the goal again."""
    texts = ("p & ~q", "q | !p")
    kim = kim_reduct(b_prime)
    targets = [(alg, sequent_valid) for alg in (b_prime, kim)]
    targets += [(canonical_frame_ccpba(b_prime), frame_sequent_valid),
                (canonical_frame_kim(kim), frame_sequent_valid)]
    for target, search in targets:
        search(target, *map(parse, texts))

    def walked(*args):
        raise AssertionError("the goal was walked again")
    for module, name in [(algebra, "atoms"), (algebra, "subformulas"), (algebra, "contains"),
                         (algebra, "_raise_first_error"), (algebra, "_program"),
                         (frames, "_raise_first_error")]:
        monkeypatch.setattr(module, name, walked)
    swept = [(alg, sequent_valid) for cls in ("ccpba", "kim") for alg in enumerate_algebras(cls, 4)]
    for target, search in swept + targets:
        search(target, *map(parse, texts))


def test_sweep_compares_a_reparsed_goal_once(monkeypatch):
    """A sweep over the ccpba catalog up to size 7 with a freshly parsed
    goal, equal to one whose plan is cached, compares goals node by node at
    most once: the LRU behind `algebra._plan` compares by value, and the
    one-entry memo in front of it answers the other 48 lookups by identity.
    The verdicts are the oracle's."""
    text = "(p -> ~q) & !r | (q <-> ~~p)"
    catalog = enumerate_algebras("ccpba", 7)
    for alg in catalog:
        algebra_valid(alg, parse(text))
    algebra_valid(catalog[0], parse("p"))  # another goal is the last lookup
    deep, nested = [], [0]
    for cls in (formula._Binary, formula._Unary):
        def counted(self, other, eq=cls.__eq__):
            if not nested[0]:
                deep.append(self)
            nested[0] += 1
            try:
                return eq(self, other)
            finally:
                nested[0] -= 1
        monkeypatch.setattr(cls, "__eq__", counted)
    goal = parse(text)
    verdicts = [algebra_valid(alg, goal) for alg in catalog]
    monkeypatch.undo()
    assert verdicts == [sequent_scan(alg, TOP, goal) for alg in catalog]
    assert len(deep) <= 1 < len(catalog)


def test_plan_memo_keys_on_language(b_prime):
    """The same goal objects searched over a pba, then a ccpba, then a Kim
    algebra, back to back: the plan memo matches the goals by identity, so
    only the language tells the three lookups apart.  Verdicts, error kinds
    and offending nodes are the oracle's (`~p` is tilde-undefined on the
    pba, `p -> q` implication-in-kim-language on the Kim algebra)."""
    targets = (enumerate_algebras("pba", 3)[-1], b_prime, kim_reduct(b_prime))
    answers = []
    for lhs, rhs in [(TOP, parse("~p")), (TOP, parse("p -> q")), (parse("~p | q"), parse("!q")),
                     (parse("p & q"), parse("~~p")), (parse("!!p"), parse("p | ~q"))]:
        for alg in targets:
            got = outcome(sequent_valid, alg, lhs, rhs)
            assert same(got, outcome(sequent_scan, alg, lhs, rhs)), (alg.name, lhs, rhs)
            answers.append(got[1] if isinstance(got, tuple) else got.valid)
    assert answers[:6] == ["tilde-undefined", True, True,  # b_prime's ~1 is its top
                           False, False, "implication-in-kim-language"]


def test_error_node_is_the_first_in_preorder(b_prime):
    kim = kim_reduct(b_prime)
    f = parse("(p -> q) | (p -> q)")
    with pytest.raises(AlgebraError) as e:
        evaluate(kim, f, {"p": 0, "q": 0})
    assert e.value.witness is f.left
    pba = enumerate_algebras("pba", 3)[0]
    f = parse("!x0 & ~q | ~p")
    with pytest.raises(AlgebraError) as e:
        evaluate(pba, f, {"x0": 0, "p": 0})
    assert e.value.kind == "tilde-undefined" and e.value.witness is f.left.right
    with pytest.raises(AlgebraError) as e:
        evaluate(pba, parse("q & ~p"), {"p": 0})
    assert e.value.kind == "unbound-atom" and e.value.witness == "q"


def test_atom_bound_to_none_is_unbound(b_prime):
    """A value of None leaves an atom unbound in `evaluate` and `truth_set`
    alike; element 0 and the empty upset, though falsy, bind it."""
    f = parse("p & q")
    fr = canonical_frame_ccpba(b_prime)
    with pytest.raises(AlgebraError) as e:
        evaluate(b_prime, f, {"p": 0, "q": None})
    assert (e.value.kind, e.value.witness) == ("unbound-atom", "q")
    with pytest.raises(FrameError) as e:
        truth_set(fr, {"p": frozenset(), "q": None}, f)
    assert (e.value.kind, e.value.witness) == ("unbound-atom", "q")
    assert evaluate(b_prime, f, {"p": 0, "q": 0}) == 0
    assert truth_set(fr, {"p": frozenset(), "q": frozenset()}, f) == frozenset()


@pytest.mark.parametrize("value", [-1, 3, 1.0, "a", None])
def test_value_outside_the_algebra_is_no_element(b_prime, value):
    """Each atom's value is an element index of the algebra: any other is
    `valuation-not-element` (None stays `unbound-atom`), named by the first
    such atom in first-occurrence order, after the formula's own errors."""
    with pytest.raises(AlgebraError) as e:
        evaluate(b_prime, parse("q | p & !q"), {"p": value, "q": 1})
    kind = "unbound-atom" if value is None else "valuation-not-element"
    assert (e.value.kind, e.value.witness) == (kind, "p")
    with pytest.raises(AlgebraError) as e:
        evaluate(b_prime, parse("q | p"), {"p": 3, "q": value})
    assert (e.value.kind, e.value.witness) == (kind, "q")
    pba = enumerate_algebras("pba", 3)[0]
    with pytest.raises(AlgebraError) as e:
        evaluate(pba, parse("~p & p"), {"p": value})
    assert e.value.kind == "tilde-undefined"


def test_negative_world_is_no_upset(b_prime):
    """A negative world, one past the frame, or one that is no int (a world
    name, a float) in an atom's value, or a value that is no collection of
    worlds (an int, a float), is `valuation-not-upset`, named by the first
    offending atom in first-occurrence order."""
    fr = canonical_frame_ccpba(b_prime)
    full = frozenset(range(fr.size))
    for text, valuation, name in [
            ("p", {"p": frozenset({-1})}, "p"),
            ("p | q", {"p": full, "q": full | {-1}}, "q"),
            ("q | p", {"p": frozenset({-1}), "q": frozenset({fr.size})}, "q"),
            ("p", {"p": full | {fr.worlds[1]}}, "p"),
            ("q & p", {"p": full, "q": full - {1} | {1.0}}, "q"),
            ("p", {"p": 3}, "p"),
            ("p", {"p": 3.5}, "p")]:
        with pytest.raises(FrameError) as e:
            truth_set(fr, valuation, parse(text))
        assert (e.value.kind, e.value.witness) == ("valuation-not-upset", name)


def test_value_is_read_as_a_set_of_worlds(b_prime):
    """A value given as a list or tuple is the set of its worlds: a world
    given twice counts once."""
    fr = canonical_frame_ccpba(b_prime)
    f = parse("p & !q")
    for p_worlds in frame_upsets(fr.leq):
        twice = sorted(p_worlds) * 2
        for value in (twice, tuple(twice)):
            want = truth_set(fr, {"p": p_worlds, "q": frozenset()}, f)
            assert truth_set(fr, {"p": value, "q": frozenset()}, f) == want


def test_atom_names_never_reach_the_source(b_prime):
    f = parse("(meet | neg) & (make -> value) | ~top_ & !x0 | v0")
    valuation = {"meet": 1, "neg": 0, "make": 2, "value": 1, "top_": 0, "x0": 1, "v0": 0}
    assert evaluate(b_prime, f, valuation) == walk(b_prime, f, valuation)
    v0_first = parse("v0 & !x0")
    for a in range(3):
        for b in range(3):
            v = {"v0": a, "x0": b}
            assert evaluate(b_prime, v0_first, v) == walk(b_prime, v0_first, v)


def _code(make, name):
    return next(c for c in make.__code__.co_consts
                if hasattr(c, "co_varnames") and c.co_name == name)


def test_shared_nodes_compile_once():
    # a 10-term `<->` chain has 3 067 occurrences but only 26 distinct
    # compound nodes (3 per `<->`, and the innermost `p -> p` twice)
    f = parse("<->".join(["p"] * 10))
    # with and without a test: `d0`, `v0` and the 26 nodes
    for goals, test in [((f,), None), ((TOP, f), algebra._TABLES[1][2])]:
        make = algebra._program(goals, ("p",), algebra._TABLES, test)
        assert _code(make, "search").co_nlocals == 1 + 1 + 26


class Reads(tuple):
    """A unary op table that counts its reads."""
    reads = 0

    def __getitem__(self, i):
        Reads.reads += 1
        return tuple.__getitem__(self, i)


def test_nodes_are_assigned_in_the_loop_of_their_last_atom(b_prime):
    """`!p` reads only the first atom, so a search assigns it in the loop of
    p, outside the loop of q: over n elements the valid goal `!p -> (q ->
    !p)` reads `!` n times, where one call per valuation would read it n^2
    times, and a node with no atom is read once, before every loop.  In
    `!p & ~q -> !p` the loop of q reads `~` once a value, but runs only
    under the n - 1 values of p where `!p` is not top: at p = 0, `!p` is
    top and so is the goal (`a -> top`), so the search skips to the next
    p.  That is n reads of `!` and n (n - 1) of `~`."""
    n = b_prime.size
    assert [p for p in range(n) if b_prime.neg[p] == b_prime.lattice.top] == [0]
    for text, reads in [("!p -> (q -> !p)", n), ("!p & ~q -> !p", n + n * (n - 1)),
                        ("!top -> (p -> !top)", 1)]:
        names, _, make = algebra._plan((TOP, parse(text)), "ccpba")
        lat = b_prime.lattice
        Reads.reads = 0
        search = make(lat.meet, lat.join, b_prime.impl, Reads(b_prime.neg), Reads(b_prime.tilde),
                      lat.top, lat.bottom)
        assert search(*(range(n),) * len(names)) is None
        assert Reads.reads == reads, text


def _search(alg, lhs, rhs, join=None, impl=None):
    """The staged search of the sequent `lhs |- rhs` over `alg`'s tables,
    `!` and `~` counting their reads (`Reads`), and `join` or `impl` given
    in place of the algebra's; and its atom names."""
    names, _, make = algebra._plan((parse(lhs), parse(rhs)), "ccpba")
    lat = alg.lattice
    Reads.reads = 0
    return make(lat.meet, join or lat.join, impl or alg.impl, Reads(alg.neg), Reads(alg.tilde),
                lat.top, lat.bottom), names


def test_a_known_lhs_that_is_not_top_skips_the_inner_loop(b_prime):
    """`!p |- ~q`: `!p` is known in the loop of p and is top only at p = 0,
    so the loop of q, which reads `~` once a value, runs under that value
    alone: n reads of `!` and n of `~`, where the whole nest reads `~` n^2
    times."""
    n = b_prime.size
    search, names = _search(b_prime, "!p", "~q")
    assert search(*(range(n),) * len(names)) is None
    assert Reads.reads == n + n


def test_a_rhs_forced_to_top_skips_the_inner_loop(b_prime):
    """`top |- (q -> q) | p`: `q -> q` is known in the loop of q and is top,
    and so the goal is by `top | b`: the loop of p, which reads the join
    table once a value, never runs.  The join table is read once, when the
    law is checked on it."""
    n = b_prime.size
    join = Reads(b_prime.lattice.join)
    search, names = _search(b_prime, "top", "(q -> q) | p", join=join)
    assert names == ("q", "p")
    assert search(*(range(n),) * len(names)) is None
    assert Reads.reads == 1


def test_a_broken_law_runs_the_whole_nest(b_prime):
    """`!p & ~q -> !p` rests on `a -> top` at p = 0 (see above).  With
    `a -> top` broken at `a`, a value that no valuation gives `!p & ~q`, the
    goal stays valid, but the search no longer skips: n reads of `!` and
    n^2 of `~`, and the same verdict as the scan of that record."""
    n, top = b_prime.size, b_prime.lattice.top
    rows = [list(row) for row in b_prime.impl]
    rows[1][top] = 1
    impl = tuple(map(tuple, rows))
    search, names = _search(b_prime, "top", "!p & ~q -> !p", impl=impl)
    assert search(*(range(n),) * len(names)) is None
    assert Reads.reads == n + n * n
    alg = Algebra(b_prime.name, b_prime.lattice, impl, b_prime.neg, b_prime.tilde_one,
                  b_prime.tilde)
    f = parse("!p & ~q -> !p")
    assert algebra_valid(alg, f) == sequent_scan(alg, TOP, f) == VALID


def test_a_frame_lhs_with_no_world_skips_the_inner_loop():
    """Over the 2-world chain frame whose every world is queer, so that `~q`
    holds everywhere, `!p |- ~q`: `!p` holds at some world only for p the
    empty upset, so the loop of q, which reads the `~` clause once a value,
    runs under that value alone."""
    fr = frames.build_subnormal(["a", "b"], [("a", "b")], ["a", "b"])
    ups = frame_upsets(fr.leq)
    names, _, make = algebra._plan((parse("!p"), parse("~q")), "frame")
    # each clause as a tuple over every world mask
    order, tilde = (tuple(frames._no_successor_in(rel)(s) for s in range(1 << fr.size))
                    for rel in (fr.leq, fr.tilde))
    Reads.reads = 0
    search = make(None, None, order, Reads(order), Reads(tilde), (1 << fr.size) - 1, 0)
    masks = [sum(1 << w for w in u) for u in ups]
    assert search(*(masks,) * len(names)) is None
    assert [order[s] != 0 for s in masks] == [True, False, False]
    assert Reads.reads == len(ups) + len(ups)


def test_goals_of_many_atoms_compile():
    """CPython nests at most 20 blocks: a search nests 19 loops, and the
    atoms from the 20th on share one loop over `product` of their values, in
    the same order."""
    for k in (3, 19, 20, 21, 25):
        names = tuple(f"p{i}" for i in range(k))
        f = parse(" | ".join(names))
        make = algebra._program((TOP, f), names, algebra._TABLES, algebra._TABLES[1][2])
        assert ("product" in _code(make, "search").co_names) == (k >= 20), k
        two = enumerate_algebras("pba", 2)[0]
        top, bottom = two.lattice.top, two.lattice.bottom
        assert algebra._bind(two, make)(*(range(2),) * k) == (0,) * k + (top, bottom)
        assert algebra_valid(two, f) == Verdict(False, dict.fromkeys(names, "e0"))
        assert evaluate(two, f, dict.fromkeys(names, 1)) == 1
