"""Catalogs by size: each section is grown once, cached by size, and read by
every caller.

Posets are grown one downset level at a time (`lattice._posets_by_downsets`),
the canonical pass runs once per (family, size) on the lattices of that size
(`lattice._lattices`), and `proofs.countermodel_search` walks the named
sections (`algebra._section`) in size order and stops at the first size that
fails.  The search must agree with the former full scan
(`oracles.countermodel_scan`) and run no canonical pass above the size it
answers at.  Any order of bounds must grow each level once and run
`canonical_form` on as many poset candidates as the former all-at-once growth
(`oracles.grow_posets`).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from twoneg import algebra, lattice
from twoneg.algebra import enumerate_algebras
from twoneg.formula import parse
from twoneg.lattice import all_lattices
from twoneg.proofs import HILBERT_SYSTEMS, SEQUENT_SYSTEMS, countermodel_search

from support import formulas, outcome

SYSTEMS = sorted(HILBERT_SYSTEMS) + sorted(SEQUENT_SYSTEMS)
PQR = ("p", "q", "r")


def _clear_catalog_caches():
    for fn in (enumerate_algebras, algebra._section, all_lattices, lattice._lattices,
               lattice._posets_by_downsets):
        fn.cache_clear()


def sides():
    return st.one_of(formulas(PQR, False, max_leaves=6), formulas(PQR, max_leaves=6))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SYSTEMS + ["ILM3"]), st.integers(-1, 7),
       st.one_of(formulas(PQR, max_leaves=6), st.tuples(sides(), sides())))
def test_search_agrees_with_the_full_scan(system, max_size, goal):
    """Either goal kind for every system and for an unknown one, with `->`
    allowed on both sides of a sequent, so that every error of the merged
    dispatch (`wrong-goal-kind` both ways, `wrong-language`,
    `unknown-system`, `bad-size`) is compared, detail included."""
    assert (outcome(countermodel_search, system, goal, max_size)
            == outcome(oracles.countermodel_scan, system, goal, max_size))


@pytest.mark.parametrize("system,goal,size", [
    ("ILM", parse("((p -> q) -> p) -> p"), 3),
    ("ILM", parse("p | ~p"), 3),
    ("Kim", (parse("~~p"), parse("p")), 2),
    ("ILM-v", parse("(p -> q) | (q -> p)"), 5),
])
def test_search_builds_no_section_above_its_answer(monkeypatch, system, goal, size):
    def lattices(n):
        passes.append(n)
        return lattice._lattices(n)

    passes = []
    monkeypatch.setattr(algebra, "_lattices", lattices)
    _clear_catalog_caches()
    alg, _ = countermodel_search(system, goal, 8)
    assert alg.size == size
    assert passes == list(range(2, size + 1))
    assert lattice._posets_by_downsets.cache_info().currsize == size


def test_each_downset_level_is_grown_once_whatever_the_order(monkeypatch):
    def count(leq, unaries=(), marks=()):
        if not unaries and not marks:
            calls.append(leq)
        return package(leq, unaries, marks)

    package = lattice.canonical_form
    calls = []
    monkeypatch.setattr(lattice, "canonical_form", count)
    monkeypatch.setattr(oracles, "package_canonical_form", count)
    _clear_catalog_caches()
    enumerate_algebras("ccpba", 8)
    all_lattices(5)
    catalog = enumerate_algebras("pba", 10, guard=None)
    info = lattice._posets_by_downsets.cache_info()
    assert info.misses == info.currsize == 10
    graded = len(calls)
    calls.clear()
    oracles.grow_posets(9, 10)
    assert graded == len(calls) > 0
    assert [alg.size for alg in catalog] == [lat.size for lat in all_lattices(10)][1:]
