"""`lattice.canonical_form` against the product search it replaced.

The refinement search must return the same key and the same permutation as
`oracles.canonical_form`, which tries every block-respecting relabelling:
catalog sort keys and entry names read the key, and `iso_check` reads the
permutation.  It must also stay off the factorial cliffs of large
symmetric lattices, counted in encodings rather than timed."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from twoneg import algebra, lattice
from twoneg.algebra import attach_negations, iso_check, tilde_one_candidates
from twoneg.lattice import (_table, all_lattices, all_posets, build_lattice,
                            canonical_form, transitive_reduction)

import oracles
from support import chain_product

RANDOMS = st.randoms(use_true_random=False)


def _relabelled_table(leq, rng):
    perm = list(range(len(leq)))
    rng.shuffle(perm)
    return _table(oracles.relabel(leq, perm))


def _relabelled(lat, rng):
    """The same lattice with its elements listed in a shuffled order."""
    names = list(lat.elements)
    rng.shuffle(names)
    return build_lattice(names, [(lat.elements[a], lat.elements[b])
                                 for a, b in transitive_reduction(lat.leq)])


def _structures(lat):
    """(unaries, marks) of `lat` as a pba, as a ccpba with each !!-fixed ~1
    (marked) and as the Kim reduct of each (unmarked)."""
    yield (attach_negations(lat, None).neg,), ()
    for t1 in tilde_one_candidates(lat):
        alg = attach_negations(lat, t1)
        yield (alg.neg, alg.tilde), (t1,)
        yield (alg.neg, alg.tilde), ()


def _agrees(leq, unaries=(), marks=()):
    return canonical_form(leq, unaries, marks) == oracles.canonical_form(leq, unaries, marks)


@settings(max_examples=5, deadline=None)
@given(RANDOMS)
def test_posets_match_product_search(rng):
    posets = [leq for by_size in all_posets(6).values() for leq in by_size]
    assert len(posets) == 1 + 2 + 5 + 16 + 63 + 318
    for leq in posets:
        assert _agrees(_relabelled_table(leq, rng))


@settings(max_examples=3, deadline=None)
@given(RANDOMS)
def test_lattices_match_product_search(rng):
    for lat in all_lattices(10):
        for copy in (lat, _relabelled(lat, rng)):
            for unaries, marks in _structures(copy):
                assert _agrees(copy.leq, unaries, marks)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (3, 4), (2, 2, 4), (2, 3, 3),
                                  (2, 2, 5), (2, 3, 4), (2, 2, 6), (4, 6), (3, 8)])
@settings(max_examples=3, deadline=None)
@given(rng=RANDOMS)
def test_chain_products_match_product_search(dims, rng):
    lat = chain_product(dims)
    for copy in (lat, _relabelled(lat, rng)):
        for unaries, marks in _structures(copy):
            assert _agrees(copy.leq, unaries, marks)


# B4 = 2^4 has blocks of 4, 6 and 4 elements: the product search tried
# 414 720 encodings per canonical form.  The refinement search encodes one
# relabelling per automorphism that keeps the least order bits (24 on B4).
@pytest.mark.parametrize("dims, end", [((2, 2, 2, 2), "bottom"), ((2, 2, 2, 2), "top"),
                                       ((2, 2, 2, 3), "top"), ((3, 3, 3), "bottom")])
def test_symmetric_lattices_stay_off_the_cliff(dims, end, monkeypatch):
    lat = chain_product(dims)
    copy = _relabelled(lat, random.Random(sum(dims)))
    t1 = getattr(lat, end)
    alg = attach_negations(lat, t1)
    twin = attach_negations(copy, copy.index(lat.elements[t1]))
    other = attach_negations(copy, copy.top if end == "bottom" else copy.bottom)

    encodings, per_form = [], []
    encode, form = lattice._encode, algebra.canonical_form

    def counted_encode(*args):
        encodings.append(args)
        return encode(*args)

    def counted_form(*args):
        before = len(encodings)
        out = form(*args)
        per_form.append(len(encodings) - before)
        return out

    monkeypatch.setattr(lattice, "_encode", counted_encode)
    monkeypatch.setattr(algebra, "canonical_form", counted_form)

    mapping = iso_check(alg, twin)
    assert mapping is not None and sorted(mapping) == sorted(lat.elements)
    f = [copy.index(mapping[e]) for e in lat.elements]
    assert sorted(f) == list(range(lat.size))
    for i in range(lat.size):
        assert f[alg.neg[i]] == twin.neg[f[i]] and f[alg.tilde[i]] == twin.tilde[f[i]]
        for j in range(lat.size):
            assert lat.leq[i][j] == copy.leq[f[i]][f[j]]
            assert f[alg.impl[i][j]] == twin.impl[f[i]][f[j]]
    assert iso_check(alg, other) is None
    assert len(per_form) == 4 and max(per_form) <= 48
