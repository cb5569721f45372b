"""`is_pba` decided from the cached residuum.

`algebra.ccpba_flags` holds `is_pba` without the `_residuation_witness`
walk when the implication is `derive_heyting(lat)` and the record's meets
are those of its order; the walk runs only to name a witness.  Both flags,
witnesses included, must agree with `oracles.ccpba_flags` (the former body,
over the former triple loop `oracles.residuation_witness`) on catalogs,
relabelled copies, one-cell meet changes, and random and one-cell-changed
implication tables on every lattice of at most 8 elements and on M3 and N5
(no residuum), with no ~1 and with every ~1.  On relations that are no
partial order, where that loop and the walk already differed, they must
agree with the walk itself.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

import oracles
from support import chain_product, table_record
from twoneg import algebra
from twoneg._record import replace
from twoneg.algebra import (_is_residuum, _residuation_witness, attach_negations,
                            build_au, ccpba_flags, classify_algebra, enumerate_algebras,
                            tilde_one_candidates)
from twoneg.bridge import (canonical_frame_ccpba, canonical_frame_file,
                           complex_algebra_subnormal, frame_embedding, stone_embedding)
from twoneg.errors import LatticeError
from twoneg.lattice import FiniteLattice, _bound_table, _up_masks, all_lattices, derive_heyting

SEED = 20200
MEET_CHANGES = 12
ALGEBRAS = enumerate_algebras("pba", 8) + enumerate_algebras("ccpba", 8)
DIMS = [dims for k in (1, 2, 3) for dims in itertools.combinations_with_replacement((2, 3, 4), k)
        if math.prod(dims) <= 24]


def _relabelled(alg, rng):
    """`alg` rebuilt on its lattice with the elements in a random order."""
    lat, n = alg.lattice, alg.size
    perm = list(range(n))
    rng.shuffle(perm)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old

    def op(table):
        return tuple(tuple(perm[table[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
    moved = FiniteLattice(tuple(lat.elements[inv[i]] for i in range(n)),
                          tuple(tuple(lat.leq[inv[i]][inv[j]] for j in range(n))
                                for i in range(n)),
                          op(lat.meet), op(lat.join), perm[lat.bottom], perm[lat.top])
    t1 = None if alg.tilde_one is None else perm[alg.tilde_one]
    return attach_negations(moved, t1, name=alg.name)


def _meet_changed(alg, rng):
    """`alg` with one cell of its meet table changed, its implication kept."""
    n = alg.size
    rows = [list(row) for row in alg.lattice.meet]
    a, b = rng.randrange(n), rng.randrange(n)
    rows[a][b] = rng.choice([x for x in range(n) if x != rows[a][b]])
    return replace(alg, lattice=replace(alg.lattice, meet=tuple(map(tuple, rows))))


def _random_table(n, rng):
    return tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))


def _random_records(lat, rng, count):
    for _ in range(count):
        impl = _random_table(lat.size, rng)
        yield table_record(lat, rng.choice([None, *range(lat.size)]), impl)


def _changed_tables(lat, rng):
    """A random implication table and, where `lat` has a residuum, the
    residuum with one cell changed; each with no ~1 and with every ~1."""
    n = lat.size
    tables = [_random_table(n, rng)]
    if lat not in (oracles.M3, oracles.N5):
        rows = [list(row) for row in derive_heyting(lat)]
        rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        tables.append(tuple(map(tuple, rows)))
    for impl in tables:
        for t1 in (None, *range(n)):
            yield table_record(lat, t1, impl)


def _cases():
    rng = random.Random(SEED)
    for alg in ALGEBRAS:
        yield alg
        yield _relabelled(alg, rng)
        for _ in range(MEET_CHANGES):
            yield _meet_changed(alg, rng)
    for lat in (oracles.M3, oracles.N5):
        yield from _random_records(lat, rng, 50)
    for lat in all_lattices(8) + (oracles.M3, oracles.N5):
        yield from _changed_tables(lat, rng)


CASES = list(_cases())


def test_cases_reach_both_sides():
    decided = [_is_residuum(alg.lattice, alg.impl) for alg in CASES]
    assert all(decided[:2])
    assert 0 < sum(decided) < len(CASES)
    assert any(not ccpba_flags(alg)[0].holds and ccpba_flags(alg)[0].witness
               for alg in CASES)
    for lat in (oracles.M3, oracles.N5):
        with pytest.raises(LatticeError):
            derive_heyting(lat)


def test_flags_match_the_former_scan():
    for alg in CASES:
        assert ccpba_flags(alg) == oracles.ccpba_flags(alg), alg


def _is_order(leq):
    r = range(len(leq))
    return (all(leq[i][i] for i in r)
            and not any(leq[i][j] and leq[j][i] for i in r for j in r if i != j)
            and all(leq[i][k] for i in r for j in r for k in r if leq[i][j] and leq[j][k]))


def _relations(n):
    """Every relation on n elements that is no partial order but has all
    meets and joins as `_bound_table` reads them, as a lattice record."""
    for bits in itertools.product((False, True), repeat=n * n):
        leq = tuple(tuple(bits[i * n:(i + 1) * n]) for i in range(n))
        if _is_order(leq):
            continue
        try:
            meet = _bound_table(_up_masks(zip(*leq)), range(n), "missing-glb")
            join = _bound_table(_up_masks(leq), range(n), "missing-lub")
        except LatticeError:
            continue
        yield FiniteLattice(tuple(map(str, range(n))), leq, meet, join, 0, n - 1)


def test_relations_that_are_no_order_match_the_walk():
    rng = random.Random(SEED)
    decided = 0
    for lat in (lat for n in (2, 3) for lat in _relations(n)):
        try:
            impls = [derive_heyting(lat)]
        except LatticeError:
            impls = []
        impls += [alg.impl for alg in _random_records(lat, rng, 2)]
        for impl in impls:
            alg = table_record(lat, lat.top, impl)
            decided += _is_residuum(lat, impl)
            assert ccpba_flags(alg) == oracles.ccpba_flags(alg, _residuation_witness), lat
    assert decided > 0


def _embedding_inputs():
    """The ccpba catalog up to size 8 and every chain product up to 2x3x4
    with each `tilde_one` candidate."""
    algebras = list(enumerate_algebras("ccpba", 8))
    for dims in DIMS:
        lat = chain_product(dims)
        algebras += [attach_negations(lat, t1) for t1 in tilde_one_candidates(lat)]
    return algebras


def test_embeddings_run_no_residuation_walk(monkeypatch):
    """With the walk made to raise, every caller of `ccpba_flags` on the
    duality path runs over the catalog and the chain products."""
    inputs = _embedding_inputs()

    def walked(*args):
        raise AssertionError("the residuation walk ran")
    monkeypatch.setattr(algebra, "_residuation_witness", walked)
    for alg in inputs:
        lat = alg.lattice
        report = classify_algebra(alg)
        assert report.is_pba.holds and report.is_ccpba.holds
        for u1, u2 in ((lat.bottom, lat.top), (lat.bottom, alg.tilde_one),
                       (alg.tilde_one, lat.top)):
            build_au(alg, u1, u2)
        assert stone_embedding(alg).is_isomorphism
        canonical_frame_file(alg)
        fr = canonical_frame_ccpba(alg)
        complex_algebra_subnormal(fr)
        assert frame_embedding(fr).is_isomorphism
