"""The residuation kernel against the scans it replaced.

`lattice._below` builds the masks {c : v[c] <= z} for every z at once;
`derive_heyting`, `algebra._residuation_witness` and `algebra._absorb` read
them.  Their former bodies, with the former `residuum` and
`residuation_mismatch`, are the oracles in `oracles.py`: every table, flag,
error and witness must agree, on every lattice of size <= 8 and on the
non-distributive records M3 and N5.  `ccpba_flags` on such tables is
checked in `test_pba_decision.py`."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from twoneg._record import replace
from twoneg.algebra import _absorb, _residuation_witness, enumerate_algebras
from twoneg.lattice import _below, all_lattices, build_lattice, derive_heyting

import oracles
from oracles import M3, N5
from support import outcome, unary

LATTICES = all_lattices(8) + (M3, N5)


def test_derive_heyting_matches_oracle():
    for lat in LATTICES:
        assert outcome(derive_heyting, lat) == outcome(oracles.derive_heyting, lat)
    assert outcome(derive_heyting, M3)[:3] == ("LatticeError", "residuum-missing", ("x", "0"))
    assert outcome(derive_heyting, N5)[:3] == ("LatticeError", "residuum-missing", ("b", "a"))


def test_derive_heyting_caches_by_order():
    """The order alone decides the residuum: a lattice with the same order
    and other names is a cache hit, and a failure names each caller's own
    elements."""
    square = [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")]
    a = build_lattice(["0", "p", "q", "1"], square)
    rename = dict(zip("0pq1", ("bot", "x", "y", "top")))
    b = build_lattice([rename[e] for e in a.elements],
                      [(rename[x], rename[y]) for x, y in square])
    assert a.leq == b.leq and a.elements != b.elements
    derive_heyting.cache_clear()
    assert derive_heyting(a) == derive_heyting(b)
    info = derive_heyting.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    m3 = replace(M3, elements=("o", "a", "b", "c", "i"))
    assert outcome(derive_heyting, m3)[:3] == ("LatticeError", "residuum-missing", ("a", "o"))
    assert outcome(derive_heyting, M3)[:3] == ("LatticeError", "residuum-missing", ("x", "0"))


def test_every_implication_column_absorbs_as_before():
    for lat in all_lattices(8):
        impl = derive_heyting(lat)
        assert _residuation_witness(lat, impl) is None
        for b in range(lat.size):
            t = tuple(row[b] for row in impl)
            assert _absorb(lat, t) == oracles.absorb(lat, t)


def test_catalog_negations_match_oracle():
    for cls in ("pba", "ccpba"):
        for alg in enumerate_algebras(cls, 8):
            lat = alg.lattice
            assert (_residuation_witness(lat, alg.impl)
                    == oracles.residuation_witness(lat, alg.impl))
            for t in (alg.neg, alg.tilde):
                if t is not None:
                    assert _absorb(lat, t) == oracles.absorb(lat, t)


def _table(draw, lat):
    """A random table, or a genuine implication table with one cell changed
    (M3 and N5 have none, so they get a random one)."""
    n = lat.size
    if lat in (M3, N5) or draw(st.booleans()):
        return tuple(draw(unary(n)) for _ in range(n))
    rows = [list(row) for row in derive_heyting(lat)]
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rows[a][b] = draw(st.integers(0, n - 1))
    return tuple(map(tuple, rows))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LATTICES), st.data())
def test_below_is_the_set_below(lat, data):
    rows = data.draw(st.lists(unary(lat.size), max_size=3))
    want = [[sum(1 << c for c, x in enumerate(v) if lat.leq[x][z]) for z in range(lat.size)]
            for v in rows]
    assert _below(lat.leq, rows) == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LATTICES), st.data())
def test_random_and_corrupted_tables_match_oracle(lat, data):
    impl = _table(data.draw, lat)
    witness = _residuation_witness(lat, impl)
    assert witness == oracles.residuation_witness(lat, impl)
    cell = None if witness is None else tuple(lat.elements[i] for i in witness[:2])
    assert cell == oracles.residuation_mismatch(lat, impl)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LATTICES), st.data())
def test_random_maps_absorb_as_before(lat, data):
    t = data.draw(unary(lat.size))
    assert _absorb(lat, t) == oracles.absorb(lat, t)
