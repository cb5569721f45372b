"""The kite path decided from the residuum.

`algebra._path_failure` passes a negation `t` through the first five kite
laws exactly when `t(a) = a -> t(1)` for every `a`, and through the sixth
exactly when also `t(1) = 0`; it scans a law only to name the first
failure's witness.  `oracles.path_failure` scans every law in order.  Both,
and `kim_violations` and `classify_negation_pair` on top of each, must agree
on every input below, M3 and N5 (no residuum) included.
"""

from __future__ import annotations

import itertools
import random

import pytest

import oracles
from twoneg import algebra
from twoneg.algebra import (_PATH, _path_failure, classify_algebra, classify_negation_pair,
                            enumerate_algebras, kim_violations)
from twoneg.bridge import canonical_frame_kim, complex_algebra_compat
from twoneg.errors import LatticeError, WorkbenchError
from twoneg.lattice import all_lattices, derive_heyting

SEED = 20181
PERTURBATIONS = 20


def _cases():
    """(lat, t): every unary table on the lattices of at most 4 elements and
    on M3 and N5; on every lattice of at most 8 elements, every column
    a -> t1 and 20 random one-cell changes of each."""
    rng = random.Random(SEED)
    lattices = all_lattices(8)
    for lat in [x for x in lattices if x.size <= 4] + [oracles.M3, oracles.N5]:
        for t in itertools.product(range(lat.size), repeat=lat.size):
            yield lat, t
    for lat in lattices:
        n = lat.size
        for t1 in range(n):
            column = tuple(row[t1] for row in derive_heyting(lat))
            yield lat, column
            for _ in range(PERTURBATIONS):
                t = list(column)
                t[rng.randrange(n)] = rng.randrange(n)
                yield lat, tuple(t)


CASES = list(_cases())


def _pseudo_complement(lat):
    try:
        return tuple(row[lat.bottom] for row in derive_heyting(lat))
    except LatticeError:
        return None


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except WorkbenchError as e:
        return (type(e).__name__, e.kind, e.witness, e.detail)


def _law_results():
    """`kim_violations` and `classify_negation_pair` on every case, with `t`
    as the minimal negation against the pseudo-complement (where the lattice
    has one) and as the intuitionistic one against itself."""
    out = []
    for lat, t in CASES:
        pairs = [(t, t)]
        neg = _pseudo_complement(lat)
        if neg is not None:
            pairs.append((neg, t))
        for neg, tilde in pairs:
            out.append((kim_violations(lat, neg, tilde),
                        _outcome(classify_negation_pair, lat, neg, tilde)))
    return out


def test_cases_reach_every_law_and_both_sides():
    for lat in (oracles.M3, oracles.N5):
        with pytest.raises(LatticeError):
            derive_heyting(lat)
    residual = sum(1 for lat, t in CASES if _pseudo_complement(lat) is not None
                   and t == tuple(row[t[lat.top]] for row in derive_heyting(lat)))
    assert 0 < residual < len(CASES)
    failed = {oracles.path_failure(lat, t)[1] for lat, t in CASES
              if oracles.path_failure(lat, t) is not None}
    assert failed == {law for law, _ in _PATH}


def test_path_failure_matches_plain_scan():
    for lat, t in CASES:
        for k in range(1, len(_PATH) + 1):
            assert _path_failure(lat, t, k) == oracles.path_failure(lat, t, k), (lat, t, k)


def test_law_layer_matches_plain_scan(monkeypatch):
    got = _law_results()
    monkeypatch.setattr(algebra, "_path_failure", oracles.path_failure)
    assert got == _law_results()


def test_residual_negations_run_no_minimal_law_scan(monkeypatch):
    """With the first five laws' scans made to raise, the catalogs and the
    complex algebras of their canonical frames classify as before."""
    ccpba = enumerate_algebras("ccpba", 8)
    kim = enumerate_algebras("kim", 8)
    frames = [canonical_frame_kim(alg) for alg in kim]
    want = ([classify_algebra(alg) for alg in ccpba],
            [complex_algebra_compat(fr) for fr in frames])

    def scanned(*args):
        raise AssertionError("a minimal law was scanned")
    for name in ("_antitone", "_or_linear", "_nor", "_quasi", "_absorb"):
        monkeypatch.setattr(algebra, name, scanned)
    monkeypatch.setattr(algebra, "_PATH",
                        tuple((law, scanned) for law, _ in _PATH[:-1]) + _PATH[-1:])
    for alg in ccpba + kim:
        assert kim_violations(alg.lattice, alg.neg, alg.tilde) is None
        classify_negation_pair(alg.lattice, alg.neg, alg.tilde)
    got = ([classify_algebra(alg) for alg in ccpba],
           [complex_algebra_compat(fr) for fr in frames])
    assert got == want
    assert [canonical_frame_kim(alg) for alg in kim] == frames

