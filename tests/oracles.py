"""The scans the residuation kernel replaced, kept as test oracles.

`residuum`, `derive_heyting` and `residuation_mismatch` are the former
bodies in `twoneg.lattice`, and `residuation_witness` and `absorb` the former
triple loops of `algebra._residuation_witness` and `algebra._absorb`.  Each
now reads `lattice._below` instead; `tests/test_residuation_kernel.py`
requires the same tables, errors and witnesses.

M3 and N5 are lattice records that `build_lattice` rejects as not
distributive; they reach the `residuum-missing` error.
"""

from __future__ import annotations

from twoneg.errors import LatticeError
from twoneg.lattice import _lattice, _order


def residuum(lat, a, b):
    """max{c : a /\\ c <= b} if the set has a maximum, else None."""
    leq, meet = lat.leq, lat.meet
    candidates = [c for c in range(lat.size) if leq[meet[a][c]][b]]
    m = candidates[0]  # bottom always qualifies, so nonempty
    for c in candidates[1:]:
        if leq[m][c]:
            m = c
    for c in candidates:
        if not leq[c][m]:
            return None
    return m


def derive_heyting(lat):
    """Full residuum table; raises residuum-missing with the witness pair."""
    n = lat.size
    table = []
    for a in range(n):
        row = []
        for b in range(n):
            r = residuum(lat, a, b)
            if r is None:
                raise LatticeError("residuum-missing",
                                   (lat.elements[a], lat.elements[b]))
            row.append(r)
        table.append(tuple(row))
    return tuple(table)


def residuation_mismatch(lat, impl):
    """First cell (row-major) where a declared implication table disagrees with
    the derived residuum, or None if the table is the genuine residuation."""
    for a in range(lat.size):
        for b in range(lat.size):
            if residuum(lat, a, b) != impl[a][b]:
                return (lat.elements[a], lat.elements[b])
    return None


def residuation_witness(lat, impl):
    for a in range(lat.size):
        for b in range(lat.size):
            for c in range(lat.size):
                if lat.leq[lat.meet[a][c]][b] != lat.leq[c][impl[a][b]]:
                    return (a, b, c)
    return None


def absorb(lat, t):
    for a in range(lat.size):
        for b in range(lat.size):
            for c in range(lat.size):
                if lat.leq[lat.meet[a][b]][c] and not lat.leq[lat.meet[a][t[c]]][t[b]]:
                    return (a, b, c)
    return None


def _record(names, pairs):
    idx = {e: i for i, e in enumerate(names)}
    up, _ = _order(len(names), [(idx[a], idx[b]) for a, b in pairs])
    return _lattice(names, up)


M3 = _record(["0", "x", "y", "z", "1"],
             [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")])
N5 = _record(["0", "a", "b", "c", "1"],
             [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
