"""The scans the residuation kernel replaced, kept as test oracles.

`residuum`, `derive_heyting` and `residuation_mismatch` are the former
bodies in `twoneg.lattice`, and `residuation_witness` and `absorb` the former
triple loops of `algebra._residuation_witness` and `algebra._absorb`.  Each
now reads `lattice._below` instead; `tests/test_residuation_kernel.py`
requires the same tables, errors and witnesses.

`distributivity_witness` is the triple scan `build_lattice` once ran on every
lattice; it now decides distributivity by join-primeness and keeps its own
copy of the scan only to name the witness (`tests/test_join_prime.py`).

`build_subnormal`, `nhat_violations`, `build_nhat`, `subcompat_violation`
and `build_compat` are the hand-written law sequences `twoneg.frames` once
ran; the builders now read one law table per frame kind
(`tests/test_frame_laws.py`).

`no_successor_in` is the frozenset clause frame truth sets and
`bridge.complex_algebra_compat` once read; both now read the mask kernel
`frames._no_successor_in` (`tests/test_frame_evaluator.py`).

M3 and N5 are lattice records that `build_lattice` rejects as not
distributive; they reach the `residuum-missing` error.
"""

from __future__ import annotations

from twoneg.errors import FrameError, LatticeError
from twoneg.frames import (CompatFrame, NhatFrame, SubNormalFrame, _close_order,
                           _condensation_witness, _is_upset, _relation,
                           _stability_witness, _symmetry_witness,
                           dne_tilde_top_witness)
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


def distributivity_witness(n, meet, join):
    """The first triple (a, b, c), row-major, where a /\\ (b \\/ c) differs
    from (a /\\ b) \\/ (a /\\ c), or None if the lattice is distributive."""
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return (a, b, c)
    return None


def no_successor_in(rel, s):
    """Worlds with no `rel`-successor in `s`."""
    n = len(rel)
    return frozenset(w for w in range(n) if all(v not in s for v in range(n) if rel[w][v]))


def build_subnormal(worlds, leq_pairs, y0_names):
    ws = tuple(worlds)
    leq = _close_order(ws, leq_pairs)
    idx = {w: i for i, w in enumerate(ws)}
    for w in y0_names:
        if w not in idx:
            raise FrameError("relation-out-of-range", ("y0", w))
    y0 = frozenset(idx[w] for w in y0_names)
    fr = SubNormalFrame(ws, leq, y0)
    if not _is_upset(leq, y0):
        raise FrameError("y0-not-upset", tuple(sorted(ws[i] for i in y0)))
    w = dne_tilde_top_witness(fr)
    if w is not None:
        raise FrameError("condition-violation", ("D", w))
    return fr


_SYMMETRY_CONDENSATION = (("symmetry", _symmetry_witness),
                          ("condensation", _condensation_witness))


def nhat_violations(fr):
    out = []
    for tag, rel in (("R1", fr.rn1), ("R2", fr.rn2)):
        for law, witness in (("stability", _stability_witness), *_SYMMETRY_CONDENSATION):
            w = witness(fr.leq, rel)
            if w is not None:
                out.append((f"{tag}-{law}", tuple(fr.worlds[i] for i in w)))
    for x in range(fr.size):
        if not fr.rn1[x][x]:
            out.append(("R1-reflexivity", (fr.worlds[x],)))
            break
    w3 = dne_tilde_top_witness(fr)
    if w3 is not None:
        out.append(("3", (w3,)))
    return out


def build_nhat(worlds, leq_pairs, rn1_pairs, rn2_pairs):
    ws = tuple(worlds)
    leq = _close_order(ws, leq_pairs)
    fr = NhatFrame(ws, leq, _relation(ws, rn1_pairs), _relation(ws, rn2_pairs))
    bad = nhat_violations(fr)
    if bad:
        raise FrameError("condition-violation", bad[0])
    return fr


def subcompat_violation(fr):
    for law, witness in _SYMMETRY_CONDENSATION:
        w = witness(fr.leq, fr.c)
        if w is not None:
            return (f"C-{law}", tuple(fr.worlds[i] for i in w))
    w3 = dne_tilde_top_witness(fr)
    if w3 is not None:
        return ("3", (w3,))
    return None


def build_compat(worlds, leq_pairs, c_pairs, *, require_subcompat=False):
    ws = tuple(worlds)
    leq = _close_order(ws, leq_pairs)
    fr = CompatFrame(ws, leq, _relation(ws, c_pairs))
    w = _stability_witness(leq, fr.c)  # the downward-closure law (C)
    if w is not None:
        raise FrameError("condition-violation",
                         ("C-law", tuple(ws[i] for i in w)))
    if require_subcompat:
        bad = subcompat_violation(fr)
        if bad is not None:
            raise FrameError("condition-violation", bad)
    return fr


def _record(names, pairs):
    idx = {e: i for i, e in enumerate(names)}
    up, _ = _order(len(names), [(idx[a], idx[b]) for a, b in pairs])
    return _lattice(names, up)


M3 = _record(["0", "x", "y", "z", "1"],
             [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")])
N5 = _record(["0", "a", "b", "c", "1"],
             [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
