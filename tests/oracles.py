"""The scans the residuation kernel replaced, kept as test oracles.

`residuum`, `derive_heyting` and `residuation_mismatch` are the former
bodies in `twoneg.lattice`, and `residuation_witness` and `absorb` the former
triple loops of `algebra._residuation_witness` and `algebra._absorb`.  Each
now reads `lattice._below` instead; `tests/test_residuation_kernel.py`
requires the same tables, errors and witnesses.

`ccpba_flags` is the former body of `algebra.ccpba_flags`, which scanned
for a residuation witness on every call; the package now decides `is_pba`
from the cached residuum and walks only to name a witness
(`tests/test_pba_decision.py`).

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

`is_upset`, `stability_witness`, `condensation_witness`,
`symmetry_witness`, `tilde_top_worlds`, `dne_tilde_top_witness`,
`is_identity`, `common_successor` and `phi` are the cell-by-cell table
scans `twoneg.frames` and `twoneg.translate` once ran; the frame conditions
now read successor masks and `~top` and condition (D)/(3) the truth-set
kernel (`tests/test_frame_laws.py`).  The builder oracles above read these
copies, never the package's own.

`path_failure` is the law-by-law scan of the kite path that
`algebra._path_failure` once ran on every negation; it now decides the first
five laws from the residuum and scans only to name a witness
(`tests/test_residuum_decision.py`).

`canonical_form` is the product search `lattice.canonical_form` once ran:
it encodes every relabelling that permutes the sorted signature blocks
inside themselves and keeps the least encoding, the first one met on a tie.
The package now searches only the relabellings with least order bits
(`tests/test_canonical_form.py`).

`algebra_embedding_image` and `frame_embedding_image` are the frozenset
images `bridge._algebra_embedding` and `bridge._frame_embedding` once
computed: sigma(a), or the upsets holding a world, as a frozenset found by a
linear search of `frame_upsets` or `prime_filters`.  The bridge now maps
masks through the position dicts of its order-keyed upset lattice
(`tests/test_upset_lattice.py`).

M3 and N5 are lattice records that `build_lattice` rejects as not
distributive; they reach the `residuum-missing` error.
"""

from __future__ import annotations

import itertools

from twoneg.algebra import _PATH, Flag, _flag
from twoneg.bridge import prime_filters
from twoneg.errors import FrameError, LatticeError
from twoneg.frames import (CompatFrame, NhatFrame, SubNormalFrame, _close_order,
                           _relation, frame_upsets)
from twoneg.lattice import _encode, _lattice, _order, _signatures, _up_masks


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


def ccpba_flags(alg, witness=residuation_witness):
    """(`is_pba`, `is_ccpba`): `is_pba` from the first residuation witness
    `witness(lat, impl)` finds, `is_ccpba` also !!~1 = ~1."""
    lat = alg.lattice
    pba = _flag(lat, witness(lat, alg.impl))
    if alg.tilde is None:
        return pba, Flag(False, ())
    t1 = alg.tilde_one
    dne = Flag(True) if alg.neg[alg.neg[t1]] == t1 else Flag(False, (lat.elements[t1],))
    return pba, pba if not pba.holds else dne


def absorb(lat, t):
    for a in range(lat.size):
        for b in range(lat.size):
            for c in range(lat.size):
                if lat.leq[lat.meet[a][b]][c] and not lat.leq[lat.meet[a][t[c]]][t[b]]:
                    return (a, b, c)
    return None


def path_failure(lat, t, k=len(_PATH)):
    """The first failed law among the first k of the kite path, as
    (position, law, witness), or None: every law scanned in order."""
    for pos, (law, check) in enumerate(_PATH[:k]):
        w = check(lat, t)
        if w is not None:
            return pos, law, w
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


def canonical_form(leq, unaries=(), marks=()):
    """(key, perm): the least encoding over the block-respecting
    relabellings, tried one by one in `itertools.product` order."""
    n = len(leq)
    sigs = _signatures(_up_masks(leq), _up_masks(zip(*leq)), unaries, marks)
    blocks = {}
    for x in range(n):
        blocks.setdefault(sigs[x], []).append(x)
    ordered = [blocks[s] for s in sorted(blocks)]
    best = best_perm = None
    for choice in itertools.product(*(itertools.permutations(b) for b in ordered)):
        perm = [0] * n
        for pos, old in enumerate(itertools.chain.from_iterable(choice)):
            perm[old] = pos
        enc = _encode(leq, unaries, marks, perm)
        if best is None or enc < best:
            best, best_perm = enc, perm
    return best, best_perm


def no_successor_in(rel, s):
    """Worlds with no `rel`-successor in `s`."""
    n = len(rel)
    return frozenset(w for w in range(n) if all(v not in s for v in range(n) if rel[w][v]))


def is_upset(leq, s):
    return all(j in s for i in s for j in range(len(leq)) if leq[i][j])


def tilde_top_worlds(fr):
    """Worlds where `~top` holds: those with no `~`-successor."""
    return frozenset(x for x, row in enumerate(fr.tilde) if not any(row))


def dne_tilde_top_witness(fr):
    """First world outside `~top` each of whose `!`-successors has a
    `!`-successor inside `~top`, or None."""
    quiet = tilde_top_worlds(fr)
    rel = fr.bang
    n = fr.size
    for x in range(n):
        if x in quiet:
            continue
        if all(any(rel[y][z] and z in quiet for z in range(n))
               for y in range(n) if rel[x][y]):
            return fr.worlds[x]
    return None


def is_identity(fr):
    n, tilde = fr.size, fr.tilde
    return all(fr.leq[y][x] for x in range(n) for y in range(n) if tilde[x][y])


def stability_witness(leq, r):
    # (<= ; R ; >=) subset of R: x' <= x, x R y, y' <= y  =>  x' R y'.
    n = len(leq)
    for x in range(n):
        for y in range(n):
            if not r[x][y]:
                continue
            for xp in range(n):
                if not leq[xp][x]:
                    continue
                for yp in range(n):
                    if leq[yp][y] and not r[xp][yp]:
                        return (xp, x, y, yp)
    return None


def condensation_witness(leq, r):
    # x R y  =>  some z above both with x R z.
    n = len(leq)
    for x in range(n):
        for y in range(n):
            if r[x][y] and not any(leq[x][z] and leq[y][z] and r[x][z]
                                   for z in range(n)):
                return (x, y)
    return None


def symmetry_witness(leq, r):
    n = len(r)
    for x in range(n):
        for y in range(n):
            if r[x][y] != r[y][x]:
                return (x, y)
    return None


def common_successor(names, rel):
    n = len(names)
    return [(names[x], names[y]) for x in range(n) for y in range(n)
            if any(rel[x][z] and rel[y][z] for z in range(n))]


def phi(fr):
    """`translate.phi` over the copies above and the `build_nhat` below."""
    n, names = fr.size, fr.worlds
    order = [(names[x], names[y]) for x in range(n) for y in range(n)
             if fr.leq[x][y] and x != y]
    out = build_nhat(names, order, common_successor(names, fr.bang),
                     common_successor(names, fr.tilde))
    if is_identity(fr) and not is_identity(out):
        raise FrameError("translation-broke-identity", None)
    return out


def build_subnormal(worlds, leq_pairs, y0_names):
    ws = tuple(worlds)
    leq = _close_order(ws, leq_pairs)
    idx = {w: i for i, w in enumerate(ws)}
    for w in y0_names:
        if w not in idx:
            raise FrameError("relation-out-of-range", ("y0", w))
    y0 = frozenset(idx[w] for w in y0_names)
    fr = SubNormalFrame(ws, leq, y0)
    if not is_upset(leq, y0):
        raise FrameError("y0-not-upset", tuple(sorted(ws[i] for i in y0)))
    w = dne_tilde_top_witness(fr)
    if w is not None:
        raise FrameError("condition-violation", ("D", w))
    return fr


_SYMMETRY_CONDENSATION = (("symmetry", symmetry_witness),
                          ("condensation", condensation_witness))


def nhat_violations(fr):
    out = []
    for tag, rel in (("R1", fr.rn1), ("R2", fr.rn2)):
        for law, witness in (("stability", stability_witness), *_SYMMETRY_CONDENSATION):
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
    w = stability_witness(leq, fr.c)  # the downward-closure law (C)
    if w is not None:
        raise FrameError("condition-violation",
                         ("C-law", tuple(ws[i] for i in w)))
    if require_subcompat:
        bad = subcompat_violation(fr)
        if bad is not None:
            raise FrameError("condition-violation", bad)
    return fr


def algebra_embedding_image(alg, fr):
    """a -> the position of sigma(a) among the upsets of the canonical frame `fr`."""
    filters = prime_filters(alg.lattice)
    ups = frame_upsets(fr.leq)
    return tuple(ups.index(frozenset(i for i, f in enumerate(filters) if a in f))
                 for a in range(alg.size))


def frame_embedding_image(fr, alg):
    """w -> the position of {upsets containing w} among the prime filters of
    `alg`, the complex algebra of `fr`."""
    ups = frame_upsets(fr.leq)
    filters = prime_filters(alg.lattice)
    return tuple(filters.index(frozenset(j for j, u in enumerate(ups) if w in u))
                 for w in range(fr.size))


def _record(names, pairs):
    idx = {e: i for i, e in enumerate(names)}
    up, _ = _order(len(names), [(idx[a], idx[b]) for a, b in pairs])
    return _lattice(names, up)


M3 = _record(["0", "x", "y", "z", "1"],
             [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")])
N5 = _record(["0", "a", "b", "c", "1"],
             [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
