"""The order kernel of `twoneg.lattice` (closure, cycle pair, meets and
joins, bounds and upsets from up-set and down-set masks) against the table
scans it replaced.

`closure`, `glb_table`, `scan_build_lattice`, `scan_close_order` and
`recursive_upsets` are the former bodies of `lattice._closure`,
`lattice._glb_table`, `lattice.build_lattice`, `frames._close_order` and
the upset enumeration behind `frames.frame_upsets`, kept here as the
oracle, and `generator_masks` is the former body of `lattice._up_masks`.  On random relations (cycles,
unknown names, unbounded posets, non-lattices, non-distributive lattices)
the builders must return the same value or raise the same (kind, witness,
detail)."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from twoneg import frames
from twoneg.errors import FrameError, LatticeError
from twoneg.lattice import (_up_masks, all_lattices, all_posets, build_lattice,
                            transitive_reduction, upsets_of, FiniteLattice)

from oracles import distributivity_witness
from support import outcome


def closure(n, pairs):
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        leq[a][b] = True
    for k in range(n):
        row_k = leq[k]
        for i in range(n):
            if leq[i][k]:
                row_i = leq[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return leq


def generator_masks(leq):
    return [sum(1 << j for j, b in enumerate(row) if b) for row in leq]


def glb_table(n, leq, names, want_meet):
    # For meets, scan lower bounds; for joins, upper bounds (dual order).
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if want_meet:
                bounds = [k for k in range(n) if leq[k][i] and leq[k][j]]
            else:
                bounds = [k for k in range(n) if leq[i][k] and leq[j][k]]
            kind = "missing-glb" if want_meet else "missing-lub"
            if not bounds:
                raise LatticeError(kind, (names[i], names[j]))
            m = bounds[0]
            for k in bounds[1:]:
                if (leq[m][k] if want_meet else leq[k][m]):
                    m = k
            for k in bounds:
                if not (leq[k][m] if want_meet else leq[m][k]):
                    raise LatticeError(kind, (names[i], names[j]))
            table[i][j] = m
    return table


def scan_build_lattice(elements, order_pairs):
    names = tuple(elements)
    if len(set(names)) != len(names):
        raise LatticeError("duplicate-element", names)
    if not names:
        raise LatticeError("no-bottom", ())
    n = len(names)
    idx = {e: i for i, e in enumerate(names)}
    pairs = set()
    for a, b in order_pairs:
        if a not in idx or b not in idx:
            raise LatticeError("unknown-element", a if a not in idx else b)
        pairs.add((idx[a], idx[b]))
    leq = closure(n, pairs)
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise LatticeError("not-a-poset", (names[i], names[j]), "order cycle")
    meet = glb_table(n, leq, names, True)
    join = glb_table(n, leq, names, False)
    bottoms = [i for i in range(n) if all(leq[i][j] for j in range(n))]
    tops = [i for i in range(n) if all(leq[j][i] for j in range(n))]
    if len(bottoms) != 1:
        raise LatticeError("no-bottom", names)
    if len(tops) != 1:
        raise LatticeError("no-top", names)
    witness = distributivity_witness(n, meet, join)
    if witness is not None:
        raise LatticeError("not-distributive", tuple(names[k] for k in witness))
    return FiniteLattice(
        elements=names,
        leq=tuple(tuple(row) for row in leq),
        meet=tuple(tuple(row) for row in meet),
        join=tuple(tuple(row) for row in join),
        bottom=bottoms[0],
        top=tops[0],
    )


def scan_close_order(worlds, pairs):
    n = len(worlds)
    if len(set(worlds)) != n:
        raise FrameError("duplicate-world", worlds)
    leq = closure(n, frames._index_pairs(worlds, pairs))
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise FrameError("condition-violation",
                                 ("poset", (worlds[i], worlds[j])), "order cycle")
    return tuple(tuple(row) for row in leq)


def recursive_upsets(leq):
    n = len(leq)
    order = sorted(range(n), key=lambda x: (sum(leq[x]), x))
    strict_ups = [[v for v in range(n) if leq[u][v] and v != u] for u in range(n)]
    out = []

    def rec(k, chosen):
        if k == len(order):
            out.append(frozenset(chosen))
            return
        w = order[k]
        rec(k + 1, chosen)
        if all(v in chosen for v in strict_ups[w]):
            chosen.add(w)
            rec(k + 1, chosen)
            chosen.discard(w)

    rec(0, set())
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def relabel(leq, perm):
    """The pairs of `leq` with element i renamed to str(perm[i])."""
    return [(str(perm[a]), str(perm[b])) for a, b in transitive_reduction(leq)]


def random_relations(rng: random.Random, count: int):
    """(names, pairs) cases: a random relation over up to 7 names, at times
    with an unknown name or a repeated one, and every lattice of size <= 7
    with and without a top or bottom cut off, in a random labelling."""
    for _ in range(count):
        n = rng.randrange(0, 8)
        names = [f"w{i}" for i in range(n)]
        rng.shuffle(names)
        pairs = [(rng.choice(names), rng.choice(names))
                 for _ in range(rng.randrange(0, 2 * n + 1))] if n else []
        roll = rng.random()
        if roll < 0.05 and n:
            pairs.insert(rng.randrange(len(pairs) + 1), (rng.choice(names), "zz"))
        elif roll < 0.08 and n:
            names.append(rng.choice(names))
        yield names, pairs
    for lat in all_lattices(7):
        n = lat.size
        for cut in (None, lat.bottom, lat.top):
            keep = [i for i in range(n) if i != cut]
            sub = tuple(tuple(lat.leq[i][j] for j in keep) for i in keep)
            perm = list(range(len(keep)))
            rng.shuffle(perm)
            yield [str(p) for p in sorted(perm)], relabel(sub, perm)
    # the two five-element non-distributive lattices, each in both labellings
    for pairs in (["0a", "0b", "0c", "a1", "b1", "c1"], ["0a", "ab", "b1", "0c", "c1"]):
        for names in (list("0abc1"), list("1cba0")):
            yield names, [tuple(p) for p in pairs]


def test_build_lattice_matches_table_scan():
    seen = Counter()
    for names, pairs in random_relations(random.Random(8), 3000):
        got = outcome(build_lattice, names, pairs)
        assert got == outcome(scan_build_lattice, names, pairs), (names, pairs)
        seen[got[1] if isinstance(got, tuple) else "lattice"] += 1
    for kind in ("lattice", "not-distributive", "not-a-poset",
                 "missing-glb", "missing-lub", "unknown-element", "duplicate-element",
                 "no-bottom"):
        assert seen[kind] > 0, (kind, seen)


@pytest.mark.parametrize("build,own", [
    (frames.build_subnormal, lambda rng, ws: [
        rng.choice([[w for w in ws if rng.random() < 0.5], ws])]),
    (frames.build_nhat, lambda rng, ws: [[(w, w) for w in ws], []]),
    (frames.build_compat, lambda rng, ws: [[]]),
    (lambda ws, pairs, c: frames.build_compat(ws, pairs, c, require_subcompat=True),
     lambda rng, ws: [[(v, w) for v in ws for w in ws if rng.random() < 0.2]]),
])
def test_frame_builders_match_table_scan(monkeypatch, build, own):
    """Each builder closes its order through the kernel or, patched, through
    the former scan; results and errors must agree."""
    rng = random.Random(9)
    seen = Counter()
    for names, pairs in random_relations(rng, 1500):
        args = own(rng, names)
        got = outcome(build, names, pairs, *args)
        with monkeypatch.context() as m:
            m.setattr(frames, "_close_order", scan_close_order)
            assert got == outcome(build, names, pairs, *args), (names, pairs, args)
        if not isinstance(got, tuple):
            seen["frame"] += 1
        elif got[1] == "condition-violation" and got[2][0] == "poset":
            seen["cycle"] += 1
    assert seen["cycle"] and seen["frame"], seen


def test_upsets_match_recursive_enumeration():
    """Every poset of at most 7 elements, upsets and downsets (the upsets of
    the converse)."""
    for posets in all_posets(7).values():
        for leq in posets:
            n = len(leq)
            dual = tuple(tuple(leq[j][i] for j in range(n)) for i in range(n))
            assert list(frames.frame_upsets(leq)) == recursive_upsets(leq)
            assert list(frames.frame_upsets(dual)) == recursive_upsets(dual)
            assert upsets_of(leq) == recursive_upsets(leq)


def test_up_masks_match_generator_form():
    """Random square bool tables of 0-12 rows, each also through the
    `zip(*rel)` iterator the frame laws pass for a converse."""
    rng = random.Random(10)
    for _ in range(600):
        n = rng.randrange(13)
        density = rng.random()
        rel = tuple(tuple(rng.random() < density for _ in range(n)) for _ in range(n))
        assert _up_masks(rel) == generator_masks(rel)
        assert _up_masks(zip(*rel)) == generator_masks(zip(*rel))
        assert _up_masks([list(row) for row in rel]) == generator_masks(rel)
