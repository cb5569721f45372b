"""Finite bounded lattices given by explicit order tables.

Everything is index-based: a lattice over n elements stores the full
reflexive-transitive order as an n x n boolean table plus total meet/join
tables.  The residuum (relative pseudo-complement) is always *derived* from
the order, never taken as input; declared implication tables can only be
cross-checked against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import LatticeError, VerificationError

__all__ = [
    "FiniteLattice", "build_lattice", "lattice_from_upsets",
    "residuum", "derive_heyting", "residuation_mismatch",
    "upsets_of", "downsets_of", "transitive_reduction",
    "canonical_form", "all_posets", "all_lattices",
]

Table = tuple[tuple[bool, ...], ...]
OpTable = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FiniteLattice:
    """A finite bounded lattice; `distributive` records the constructor's check."""

    elements: tuple[str, ...]
    leq: Table
    meet: OpTable
    join: OpTable
    bottom: int
    top: int
    distributive: bool

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise LatticeError("unknown-element", name) from None

    def upset(self, a: int) -> frozenset[int]:
        return frozenset(b for b in range(self.size) if self.leq[a][b])


def _closure(n: int, pairs: set[tuple[int, int]]) -> list[list[bool]]:
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


def _glb_table(n: int, leq, names, want_meet: bool) -> list[list[int]]:
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


def _check_distributive(n: int, meet, join) -> tuple[int, int, int] | None:
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return (a, b, c)
    return None


def build_lattice(elements: list[str] | tuple[str, ...],
                  order_pairs: list[tuple[str, str]] | tuple[tuple[str, str], ...],
                  *, require_distributive: bool = True) -> FiniteLattice:
    """Build a bounded lattice from element names and (covering or not) order pairs.

    The reflexive-transitive closure is computed here; errors carry witnesses:
    not-a-poset (a cycle), missing-glb/missing-lub, no-bottom/no-top, and
    not-distributive unless `require_distributive` is False (then the flag on
    the result records the outcome).
    """
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
    leq = _closure(n, pairs)
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise LatticeError("not-a-poset", (names[i], names[j]), "order cycle")
    meet = _glb_table(n, leq, names, True)
    join = _glb_table(n, leq, names, False)
    bottoms = [i for i in range(n) if all(leq[i][j] for j in range(n))]
    tops = [i for i in range(n) if all(leq[j][i] for j in range(n))]
    if len(bottoms) != 1:
        raise LatticeError("no-bottom", names)
    if len(tops) != 1:
        raise LatticeError("no-top", names)
    witness = _check_distributive(n, meet, join)
    if witness is not None and require_distributive:
        raise LatticeError("not-distributive", tuple(names[k] for k in witness))
    return FiniteLattice(
        elements=names,
        leq=tuple(tuple(row) for row in leq),
        meet=tuple(tuple(row) for row in meet),
        join=tuple(tuple(row) for row in join),
        bottom=bottoms[0],
        top=tops[0],
        distributive=witness is None,
    )


def lattice_from_upsets(sets: list[frozenset[int]], names: list[str]) -> FiniteLattice:
    """Lattice of a family of sets closed under union/intersection, ordered by inclusion.

    Meets/joins are set intersection/union, so distributivity holds by
    construction; used for upset algebras and for the downset lattices of
    `all_lattices`, where the generic O(n^3) table scan would be wasteful.
    """
    n = len(sets)
    pos = {s: i for i, s in enumerate(sets)}
    leq = tuple(tuple(sets[i] <= sets[j] for j in range(n)) for i in range(n))
    meet = tuple(tuple(pos[sets[i] & sets[j]] for j in range(n)) for i in range(n))
    join = tuple(tuple(pos[sets[i] | sets[j]] for j in range(n)) for i in range(n))
    bottom = pos[min(sets, key=len)]
    top = pos[max(sets, key=len)]
    if sets[bottom] != frozenset.intersection(*sets) or sets[top] != frozenset.union(*sets):
        raise LatticeError("no-bottom", names, "family not bounded")
    return FiniteLattice(tuple(names), leq, meet, join, bottom, top, True)


def residuum(lat: FiniteLattice, a: int, b: int) -> int | None:
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


@lru_cache(maxsize=4096)
def derive_heyting(lat: FiniteLattice) -> OpTable:
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


def residuation_mismatch(lat: FiniteLattice, impl: OpTable) -> tuple[str, str] | None:
    """First cell (row-major) where a declared implication table disagrees with
    the derived residuum, or None if the table is the genuine residuation."""
    for a in range(lat.size):
        for b in range(lat.size):
            if residuum(lat, a, b) != impl[a][b]:
                return (lat.elements[a], lat.elements[b])
    return None


def upsets_of(leq: Table) -> list[frozenset[int]]:
    """All upward-closed subsets, ordered by cardinality then lexicographically."""
    n = len(leq)
    # Decide membership maximal-first so the upward-closure constraint only
    # looks at already-decided elements.
    order = sorted(range(n), key=lambda x: (sum(leq[x]), x))
    strict_ups = [[v for v in range(n) if leq[u][v] and v != u] for u in range(n)]
    out: list[frozenset[int]] = []

    def rec(k: int, chosen: set[int]):
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


def downsets_of(leq: Table) -> list[frozenset[int]]:
    rev = tuple(tuple(leq[j][i] for j in range(len(leq))) for i in range(len(leq)))
    return upsets_of(rev)


def transitive_reduction(leq: Table) -> list[tuple[int, int]]:
    """Covering pairs (a, b): a < b with nothing strictly between."""
    n = len(leq)
    covers = []
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b]:
                if not any(k != a and k != b and leq[a][k] and leq[k][b]
                           for k in range(n)):
                    covers.append((a, b))
    return covers


# ---------------------------------------------------------------------------
# Canonical forms.  The canonical relabelling sorts elements by an
# isomorphism-invariant signature and breaks ties by minimising the encoded
# (order, operations, marks) tuple over within-block permutations.

def _heights(leq: Table) -> list[int]:
    n = len(leq)
    order = sorted(range(n), key=lambda x: sum(1 for k in range(n) if leq[k][x]))
    h = [0] * n
    for x in order:
        below = [h[k] + 1 for k in range(n) if leq[k][x] and k != x]
        h[x] = max(below, default=0)
    return h


def _signatures(leq: Table, unaries: tuple[OpTableRow, ...], marks: tuple[int, ...]):
    n = len(leq)
    heights = _heights(leq)
    down = [sum(1 for k in range(n) if leq[k][x]) for x in range(n)]
    up = [sum(1 for k in range(n) if leq[x][k]) for x in range(n)]
    covers = transitive_reduction(leq)
    below = [sum(1 for a, b in covers if b == x) for x in range(n)]
    above = [sum(1 for a, b in covers if a == x) for x in range(n)]
    sigs = []
    for x in range(n):
        sig = [heights[x], down[x], up[x], below[x], above[x]]
        for m in marks:
            sig.append(1 if x == m else 0)
        for t in unaries:
            y = t[x]
            sig.extend((1 if y == x else 0, down[y], up[y]))
        sigs.append(tuple(sig))
    return sigs


OpTableRow = tuple[int, ...]


def _encode(leq: Table, unaries, marks, perm: list[int]):
    n = len(leq)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    bits = tuple(1 if leq[inv[i]][inv[j]] else 0 for i in range(n) for j in range(n))
    ops = tuple(tuple(perm[t[inv[i]]] for i in range(n)) for t in unaries)
    mk = tuple(perm[m] for m in marks)
    return (n, bits, ops, mk)


def canonical_form(leq: Table,
                   unaries: tuple[OpTableRow, ...] = (),
                   marks: tuple[int, ...] = ()):
    """Return (key, perm): the minimal encoding over signature-respecting
    relabellings, and the permutation old-index -> new-index achieving it."""
    n = len(leq)
    sigs = _signatures(leq, unaries, marks)
    blocks: dict[tuple, list[int]] = {}
    for x in range(n):
        blocks.setdefault(sigs[x], []).append(x)
    ordered = [blocks[s] for s in sorted(blocks)]
    best = None
    best_perm = None
    for choice in itertools.product(*(itertools.permutations(b) for b in ordered)):
        perm = [0] * n
        pos = 0
        for block in choice:
            for old in block:
                perm[old] = pos
                pos += 1
        enc = _encode(leq, unaries, marks, perm)
        if best is None or enc < best:
            best = enc
            best_perm = perm
    if best_perm is None:
        raise VerificationError("no-canonical-form", n)
    return best, best_perm


# ---------------------------------------------------------------------------
# Exhaustive enumeration at desk scale.  Posets are grown up to isomorphism by
# attaching a fresh maximal element above a downward-closed subset.  A finite
# distributive lattice is the downset lattice of its poset of join-irreducibles
# (Birkhoff), so the lattices of size <= n come from the posets with <= n
# downsets; attaching an element never removes a downset, so posets over that
# bound are pruned as soon as they appear.

def _grow_posets(max_size: int, max_downsets: int | None = None) -> dict[int, tuple[Table, ...]]:
    """Canonical posets of each size 0..max_size (with at most `max_downsets`
    downsets, if given), as leq tables in canonical-key order per size."""
    by_size: dict[int, tuple[Table, ...]] = {0: ((),)}
    for k in range(1, max_size + 1):
        seen: dict[tuple, Table] = {}
        for base in by_size[k - 1]:
            downs = downsets_of(base)
            for dset in downs:
                # the new poset's downsets: those of base, plus each one above dset
                if (max_downsets is not None
                        and len(downs) + sum(dset <= d for d in downs) > max_downsets):
                    continue
                rows = [tuple(base[i]) + (i in dset,) for i in range(k - 1)]
                rows.append(tuple(False for _ in range(k - 1)) + (True,))
                cand = tuple(rows)
                key, perm = canonical_form(cand)
                if key not in seen:
                    inv = [0] * k
                    for old, new in enumerate(perm):
                        inv[new] = old
                    canon = tuple(tuple(cand[inv[i]][inv[j]] for j in range(k))
                                  for i in range(k))
                    seen[key] = canon
        by_size[k] = tuple(seen[key] for key in sorted(seen))
    return by_size


@lru_cache(maxsize=None)
def all_posets(max_size: int) -> dict[int, tuple[Table, ...]]:
    """Canonical posets of each size 1..max_size, as leq tables."""
    return {k: v for k, v in _grow_posets(max_size).items() if k}


@lru_cache(maxsize=None)
def all_lattices(max_size: int) -> tuple[FiniteLattice, ...]:
    """All bounded distributive lattices with at most max_size elements, up to
    isomorphism, as downset lattices of their posets of join-irreducibles.

    Sizes ascend; within a size, lattices follow their join-irreducible posets
    (fewer join-irreducibles first, then the posets' canonical order).
    Elements are named e0, e1, ... along the downsets ordered by cardinality,
    then lexicographically, so e0 is the bottom and the order is bottom-up.
    """
    if max_size < 1:
        return ()
    by_size: dict[int, list[FiniteLattice]] = {}
    for posets in _grow_posets(max_size - 1, max_size).values():
        for leq in posets:
            downs = downsets_of(leq)
            names = [f"e{i}" for i in range(len(downs))]
            by_size.setdefault(len(downs), []).append(lattice_from_upsets(downs, names))
    return tuple(lat for size in sorted(by_size) for lat in by_size[size])
