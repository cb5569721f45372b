"""Finite bounded lattices given by explicit order tables.

Everything is index-based: a lattice over n elements stores the full
reflexive-transitive order as an n x n boolean table plus total meet/join
tables.  This module is the only one that builds tables from an order; the
others read them from two caches keyed by the order alone:

* `_residuum`: the order's meets and its residuum (relative
  pseudo-complement), which is always *derived* from the order, never taken
  as input (`derive_heyting`).  `algebra.ccpba_flags` decides whether a
  declared implication table is the residuum, and the record's meets those
  of its order, by comparing them with these tables.
* `_upset_tables`: the upset lattice of the order, by masks.  The catalog
  lattices of each size are these lattices for the converses of their posets
  of join-irreducibles, and the bridge's complex algebras for the orders of
  their frames.

Enumeration is graded by downsets and each level is built once per process;
`all_lattices` is a view over the levels.  `all_posets` is not: it joins
`_posets_by_size`, graded by element count, and no module of the package
calls it, only the tests and the perfbench tracer.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ._record import record
from .errors import LatticeError, VerificationError

__all__ = [
    "FiniteLattice", "build_lattice", "derive_heyting",
    "transitive_reduction",
    "canonical_form", "all_posets", "all_lattices",
]

Table = tuple[tuple[bool, ...], ...]
OpTable = tuple[tuple[int, ...], ...]


@record
class FiniteLattice:
    """A finite bounded distributive lattice."""

    elements: tuple[str, ...]
    leq: Table
    meet: OpTable
    join: OpTable
    bottom: int
    top: int

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise LatticeError("unknown-element", name) from None


def _bits(mask: int):
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# The order kernel.  Every order fact (closure, cycles, meets and joins,
# bounds, covers, upsets, residua) is read off per-element int masks: bit j
# of up[i] is set iff i <= j, and down is its `_transpose`.

def _order(n: int, pairs) -> tuple[list[int], tuple[int, int] | None]:
    """The reflexive-transitive closure of `pairs` over range(n) as up-set
    masks, and its first cycle pair i < j in row-major order (None when the
    closure is a partial order)."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    for k in range(n):
        bit, up_k = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= up_k
    for i in range(n):
        for j in _bits(up[i] & -(2 << i)):  # the j > i above i
            if up[j] >> i & 1:
                return up, (i, j)
    return up, None


def _up_masks(leq) -> list[int]:
    """Per row of the square bool table `leq` (any iterable of rows, such
    as the `zip(*rel)` of a converse), the mask of its true columns."""
    rows = tuple(leq)
    powers = [1 << j for j in range(len(rows))]
    return [sum(itertools.compress(powers, row)) for row in rows]


def _transpose(masks, n: int) -> list[int]:
    """Bit i of out[x] is set iff bit x of masks[i] is set, for x in range(n):
    down-set masks transpose up-set masks, and `sigma` and a world's upsets
    transpose the prime-filter and upset masks."""
    out = [0] * n
    for i, mask in enumerate(masks):
        for x in _bits(mask):
            out[x] |= 1 << i
    return out


def _set_order(mask: int) -> tuple[int, list[int]]:
    """The set order of masks: cardinality, then the elements ascending."""
    return mask.bit_count(), list(_bits(mask))


def _table(up: list[int]) -> Table:
    n = len(up)
    return tuple(tuple(bool(mask >> j & 1) for j in range(n)) for mask in up)


def _bound_table(masks: list[int], names, kind: str) -> OpTable:
    """Meets from down-set masks, or joins from up-set masks: the bound of i
    and j is the element whose mask is masks[i] & masks[j]; `kind` is raised
    at the first pair (row-major) with no such element."""
    at = {mask: k for k, mask in enumerate(masks)}
    table = []
    for i, mask in enumerate(masks):
        row = tuple(at.get(mask & other) for other in masks)
        if None in row:
            raise LatticeError(kind, (names[i], names[row.index(None)]))
        table.append(row)
    return tuple(table)


def _lattice(names, up: list[int], down: list[int] | None = None) -> FiniteLattice:
    """The lattice of the partial order `up` over `names`: meets from the
    down-set masks (`up` transposed unless given), joins from the up-set
    masks (missing-glb, then missing-lub), bottom and top below and above all."""
    if down is None:
        down = _transpose(up, len(up))
    meet = _bound_table(down, names, "missing-glb")
    join = _bound_table(up, names, "missing-lub")
    full = (1 << len(up)) - 1
    return FiniteLattice(tuple(names), _table(up), meet, join,
                         up.index(full), down.index(full))


def _covers(masks: list[int]) -> list[int]:
    """Each element's covers as a mask: upper covers from up-set masks, lower
    covers from down-set masks.  A cover of x lies strictly beyond x and
    strictly beyond no other element strictly beyond x."""
    beyond = [mask & ~(1 << x) for x, mask in enumerate(masks)]
    covers = []
    for mask in beyond:
        cov = mask
        for k in _bits(mask):
            cov &= ~beyond[k]
        covers.append(cov)
    return covers


def _cover_walk(leq: Table) -> list[tuple[int, int]]:
    """Every covering pair (x, k), x below k, along a linear extension (more
    elements above first): the pairs out of x come after every pair into x,
    so a value pushed from x to k is final when it is pushed."""
    covers = _covers(_up_masks(leq))
    order = sorted(range(len(leq)), key=lambda x: -sum(leq[x]))
    return [(x, k) for x in order for k in _bits(covers[x])]


def _below(leq: Table, rows) -> list[list[int]]:
    """For each row v of element values, the masks {c : v[c] <= z} for every
    z: bit c starts at v[c] and is pushed up the cover walk."""
    walk = _cover_walk(leq)
    out = []
    for v in rows:
        masks = [0] * len(leq)
        for c, z in enumerate(v):
            masks[z] |= 1 << c
        for x, k in walk:
            masks[k] |= masks[x]
        out.append(masks)
    return out


def _join_irreducibles(down: list[int]) -> int:
    """The join-irreducible elements as a mask, given the down-set masks:
    those with exactly one lower cover."""
    return sum(1 << x for x, cov in enumerate(_covers(down)) if cov.bit_count() == 1)


def _join_prime(down: list[int], join: OpTable) -> bool:
    """Whether every join-irreducible is join-prime: J(x \\/ y) = J(x) | J(y)
    for every pair, with J(x) the join-irreducibles below x.  A finite
    lattice is distributive iff this holds (Davey & Priestley, ch. 5)."""
    jmask = _join_irreducibles(down)
    J = [mask & jmask for mask in down]
    return all(J[z] == Jx | Jy for Jx, row in zip(J, join) for z, Jy in zip(row, J))


def _distributivity_witness(n: int, meet, join) -> tuple[int, int, int] | None:
    """The first triple (row-major) with a /\\ (b \\/ c) != (a /\\ b) \\/ (a /\\ c)."""
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return (a, b, c)
    return None


def build_lattice(elements: list[str] | tuple[str, ...],
                  order_pairs: list[tuple[str, str]] | tuple[tuple[str, str], ...],
                  ) -> FiniteLattice:
    """Build a distributive lattice from element names and (covering or not) order pairs.

    The reflexive-transitive closure is computed here; errors carry witnesses:
    no-bottom (no elements), not-a-poset (a cycle), missing-glb/missing-lub
    and not-distributive. A non-empty poset with all binary meets and joins
    has a bottom and a top, so none is checked for.  Distributivity is
    decided in O(n^2) by join-primeness (`_join_prime`); the O(n^3) triple
    scan runs only on a lattice that fails it, to name the witness.
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
    up, cycle = _order(n, pairs)
    if cycle is not None:
        raise LatticeError("not-a-poset", (names[cycle[0]], names[cycle[1]]), "order cycle")
    down = _transpose(up, n)
    lat = _lattice(names, up, down)
    if not _join_prime(down, lat.join):
        witness = _distributivity_witness(n, lat.meet, lat.join)
        raise LatticeError("not-distributive", tuple(names[k] for k in witness))
    return lat


def derive_heyting(lat: FiniteLattice) -> OpTable:
    """Full residuum table: a -> b is the element whose down-set is
    {c : a /\\ c <= b}.  Raises residuum-missing at the first pair
    (row-major) whose set is no down-set of an element.  The order alone
    decides the table, so the cache (`_residuum`, whose `cache_info` and
    `cache_clear` this function carries) keeps the order of each lattice it
    has seen, not its names."""
    _, table, missing = _residuum(lat.leq)
    if missing is not None:
        raise LatticeError("residuum-missing", tuple(lat.elements[k] for k in missing))
    return table


@lru_cache(maxsize=4096)
def _residuum(leq: Table) -> tuple[OpTable, OpTable | None, tuple[int, int] | None]:
    """The meet table of the order `leq` and its `derive_heyting` by
    indices: the meets, then the table and None, or None and the first pair
    with no residuum.  Meets are the elements whose down-set masks are the
    intersections; missing-glb is raised when some pair has none."""
    down = _up_masks(zip(*leq))
    at = {mask: k for k, mask in enumerate(down)}
    meet = _bound_table(down, range(len(leq)), "missing-glb")
    table = []
    for a, below in enumerate(_below(leq, meet)):
        row = tuple(at.get(mask) for mask in below)
        if None in row:
            return meet, None, (a, row.index(None))
        table.append(row)
    return meet, tuple(table), None


derive_heyting.cache_info = _residuum.cache_info  # type: ignore[attr-defined]
derive_heyting.cache_clear = _residuum.cache_clear  # type: ignore[attr-defined]


def _upset_masks(leq: Table) -> list[int]:
    """The masks of all upward-closed subsets in `_set_order`."""
    up = _up_masks(leq)
    found = [0]
    # Maximal-first, so everything above x is decided before x: x extends
    # each upset found so far that holds its strict up-set.
    for x in sorted(range(len(up)), key=lambda x: (up[x].bit_count(), x)):
        bit = 1 << x
        above = up[x] & ~bit
        found += [s | bit for s in found if s & above == above]
    found.sort(key=_set_order)
    return found


def upsets_of(leq: Table) -> list[frozenset[int]]:
    """`frames.frame_upsets` as a list, kept only because the span table of
    `perfbench/spans.py` names it: the package never calls it."""
    return [frozenset(_bits(s)) for s in _upset_masks(leq)]


@lru_cache(maxsize=256)
def _upset_tables(leq: Table):
    """The upset lattice of the order `leq` by masks: the upsets in
    `_upset_masks` order, the position of each, and the inclusion
    (`s & ~t == 0`), meet (`pos[s & t]`) and join (`pos[s | t]`) tables by
    position.  The empty upset comes first and is the bottom, the full one
    last and the top.  The order alone decides them, so the cache keeps no
    names: a catalog lattice (the upsets of the converse of its poset of
    join-irreducibles), the sub-normal and compatibility frames of one
    order, and frames that only rename its worlds share one entry."""
    ups = tuple(_upset_masks(leq))
    pos = {s: i for i, s in enumerate(ups)}
    incl = tuple(tuple(s & ~t == 0 for t in ups) for s in ups)
    meet = tuple(tuple(pos[s & t] for t in ups) for s in ups)
    join = tuple(tuple(pos[s | t] for t in ups) for s in ups)
    return ups, pos, incl, meet, join


def transitive_reduction(leq: Table) -> list[tuple[int, int]]:
    """Covering pairs (a, b): a < b with nothing strictly between."""
    return [(a, b) for a, cov in enumerate(_covers(_up_masks(leq))) for b in _bits(cov)]


# ---------------------------------------------------------------------------
# Canonical forms.  The canonical relabelling sorts elements by an
# isomorphism-invariant signature and breaks ties by minimising the encoded
# (order, operations, marks) tuple over within-block relabellings, searched
# by refinement rather than tried one by one.

def _signatures(up: list[int], down: list[int],
                unaries: tuple[OpTableRow, ...], marks: tuple[int, ...]):
    """Isomorphism-invariant signature of each element, read off the up-set
    and down-set masks: its height (longest chain below it), the numbers of
    elements below and above it (itself included) and of its lower and upper
    covers, then one flag per mark and, per unary map t, whether t fixes it
    and the below/above counts of t(x)."""
    n = len(up)
    above = [mask.bit_count() for mask in up]
    below = [mask.bit_count() for mask in down]
    lower, upper = _covers(down), _covers(up)
    heights = [0] * n
    for x in sorted(range(n), key=below.__getitem__):  # a linear extension
        for k in _bits(upper[x]):
            heights[k] = max(heights[k], heights[x] + 1)
    sigs = []
    for x in range(n):
        sig = [heights[x], below[x], above[x], lower[x].bit_count(), upper[x].bit_count()]
        for m in marks:
            sig.append(1 if x == m else 0)
        for t in unaries:
            y = t[x]
            sig.extend((1 if y == x else 0, below[y], above[y]))
        sigs.append(tuple(sig))
    return sigs


OpTableRow = tuple[int, ...]


def _encode(leq: Table, unaries, marks, perm: list[int]):
    n = len(leq)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    rows = [leq[old] for old in inv]
    bits = tuple([1 if row[old] else 0 for row in rows for old in inv])
    ops = tuple(tuple([perm[t[old]] for old in inv]) for t in unaries)
    mk = tuple(perm[m] for m in marks)
    return (n, bits, ops, mk)


def canonical_form(leq: Table,
                   unaries: tuple[OpTableRow, ...] = (),
                   marks: tuple[int, ...] = ()):
    """Return (key, perm): the minimal encoding over signature-respecting
    relabellings, and the permutation old-index -> new-index achieving it.

    The encoding is (n, leq bits row-major, unary tables, marks), compared as
    a tuple; the relabellings put the signature blocks in sorted order and
    permute freely inside each block.  On a full tie the one with the
    lexicographically smallest inverse wins.  The relabellings are searched
    by individualisation-refinement (McKay & Piperno 2014): positions fill in
    order from an ordered partition of the elements into cells, the sorted
    blocks at first.  Placing x at position i splits every later cell into
    "not above x", then "above x", which makes row i the least that any
    completion can have, so only the nodes whose row i is least survive,
    branching over the cell at i in ascending order.  Once every node is a
    single relabelling they are encoded and compared, inverses in ascending
    order; they include every relabelling with minimal bits, so the first
    least encoding is the one over all relabellings.
    """
    n = len(leq)
    up = _up_masks(leq)
    sigs = _signatures(up, _up_masks(zip(*leq)), unaries, marks)
    blocks: dict[tuple, int] = {}
    for x in range(n):
        blocks[sigs[x]] = blocks.get(sigs[x], 0) | 1 << x
    nodes = [[blocks[s] for s in sorted(blocks)]]
    for i in range(n):
        if all(len(cells) == n for cells in nodes):
            break  # every cell a singleton: each node is one relabelling
        least, kept = None, []
        for cells in nodes:
            head = cells[i]
            for x in _bits(head):
                above = up[x]
                child = cells[:i] + [1 << x]
                child += [part for cell in [head & ~(1 << x)] + cells[i + 1:]
                          for part in (cell & ~above, cell & above) if part]
                if len(nodes) == 1 and head == 1 << x:
                    kept = [child]  # forced, and no other node to compare with
                    break
                row = 0
                for cell in child:
                    k = cell.bit_count()
                    row = row << k | ((1 << k) - 1 if cell & above else 0)
                if least is None or row < least:
                    least, kept = row, [child]
                elif row == least:
                    kept.append(child)
        nodes = kept
    best = best_perm = None
    for cells in nodes:
        perm = [0] * n
        for pos, cell in enumerate(cells):
            perm[cell.bit_length() - 1] = pos
        enc = _encode(leq, unaries, marks, perm)
        if best is None or enc < best:
            best, best_perm = enc, perm
    if best_perm is None:
        raise VerificationError("no-canonical-form", n)
    return best, best_perm


# ---------------------------------------------------------------------------
# Exhaustive enumeration.  The lattices of size d are the downset lattices of
# the posets with d downsets (Birkhoff).  A new maximal element above a downset
# D adds the 1 .. d/2 downsets that contain D, so level d grows from d/2 .. d-1.

def _decoded(key) -> list[int]:
    """The up-set masks of the order whose `canonical_form` key is `key`."""
    n, bits = key[0], key[1]
    return [sum(b << j for j, b in enumerate(bits[i * n:(i + 1) * n])) for i in range(n)]


def _children(base: Table, gain: int | None = None):
    """Each poset grown from `base`; with `gain`, only those gaining that many downsets."""
    downs = _upset_masks(zip(*base))
    top = (False,) * len(base) + (True,)
    for dset in downs:
        if gain is None or sum(dset & ~d == 0 for d in downs) == gain:
            yield tuple([row + (bool(dset >> i & 1),) for i, row in enumerate(base)] + [top])


def _canonical_posets(candidates) -> tuple[Table, ...]:
    """One leq table per isomorphism class of `candidates`, in key order."""
    keys = {canonical_form(leq)[0] for leq in candidates}
    return tuple(_table(_decoded(key)) for key in sorted(keys))


@lru_cache(maxsize=None)
def _posets_by_size(k: int) -> tuple[Table, ...]:
    """The canonical posets of k elements."""
    if k == 0:
        return ((),)
    return _canonical_posets(leq for base in _posets_by_size(k - 1) for leq in _children(base))


@lru_cache(maxsize=None)
def _posets_by_downsets(d: int) -> tuple[Table, ...]:
    """The canonical posets with d >= 1 downsets, fewer elements first."""
    if d == 1:
        return ((),)
    return _canonical_posets(leq for e in range((d + 1) // 2, d)
                             for base in _posets_by_downsets(e)
                             for leq in _children(base, d - e))


@lru_cache(maxsize=None)
def _lattices(size: int) -> tuple[FiniteLattice, ...]:
    """The distributive lattices of `size` elements, in `all_lattices` order."""
    names = tuple(f"e{i}" for i in range(size))
    tables = [_upset_tables(tuple(zip(*leq))) for leq in _posets_by_downsets(size)]
    return tuple(FiniteLattice(names, incl, meet, join, 0, size - 1)
                 for _, _, incl, meet, join in tables)


@lru_cache(maxsize=None)
def all_posets(max_size: int) -> dict[int, tuple[Table, ...]]:
    """Canonical posets of each size 1..max_size, as leq tables."""
    return {k: _posets_by_size(k) for k in range(1, max_size + 1)}


@lru_cache(maxsize=None)
def all_lattices(max_size: int) -> tuple[FiniteLattice, ...]:
    """All bounded distributive lattices with at most max_size elements, up to
    isomorphism, as downset lattices of their posets of join-irreducibles.

    Sizes ascend; within a size, lattices follow their join-irreducible posets
    (fewer join-irreducibles first, then the posets' canonical order).
    Elements are named e0, e1, ... along the downsets ordered by cardinality,
    then lexicographically, so e0 is the bottom, the top comes last and the
    order is bottom-up.  The downsets of a poset are the upsets of its
    converse, so the tables are `_upset_tables` of the converse.
    """
    return tuple(lat for size in range(1, max_size + 1) for lat in _lattices(size))
