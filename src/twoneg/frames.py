"""Relational frames for the two-negation languages.

Three kinds:

* `SubNormalFrame` (W, <=, Y0): `!` reads the order and `~` the order into
  the worlds outside Y0, the upset of "queer" worlds where `~top` holds.
* `NhatFrame` (W, <=, R1, R2): each negation is an impossibility modality
  with its own accessibility relation, `!` over R1 and `~` over R2.
* `CompatFrame` (W, C, <=): implication-free language; `!` reads off the
  order and `~` off the compatibility relation C.

Each kind's frame conditions are one table of (tag, witness) rows, in
checking order; a sub-compatibility frame is a compatibility frame that also
passes `_SUBCOMPAT_LAWS`.  Builders close <= reflexively/transitively and
raise the first failing row; the R/C relations are taken as given, never
repaired.  `nhat_violations`, `subcompat_violation` and the complex algebras
in `bridge` read the same tables.  Each law reads its relations as successor
masks, and `~top` and (D)/(3) read the truth-set kernel `_no_successor_in`,
which also gives the `!` and `~` of the complex compatibility algebra; the
former table scans are the oracles in `tests/oracles.py`.  Truth sets and
validity searches run a goal's compiled loop nest (`algebra._program`) over
world masks, the one value or every upset of each atom, and raise their
language errors through the algebra's walk.  A frame's upsets
are the masks of `lattice._upset_masks` (`_upsets`); the lattice they form
is built in `lattice` (`_upset_tables`), never here.  Calling a frame class
directly skips validation, which the canonicity tests use to probe frames
that violate a condition.  A world name may not contain `,`, which joins an
upset's worlds into its name.
"""

from __future__ import annotations

from functools import lru_cache
from typing import ClassVar, Union

from ._record import record
from .algebra import ATOM_GUARD, Verdict, VALID, _plan, _raise_first_error
from .errors import (BoundGuardError, FileFormatError, FrameError, content_lines,
                     given_once)
from .formula import TOP, Formula
from .lattice import (Table, _bits, _order, _table, _up_masks, _upset_masks,
                      transitive_reduction)

__all__ = [
    "SubNormalFrame", "NhatFrame", "CompatFrame", "Frame",
    "build_subnormal", "build_nhat", "build_compat",
    "dne_tilde_top_witness", "is_identity", "subcompat_violation",
    "truth_set", "frame_valid", "frame_sequent_valid",
    "tilde_top_worlds", "frame_upsets", "read_frame", "write_frame", "WORLD_GUARD",
]


@record
class _FrameCore:
    """Worlds and their partial order, shared by the three kinds.

    Each kind names the relation `!` reads (`bang`) and the one `~` reads
    (`tilde`).
    """

    worlds: tuple[str, ...]
    leq: Table

    kind: ClassVar[str]

    @property
    def size(self) -> int:
        return len(self.worlds)

    def index(self, name: str) -> int:
        try:
            return self.worlds.index(name)
        except ValueError:
            raise FrameError("unknown-world", name) from None

    @property
    def bang(self) -> Table:
        return self.leq


@record
class SubNormalFrame(_FrameCore):
    y0: frozenset[int]

    kind: ClassVar[str] = "subnormal"

    @property
    def tilde(self) -> Table:
        """x <= y with y outside Y0: `~s` holds where s has only queer successors."""
        return tuple(tuple(le and y not in self.y0 for y, le in enumerate(row))
                     for row in self.leq)


@record
class NhatFrame(_FrameCore):
    rn1: Table
    rn2: Table

    kind: ClassVar[str] = "nhat"

    @property
    def bang(self) -> Table:
        return self.rn1

    @property
    def tilde(self) -> Table:
        return self.rn2


@record
class CompatFrame(_FrameCore):
    c: Table

    kind: ClassVar[str] = "compat"

    @property
    def tilde(self) -> Table:
        return self.c


Frame = Union[SubNormalFrame, NhatFrame, CompatFrame]


def _index_pairs(worlds: tuple[str, ...], pairs) -> set[tuple[int, int]]:
    idx = {w: i for i, w in enumerate(worlds)}
    out = set()
    for a, b in pairs:
        if a not in idx or b not in idx:
            raise FrameError("relation-out-of-range", (a, b))
        out.add((idx[a], idx[b]))
    return out


def _close_order(worlds: tuple[str, ...], pairs) -> Table:
    n = len(worlds)
    if len(set(worlds)) != n:
        raise FrameError("duplicate-world", worlds)
    for w in worlds:
        if "," in w:  # an upset is named by its worlds joined with ','
            raise FrameError("bad-world-name", w, "a world name may not contain ','")
    up, cycle = _order(n, _index_pairs(worlds, pairs))
    if cycle is not None:
        raise FrameError("condition-violation",
                         ("poset", (worlds[cycle[0]], worlds[cycle[1]])), "order cycle")
    return _table(up)


def _relation(worlds: tuple[str, ...], pairs) -> Table:
    n = len(worlds)
    rel = [[False] * n for _ in range(n)]
    for a, b in _index_pairs(worlds, pairs):
        rel[a][b] = True
    return tuple(tuple(row) for row in rel)


def _closed_upward(up: list[int], s: int) -> bool:
    """Whether the world mask `s` is an upset of the order with up-set masks `up`."""
    return not s >> len(up) and not any(up[w] & ~s for w in _bits(s))


def _no_successor_in(rel: Table):
    """The "no successor in" clause of `rel` over world masks: a mask `s`
    goes to the worlds with no `rel`-successor in `s`, that is all worlds
    less the `rel`-predecessors of each world of `s`.  `!s` reads the `!`
    relation, `~s` the `~` relation and `a -> b` the order at `a & ~b`."""
    pred = _up_masks(zip(*rel))  # the successor masks of the converse
    full = (1 << len(rel)) - 1

    def clause(s: int) -> int:
        hit = 0
        while s:
            low = s & -s
            hit |= pred[low.bit_length() - 1]
            s ^= low
        return full & ~hit
    return clause


# -- conditions shared by the three kinds ------------------------------------

def _tilde_top(fr: Frame) -> int:
    """The mask of `~top`: the `~` clause of the full world mask."""
    return _no_successor_in(fr.tilde)((1 << fr.size) - 1)


def tilde_top_worlds(fr: Frame) -> frozenset[int]:
    """Worlds where `~top` holds: those with no `~`-successor."""
    return frozenset(_bits(_tilde_top(fr)))


def dne_tilde_top_witness(fr: Frame) -> str | None:
    """Least world refuting `!!~top -> ~top`, or None when it is frame-valid;
    this is condition (D) of sub-normal frames and (3) of the other kinds.
    Decided without valuations, as the least world of `!!q & ~q` where q is
    the mask of `~top`."""
    quiet = _tilde_top(fr)
    bang = _no_successor_in(fr.bang)
    for x in _bits(bang(bang(quiet)) & ~quiet):
        return fr.worlds[x]
    return None


def is_identity(fr: Frame) -> bool:
    """Identity frames, where `~` looks only downwards: the `~` relation lies
    inside the converse order.  On a sub-normal frame this is condition (E),
    <= restricted to the non-queer worlds is symmetric."""
    below = _up_masks(zip(*fr.leq))
    return not any(succ & ~down for succ, down in zip(_up_masks(fr.tilde), below))


# -- frame laws -----------------------------------------------------------------
# A witness reads the order and R as masks (bit y of succ[x] is set iff x R y,
# and `zip(*r)` is the converse), and returns the first culprit in row-major
# order: the lowest bit of each mask it walks.

def _stability_witness(leq: Table, r: Table):
    # (<= ; R ; >=) subset of R: x' <= x, x R y, y' <= y  =>  x' R y'.
    succ, down = _up_masks(r), _up_masks(zip(*leq))
    for x, row in enumerate(succ):
        for y in _bits(row):
            for xp in _bits(down[x]):
                miss = down[y] & ~succ[xp]
                if miss:
                    return (xp, x, y, next(_bits(miss)))
    return None


def _condensation_witness(leq: Table, r: Table):
    # x R y  =>  some z above both with x R z.
    up = _up_masks(leq)
    for x, row in enumerate(_up_masks(r)):
        for y in _bits(row):
            if not up[x] & up[y] & row:
                return (x, y)
    return None


def _symmetry_witness(leq: Table, r: Table):
    for x, (row, column) in enumerate(zip(_up_masks(r), _up_masks(zip(*r)))):
        if row != column:
            return (x, next(_bits(row ^ column)))
    return None


def _reflexivity_witness(leq: Table, r: Table):
    return next(((x,) for x in range(len(r)) if not r[x][x]), None)


def _over(rel: str, witness):
    """The law `witness` over the relation `rel`, its witness worlds named."""
    def law(fr: Frame):
        w = witness(fr.leq, getattr(fr, rel))
        return None if w is None else tuple(fr.worlds[i] for i in w)
    return law


def _y0_upset(fr: SubNormalFrame):
    if _closed_upward(_up_masks(fr.leq), sum(1 << w for w in fr.y0)):
        return None
    return tuple(sorted(fr.worlds[i] for i in fr.y0))


def _condition_3(fr: Frame):
    w = dne_tilde_top_witness(fr)
    return None if w is None else (w,)


# Each kind's laws in checking order: (tag, witness) rows whose witness names
# the culprit worlds, or is None where the law holds.
_SUBNORMAL_LAWS = (("y0-not-upset", _y0_upset), ("D", dne_tilde_top_witness))
_NHAT_LAWS = (
    ("R1-stability", _over("rn1", _stability_witness)),
    ("R1-symmetry", _over("rn1", _symmetry_witness)),
    ("R1-condensation", _over("rn1", _condensation_witness)),
    ("R2-stability", _over("rn2", _stability_witness)),
    ("R2-symmetry", _over("rn2", _symmetry_witness)),
    ("R2-condensation", _over("rn2", _condensation_witness)),
    ("R1-reflexivity", _over("rn1", _reflexivity_witness)),
    ("3", _condition_3),
)
_COMPAT_LAWS = (("C-law", _over("c", _stability_witness)),)
_SUBCOMPAT_LAWS = (
    ("C-symmetry", _over("c", _symmetry_witness)),
    ("C-condensation", _over("c", _condensation_witness)),
    ("3", _condition_3),
)


def _violations(fr: Frame, laws):
    """(tag, witness) of each law in `laws` that `fr` fails, in order."""
    for tag, witness in laws:
        w = witness(fr)
        if w is not None:
            yield tag, w


def _validated(fr: Frame, laws) -> Frame:
    """`fr` once it passes `laws`; else its first failure as a
    condition-violation, except that Y0 keeps its own error kind."""
    for tag, w in _violations(fr, laws):
        if tag == "y0-not-upset":
            raise FrameError(tag, w)
        raise FrameError("condition-violation", (tag, w))
    return fr


def nhat_violations(fr: NhatFrame) -> list[tuple[str, tuple]]:
    return list(_violations(fr, _NHAT_LAWS))


def subcompat_violation(fr: CompatFrame) -> tuple[str, tuple] | None:
    return next(_violations(fr, _SUBCOMPAT_LAWS), None)


def build_subnormal(worlds, leq_pairs, y0_names) -> SubNormalFrame:
    ws = tuple(worlds)
    leq = _close_order(ws, leq_pairs)
    idx = {w: i for i, w in enumerate(ws)}
    for w in y0_names:
        if w not in idx:
            raise FrameError("relation-out-of-range", ("y0", w))
    return _validated(SubNormalFrame(ws, leq, frozenset(idx[w] for w in y0_names)),
                      _SUBNORMAL_LAWS)


def build_nhat(worlds, leq_pairs, rn1_pairs, rn2_pairs) -> NhatFrame:
    ws = tuple(worlds)
    return _validated(NhatFrame(ws, _close_order(ws, leq_pairs), _relation(ws, rn1_pairs),
                                _relation(ws, rn2_pairs)), _NHAT_LAWS)


def build_compat(worlds, leq_pairs, c_pairs, *, require_subcompat: bool = False) -> CompatFrame:
    ws = tuple(worlds)
    fr = CompatFrame(ws, _close_order(ws, leq_pairs), _relation(ws, c_pairs))
    return _validated(fr, _COMPAT_LAWS + _SUBCOMPAT_LAWS if require_subcompat
                      else _COMPAT_LAWS)


# -- truth and validity -------------------------------------------------------
# An upset is an int mask of worlds (bit w set iff w is in it); frozensets
# appear only where `truth_set` takes and returns them and in witnesses.

def _bind(fr: Frame, make):
    """The search of the factory `make` over the world masks of `fr`.  Every
    clause is "no successor in": `a -> b` holds where no order-successor
    lies in `a & ~b`; `bot` holds nowhere."""
    order = _no_successor_in(fr.leq)
    bang = order if fr.bang is fr.leq else _no_successor_in(fr.bang)
    return make(None, None, order, bang, _no_successor_in(fr.tilde), (1 << fr.size) - 1, 0)


def _language(fr: Frame) -> str:
    return "compat" if isinstance(fr, CompatFrame) else "frame"


def _world_mask(worlds, size: int) -> int:
    """The mask of a set of world indices, a world given twice counted once;
    -1, which `_closed_upward` rejects, if some world is no index below `size`."""
    mask = 0
    for w in worlds:
        if not isinstance(w, int) or not 0 <= w < size:
            return -1
        mask |= 1 << w
    return mask


def truth_set(fr: Frame, valuation: dict[str, frozenset[int]], f: Formula) -> frozenset[int]:
    """Worlds where f holds; an error is that of the first offending node in
    pre-order (`algebra._raise_first_error`), then the first atom whose
    value is no upset of `fr`."""
    _raise_first_error((f,), _language(fr), FrameError, valuation)
    names, _, make = _plan((f,), _language(fr))
    masks = [_world_mask(valuation[n], fr.size) for n in names]
    up = _up_masks(fr.leq)
    for name, s in zip(names, masks):
        if not _closed_upward(up, s):
            raise FrameError("valuation-not-upset", name)
    return frozenset(_bits(_bind(fr, make)(*[(s,) for s in masks])[-1]))


@lru_cache(maxsize=256)
def _upsets(leq: Table) -> tuple[int, ...]:
    """The upsets of `leq` as world masks, in `frame_upsets` order."""
    return tuple(_upset_masks(leq))


@lru_cache(maxsize=256)
def frame_upsets(leq: Table) -> tuple[frozenset[int], ...]:
    """All upsets, ordered by cardinality then lexicographically."""
    return tuple(frozenset(_bits(s)) for s in _upsets(leq))


def _first_falsifier(fr: Frame, goals: tuple[Formula, Formula], max_worlds,
                     max_atoms) -> Verdict:
    """The first assignment of the atoms of `goals` = (left, right) to
    upsets, in (cardinality, lexicographic) order, with some world in the
    truth set of left but not of right; it is reported with the least such
    world.  A bound of None is not checked.  On a compatibility frame the
    first `->` in pre-order, left before right, is rejected as
    wrong-language.  The atoms, the language check and the compiled search,
    one loop per atom over the upsets with the test `left & ~right`, come
    from one plan per goal and language (`algebra._plan`); the rejected `->`
    is the caller's own node (`algebra._raise_first_error`)."""
    names, offends, make = _plan(goals, _language(fr))
    if True in offends:
        _raise_first_error(goals, _language(fr), FrameError)
    if max_worlds is not None and fr.size > max_worlds:
        raise BoundGuardError("frame worlds", max_worlds, fr.size)
    if max_atoms is not None and len(names) > max_atoms:
        raise BoundGuardError("valuation atoms", max_atoms, len(names))
    found = _bind(fr, make)(*(_upsets(fr.leq),) * len(names))
    if found is None:
        return VALID
    bad = found[-2] & ~found[-1]  # left & ~right
    witness = {name: tuple(fr.worlds[i] for i in _bits(s)) for name, s in zip(names, found)}
    return Verdict(False, witness, fr.worlds[(bad & -bad).bit_length() - 1])


# Default bound on the worlds a frame search scans; `max_worlds=None` lifts it.
WORLD_GUARD = 10


def frame_valid(fr: Frame, f: Formula, *, max_worlds: int | None = WORLD_GUARD,
                max_atoms: int | None = ATOM_GUARD) -> Verdict:
    """Truth at every world under every upset valuation: the sequent `top |- f`."""
    return _first_falsifier(fr, (TOP, f), max_worlds, max_atoms)


def frame_sequent_valid(fr: Frame, lhs: Formula, rhs: Formula, *,
                        max_worlds: int | None = WORLD_GUARD,
                        max_atoms: int | None = ATOM_GUARD) -> Verdict:
    """Pointwise truth implication under every upset valuation."""
    return _first_falsifier(fr, (lhs, rhs), max_worlds, max_atoms)


# -- frame files --------------------------------------------------------------

# Per kind: its builder and the lines naming its own structure, in the
# builder's argument order; `write_frame` emits exactly these lines and
# `read_frame` accepts no others besides `worlds` and `leq`.
_KINDS = {
    "subnormal": (build_subnormal, ("y0",)),
    "nhat": (build_nhat, ("rn1", "rn2")),
    "compat": (build_compat, ("c",)),
}


def read_frame(text: str) -> Frame:
    header: tuple[str, str] | None = None
    worlds: list[str] = []
    leq_pairs: list[tuple[str, str]] = []
    own: dict[str, list] = {"y0": [], "rn1": [], "rn2": [], "c": []}
    own_lines: list[tuple[str, str]] = []
    seen: set[tuple[str, ...]] = set()
    for line in content_lines(text):
        match line.split():
            case ["frame", k, nm]:
                if header is not None:
                    raise FileFormatError("duplicate-directive", "frame")
                header = (k, nm)
            case ["worlds", *rest] if rest:
                worlds.extend(rest)
            case ["leq", a, b]:
                given_once(seen, ("leq", a, b), line, f"leq {a} {b}")
                leq_pairs.append((a, b))
            case ["y0", *rest]:
                for w in rest:
                    given_once(seen, ("y0", w), line, f"y0 world {w}")
                own["y0"].extend(rest)
                own_lines.append(("y0", line))
            case [("rn1" | "rn2" | "c") as tag, a, b]:
                given_once(seen, (tag, a, b), line, f"{tag} {a} {b}")
                own[tag].append((a, b))
                own_lines.append((tag, line))
            case _:
                raise FileFormatError("bad-line", line)
    kind = header[0] if header is not None else ""
    if kind not in _KINDS:
        raise FileFormatError("unknown-frame-kind", kind)
    build, tags = _KINDS[kind]
    for tag, line in own_lines:
        if tag not in tags:
            raise FileFormatError("line-of-other-kind", line, f"not a line of a {kind} frame")
    return build(worlds, leq_pairs, *(own[tag] for tag in tags))


def write_frame(fr: Frame, name: str = "frame") -> str:
    lines = [f"frame {fr.kind} {name}"]
    if fr.worlds:
        lines.append("worlds " + " ".join(fr.worlds))
    for a, b in transitive_reduction(fr.leq):
        lines.append(f"leq {fr.worlds[a]} {fr.worlds[b]}")
    for tag in _KINDS[fr.kind][1]:
        if tag == "y0":
            if fr.y0:
                lines.append("y0 " + " ".join(fr.worlds[i] for i in sorted(fr.y0)))
        else:
            lines += [f"{tag} {fr.worlds[x]} {fr.worlds[y]}"
                      for x, row in enumerate(_up_masks(getattr(fr, tag))) for y in _bits(row)]
    lines.append("end")
    return "\n".join(lines) + "\n"
