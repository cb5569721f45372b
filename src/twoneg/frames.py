"""Relational frames for the two-negation languages.

Three kinds:

* `SubNormalFrame` (W, <=, Y0): both negations read off the order; Y0 is the
  upset of "queer" worlds, exactly where `~top` holds.
* `NhatFrame` (W, <=, R1, R2): each negation is an impossibility modality
  with its own accessibility relation, `!` over R1 and `~` over R2.
* `CompatFrame` (W, C, <=): implication-free language; `!` reads off the
  order and `~` off the compatibility relation C.

Builders close <= reflexively/transitively and *validate* the kind's frame
conditions; the R/C relations are taken as given, never repaired.  Raw
dataclass construction skips validation, which the canonicity tests use to
probe frames that violate a condition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Union

from .algebra import Verdict, VALID
from .errors import BoundGuardError, FileFormatError, FrameError
from .formula import (And, Atom, Bot, Formula, Impl, Neg, Or, Tilde, Top,
                      atoms, contains)
from .lattice import Table, _closure, transitive_reduction, upsets_of

__all__ = [
    "SubNormalFrame", "NhatFrame", "CompatFrame", "Frame", "FrameModel",
    "build_subnormal", "build_nhat", "build_compat",
    "dne_tilde_top_witness", "is_identity", "subcompat_violation",
    "truth_set", "truth_at", "frame_valid", "frame_sequent_valid",
    "tilde_top_worlds", "frame_upsets", "read_frame", "write_frame",
]


@dataclass(frozen=True)
class _FrameCore:
    """Worlds and their partial order, shared by the three kinds.

    Each kind names the relation `!` reads (`bang`) and the one `~` reads
    (`tilde`); a sub-normal frame has no `~` relation, its `~` reads the
    order and Y0.
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


@dataclass(frozen=True)
class SubNormalFrame(_FrameCore):
    y0: frozenset[int]

    kind: ClassVar[str] = "subnormal"
    tilde: ClassVar[None] = None


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    leq = _closure(n, _index_pairs(worlds, pairs))
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise FrameError("condition-violation",
                                 ("poset", (worlds[i], worlds[j])), "order cycle")
    return tuple(tuple(row) for row in leq)


def _relation(worlds: tuple[str, ...], pairs) -> Table:
    n = len(worlds)
    rel = [[False] * n for _ in range(n)]
    for a, b in _index_pairs(worlds, pairs):
        rel[a][b] = True
    return tuple(tuple(row) for row in rel)


def _is_upset(leq: Table, s: frozenset[int]) -> bool:
    return all(j in s for i in s for j in range(len(leq)) if leq[i][j])


def _no_successor_in(rel: Table, s: frozenset[int]) -> frozenset[int]:
    """Worlds with no `rel`-successor in `s`: `!s` over the `!` relation, and
    `~s` over the `~` relation of an N-hat or compatibility frame."""
    n = len(rel)
    return frozenset(w for w in range(n) if all(v not in s for v in range(n) if rel[w][v]))


# -- conditions shared by the three kinds ------------------------------------

def tilde_top_worlds(fr: Frame) -> frozenset[int]:
    """Worlds where `~top` holds; depends only on the frame."""
    tilde = fr.tilde
    if tilde is None:
        return fr.y0
    return frozenset(x for x in range(fr.size) if not any(tilde[x]))


def dne_tilde_top_witness(fr: Frame) -> str | None:
    """First world refuting `!!~top -> ~top`, or None when it is frame-valid;
    this is condition (D) of sub-normal frames and (3) of the other kinds.
    Decided without valuations: a world outside `~top` refutes it when each
    of its `!`-successors has a `!`-successor inside `~top`."""
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


def is_identity(fr: Frame) -> bool:
    """Identity frames, where `~` looks only downwards: the `~` relation lies
    inside the converse order; on a sub-normal frame (condition (E)), <=
    restricted to the non-queer worlds is symmetric."""
    n, tilde = fr.size, fr.tilde
    if tilde is None:
        return all(fr.leq[y][x]
                   for x in range(n) if x not in fr.y0
                   for y in range(n) if y not in fr.y0 and fr.leq[x][y])
    return all(fr.leq[y][x] for x in range(n) for y in range(n) if tilde[x][y])


# -- sub-normal ---------------------------------------------------------------

def build_subnormal(worlds, leq_pairs, y0_names) -> SubNormalFrame:
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


# -- N-hat --------------------------------------------------------------------

def _stability_witness(leq: Table, r: Table):
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


def _condensation_witness(leq: Table, r: Table):
    # x R y  =>  some z above both with x R z.
    n = len(leq)
    for x in range(n):
        for y in range(n):
            if r[x][y] and not any(leq[x][z] and leq[y][z] and r[x][z]
                                   for z in range(n)):
                return (x, y)
    return None


def _symmetry_witness(leq: Table, r: Table):
    n = len(r)
    for x in range(n):
        for y in range(n):
            if r[x][y] != r[y][x]:
                return (x, y)
    return None


_SYMMETRY_CONDENSATION = (("symmetry", _symmetry_witness),
                          ("condensation", _condensation_witness))


def nhat_violations(fr: NhatFrame) -> list[tuple[str, tuple]]:
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


def build_nhat(worlds, leq_pairs, rn1_pairs, rn2_pairs) -> NhatFrame:
    ws = tuple(worlds)
    leq = _close_order(ws, leq_pairs)
    fr = NhatFrame(ws, leq, _relation(ws, rn1_pairs), _relation(ws, rn2_pairs))
    bad = nhat_violations(fr)
    if bad:
        raise FrameError("condition-violation", bad[0])
    return fr


# -- compatibility ------------------------------------------------------------

def subcompat_violation(fr: CompatFrame) -> tuple[str, tuple] | None:
    for law, witness in _SYMMETRY_CONDENSATION:
        w = witness(fr.leq, fr.c)
        if w is not None:
            return (f"C-{law}", tuple(fr.worlds[i] for i in w))
    w3 = dne_tilde_top_witness(fr)
    if w3 is not None:
        return ("3", (w3,))
    return None


def build_compat(worlds, leq_pairs, c_pairs, *, require_subcompat: bool = False) -> CompatFrame:
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


# -- truth and validity -------------------------------------------------------

@dataclass(frozen=True)
class FrameModel:
    """A frame plus an upset-valued valuation (checked at construction)."""

    frame: Frame
    valuation: dict[str, frozenset[int]]

    def __post_init__(self):
        for name, s in self.valuation.items():
            if not _is_upset(self.frame.leq, s):
                raise FrameError("valuation-not-upset", name)

    def truth(self, world: str, f: Formula) -> bool:
        return truth_at(self.frame, self.valuation, world, f)


def truth_set(fr: Frame, valuation: dict[str, frozenset[int]], f: Formula) -> frozenset[int]:
    """Worlds where f holds; `bot` holds nowhere in every kind."""
    n = fr.size
    every = frozenset(range(n))
    bang, tilde = fr.bang, fr.tilde

    def rec(g: Formula) -> frozenset[int]:
        match g:
            case Top():
                return every
            case Bot():
                return frozenset()
            case Atom(name):
                if name not in valuation:
                    raise FrameError("unbound-atom", name)
                return valuation[name]
            case And(l, r):
                return rec(l) & rec(r)
            case Or(l, r):
                return rec(l) | rec(r)
            case Impl(l, r):
                if isinstance(fr, CompatFrame):
                    raise FrameError("wrong-language", g)
                left, right = rec(l), rec(r)
                return frozenset(
                    w for w in range(n)
                    if all(v in right for v in range(n)
                           if fr.leq[w][v] and v in left))
            case Neg(c):
                return _no_successor_in(bang, rec(c))
            case Tilde(c):
                body = rec(c)
                if tilde is None:  # sub-normal: every successor in body is queer
                    return frozenset(
                        w for w in range(n)
                        if all(v in fr.y0 for v in range(n)
                               if fr.leq[w][v] and v in body))
                return _no_successor_in(tilde, body)
        raise TypeError(f"not a formula: {g!r}")

    return rec(f)


def truth_at(fr: Frame, valuation: dict[str, frozenset[int]], world: str, f: Formula) -> bool:
    return fr.index(world) in truth_set(fr, valuation, f)


@lru_cache(maxsize=256)
def frame_upsets(leq: Table) -> tuple[frozenset[int], ...]:
    return tuple(upsets_of(leq))


def _first_falsifier(fr: Frame, names: list[str], max_worlds, max_atoms, force,
                     sides) -> Verdict:
    """Exhaust all assignments of `names` to upsets, in (cardinality,
    lexicographic) order, for the first valuation whose truth sets
    `sides(valuation) = (left, right)` have some world in left but not in
    right; it is reported with the least such world."""
    if not force:
        if max_worlds is not None and fr.size > max_worlds:
            raise BoundGuardError("frame worlds", max_worlds, fr.size)
        if max_atoms is not None and len(names) > max_atoms:
            raise BoundGuardError("valuation atoms", max_atoms, len(names))
    for combo in itertools.product(frame_upsets(fr.leq), repeat=len(names)):
        left, right = sides(dict(zip(names, combo)))
        if not left <= right:
            witness = {name: tuple(fr.worlds[i] for i in sorted(s))
                       for name, s in zip(names, combo)}
            return Verdict(False, witness, fr.worlds[min(left - right)])
    return VALID


def frame_valid(fr: Frame, f: Formula, *, max_worlds: int | None = 10,
                max_atoms: int | None = 3, force: bool = False) -> Verdict:
    """Truth at every world under every upset valuation."""
    if isinstance(fr, CompatFrame) and contains(f, Impl):
        raise FrameError("wrong-language", f)
    every = frozenset(range(fr.size))
    return _first_falsifier(fr, atoms(f), max_worlds, max_atoms, force,
                            lambda val: (every, truth_set(fr, val, f)))


def frame_sequent_valid(fr: Frame, lhs: Formula, rhs: Formula, *,
                        max_worlds: int | None = 10, max_atoms: int | None = 3,
                        force: bool = False) -> Verdict:
    """Pointwise truth implication under every upset valuation."""
    if isinstance(fr, CompatFrame) and contains(And(lhs, rhs), Impl):
        raise FrameError("wrong-language", lhs)
    return _first_falsifier(fr, atoms(And(lhs, rhs)), max_worlds, max_atoms, force,
                            lambda val: (truth_set(fr, val, lhs), truth_set(fr, val, rhs)))


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
    ended = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise FileFormatError("trailing-content", line)
        words = line.split()
        match words:
            case ["frame", k, nm]:
                if header is not None:
                    raise FileFormatError("duplicate-directive", "frame")
                header = (k, nm)
            case ["worlds", *rest] if rest:
                worlds.extend(rest)
            case ["leq", a, b]:
                leq_pairs.append((a, b))
            case ["y0", *rest]:
                own["y0"].extend(rest)
                own_lines.append(("y0", line))
            case [("rn1" | "rn2" | "c") as tag, a, b]:
                own[tag].append((a, b))
                own_lines.append((tag, line))
            case ["end"]:
                ended = True
            case _:
                raise FileFormatError("bad-line", line)
    if not ended:
        raise FileFormatError("missing-end", None)
    kind = header[0] if header is not None else ""
    if kind not in _KINDS:
        raise FileFormatError("unknown-frame-kind", kind)
    build, tags = _KINDS[kind]
    for tag, line in own_lines:
        if tag not in tags:
            raise FileFormatError("line-of-other-kind", line, f"not a line of a {kind} frame")
    return build(worlds, leq_pairs, *(own[tag] for tag in tags))


def write_frame(fr: Frame, name: str = "frame") -> str:
    lines = [f"frame {fr.kind} {name}", "worlds " + " ".join(fr.worlds)]
    for a, b in transitive_reduction(fr.leq):
        lines.append(f"leq {fr.worlds[a]} {fr.worlds[b]}")
    for tag in _KINDS[fr.kind][1]:
        if tag == "y0":
            if fr.y0:
                lines.append("y0 " + " ".join(fr.worlds[i] for i in sorted(fr.y0)))
            continue
        rel = getattr(fr, tag)
        for x in range(fr.size):
            for y in range(fr.size):
                if rel[x][y]:
                    lines.append(f"{tag} {fr.worlds[x]} {fr.worlds[y]}")
    lines.append("end")
    return "\n".join(lines) + "\n"
