"""Relational frames for the two-negation languages.

Three kinds:

* `SubNormalFrame` (W, <=, Y0): `!` reads the order and `~` the order into
  the worlds outside Y0, the upset of "queer" worlds where `~top` holds.
* `NhatFrame` (W, <=, R1, R2): each negation is an impossibility modality
  with its own accessibility relation, `!` over R1 and `~` over R2.
* `CompatFrame` (W, C, <=): implication-free language; `!` reads off the
  order and `~` off the compatibility relation C.

Builders close <= reflexively/transitively and *validate* the kind's frame
conditions; the R/C relations are taken as given, never repaired.  Calling
a frame class directly skips validation, which the canonicity tests use to
probe frames that violate a condition.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from typing import ClassVar, Union

from ._record import record
from .algebra import ATOM_GUARD, Verdict, VALID, _program
from .errors import BoundGuardError, FileFormatError, FrameError, content_lines
from .formula import TOP, And, Atom, Formula, Impl, atoms, subformulas
from .lattice import Table, _order, _table, transitive_reduction, upsets_of

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


def _is_upset(leq: Table, s: frozenset[int]) -> bool:
    return all(j in s for i in s for j in range(len(leq)) if leq[i][j])


def _no_successor_in(rel: Table, s: frozenset[int]) -> frozenset[int]:
    """Worlds with no `rel`-successor in `s`: `!s` over the `!` relation and
    `~s` over the `~` relation."""
    n = len(rel)
    return frozenset(w for w in range(n) if all(v not in s for v in range(n) if rel[w][v]))


# -- conditions shared by the three kinds ------------------------------------

def tilde_top_worlds(fr: Frame) -> frozenset[int]:
    """Worlds where `~top` holds: those with no `~`-successor."""
    return frozenset(x for x, row in enumerate(fr.tilde) if not any(row))


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
    inside the converse order.  On a sub-normal frame this is condition (E),
    <= restricted to the non-queer worlds is symmetric."""
    n, tilde = fr.size, fr.tilde
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

# The code of And, Or, Impl, Neg and Tilde over upsets.
_UPSET_CODE = ("{} & {}", "{} | {}", "impl({}, {})", "neg({})", "tilde({})")


def _compiled(fr: Frame, goals: tuple[Formula, ...], names: tuple[str, ...]):
    """The truth-set function of `goals` on `fr`.  Every clause is "no
    successor in": `a -> b` holds where no successor lies in `a - b`; `bot`
    holds nowhere."""
    leq = fr.leq
    return _program(goals, names, _UPSET_CODE)(
        None, None, lambda a, b: _no_successor_in(leq, a - b),
        partial(_no_successor_in, fr.bang), partial(_no_successor_in, fr.tilde),
        frozenset(range(fr.size)), frozenset())


def truth_set(fr: Frame, valuation: dict[str, frozenset[int]], f: Formula) -> frozenset[int]:
    """Worlds where f holds; an error is that of the first offending node in
    pre-order."""
    compat = isinstance(fr, CompatFrame)
    for g in subformulas(f):
        if type(g) is Impl and compat:
            raise FrameError("wrong-language", g)
        if type(g) is Atom and g.name not in valuation:
            raise FrameError("unbound-atom", g.name)
    names = tuple(atoms(f))
    return _compiled(fr, (f,), names)(*[valuation[n] for n in names])[0]


@lru_cache(maxsize=256)
def frame_upsets(leq: Table) -> tuple[frozenset[int], ...]:
    return tuple(upsets_of(leq))


def _first_falsifier(fr: Frame, goals: tuple[Formula, Formula], max_worlds,
                     max_atoms) -> Verdict:
    """Exhaust all assignments of the atoms of `goals` = (left, right) to
    upsets, in (cardinality, lexicographic) order, for the first valuation
    with some world in the truth set of left but not of right; it is
    reported with the least such world.  A bound of None is not checked.  On
    a compatibility frame the first `->` in pre-order, left before right, is
    rejected as wrong-language."""
    both = And(*goals)
    if isinstance(fr, CompatFrame):
        for g in subformulas(both):
            if type(g) is Impl:
                raise FrameError("wrong-language", g)
    names = tuple(atoms(both))
    if max_worlds is not None and fr.size > max_worlds:
        raise BoundGuardError("frame worlds", max_worlds, fr.size)
    if max_atoms is not None and len(names) > max_atoms:
        raise BoundGuardError("valuation atoms", max_atoms, len(names))
    value = _compiled(fr, goals, names)
    for combo in itertools.product(frame_upsets(fr.leq), repeat=len(names)):
        left, right = value(*combo)
        if not left <= right:
            witness = {name: tuple(fr.worlds[i] for i in sorted(s))
                       for name, s in zip(names, combo)}
            return Verdict(False, witness, fr.worlds[min(left - right)])
    return VALID


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
    for line in content_lines(text):
        match line.split():
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
            continue
        rel = getattr(fr, tag)
        for x in range(fr.size):
            for y in range(fr.size):
                if rel[x][y]:
                    lines.append(f"{tag} {fr.worlds[x]} {fr.worlds[y]}")
    lines.append("end")
    return "\n".join(lines) + "\n"
