"""Prime-filter machinery connecting algebras and frames, both ways.

At finite desk scale the clopen upsets of the dual space are just all upsets,
so the Stone-type maps can be verified exhaustively: `sigma(a)` (the prime
filters containing `a`) embeds an algebra into the upset algebra of its
canonical frame, and `w -> {upsets containing w}` embeds a frame into the
canonical frame of its complex algebra.  Every embedding check is
re-executed here, and a failure raises VerificationError.  Whether an
algebra is a pBa is decided against the residuum derived from its order
(`algebra.ccpba_flags`), never taken from the record's implication table.

Prime filters and upsets are int masks throughout, each read from a cache
keyed by the order alone (`_prime_filters`, `_upset_tables`); frozensets are
built only at the public boundary (`prime_filters`, `sigma`).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Iterable

from ._record import record
from .algebra import (Algebra, AnyAlgebra, KimAlgebra, _em, _flag, attach_negations,
                      build_kim, ccpba_flags, kim_violations)
from .errors import AlgebraError, VerificationError
from .frames import (_COMPAT_LAWS, _SUBCOMPAT_LAWS, _SUBNORMAL_LAWS, CompatFrame,
                     SubNormalFrame, _upset_clause, _upsets, _violations, build_compat,
                     build_subnormal, is_identity, write_frame)
from .lattice import FiniteLattice, Table, _bits, _down, _join_irreducibles, _up_masks

__all__ = [
    "prime_filters", "Embedding",
    "canonical_frame_ccpba", "complex_algebra_subnormal",
    "stone_embedding", "frame_embedding",
    "canonical_frame_kim", "complex_algebra_compat",
    "kim_algebra_embedding", "kim_frame_embedding",
    "upset_name", "canonical_frame_file",
]


def prime_filters(lat: FiniteLattice) -> tuple[frozenset[int], ...]:
    """All prime filters, ordered by size then lexicographically.

    In a finite distributive lattice these are exactly the principal filters
    of the join-irreducible elements (Davey & Priestley, ch. 5), the elements
    with exactly one lower cover, so no upset is scanned.
    """
    return tuple(frozenset(_bits(f)) for f in _prime_filters(lat.leq))


@lru_cache(maxsize=1024)
def _prime_filters(leq) -> tuple[int, ...]:
    """`prime_filters` of the order `leq` as element masks, which the order
    alone decides: the cache keeps only the order of each lattice it has
    seen."""
    up = _up_masks(leq)
    out = [up[j] for j in _bits(_join_irreducibles(_down(up)))]
    return tuple(sorted(out, key=lambda s: (s.bit_count(), list(_bits(s)))))


def sigma(lat: FiniteLattice, filters, a: int) -> frozenset[int]:
    """The positions in `filters` (as `prime_filters` lists them) of the
    filters holding `a`: the frozenset form of the map the embeddings
    compute on masks."""
    return frozenset(i for i, f in enumerate(filters) if a in f)


@record
class Embedding:
    """A verified structure embedding; `mapping[i]` is the target index of
    source index i.  Construction re-runs every recorded check."""

    source: str
    target: str
    mapping: tuple[int, ...]
    checks: dict[str, bool]
    injective: bool
    onto: bool

    def __post_init__(self):
        failed = [k for k, ok in self.checks.items() if not ok]
        if failed or not self.injective:
            raise VerificationError("embedding-check-failed",
                                    tuple(failed) or "injectivity")

    @property
    def is_isomorphism(self) -> bool:
        return self.onto


# -- the shared skeletons ----------------------------------------------------

def _canonical_frame(alg: AnyAlgebra, build, own_relation):
    """Prime filters named F0, F1, ... ordered by inclusion, plus the kind's
    own structure `own_relation(filters, names)` over the filter masks;
    re-validated by `build`, and required to be an identity frame when the
    algebra satisfies EM."""
    filters = _prime_filters(alg.lattice.leq)
    names = [f"F{i}" for i in range(len(filters))]
    pairs = [(names[i], names[j]) for i, f in enumerate(filters)
             for j, g in enumerate(filters) if f & ~g == 0 and i != j]
    fr = build(names, pairs, own_relation(filters, names))
    if _em(alg.lattice, alg.tilde) is None and not is_identity(fr):
        raise VerificationError("canonical-frame-not-identity", alg.name)
    return fr


def _holders(masks, n: int) -> list[int]:
    """For each x in range(n), the mask of the positions i with x in masks[i]."""
    out = [0] * n
    for i, mask in enumerate(masks):
        for x in _bits(mask):
            out[x] |= 1 << i
    return out


def _positions(pos: dict[int, int], masks: list[int], names, kind: str) -> list[int]:
    """The position in `pos` of each mask; `kind` is raised naming the
    first of `names` whose mask has none."""
    image = [pos.get(s) for s in masks]
    if None in image:
        raise VerificationError(kind, names[image.index(None)])
    return image


def _algebra_embedding(alg: AnyAlgebra, fr, complex_algebra) -> Embedding:
    """a -> sigma(a), into the upset algebra of the canonical frame `fr`:
    sigma(a) is the mask of the prime filters holding a, mapped to its
    position among the upsets of `fr`."""
    target = complex_algebra(fr, name=f"{alg.name}_dual")
    sigmas = _holders(_prime_filters(alg.lattice.leq), alg.size)
    image = _positions(_upset_tables(fr.leq)[1], sigmas, alg.lattice.elements,
                       "sigma-not-an-upset")
    checks = _hom_checks(alg, target, image)
    injective = len(set(image)) == alg.size
    onto = len(set(image)) == target.size
    return Embedding(alg.name, target.name, tuple(image), checks, injective, onto)


def _frame_embedding(fr, complex_algebra, canonical_frame, own_tag, own_check) -> Embedding:
    """w -> {upsets containing w}, into the canonical frame of the upset
    algebra; the order and the kind's own structure (`own_check`) are
    preserved and reflected.  `complex_algebra` has already validated the
    algebra, so `canonical_frame` does not check it again.  The upsets
    containing w are found as a mask over upset positions, mapped to its
    position among the prime filters of the upset algebra."""
    alg = complex_algebra(fr)
    members = _holders(_upset_tables(fr.leq)[0], fr.size)
    filters = _prime_filters(alg.lattice.leq)
    image = _positions({f: i for i, f in enumerate(filters)}, members, fr.worlds,
                       "world-not-a-prime-filter")
    target = canonical_frame(alg)
    mapped = [filters[k] for k in image]
    checks = {
        "order-preserving": all(mapped[a] & ~mapped[b] == 0
                                for a in range(fr.size) for b in range(fr.size)
                                if fr.leq[a][b]),
        "order-reflecting": all(fr.leq[a][b]
                                for a in range(fr.size) for b in range(fr.size)
                                if mapped[a] & ~mapped[b] == 0),
        own_tag: own_check(target, image),
    }
    injective = len(set(image)) == fr.size
    onto = len(set(image)) == target.size
    return Embedding("frame", "canonical", tuple(image), checks, injective, onto)


def _hom_checks(alg: AnyAlgebra, target: AnyAlgebra, image: list[int]) -> dict[str, bool]:
    la, lb = alg.lattice, target.lattice
    n = alg.size
    checks = {
        "bottom": image[la.bottom] == lb.bottom,
        "top": image[la.top] == lb.top,
        "meet": all(image[la.meet[a][b]] == lb.meet[image[a]][image[b]]
                    for a in range(n) for b in range(n)),
        "join": all(image[la.join[a][b]] == lb.join[image[a]][image[b]]
                    for a in range(n) for b in range(n)),
        "neg": all(image[alg.neg[a]] == target.neg[image[a]] for a in range(n)),
        "order-preserving": all(lb.leq[image[a]][image[b]]
                                for a in range(n) for b in range(n) if la.leq[a][b]),
        "order-reflecting": all(la.leq[a][b]
                                for a in range(n) for b in range(n)
                                if lb.leq[image[a]][image[b]]),
    }
    if isinstance(alg, Algebra) and isinstance(target, Algebra):
        checks["impl"] = all(image[alg.impl[a][b]] == target.impl[image[a]][image[b]]
                             for a in range(n) for b in range(n))
    if alg.tilde is not None and target.tilde is not None:
        checks["tilde"] = all(image[alg.tilde[a]] == target.tilde[image[a]]
                              for a in range(n))
    return checks


# -- residuated side ----------------------------------------------------------

def _require_ccpba(alg: AnyAlgebra) -> Algebra:
    if not isinstance(alg, Algebra):
        raise AlgebraError("not-a-ccpba", alg.name, "no implication")
    if alg.tilde is None:
        raise AlgebraError("not-a-ccpba", alg.name, "no tilde_one attached")
    ccpba = ccpba_flags(alg)[1]
    if not ccpba.holds:
        raise AlgebraError("not-a-ccpba", alg.name, str(ccpba.witness))
    return alg


def _subnormal_frame(alg: Algebra) -> SubNormalFrame:
    return _canonical_frame(alg, build_subnormal, lambda filters, names: [
        names[i] for i, f in enumerate(filters) if f >> alg.tilde_one & 1])


def canonical_frame_ccpba(alg: AnyAlgebra) -> SubNormalFrame:
    """Prime filters ordered by inclusion; the queer worlds are the filters
    containing ~1.  The result is re-validated as a sub-normal frame."""
    return _subnormal_frame(_require_ccpba(alg))


def upset_name(worlds: tuple[str, ...], s: Iterable[int]) -> str:
    """The worlds of `s` (a set of world indices, or the `_bits` of a mask)
    in index order."""
    return "{" + ",".join(worlds[i] for i in sorted(s)) + "}"


@lru_cache(maxsize=256)
def _upset_tables(leq: Table):
    """The upset lattice of the order `leq` by masks: the upsets in
    `frames.frame_upsets` order, the position of each, and the inclusion
    (`s & ~t == 0`), meet (`pos[s & t]`) and join (`pos[s | t]`) tables by
    position.  The empty upset comes first and is the bottom, the full one
    last and the top.  The order alone decides them, so the cache keeps no
    world names: the sub-normal and compatibility frames of one order, and
    frames that only rename its worlds, share one entry."""
    ups = _upsets(leq)
    pos = {s: i for i, s in enumerate(ups)}
    incl = tuple(tuple(s & ~t == 0 for t in ups) for s in ups)
    meet = tuple(tuple(pos[s & t] for t in ups) for s in ups)
    join = tuple(tuple(pos[s | t] for t in ups) for s in ups)
    return ups, pos, incl, meet, join


def _upset_lattice(fr) -> tuple[dict[int, int], FiniteLattice]:
    """The position of each upset mask of `fr`, and the lattice of its
    upsets, each named by `upset_name`."""
    ups, pos, incl, meet, join = _upset_tables(fr.leq)
    names = tuple(upset_name(fr.worlds, _bits(s)) for s in ups)
    return pos, FiniteLattice(names, incl, meet, join, 0, len(ups) - 1)


def complex_algebra_subnormal(fr: SubNormalFrame, *, name: str = "") -> Algebra:
    """The algebra of all upsets: implication by residuation (which is the
    order-theoretic arrow on upsets), ~1 the set Y0."""
    bad = next(_violations(fr, _SUBNORMAL_LAWS), None)
    if bad is not None:
        raise AlgebraError("not-a-subnormal-frame", None, f"condition ({bad[0]}) fails")
    pos, lat = _upset_lattice(fr)
    t1 = pos[sum(1 << w for w in fr.y0)]
    alg = attach_negations(lat, t1, name=name or "complex")
    ccpba = ccpba_flags(alg)[1]
    if not ccpba.holds:
        raise VerificationError("complex-not-ccpba", ccpba.witness)
    if is_identity(fr):
        em = _flag(lat, _em(lat, alg.tilde))
        if not em.holds:
            raise VerificationError("complex-not-cvcpba", em.witness)
    return alg


def stone_embedding(alg: Algebra) -> Embedding:
    """a -> sigma(a), into the upset algebra of the canonical frame; onto (and
    hence an isomorphism) for every finite input."""
    return _algebra_embedding(alg, canonical_frame_ccpba(alg), complex_algebra_subnormal)


def frame_embedding(fr: SubNormalFrame) -> Embedding:
    """Into the canonical frame of the upset algebra; an order-embedding
    preserving queerness, onto at finite scale."""
    return _frame_embedding(
        fr, complex_algebra_subnormal, _subnormal_frame, "y0",
        lambda target, image: all((a in fr.y0) == (image[a] in target.y0)
                                  for a in range(fr.size)))


# -- implication-free side ----------------------------------------------------

def _require_kim(alg: AnyAlgebra) -> AnyAlgebra:
    """`alg` as it is, once its two negations pass the Kim laws."""
    if alg.tilde is None:
        raise AlgebraError("not-a-kim-algebra", alg.name, "no ~ attached")
    bad = kim_violations(alg.lattice, alg.neg, alg.tilde)
    if bad is not None:
        raise AlgebraError("not-a-kim-algebra", alg.name, bad[0])
    return alg


def _compat_frame(kim: AnyAlgebra) -> CompatFrame:
    def compatible(filters, names):
        # tilded[i]: the a with ~a in filter i, none of which may lie in a C-successor
        tilded = [sum(1 << a for a in range(kim.size) if p >> kim.tilde[a] & 1)
                  for p in filters]
        return [(names[i], names[j]) for i, t in enumerate(tilded)
                for j, q in enumerate(filters) if t & q == 0]

    return _canonical_frame(kim, partial(build_compat, require_subcompat=True), compatible)


def canonical_frame_kim(alg: AnyAlgebra) -> CompatFrame:
    """Prime filters with P C Q iff no ~a in P has a in Q; re-validated as a
    sub-compatibility frame, an identity one when the algebra satisfies EM."""
    return _compat_frame(_require_kim(alg))


def complex_algebra_compat(fr: CompatFrame, *, name: str = "") -> KimAlgebra:
    """Upsets with `!U` the worlds whose order-successors avoid U and `~U` the
    worlds whose C-successors avoid U."""
    bad = next(_violations(fr, _COMPAT_LAWS + _SUBCOMPAT_LAWS), None)
    if bad is not None:
        raise AlgebraError("not-a-subcompat-frame", bad[0])
    _, lat = _upset_lattice(fr)
    neg, tilde = _upset_clause(fr.leq, fr.bang), _upset_clause(fr.leq, fr.tilde)
    kim = build_kim(lat, neg, tilde, name=name or "complex")
    if is_identity(fr) and _em(lat, tilde) is not None:
        raise VerificationError("complex-not-kim-vee", fr.worlds)
    return kim


def kim_algebra_embedding(alg: AnyAlgebra) -> Embedding:
    """sigma into the upset algebra of the canonical compatibility frame."""
    return _algebra_embedding(alg, canonical_frame_kim(alg), complex_algebra_compat)


def kim_frame_embedding(fr: CompatFrame) -> Embedding:
    """w -> {upsets containing w}, with C preserved and reflected."""
    return _frame_embedding(
        fr, complex_algebra_compat, _compat_frame, "compat",
        lambda target, image: all(fr.c[a][b] == target.c[image[a]][image[b]]
                                  for a in range(fr.size) for b in range(fr.size)))


def canonical_frame_file(alg: AnyAlgebra, kind: str = "auto") -> str:
    """Emit the canonical frame as a .frm file with a sidecar comment per
    world listing the prime filter's elements."""
    if kind == "auto":
        kind = "subnormal" if isinstance(alg, Algebra) else "compat"
    if kind == "subnormal":
        fr: SubNormalFrame | CompatFrame = canonical_frame_ccpba(alg)
    elif kind == "compat":
        fr = canonical_frame_kim(alg)
    else:
        raise AlgebraError("unknown-frame-kind", kind)
    comments = [
        f"# F{i} = {{{', '.join(alg.lattice.elements[e] for e in _bits(f))}}}"
        for i, f in enumerate(_prime_filters(alg.lattice.leq))
    ]
    return "\n".join(comments) + "\n" + write_frame(fr, f"{alg.name}_canonical")
