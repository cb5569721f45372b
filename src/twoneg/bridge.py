"""Prime-filter machinery connecting algebras and frames, both ways.

At finite desk scale the clopen upsets of the dual space are just all upsets,
so the Stone-type maps can be verified exhaustively: `sigma(a)` (the prime
filters containing `a`) embeds an algebra into the upset algebra of its
canonical frame, and `w -> {upsets containing w}` embeds a frame into the
canonical frame of its complex algebra.  Every verification is re-executed
here rather than trusted; a failure raises VerificationError.
"""

from __future__ import annotations

from functools import lru_cache, partial

from ._record import record
from .algebra import (Algebra, AnyAlgebra, KimAlgebra, _em, _flag, attach_negations,
                      build_kim, ccpba_flags, kim_violations)
from .errors import AlgebraError, VerificationError
from .frames import (_COMPAT_LAWS, _SUBCOMPAT_LAWS, _SUBNORMAL_LAWS, CompatFrame,
                     SubNormalFrame, _no_successor_in, _violations, build_compat,
                     build_subnormal, frame_upsets, is_identity, write_frame)
from .lattice import (FiniteLattice, _down, _join_irreducibles, _up_masks,
                      lattice_from_upsets)

__all__ = [
    "prime_filters", "Embedding",
    "canonical_frame_ccpba", "complex_algebra_subnormal",
    "stone_embedding", "frame_embedding",
    "canonical_frame_kim", "complex_algebra_compat",
    "kim_algebra_embedding", "kim_frame_embedding",
    "upset_name", "canonical_frame_file",
]


@lru_cache(maxsize=1024)
def prime_filters(lat: FiniteLattice) -> tuple[frozenset[int], ...]:
    """All prime filters, ordered by size then lexicographically.

    In a finite distributive lattice these are exactly the principal filters
    of the join-irreducible elements (Davey & Priestley, ch. 5), the elements
    with exactly one lower cover, so no upset is scanned.
    """
    jmask = _join_irreducibles(_down(_up_masks(lat.leq)))
    out = [lat.upset(j) for j in range(lat.size) if jmask >> j & 1]
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


def sigma(lat: FiniteLattice, filters, a: int) -> frozenset[int]:
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
    own structure `own_relation(filters, names)`; re-validated by `build`,
    and required to be an identity frame when the algebra satisfies EM."""
    filters = prime_filters(alg.lattice)
    names = [f"F{i}" for i in range(len(filters))]
    pairs = [(names[i], names[j]) for i in range(len(filters))
             for j in range(len(filters)) if filters[i] <= filters[j] and i != j]
    fr = build(names, pairs, own_relation(filters, names))
    if _em(alg.lattice, alg.tilde) is None and not is_identity(fr):
        raise VerificationError("canonical-frame-not-identity", alg.name)
    return fr


def _algebra_embedding(alg: AnyAlgebra, fr, complex_algebra) -> Embedding:
    """a -> sigma(a), into the upset algebra of the canonical frame `fr`."""
    target = complex_algebra(fr, name=f"{alg.name}_dual")
    filters = prime_filters(alg.lattice)
    ups = frame_upsets(fr.leq)
    image = [ups.index(sigma(alg.lattice, filters, a)) for a in range(alg.size)]
    checks = _hom_checks(alg, target, image)
    injective = len(set(image)) == alg.size
    onto = len(set(image)) == target.size
    return Embedding(alg.name, target.name, tuple(image), checks, injective, onto)


def _frame_embedding(fr, complex_algebra, canonical_frame, own_tag, own_check) -> Embedding:
    """w -> {upsets containing w}, into the canonical frame of the upset
    algebra; the order and the kind's own structure (`own_check`) are
    preserved and reflected.  `complex_algebra` has already validated the
    algebra, so `canonical_frame` does not check it again."""
    alg = complex_algebra(fr)
    ups = frame_upsets(fr.leq)
    filters = prime_filters(alg.lattice)
    target = canonical_frame(alg)
    image = [filters.index(frozenset(j for j, u in enumerate(ups) if w in u))
             for w in range(fr.size)]
    checks = {
        "order-preserving": all(filters[image[a]] <= filters[image[b]]
                                for a in range(fr.size) for b in range(fr.size)
                                if fr.leq[a][b]),
        "order-reflecting": all(fr.leq[a][b]
                                for a in range(fr.size) for b in range(fr.size)
                                if filters[image[a]] <= filters[image[b]]),
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
        names[i] for i, f in enumerate(filters) if alg.tilde_one in f])


def canonical_frame_ccpba(alg: AnyAlgebra) -> SubNormalFrame:
    """Prime filters ordered by inclusion; the queer worlds are the filters
    containing ~1.  The result is re-validated as a sub-normal frame."""
    return _subnormal_frame(_require_ccpba(alg))


def upset_name(worlds: tuple[str, ...], s: frozenset[int]) -> str:
    return "{" + ",".join(worlds[i] for i in sorted(s)) + "}"


def _upset_lattice(fr):
    """The upsets of `fr` and their lattice, each named by `upset_name`."""
    ups = frame_upsets(fr.leq)
    return ups, lattice_from_upsets(ups, [upset_name(fr.worlds, s) for s in ups])


def complex_algebra_subnormal(fr: SubNormalFrame, *, name: str = "") -> Algebra:
    """The algebra of all upsets: implication by residuation (which is the
    order-theoretic arrow on upsets), ~1 the set Y0."""
    bad = next(_violations(fr, _SUBNORMAL_LAWS), None)
    if bad is not None:
        raise AlgebraError("not-a-subnormal-frame", None, f"condition ({bad[0]}) fails")
    ups, lat = _upset_lattice(fr)
    t1 = ups.index(fr.y0)
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
        return [(names[i], names[j]) for i, p in enumerate(filters)
                for j, q in enumerate(filters)
                if all(a not in q for a in range(kim.size) if kim.tilde[a] in p)]

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
    ups, lat = _upset_lattice(fr)
    pos = {s: i for i, s in enumerate(ups)}
    neg = tuple(pos[_no_successor_in(fr.bang, u)] for u in ups)
    tilde = tuple(pos[_no_successor_in(fr.tilde, u)] for u in ups)
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
    filters = prime_filters(alg.lattice)
    comments = [
        f"# F{i} = {{{', '.join(alg.lattice.elements[e] for e in sorted(f))}}}"
        for i, f in enumerate(filters)
    ]
    return "\n".join(comments) + "\n" + write_frame(fr, f"{alg.name}_canonical")
