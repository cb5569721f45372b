"""Inter-translation between the order-based and modal frame presentations.

`phi` reads both accessibility relations off a sub-normal frame: R1 relates
worlds with a common upper bound, R2 relates worlds with a common upper bound
outside Y0.  `psi` recovers Y0 as the worlds with no R2-successor.  On their
respective classes the two maps are mutually inverse on the nose (table
equality, no isomorphism needed), identity frames corresponding exactly to
the frames whose R2 sits inside the converse order.
"""

from __future__ import annotations

from .errors import FrameError
from .frames import (Frame, NhatFrame, SubNormalFrame, build_nhat, build_subnormal,
                     is_identity, tilde_top_worlds)
from .lattice import Table, _bits, _up_masks

__all__ = ["phi", "psi"]


def _translated(fr: Frame, build, *own):
    """`build` over the worlds of `fr`, its pairs x < y (row-major) and the
    kind's own structure `own`; an identity input must yield an identity."""
    names = fr.worlds
    order = [(names[x], names[y]) for x, row in enumerate(_up_masks(fr.leq))
             for y in _bits(row & ~(1 << x))]
    out = build(names, order, *own)
    if is_identity(fr) and not is_identity(out):
        raise FrameError("translation-broke-identity", None)
    return out


def _common_successor(names: tuple[str, ...], rel: Table) -> list[tuple[str, str]]:
    """The pairs of worlds with a common `rel`-successor."""
    succ = _up_masks(rel)
    return [(names[x], names[y]) for x, row in enumerate(succ)
            for y, other in enumerate(succ) if row & other]


def phi(fr: SubNormalFrame) -> NhatFrame:
    """Sub-normal frame to modal frame, R1 over the order and R2 over `~`; output
    is validated, and an identity input yields R2 inside the converse order."""
    return _translated(fr, build_nhat, _common_successor(fr.worlds, fr.bang),
                       _common_successor(fr.worlds, fr.tilde))


def psi(fr: NhatFrame) -> SubNormalFrame:
    """Modal frame to sub-normal frame: Y0 is the set of worlds with no
    R2-successor; an R2-inside-converse-order input yields an identity frame."""
    return _translated(fr, build_subnormal,
                       [fr.worlds[x] for x in sorted(tilde_top_worlds(fr))])
