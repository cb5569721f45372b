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
from .frames import (NhatFrame, SubNormalFrame, build_nhat, build_subnormal,
                     is_identity, tilde_top_worlds)
from .lattice import Table

__all__ = ["phi", "psi"]


def _common_successor(names: tuple[str, ...], rel: Table) -> list[tuple[str, str]]:
    """The pairs of worlds with a common `rel`-successor."""
    n = len(names)
    return [(names[x], names[y]) for x in range(n) for y in range(n)
            if any(rel[x][z] and rel[y][z] for z in range(n))]


def phi(fr: SubNormalFrame) -> NhatFrame:
    """Sub-normal frame to modal frame, R1 over the order and R2 over `~`; output
    is validated, and an identity input yields R2 inside the converse order."""
    n, names = fr.size, fr.worlds
    order = [(names[x], names[y]) for x in range(n) for y in range(n)
             if fr.leq[x][y] and x != y]
    out = build_nhat(names, order, _common_successor(names, fr.bang),
                     _common_successor(names, fr.tilde))
    if is_identity(fr) and not is_identity(out):
        raise FrameError("translation-broke-identity", None)
    return out


def psi(fr: NhatFrame) -> SubNormalFrame:
    """Modal frame to sub-normal frame: Y0 is the set of worlds with no
    R2-successor; an R2-inside-converse-order input yields an identity frame."""
    n, names = fr.size, fr.worlds
    out = build_subnormal(names,
                          [(names[x], names[y]) for x in range(n) for y in range(n)
                           if fr.leq[x][y] and x != y],
                          [names[x] for x in sorted(tilde_top_worlds(fr))])
    if is_identity(fr) and not is_identity(out):
        raise FrameError("translation-broke-identity", None)
    return out
