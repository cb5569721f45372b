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

__all__ = ["phi", "psi"]


def phi(fr: SubNormalFrame) -> NhatFrame:
    """Sub-normal frame to modal frame; output is validated, and an identity
    input yields a frame with R2 inside the converse order."""
    n, leq, names = fr.size, fr.leq, fr.worlds
    order, rn1, rn2 = [], [], []
    for x in range(n):
        for y in range(n):
            pair = (names[x], names[y])
            if leq[x][y] and x != y:
                order.append(pair)
            if any(leq[x][z] and leq[y][z] for z in range(n)):
                rn1.append(pair)
            if any(leq[x][z] and leq[y][z] and z not in fr.y0 for z in range(n)):
                rn2.append(pair)
    out = build_nhat(names, order, rn1, rn2)
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
