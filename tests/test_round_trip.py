"""Round trips through the files that frames and algebras pass through.

`read_frame(write_frame(fr)) == fr` for every frame of the three kinds that
the builders accept on the posets of at most 4 worlds, and
`read_algebra(write_algebra(a)) == a` on the pba and ccpba catalogs up to
size 8; both also with a comment and a blank line before every line and a
comment after it.  `canonical_frame_file` reads back as the canonical frame
for every kind it takes, `auto` included."""

from __future__ import annotations

import pytest

from twoneg.algebra import enumerate_algebras, read_algebra, write_algebra
from twoneg.bridge import canonical_frame_ccpba, canonical_frame_file, canonical_frame_kim
from twoneg.errors import FrameError
from twoneg.frames import build_compat, build_subnormal, read_frame, write_frame
from twoneg.lattice import all_posets, upsets_of
from twoneg.translate import phi


def _pairs(names, holds):
    n = len(names)
    return [(names[x], names[y]) for x in range(n) for y in range(n) if holds(x, y)]


def _accepted_frames():
    """Per kind, every frame the builders accept from these inputs: each
    upset as Y0; the `phi` image of each sub-normal frame; and as C the
    worlds with a common upper bound outside an upset, or any world from
    outside an upset (not symmetric)."""
    subnormal, compat = [], []
    for size, posets in sorted(all_posets(4).items()):
        names = [f"w{i}" for i in range(size)]
        for leq in posets:
            order = _pairs(names, lambda x, y: leq[x][y] and x != y)
            for up in upsets_of(leq):
                try:
                    subnormal.append(build_subnormal(names, order,
                                                     [names[i] for i in sorted(up)]))
                except FrameError:
                    pass
                common = _pairs(names, lambda x, y: any(
                    leq[x][z] and leq[y][z] and z not in up for z in range(size)))
                compat.append(build_compat(names, order, common))
                compat.append(build_compat(names, order,
                                           _pairs(names, lambda x, y: x not in up)))
    return {"subnormal": subnormal, "nhat": [phi(fr) for fr in subnormal],
            "compat": compat}


FRAMES = _accepted_frames()


def _annotated(text: str) -> str:
    return "".join(f"# note {i}\n\n{line}  # on line {i}\n"
                   for i, line in enumerate(text.splitlines()))


@pytest.mark.parametrize("kind", sorted(FRAMES))
def test_frames_read_back_equal(kind):
    frames = FRAMES[kind]
    assert len(frames) > 100
    for fr in frames:
        text = write_frame(fr)
        assert read_frame(text) == fr
        assert read_frame(_annotated(text)) == fr


@pytest.mark.parametrize("cls", ["pba", "ccpba"])
def test_algebras_read_back_equal(cls):
    for alg in enumerate_algebras(cls, 8):
        text = write_algebra(alg)
        assert read_algebra(text) == alg
        assert read_algebra(_annotated(text)) == alg


@pytest.mark.parametrize("cls,kind,canonical", [
    ("kim", "auto", canonical_frame_kim),
    ("kim", "compat", canonical_frame_kim),
    ("ccpba", "auto", canonical_frame_ccpba),
    ("ccpba", "subnormal", canonical_frame_ccpba),
    ("ccpba", "compat", canonical_frame_kim),
])
def test_canonical_frame_file_reads_back_as_the_canonical_frame(cls, kind, canonical):
    for alg in enumerate_algebras(cls, 5):
        assert read_frame(canonical_frame_file(alg, kind)) == canonical(alg), alg.name
