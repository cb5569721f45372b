"""Test-only helpers over the package API: the implication-free reduct of a
two-negation algebra, and a frame model with pointwise truth."""

from __future__ import annotations

from twoneg._record import record
from twoneg.algebra import build_kim
from twoneg.errors import FrameError
from twoneg.formula import Formula
from twoneg.frames import Frame, truth_set

from oracles import is_upset


def kim_reduct(alg):
    """Drop the implication of a two-negation algebra."""
    return build_kim(alg.lattice, alg.neg, alg.tilde, name=alg.name)


def truth_at(fr: Frame, valuation: dict[str, frozenset[int]], world: str, f: Formula) -> bool:
    return fr.index(world) in truth_set(fr, valuation, f)


@record
class FrameModel:
    """A frame plus an upset-valued valuation (checked at construction)."""

    frame: Frame
    valuation: dict[str, frozenset[int]]

    def __post_init__(self):
        for name, s in self.valuation.items():
            if not is_upset(self.frame.leq, s):
                raise FrameError("valuation-not-upset", name)

    def truth(self, world: str, f: Formula) -> bool:
        return truth_at(self.frame, self.valuation, world, f)
