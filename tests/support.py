"""Test-only helpers over the package API: products of chains, the
implication-free reduct of a two-negation algebra, and a frame model with
pointwise truth."""

from __future__ import annotations

import itertools

from twoneg._record import record
from twoneg.algebra import build_kim
from twoneg.errors import FrameError
from twoneg.formula import Formula
from twoneg.frames import Frame, truth_set
from twoneg.lattice import build_lattice

from oracles import is_upset


def chain_product(dims):
    """The product of chains with `dims` elements each, elements named by
    their coordinates (digits) and listed in `itertools.product` order."""
    elements = list(itertools.product(*(range(d) for d in dims)))
    names = ["".join(map(str, e)) for e in elements]
    pairs = [(names[i], names[j]) for i, a in enumerate(elements)
             for j, b in enumerate(elements)
             if sum(y - x for x, y in zip(a, b)) == 1 and all(x <= y for x, y in zip(a, b))]
    return build_lattice(names, pairs)


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
