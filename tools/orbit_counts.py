#!/usr/bin/env python3
"""Orbit counts of every catalog class at sizes 2..16, from finite duality.

A finite distributive lattice L is the lattice of downsets of its poset
J(L) of join-irreducibles, and Aut(L) is Aut(J(L)) acting on those
downsets.  Two catalog lattices are never isomorphic, and two ccpba on one
lattice are isomorphic exactly when their ~1s lie in one orbit.  So:

* pba counts the posets with n downsets;
* ccpba counts, over those posets, the orbits of the downsets D with
  !!D = D, where !D = {x : no y <= x lies in D};
* cvcpba counts the orbits of the D for which excluded middle
  a v ~a = 1 holds, where ~a = a -> D;
* kim and kim_vee are the implication-free reducts of ccpba and cvcpba, and
  a reduct keeps ~1 as ~top, so their counts are those of ccpba and cvcpba.

The posets come from `twoneg.lattice._posets_by_downsets`, whose counts
tests/test_lattice.py checks against OEIS A006982.  Everything else, the
downsets, the automorphisms, `!`, the implication and excluded middle, is
computed here on downset masks, without the package's canonical forms or
negation tables.  The counts are written to tests/fixtures/orbit_counts.json;
tests/test_catalog_digests.py compares them with the catalog's size sections
and checks that this script writes the file byte for byte:

    PYTHONPATH=src python tools/orbit_counts.py
"""

from __future__ import annotations

import json
from pathlib import Path

from twoneg.lattice import _posets_by_downsets

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "orbit_counts.json"
SIZES = range(2, 17)


def downsets(below: list[int]) -> list[int]:
    """Every downset as a mask (bit x set iff x is in it), given the mask of
    the points strictly below each point: grown from the empty set by
    adding one point whose points below are all in already."""
    found, todo = {0}, [0]
    while todo:
        d = todo.pop()
        for x, b in enumerate(below):
            e = d | 1 << x
            if e != d and not b & ~d and e not in found:
                found.add(e)
                todo.append(e)
    return sorted(found)


def automorphisms(leq) -> list[tuple[int, ...]]:
    """Every permutation of the points that preserves and reflects the
    order, by backtracking; a point goes only to a point with as many
    points below and above it."""
    n = len(leq)
    degree = [(sum(col), sum(row)) for row, col in zip(leq, zip(*leq))]
    image: list[int] = []
    found = []

    def extend():
        i = len(image)
        if i == n:
            found.append(tuple(image))
            return
        for y in range(n):
            if (y not in image and degree[y] == degree[i]
                    and all(leq[i][j] == leq[y][z] and leq[j][i] == leq[z][y]
                            for j, z in enumerate(image))):
                image.append(y)
                extend()
                image.pop()

    extend()
    return found


def orbit_counts(leq) -> tuple[int, int]:
    """The orbits of the !!-fixed downsets of `leq`, and of those where
    excluded middle holds."""
    n = len(leq)
    below = [sum(1 << y for y in range(n) if leq[y][x] and y != x) for x in range(n)]
    down = [b | 1 << x for x, b in enumerate(below)]
    full = (1 << n) - 1

    def implies(a: int, b: int) -> int:
        return sum(1 << x for x in range(n) if not down[x] & a & ~b)

    elements = downsets(below)
    auts = automorphisms(leq)
    fixed = em = 0
    for t in elements:
        if implies(implies(t, 0), 0) != t:
            continue
        orbit = {sum(1 << s[x] for x in range(n) if t >> x & 1) for s in auts}
        if t != min(orbit):
            continue
        fixed += 1
        em += all(a | implies(a, t) == full for a in elements)
    return fixed, em


def counts() -> dict[str, dict[str, int]]:
    out = {}
    for size in SIZES:
        posets = _posets_by_downsets(size)
        ccpba, cvcpba = (sum(c) for c in zip(*map(orbit_counts, posets)))
        out[str(size)] = {"ccpba": ccpba, "cvcpba": cvcpba, "kim": ccpba, "kim_vee": cvcpba,
                          "pba": len(posets)}
    return out


def main() -> None:
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(counts(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
