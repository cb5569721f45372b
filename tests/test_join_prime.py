"""Distributivity by join-primeness against the triple scan.

`build_lattice` accepts a lattice iff J(x \\/ y) = J(x) | J(y) for every pair,
J(x) the join-irreducibles below x, and runs its triple scan only on a lattice
that fails, to name the witness.  The oracle is the scan's own copy in
`oracles.py`: on every lattice of at most 7 elements and on chain products
with M3 or N5 glued in, `build_lattice` must return the same lattice or raise
`not-distributive` with the same witness."""

from __future__ import annotations

import itertools

import pytest

from twoneg import lattice
from twoneg.algebra import attach_negations, read_algebra, write_algebra
from twoneg.errors import LatticeError
from twoneg.lattice import (_lattice, _up_masks, all_lattices, all_posets,
                            build_lattice, transitive_reduction)

from oracles import _record, distributivity_witness


def expected(names, pairs):
    """The lattice of `pairs`, or the not-distributive witness the scan names."""
    lat = _record(names, pairs)
    witness = distributivity_witness(lat.size, lat.meet, lat.join)
    if witness is None:
        return lat
    return ("not-distributive", tuple(names[k] for k in witness))


def got(names, pairs):
    try:
        return build_lattice(names, pairs)
    except LatticeError as e:
        return (e.kind, e.witness)


def labellings(names, pairs):
    """The input as given and with its element list reversed."""
    yield names, pairs
    yield names[::-1], pairs


def small_lattices():
    """Every lattice of at most 7 elements (non-distributive ones included),
    as element names and covering pairs."""
    for posets in all_posets(7).values():
        for leq in posets:
            names = [f"e{i}" for i in range(len(leq))]
            try:
                _lattice(names, _up_masks(leq))
            except LatticeError:
                continue
            yield names, [(names[a], names[b]) for a, b in transitive_reduction(leq)]


def chain(k):
    names = [f"c{i}" for i in range(k)]
    return names, list(zip(names, names[1:]))


M3 = (["0", "x", "y", "z", "1"],
      [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")])
N5 = (["0", "a", "b", "c", "1"],
      [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])


def product(*factors):
    """The direct product, elements named by their coordinates."""
    names = [".".join(t) for t in itertools.product(*(f[0] for f in factors))]
    pairs = []
    for t in itertools.product(*(f[0] for f in factors)):
        for i, (_, covers) in enumerate(factors):
            for a, b in covers:
                if t[i] == a:
                    pairs.append((".".join(t), ".".join(t[:i] + (b,) + t[i + 1:])))
    return names, pairs


def glue(*parts):
    """The vertical sum: each part's top is identified with the next one's
    bottom (both are its first and last names)."""
    names, pairs = [], []
    for k, (ns, ps) in enumerate(parts):
        rename = {n: f"p{k}_{n}" for n in ns}
        if k:
            rename[ns[0]] = names[-1]
        names += [rename[n] for n in ns if rename[n] not in names]
        pairs += [(rename[a], rename[b]) for a, b in ps]
    return names, pairs


GLUED = [
    product(M3, chain(2)), product(M3, chain(2), chain(2)), product(M3, chain(2), chain(4)),
    product(M3, chain(8)), product(N5, chain(2)), product(N5, chain(3), chain(2)),
    product(N5, chain(8)), product(M3, N5), product(chain(2), N5, chain(4)),
    product(chain(2), chain(3), chain(4)), product(chain(3), chain(3), chain(4)),
    product(chain(2), chain(4), chain(5)),
    glue(product(chain(2), chain(3)), M3, chain(3)),
    glue(N5, product(chain(2), chain(2), chain(2))),
    glue(product(chain(3), chain(4)), N5, product(chain(2), chain(2))),
    glue(product(chain(2), chain(2)), product(chain(3), chain(3)), chain(4)),
]


def test_small_lattices_match_triple_scan():
    kinds = {"lattice": 0, "not-distributive": 0}
    for names, pairs in small_lattices():
        for case in labellings(names, pairs):
            want = expected(*case)
            assert got(*case) == want, case
            kinds["lattice" if isinstance(want, lattice.FiniteLattice) else want[0]] += 1
    # 78 lattices of at most 7 elements, 21 of them distributive
    assert kinds == {"lattice": 2 * 21, "not-distributive": 2 * 57}, kinds


@pytest.mark.parametrize("case", range(len(GLUED)))
def test_glued_chain_products_match_triple_scan(case):
    names, pairs = GLUED[case]
    assert 10 <= len(names) <= 40
    for case in labellings(names, pairs):
        assert got(*case) == expected(*case), case


def test_triple_scan_runs_only_on_rejection(monkeypatch):
    calls = []
    scan = lattice._distributivity_witness

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(lattice, "_distributivity_witness", counted)
    for lat in all_lattices(8):
        text = write_algebra(attach_negations(lat, None, name="d"))
        assert read_algebra(text).lattice == lat
    assert calls == []
    rejected = [case for names, pairs in GLUED + [M3, N5]
                for case in labellings(names, pairs)
                if not isinstance(expected(*case), lattice.FiniteLattice)]
    assert len(rejected) == 2 * 14
    for names, pairs in rejected:
        text = "".join(["algebra glued\n", f"elements {' '.join(names)}\n",
                        *(f"leq {a} {b}\n" for a, b in pairs), "end\n"])
        before = len(calls)
        with pytest.raises(LatticeError) as e:
            read_algebra(text)
        assert e.value.kind == "not-distributive"
        assert len(calls) == before + 1
