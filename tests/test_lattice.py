from __future__ import annotations

from collections import Counter

import pytest

from twoneg.algebra import attach_negations, tilde_one_candidates
from twoneg.errors import LatticeError
from twoneg.lattice import (FiniteLattice, _signatures, _up_masks, all_lattices,
                            all_posets, build_lattice, canonical_form, derive_heyting,
                            transitive_reduction)
from twoneg.frames import frame_upsets

from oracles import residuation_mismatch, residuum

# Implication tables as printed, rows = antecedent in element order.
H5_TABLE = {
    "0": "1 1 1 1 1", "a": "b 1 b 1 1", "b": "a a 1 1 1",
    "e": "0 a b 1 1", "1": "0 a b e 1",
}
H6_TABLE = {
    "0": "1 1 1 1 1 1", "y": "x 1 x 1 x 1", "z": "y y 1 1 1 1",
    "w": "0 y x 1 x 1", "x": "y y w w 1 1", "1": "0 y z w x 1",
}


def _check_table(lat, expected):
    impl = derive_heyting(lat)
    for i, row_name in enumerate(lat.elements):
        got = " ".join(lat.elements[impl[i][j]] for j in range(lat.size))
        assert got == expected[row_name], f"row {row_name}"


def test_h5_heyting_table(h5):
    _check_table(h5, H5_TABLE)


def test_h6_heyting_table(h6):
    _check_table(h6, H6_TABLE)


def test_h6_meet_example(h6):
    assert h6.meet[h6.index("w")][h6.index("x")] == h6.index("z")


def test_three_chain_is_valid(chain3):
    assert chain3.bottom == 0 and chain3.top == 2


def test_diamond_rejected_not_distributive():
    with pytest.raises(LatticeError) as e:
        build_lattice(["0", "x", "y", "z", "1"],
                      [("0", "x"), ("0", "y"), ("0", "z"),
                       ("x", "1"), ("y", "1"), ("z", "1")])
    assert e.value.kind == "not-distributive"


def test_diamond_residuum_missing():
    # M3 as a record: `build_lattice` rejects it as not distributive
    t, f = True, False
    m3 = FiniteLattice(
        ("0", "x", "y", "z", "1"),
        ((t, t, t, t, t), (f, t, f, f, t), (f, f, t, f, t), (f, f, f, t, t),
         (f, f, f, f, t)),
        ((0, 0, 0, 0, 0), (0, 1, 0, 0, 1), (0, 0, 2, 0, 2), (0, 0, 0, 3, 3),
         (0, 1, 2, 3, 4)),
        ((0, 1, 2, 3, 4), (1, 1, 4, 4, 4), (2, 4, 2, 4, 4), (3, 4, 4, 3, 4),
         (4, 4, 4, 4, 4)),
        0, 4)
    assert residuum(m3, m3.index("x"), m3.index("y")) is None
    with pytest.raises(LatticeError) as e:
        derive_heyting(m3)
    assert e.value.kind == "residuum-missing"
    # row-major scan reaches (x, 0) before (x, y); both lack a maximum
    assert e.value.witness == ("x", "0")


def test_cycle_rejected():
    with pytest.raises(LatticeError) as e:
        build_lattice(["a", "b"], [("a", "b"), ("b", "a")])
    assert e.value.kind == "not-a-poset"


def test_missing_bound_rejected():
    with pytest.raises(LatticeError) as e:
        build_lattice(["a", "b"], [])
    assert e.value.kind in ("missing-glb", "missing-lub")


def test_nelson_table_is_not_residuated(chain3):
    # declared implication of the three-element involutive-negation algebra
    nelson = ((2, 2, 2), (2, 2, 2), (0, 1, 2))
    assert residuation_mismatch(chain3, nelson) == ("a", "0")
    assert residuum(chain3, chain3.index("a"), chain3.index("0")) == chain3.index("0")


def test_residuum_monotonicity():
    for lat in all_lattices(5):
        impl = derive_heyting(lat)
        n = lat.size
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if lat.leq[a][b]:
                        # antitone in the antecedent, monotone in the consequent
                        assert lat.leq[impl[b][c]][impl[a][c]]
                        assert lat.leq[impl[c][a]][impl[c][b]]


def test_poset_counts():
    posets = all_posets(6)
    assert [len(posets[k]) for k in range(1, 7)] == [1, 2, 5, 16, 63, 318]


def test_lattice_counts():
    sizes = {}
    for lat in all_lattices(6):
        sizes[lat.size] = sizes.get(lat.size, 0) + 1
    assert sizes == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5}


def test_lattice_counts_match_a006982():
    # distributive lattices with n elements, n = 1..16 (OEIS A006982)
    sizes = Counter(lat.size for lat in all_lattices(16))
    assert [sizes[n] for n in range(1, 17)] == [1, 1, 1, 2, 3, 5, 8, 15, 26, 47, 82, 151,
                                                269, 494, 891, 1639]


def test_all_lattices_are_downset_lattices_bottom_up():
    for lat in all_lattices(8):
        assert lat.bottom == 0 and lat.top == lat.size - 1
        assert lat.elements == tuple(f"e{i}" for i in range(lat.size))
        # e0, e1, ... is a linear extension of the order
        assert all(i <= j for i in range(lat.size) for j in range(lat.size)
                   if lat.leq[i][j])


def test_upsets_sorted_by_cardinality(chain3):
    ups = list(frame_upsets(chain3.leq))
    assert ups == [frozenset(), frozenset({2}), frozenset({1, 2}),
                   frozenset({0, 1, 2})]


def test_canonical_form_is_relabelling_invariant(h6):
    # same lattice with elements declared in a different order
    shuffled = build_lattice(
        ["x", "1", "0", "w", "z", "y"],
        [("0", "y"), ("0", "z"), ("y", "w"), ("z", "w"), ("z", "x"),
         ("w", "1"), ("x", "1")])
    assert canonical_form(h6.leq)[0] == canonical_form(shuffled.leq)[0]


def test_transitive_reduction_round_trip(h6):
    covers = set(transitive_reduction(h6.leq))
    expected = {("0", "y"), ("0", "z"), ("y", "w"), ("z", "w"), ("z", "x"),
                ("w", "1"), ("x", "1")}
    named = {(h6.elements[a], h6.elements[b]) for a, b in covers}
    assert named == expected


# The signature computation `_signatures` replaced: covers by the O(n^3)
# transitive reduction (the former body of `transitive_reduction`), heights
# by a scan below each element.
def _transitive_reduction_oracle(leq):
    n = len(leq)
    covers = []
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b]:
                if not any(k != a and k != b and leq[a][k] and leq[k][b]
                           for k in range(n)):
                    covers.append((a, b))
    return covers


def _heights_oracle(leq):
    n = len(leq)
    order = sorted(range(n), key=lambda x: sum(1 for k in range(n) if leq[k][x]))
    h = [0] * n
    for x in order:
        below = [h[k] + 1 for k in range(n) if leq[k][x] and k != x]
        h[x] = max(below, default=0)
    return h


def _masks(leq):
    return _up_masks(leq), _up_masks(zip(*leq))


def _signatures_oracle(leq, unaries, marks):
    n = len(leq)
    heights = _heights_oracle(leq)
    down = [sum(1 for k in range(n) if leq[k][x]) for x in range(n)]
    up = [sum(1 for k in range(n) if leq[x][k]) for x in range(n)]
    covers = _transitive_reduction_oracle(leq)
    below = [sum(1 for a, b in covers if b == x) for x in range(n)]
    above = [sum(1 for a, b in covers if a == x) for x in range(n)]
    sigs = []
    for x in range(n):
        sig = [heights[x], down[x], up[x], below[x], above[x]]
        for m in marks:
            sig.append(1 if x == m else 0)
        for t in unaries:
            y = t[x]
            sig.extend((1 if y == x else 0, down[y], up[y]))
        sigs.append(tuple(sig))
    return sigs


def test_signatures_match_oracle_on_posets():
    for posets in all_posets(6).values():
        for leq in posets:
            n = len(leq)
            # the reversed labelling is no linear extension of the order
            rev = tuple(tuple(leq[n - 1 - i][n - 1 - j] for j in range(n)) for i in range(n))
            for table in (leq, rev):
                assert (_signatures(*_masks(table), (), ())
                        == _signatures_oracle(table, (), ()))


def test_transitive_reduction_matches_oracle_on_posets():
    for posets in all_posets(6).values():
        for leq in posets:
            n = len(leq)
            rev = tuple(tuple(leq[n - 1 - i][n - 1 - j] for j in range(n)) for i in range(n))
            for table in (leq, rev):
                assert transitive_reduction(table) == _transitive_reduction_oracle(table)


def test_signatures_match_oracle_on_catalog_lattices():
    for lat in all_lattices(9):
        for t1 in [None] + tilde_one_candidates(lat):
            alg = attach_negations(lat, t1)
            unaries = (alg.neg,) if t1 is None else (alg.neg, alg.tilde)
            marks = () if t1 is None else (t1,)
            assert (_signatures(*_masks(lat.leq), unaries, marks)
                    == _signatures_oracle(lat.leq, unaries, marks))
