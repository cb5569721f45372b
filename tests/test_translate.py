from __future__ import annotations

import random

import pytest

from twoneg.errors import FrameError, WorkbenchError
from twoneg.formula import parse
from twoneg.frames import (SubNormalFrame, build_nhat, build_subnormal,
                           dne_tilde_top_witness, frame_valid, is_identity,
                           frame_upsets, tilde_top_worlds, truth_set)
from twoneg.lattice import all_posets
from twoneg.translate import phi, psi

import oracles

BATTERY = [parse(t) for t in [
    "p | ~p", "!p -> ~p", "~~p", "~top", "!!~top <-> ~top",
    "~(p | q) <-> (~p & ~q)", "p -> ~!p", "!~p -> ~!p",
    "~p <-> (p -> ~top)", "bot -> p", "(p -> q) -> (~q -> ~p)", "~p | !!p",
]]


def all_subnormal_frames(max_worlds: int):
    """Every sub-normal frame on the canonical posets up to max_worlds."""
    out = []
    posets = all_posets(max_worlds)
    for size in range(1, max_worlds + 1):
        for leq in posets[size]:
            names = [f"w{i}" for i in range(size)]
            for y0 in frame_upsets(leq):
                fr = SubNormalFrame(tuple(names), leq, y0)
                if dne_tilde_top_witness(fr) is None:
                    out.append(fr)
    return out


# The former sub-normal code, from when a sub-normal frame had no `~`
# relation: `~top` held on Y0 itself, condition (E) read the order off the
# non-queer worlds, and `phi` built R1 and R2 in one triple loop.
def former_tilde_top_worlds(fr):
    return fr.y0


def former_is_identity(fr):
    n = fr.size
    return all(fr.leq[y][x]
               for x in range(n) if x not in fr.y0
               for y in range(n) if y not in fr.y0 and fr.leq[x][y])


def former_phi(fr):
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
    if former_is_identity(fr) and not is_identity(out):
        raise FrameError("translation-broke-identity", None)
    return out


def outcome(fn, *args):
    """The result, or the class, kind, witness and detail of the error raised."""
    try:
        return fn(*args)
    except WorkbenchError as e:
        return (type(e).__name__, e.kind, e.witness, e.detail)


def test_subnormal_tilde_relation_matches_former_code():
    """Every poset of at most 5 worlds with every upset as Y0, condition (D)
    or not: the `~` relation is the order into the non-queer worlds, and
    `tilde_top_worlds`, `is_identity` and `phi` agree with the former code
    and, with `dne_tilde_top_witness`, with the table scans in `oracles`."""
    count = 0
    posets = all_posets(5)
    for size in range(1, 6):
        for leq in posets[size]:
            names = tuple(f"w{i}" for i in range(size))
            for y0 in frame_upsets(leq):
                fr = SubNormalFrame(names, leq, y0)
                assert fr.tilde == tuple(tuple(leq[x][y] and y not in y0
                                               for y in range(size))
                                         for x in range(size))
                assert (tilde_top_worlds(fr) == former_tilde_top_worlds(fr)
                        == oracles.tilde_top_worlds(fr))
                assert is_identity(fr) == former_is_identity(fr) == oracles.is_identity(fr)
                assert dne_tilde_top_witness(fr) == oracles.dne_tilde_top_witness(fr)
                assert (outcome(phi, fr) == outcome(former_phi, fr)
                        == outcome(oracles.phi, fr))
                count += 1
    assert count == 938


def test_fork_translation_tables(chain3):
    fork = build_subnormal(["w0", "w1", "w2"], [("w0", "w1"), ("w0", "w2")], ["w2"])
    nh = phi(fork)
    r2 = {(i, j) for i in range(3) for j in range(3) if nh.rn2[i][j]}
    assert r2 == {(0, 0), (0, 1), (1, 0), (1, 1)}
    r1 = {(i, j) for i in range(3) for j in range(3) if nh.rn1[i][j]}
    assert r1 == {(i, j) for i in range(3) for j in range(3)} - {(1, 2), (2, 1)}
    # the queer worlds are recovered as the worlds with no R2 successor
    assert {x for x in range(3) if not any(nh.rn2[x])} == set(fork.y0)


def test_empty_y0_collapses_relations():
    fr = build_subnormal(["a", "b", "c"], [("a", "b")], [])
    nh = phi(fr)
    assert nh.rn1 == nh.rn2


def test_round_trips_exhaustive_small():
    for fr in all_subnormal_frames(4):
        nh = phi(fr)
        assert psi(nh) == fr
        assert phi(psi(nh)) == nh
        assert is_identity(fr) == is_identity(nh)


def test_truth_preservation_battery():
    rng = random.Random(92541)
    frames = all_subnormal_frames(4)
    for fr in frames:
        ups = frame_upsets(fr.leq)
        for _ in range(3):
            v = {"p": rng.choice(ups), "q": rng.choice(ups)}
            nh = phi(fr)
            for f in BATTERY:
                assert truth_set(fr, v, f) == truth_set(nh, v, f)


def test_validity_transfer_sample():
    for fr in all_subnormal_frames(3):
        nh = phi(fr)
        for f in (parse("p | ~p"), parse("!!~top <-> ~top"), parse("~~p | ~p")):
            assert frame_valid(fr, f).valid == frame_valid(nh, f).valid


def test_total_r2_recovers_empty_y0():
    from twoneg.frames import build_nhat
    nh = build_nhat(["a"], [], [("a", "a")], [("a", "a")])
    assert psi(nh).y0 == frozenset()
