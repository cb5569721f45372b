from __future__ import annotations

from twoneg.errors import FrameError
from twoneg.formula import parse
from twoneg.frames import (build_nhat, build_subnormal, dne_tilde_top_witness,
                           frame_valid, is_identity, tilde_top_worlds)
from twoneg.translate import phi, psi

import oracles
from support import outcome, subnormal_frames

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


def test_subnormal_tilde_relation_matches_former_code():
    """Every poset of at most 5 worlds with every upset as Y0, condition (D)
    or not: the `~` relation is the order into the non-queer worlds, and
    `tilde_top_worlds`, `is_identity` and `phi` agree with the former code
    and, with `dne_tilde_top_witness`, with the table scans in `oracles`."""
    frames = subnormal_frames(5, require_d=False)
    for fr in frames:
        n = fr.size
        assert fr.tilde == tuple(tuple(fr.leq[x][y] and y not in fr.y0 for y in range(n))
                                 for x in range(n))
        assert (tilde_top_worlds(fr) == former_tilde_top_worlds(fr)
                == oracles.tilde_top_worlds(fr))
        assert is_identity(fr) == former_is_identity(fr) == oracles.is_identity(fr)
        assert dne_tilde_top_witness(fr) == oracles.dne_tilde_top_witness(fr)
        assert (outcome(phi, fr) == outcome(former_phi, fr)
                == outcome(oracles.phi, fr))
    assert len(frames) == 938


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


def test_validity_transfer_sample():
    for fr in subnormal_frames(3):
        nh = phi(fr)
        for f in (parse("p | ~p"), parse("!!~top <-> ~top"), parse("~~p | ~p")):
            assert frame_valid(fr, f).valid == frame_valid(nh, f).valid


def test_total_r2_recovers_empty_y0():
    from twoneg.frames import build_nhat
    nh = build_nhat(["a"], [], [("a", "a")], [("a", "a")])
    assert psi(nh).y0 == frozenset()
