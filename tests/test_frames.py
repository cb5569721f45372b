from __future__ import annotations

import pytest

from twoneg.errors import BoundGuardError, FrameError
from twoneg.formula import parse
from twoneg.frames import (CompatFrame, NhatFrame, SubNormalFrame,
                           build_compat, build_nhat, build_subnormal,
                           dne_tilde_top_witness, frame_valid,
                           frame_sequent_valid, is_identity, subcompat_violation,
                           read_frame, truth_set, write_frame)

from support import FrameModel, truth_at


@pytest.fixture
def fork():
    return build_subnormal(["w0", "w1", "w2"], [("w0", "w1"), ("w0", "w2")], ["w2"])


def test_build_fork_valid(fork):
    assert dne_tilde_top_witness(fork) is None
    assert not is_identity(fork)


def test_condition_d_rejection():
    with pytest.raises(FrameError) as e:
        build_subnormal(["w0", "w1"], [("w0", "w1")], ["w1"])
    assert e.value.witness == ("D", "w0")


def test_y0_not_upset_rejection():
    with pytest.raises(FrameError) as e:
        build_subnormal(["w0", "w1"], [("w0", "w1")], ["w0"])
    assert e.value.kind == "y0-not-upset"


def test_unknown_world_rejection():
    with pytest.raises(FrameError) as e:
        build_subnormal(["w0"], [("w0", "zz")], [])
    assert e.value.kind == "relation-out-of-range"
    with pytest.raises(FrameError) as e:
        build_subnormal(["x", "y"], [("x", "y")], ["z"])
    assert (e.value.kind, e.value.witness) == ("relation-out-of-range", ("y0", "z"))


def test_truth_examples(fork):
    assert not truth_at(fork, {"p": frozenset({1})}, "w0", parse("~p"))
    for w in fork.worlds:
        assert truth_at(fork, {}, w, parse("~top")) == (w == "w2")
    assert truth_set(fork, {}, parse("bot")) == frozenset()


def test_nhat_truth_of_tilde_top(fork):
    from twoneg.translate import phi
    nh = phi(fork)
    for x in range(nh.size):
        expected = not any(nh.rn2[x])
        assert truth_at(nh, {}, nh.worlds[x], parse("~top")) == expected


def test_frame_valid_fork(fork):
    v = frame_valid(fork, parse("p | ~p"))
    assert not v.valid
    assert v.valuation == {"p": ("w1",)}
    assert v.world == "w0"


AXIOMS = ["p -> (q -> p)",
          "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
          "p -> (p | q)", "q -> (p | q)",
          "(p -> r) -> ((q -> r) -> ((p | q) -> r))",
          "(p & q) -> p", "(p & q) -> q",
          "(p -> q) -> ((p -> r) -> (p -> (q & r)))",
          "p -> top", "bot -> p",
          "(p -> q) -> ((p -> !q) -> !p)",
          "!p -> (p -> q)",
          "~p <-> (p -> !!~top)"]


@pytest.mark.parametrize("axiom", AXIOMS)
def test_axioms_valid_on_small_frames(axiom, fork):
    chain = build_subnormal(["a", "b"], [("a", "b")], [])
    queer = build_subnormal(["a", "b"], [("a", "b")], ["a", "b"])
    for fr in (fork, chain, queer):
        assert frame_valid(fr, parse(axiom)).valid, axiom


def test_identity_frames_validate_em():
    anti = build_subnormal(["a", "b"], [], [])
    assert is_identity(anti)
    assert frame_valid(anti, parse("p | ~p")).valid
    allq = build_subnormal(["a", "b"], [("a", "b")], ["a", "b"])
    assert is_identity(allq)
    assert frame_valid(allq, parse("p | ~p")).valid


def test_heredity(fork):
    from twoneg.translate import phi
    battery = ["p", "~p", "!p", "~~p", "p -> q", "~(p & q)", "!!~top"]
    frames_ = [fork, phi(fork)]
    ups = [frozenset(), frozenset({2}), frozenset({1, 2}), frozenset({0, 1, 2})]
    for fr in frames_:
        for text in battery:
            f = parse(text)
            for up in ups:
                for uq in ups[:2]:
                    holds = truth_set(fr, {"p": up, "q": uq}, f)
                    for x in range(fr.size):
                        for y in range(fr.size):
                            if fr.leq[x][y] and x in holds:
                                assert y in holds


def test_empty_y0_collapses_negations(fork):
    fr = build_subnormal(["w0", "w1", "w2"], [("w0", "w1"), ("w0", "w2")], [])
    ups = [frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({0, 1, 2})]
    for up in ups:
        v = {"p": frozenset(u for u in up if u < fr.size)}
        for text in ["p", "p & p", "~p"]:
            f = parse(text)
            from twoneg.formula import Neg, Tilde
            assert truth_set(fr, v, Tilde(f)) == truth_set(fr, v, Neg(f))


def test_nhat_build_rejects_broken_conditions(fork):
    # R1 lacking reflexivity
    with pytest.raises(FrameError):
        build_nhat(["a"], [], [], [])
    # condition (3): one world, no R2 successor but R1-successors all quiet
    with pytest.raises(FrameError) as e:
        build_nhat(["a", "b"], [("a", "b")],
                   [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")],
                   [("b", "b")])
    assert e.value.kind == "condition-violation"


def test_compat_build_and_flags():
    fr = build_compat(["a", "b"], [("a", "b")], [("a", "a")])
    assert isinstance(fr, CompatFrame)
    assert subcompat_violation(fr) == ("3", ("a",))  # b is quiet above a
    total = build_compat(["a"], [], [("a", "a")])
    assert subcompat_violation(total) is None


def test_compat_law_rejection():
    # b C b but a C b fails although a <= b
    with pytest.raises(FrameError) as e:
        build_compat(["a", "b"], [("a", "b")], [("b", "b")])
    assert e.value.kind == "condition-violation"


def test_compat_sequent_validity():
    empty = build_compat(["a", "b"], [("a", "b")], [])
    assert frame_sequent_valid(empty, parse("!!~top"), parse("~top")).valid
    assert frame_sequent_valid(empty, parse("bot"), parse("p")).valid
    assert dne_tilde_top_witness(empty) is None


def test_compat_condition3_falsifier():
    # chain a <= b with C = {(a,a)}: b is quiet, a is not, so dne fails at a
    fr = CompatFrame(("a", "b"),
                     ((True, True), (False, True)),
                     ((True, False), (False, False)))
    assert dne_tilde_top_witness(fr) == "a"
    v = frame_sequent_valid(fr, parse("!!~top"), parse("~top"))
    assert not v.valid and v.world == "a"


def test_wrong_language_on_compat():
    fr = build_compat(["a"], [], [])
    with pytest.raises(FrameError) as e:
        frame_valid(fr, parse("p -> q"))
    assert e.value.kind == "wrong-language"


def test_guards(fork):
    with pytest.raises(BoundGuardError):
        frame_valid(fork, parse("p & q & r & s1"))
    big = build_subnormal([f"w{i}" for i in range(11)], [], [])
    with pytest.raises(BoundGuardError):
        frame_valid(big, parse("p"))
    assert frame_valid(big, parse("p -> p"), max_worlds=None).valid


def test_frame_io_round_trip(fork, fixtures_dir):
    from twoneg.translate import phi
    assert read_frame(write_frame(fork)) == fork
    nh = phi(fork)
    assert read_frame(write_frame(nh)) == nh
    cp = build_compat(["a", "b"], [("a", "b")], [("a", "a")])
    assert read_frame(write_frame(cp)) == cp
    disk = read_frame((fixtures_dir / "three_world.frm").read_text())
    assert disk == fork
    for empty in (build_subnormal([], [], []), build_nhat([], [], [], []),
                  build_compat([], [], [])):
        assert read_frame(write_frame(empty)) == empty


def test_frame_model_validates_valuation(fork):
    model = FrameModel(fork, {"p": frozenset({1})})
    assert model.truth("w1", parse("p"))
    assert not model.truth("w0", parse("~p"))
    with pytest.raises(FrameError) as e:
        FrameModel(fork, {"p": frozenset({0})})
    assert e.value.kind == "valuation-not-upset"
