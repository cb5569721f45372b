from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from twoneg import algebra, bridge
from twoneg._record import replace
from twoneg.algebra import (algebra_valid, attach_negations, classify_algebra,
                            enumerate_algebras, iso_check, sequent_valid)
from twoneg.bridge import (canonical_frame_ccpba, canonical_frame_file,
                           canonical_frame_kim, complex_algebra_compat,
                           complex_algebra_subnormal, frame_embedding,
                           kim_algebra_embedding, kim_frame_embedding,
                           prime_filters, sigma, stone_embedding)
from twoneg.errors import AlgebraError
from twoneg.formula import BOT, TOP, And, Atom, Impl, Neg, Or, Tilde, parse
from twoneg.frames import (SubNormalFrame, build_compat, build_subnormal,
                           frame_valid, frame_sequent_valid, is_identity,
                           frame_upsets, read_frame)
from twoneg.lattice import all_lattices, build_lattice, transitive_reduction

from support import chain_product, kim_reduct

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fork():
    return build_subnormal(["w0", "w1", "w2"], [("w0", "w1"), ("w0", "w2")], ["w2"])


def test_prime_filters_examples(chain3):
    assert prime_filters(chain3) == (frozenset({2}), frozenset({1, 2}))
    square = build_lattice(list("0pq1"),
                           [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")])
    filters = prime_filters(square)
    assert filters == (frozenset({1, 3}), frozenset({2, 3}))
    chain2 = build_lattice(["0", "1"], [("0", "1")])
    assert prime_filters(chain2) == (frozenset({1}),)


def test_sigma_is_a_lattice_map():
    for alg in enumerate_algebras("ccpba", 4):
        lat = alg.lattice
        filters = prime_filters(lat)
        for a in range(lat.size):
            for b in range(lat.size):
                assert sigma(lat, filters, lat.meet[a][b]) == \
                    sigma(lat, filters, a) & sigma(lat, filters, b)
                assert sigma(lat, filters, lat.join[a][b]) == \
                    sigma(lat, filters, a) | sigma(lat, filters, b)


def test_canonical_frames_of_the_three_chains(a_prime, b_prime):
    fa = canonical_frame_ccpba(a_prime)
    assert fa.size == 2 and fa.y0 == frozenset()
    fb = canonical_frame_ccpba(b_prime)
    assert fb.size == 2 and fb.y0 == frozenset({0, 1})
    assert is_identity(fb)


def test_canonical_frame_of_au(h6):
    from twoneg.algebra import build_au
    au = build_au(attach_negations(h6, None, name="h6"), h6.index("z"), h6.index("w"))
    fr = canonical_frame_ccpba(au)
    assert fr.size == 2
    assert not fr.leq[0][1] and not fr.leq[1][0]
    assert len(fr.y0) == 1


def test_canonical_rejects_plain_pba(h6):
    with pytest.raises(AlgebraError) as e:
        canonical_frame_ccpba(attach_negations(h6, None))
    assert e.value.kind == "not-a-ccpba"
    assert e.value.detail == "no tilde_one attached"


def test_complex_algebra_examples(fork):
    chain2 = build_subnormal(["a", "b"], [("a", "b")], [])
    alg = complex_algebra_subnormal(chain2)
    assert alg.size == 3
    assert alg.tilde == alg.neg  # empty queer set collapses the negations
    alg5 = complex_algebra_subnormal(fork)
    assert alg5.size == 5
    assert alg5.element(alg5.tilde[alg5.lattice.top]) == "{w2}"
    single = build_subnormal(["w"], [], ["w"])
    alg2 = complex_algebra_subnormal(single)
    assert alg2.size == 2 and alg2.tilde_one == alg2.lattice.top


def test_stone_embedding_examples(a_prime, b_prime):
    emb = stone_embedding(a_prime)
    assert emb.is_isomorphism
    embb = stone_embedding(b_prime)
    assert embb.is_isomorphism
    chain2 = build_lattice(["0", "1"], [("0", "1")])
    small = stone_embedding(attach_negations(chain2, 0))
    assert small.is_isomorphism and len(small.mapping) == 2


def test_frame_embedding_examples(fork):
    emb = frame_embedding(fork)
    assert emb.injective and emb.onto
    anti = build_subnormal(["a", "b"], [], [])
    emb2 = frame_embedding(anti)
    assert emb2.onto
    single = build_subnormal(["w"], [], [])
    assert frame_embedding(single).onto


def test_kim_canonical_frame_examples(b_prime, a_prime):
    fb = canonical_frame_kim(kim_reduct(b_prime))
    assert not any(any(row) for row in fb.c)
    fa = canonical_frame_kim(kim_reduct(a_prime))
    # with ~ = ! the compatibility relation is common-extension compatibility
    expected = {(i, j) for i in range(fa.size) for j in range(fa.size)}
    got = {(i, j) for i in range(fa.size) for j in range(fa.size) if fa.c[i][j]}
    assert got == expected  # the two filters of the chain share the top filter
    chain2 = build_lattice(["0", "1"], [("0", "1")])
    # with ~1 = 0 the single world must keep a C-successor (else it would
    # satisfy ~top while ~1 lies in no filter); with ~1 = 1 the relation is empty
    for t1, want in ((0, {(0, 0)}), (1, set())):
        fr = canonical_frame_kim(kim_reduct(attach_negations(chain2, t1)))
        assert {(i, j) for i in range(fr.size) for j in range(fr.size)
                if fr.c[i][j]} == want


def test_complex_compat_examples(fork):
    empty = build_compat(["a", "b"], [("a", "b")], [])
    kim = complex_algebra_compat(empty)
    assert all(kim.tilde[i] == kim.lattice.top for i in range(kim.size))
    # compatibility frame carved from the fork's modal translation
    from twoneg.translate import phi
    nh = phi(fork)
    pairs = [(nh.worlds[i], nh.worlds[j]) for i in range(3) for j in range(3)
             if nh.rn2[i][j]]
    cf = build_compat(nh.worlds, [("w0", "w1"), ("w0", "w2")], pairs)
    kim2 = complex_algebra_compat(cf)
    i_w1 = kim2.lattice.index("{w1}")
    assert kim2.element(kim2.tilde[i_w1]) == "{w2}"
    ident = build_compat(["a", "b"], [], [("a", "a")])
    assert is_identity(ident)
    kim3 = complex_algebra_compat(ident)
    assert all(kim3.lattice.join[i][kim3.tilde[i]] == kim3.lattice.top
               for i in range(kim3.size))


def test_kim_embeddings(b_prime):
    emb = kim_algebra_embedding(kim_reduct(b_prime))
    assert emb.injective and emb.onto
    for alg in enumerate_algebras("kim", 4):
        assert kim_algebra_embedding(alg).onto
    fr = build_compat(["a", "b"], [("a", "b")], [])
    femb = kim_frame_embedding(fr)
    assert femb.injective and femb.onto


def test_frame_validity_matches_complex_algebra(fork):
    from twoneg.frames import SubNormalFrame, dne_tilde_top_witness
    from twoneg.lattice import all_posets
    suite = [parse(t) for t in
             ["p | ~p", "!p -> ~p", "~~p", "!!~top <-> ~top",
              "~(p | q) <-> (~p & ~q)", "p -> ~!q"]]
    frames = [fork]
    posets = all_posets(4)
    for size in range(1, 5):
        for leq in posets[size]:
            names = tuple(f"w{i}" for i in range(size))
            for y0 in frame_upsets(leq):
                fr = SubNormalFrame(names, leq, y0)
                if dne_tilde_top_witness(fr) is None:
                    frames.append(fr)
    for fr in frames:
        alg = complex_algebra_subnormal(fr)
        for f in suite:
            assert frame_valid(fr, f).valid == algebra_valid(alg, f).valid


def test_compat_frame_validity_matches_complex_algebra():
    frames = [build_compat(["a", "b"], [("a", "b")], []),
              build_compat(["a"], [], [("a", "a")]),
              build_compat(["a", "b"], [], [("a", "a"), ("b", "b")])]
    suite = [("~~p", "p"), ("~p & ~q", "~(p | q)"), ("!!~top", "~top"),
             ("p", "~~p")]
    for fr in frames:
        kim = complex_algebra_compat(fr)
        for lt, rt in suite:
            lhs, rhs = parse(lt), parse(rt)
            assert frame_sequent_valid(fr, lhs, rhs).valid == \
                sequent_valid(kim, lhs, rhs).valid


def test_canonical_frame_file_round_trip(a_prime):
    text = canonical_frame_file(a_prime, "subnormal")
    assert text.splitlines()[0].startswith("# F0 =")
    fr = read_frame(text)
    assert fr == canonical_frame_ccpba(a_prime)


def _upset_scan_prime_filters(lat):
    """Oracle: scan every upset and keep the nonempty, proper, meet-closed,
    join-prime ones (the definition, at exponential cost)."""
    out = []
    for s in frame_upsets(lat.leq):
        if not s or lat.bottom in s:
            continue
        if any(lat.meet[a][b] not in s for a in s for b in s):
            continue
        if any(lat.join[a][b] in s and a not in s and b not in s
               for a in range(lat.size) for b in range(lat.size)):
            continue
        out.append(s)
    return tuple(out)


def _join_loop_prime_filters(lat):
    """Oracle: the former body, which keeps j when the join of everything
    strictly below j is not j."""
    out = []
    for j in range(lat.size):
        below = lat.bottom
        for k in range(lat.size):
            if lat.leq[k][j] and k != j:
                below = lat.join[below][k]
        if below != j:
            out.append(frozenset(k for k in range(lat.size) if lat.leq[j][k]))
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


CHAIN_SHAPES = [(5,), (8,), (2, 2), (2, 3), (3, 3), (2, 4), (2, 5), (3, 4), (2, 2, 2),
                (2, 2, 3), (2, 6), (4, 4), (3, 5), (2, 8), (2, 2, 4), (2, 3, 3), (3, 6),
                (2, 2, 5), (4, 5), (2, 3, 4), (2, 2, 6), (3, 8), (4, 6)]


def test_prime_filters_match_upset_scan_on_catalog():
    lattices = [alg.lattice for alg in enumerate_algebras("pba", 8)]
    assert len(lattices) == 35
    for lat in lattices:
        assert prime_filters(lat) == _upset_scan_prime_filters(lat)


@pytest.mark.parametrize("dims", CHAIN_SHAPES)
def test_prime_filters_match_upset_scan_on_chain_products(dims):
    lat = chain_product(dims)
    filters = prime_filters(lat)
    assert filters == _upset_scan_prime_filters(lat)
    assert len(filters) == sum(d - 1 for d in dims)  # one per join-irreducible


def test_prime_filters_match_join_loop():
    """Every distributive lattice of at most 10 elements, in its own labelling
    and reversed, so that no labelling is a linear extension of the order."""
    for lat in all_lattices(10):
        names = lat.elements[::-1]
        flipped = build_lattice(names, [(lat.elements[a], lat.elements[b])
                                        for a, b in transitive_reduction(lat.leq)])
        for lattice in (lat, flipped):
            assert prime_filters(lattice) == _join_loop_prime_filters(lattice)


def test_canonical_frame_file_rejects_bad_input(a_prime):
    kim = kim_reduct(a_prime)
    with pytest.raises(AlgebraError) as e:
        canonical_frame_file(kim, "subnormal")
    assert e.value.kind == "not-a-ccpba"
    with pytest.raises(AlgebraError) as e:
        canonical_frame_file(a_prime, "nhat")
    assert e.value.kind == "unknown-frame-kind"


def test_canonical_frame_file_rejects_bad_input_under_optimize():
    # python -O strips assert statements; the rejections must not rely on them
    code = ("from twoneg.algebra import enumerate_algebras\n"
            "from twoneg.bridge import canonical_frame_file\n"
            "from twoneg.errors import AlgebraError\n"
            "alg = enumerate_algebras('kim', 3)[0]\n"
            "for kind in ('subnormal', 'nhat'):\n"
            "    try:\n"
            "        canonical_frame_file(alg, kind)\n"
            "    except AlgebraError as e:\n"
            "        print(e.kind)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["not-a-ccpba", "unknown-frame-kind"]


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_frame_embeddings_validate_the_complex_algebra_once(monkeypatch, fork):
    checked = _counting(monkeypatch, bridge, "ccpba_flags")
    classified = _counting(monkeypatch, algebra, "classify_algebra")
    assert frame_embedding(fork).onto
    assert len(checked) == 1
    assert classified == []
    kim_checked = _counting(monkeypatch, algebra, "kim_violations")
    fr = build_compat(["a", "b"], [("a", "b")], [])
    assert kim_frame_embedding(fr).onto
    assert len(kim_checked) == 1


FRAMES = ([read_frame((SRC.parent / "tests" / "fixtures" / "three_world.frm").read_text())]
          + [canonical_frame_ccpba(alg) for alg in enumerate_algebras("ccpba", 6)]
          + [canonical_frame_kim(alg) for alg in enumerate_algebras("kim", 6)])


def _formulas(implication):
    leaves = st.one_of(st.sampled_from(["p", "q", "r"]).map(Atom),
                       st.just(TOP), st.just(BOT))

    def grow(kids):
        nodes = [st.builds(And, kids, kids), st.builds(Or, kids, kids),
                 st.builds(Neg, kids), st.builds(Tilde, kids)]
        if implication:
            nodes.append(st.builds(Impl, kids, kids))
        return st.one_of(nodes)

    return st.recursive(leaves, grow, max_leaves=6)


def _frame_and_goal():
    return st.sampled_from(FRAMES).flatmap(lambda fr: st.tuples(
        st.just(fr), _formulas(isinstance(fr, SubNormalFrame))))


@settings(max_examples=200, deadline=None)
@given(_frame_and_goal())
def test_frame_validity_is_validity_in_the_complex_algebra(case):
    """Same verdict and same first falsifier: the complex algebra lists the
    upsets in `frame_upsets` order, and both searches run in lexicographic
    order over it."""
    fr, f = case
    if isinstance(fr, SubNormalFrame):
        alg = complex_algebra_subnormal(fr)
    else:
        alg = complex_algebra_compat(fr)
    on_frame, on_algebra = frame_valid(fr, f), algebra_valid(alg, f)
    assert on_frame.valid == on_algebra.valid
    if not on_frame.valid:
        assert on_algebra.valuation == {
            name: "{" + ",".join(worlds) + "}"
            for name, worlds in on_frame.valuation.items()}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "frame sequents are pointwise inclusion, v(lhs) <= v(rhs); algebra "
    "sequents only send v(lhs) = 1 to v(rhs) = 1 (see FOUND in CHANGES.md)"))
def test_sequent_consequence_on_a_frame_and_its_complex_algebra():
    fork = build_subnormal(["r", "a", "b"], [("r", "a"), ("r", "b")], ["a"])
    kim = kim_reduct(complex_algebra_subnormal(fork))
    lhs, rhs = parse("~top"), parse("bot")
    assert frame_sequent_valid(fork, lhs, rhs).valid == sequent_valid(kim, lhs, rhs).valid


def test_canonical_compat_frame_needs_kim_negations(chain3):
    """A plain pBa has no `~`; a `~` that is the identity is not antitone,
    and the error names the elements where it fails, as `build_kim` does."""
    with pytest.raises(AlgebraError) as e:
        canonical_frame_kim(attach_negations(chain3, None, name="plain"))
    assert (e.value.kind, e.value.witness, e.value.detail) == (
        "not-a-kim-algebra", "plain", "no ~ attached")
    alg = attach_negations(chain3, chain3.bottom, name="ident")
    with pytest.raises(AlgebraError) as e:
        canonical_frame_kim(replace(alg, tilde=tuple(range(alg.size))))
    assert (e.value.kind, e.value.witness, e.value.detail) == (
        "not-a-kim-algebra", ("0", "a"), "tilde-antitone")
