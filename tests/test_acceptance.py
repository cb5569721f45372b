"""Acceptance suite: each criterion runs at its stated bound and prints one
PASS/FAIL line.  Derived expectations were computed with the independent
oracles in tools/: enumeration counts come from the committed brute-force
fixture, and countermodel witnesses were frozen from exhaustive scans in
canonical order."""

from __future__ import annotations

import json
import random
from contextlib import contextmanager

from twoneg.algebra import (Algebra, algebra_valid, attach_negations,
                            ccpba_flags, classify_algebra, enumerate_algebras,
                            iso_check, sequent_valid)
from twoneg.bridge import (frame_embedding, kim_algebra_embedding,
                           kim_frame_embedding, stone_embedding)
from twoneg.formula import parse, substitute, Atom
from twoneg.frames import (CompatFrame, NhatFrame, SubNormalFrame,
                           build_compat, dne_tilde_top_witness,
                           frame_sequent_valid, frame_valid, is_identity,
                           frame_upsets, nhat_violations, truth_set)
from twoneg.lattice import all_lattices, derive_heyting
from twoneg.proofs import (SCHEMES, SEQUENT_RULES, check_derivation,
                           check_hilbert, countermodel_search, parse_proof)
from twoneg.translate import phi, psi

from oracles import residuation_mismatch
from support import kim_reduct, subnormal_frames


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {title}: PASS")


H5_TABLE = [
    "1 1 1 1 1", "b 1 b 1 1", "a a 1 1 1", "0 a b 1 1", "0 a b e 1",
]
H6_TABLE = [
    "1 1 1 1 1 1", "x 1 x 1 x 1", "y y 1 1 1 1",
    "0 y x 1 x 1", "y y w w 1 1", "0 y z w x 1",
]


def test_criterion_1_reference_tables(h5, h6, chain3):
    with criterion(1, "reference implication tables; non-residuated table rejected"):
        for lat, table in ((h5, H5_TABLE), (h6, H6_TABLE)):
            impl = derive_heyting(lat)
            for i, row in enumerate(table):
                got = " ".join(lat.elements[impl[i][j]] for j in range(lat.size))
                assert got == row
        nelson_impl = ((2, 2, 2), (2, 2, 2), (0, 1, 2))
        assert residuation_mismatch(chain3, nelson_impl) == ("a", "0")
        neg = tuple(row[chain3.bottom] for row in nelson_impl)
        nelson = Algebra("", chain3, nelson_impl, neg, None, None)
        pba, _ = ccpba_flags(nelson)
        assert not pba.holds and pba.witness == ("a", "0", "a")


def test_criterion_2_tilde_one_candidates(chain3, h5, h6):
    from twoneg.algebra import tilde_one_candidates
    with criterion(2, "distinguished-element candidate sets and verdicts"):
        expected = {
            id(chain3): (["0", "1"], {"0": False, "1": True}),
            id(h5): (["0", "a", "b", "1"],
                     {"0": False, "a": False, "b": False, "1": True}),
            id(h6): (["0", "y", "x", "1"],
                     {"0": False, "y": False, "x": True, "1": True}),
        }
        for lat in (chain3, h5, h6):
            names, verdicts = expected[id(lat)]
            cands = [lat.elements[i] for i in tilde_one_candidates(lat)]
            assert cands == names
            for name, cvc in verdicts.items():
                report = classify_algebra(attach_negations(lat, lat.index(name)))
                assert report.is_ccpba.holds
                assert report.is_cvcpba.holds == cvc, (name, cvc)


def test_criterion_3_enumeration_counts(fixtures_dir):
    with criterion(3, "catalog counts vs the brute-force oracle fixture"):
        exact3 = [a for a in enumerate_algebras("ccpba", 3) if a.size == 3]
        assert len(exact3) == 2
        assert len([a for a in enumerate_algebras("cvcpba", 3) if a.size == 3]) == 1
        frozen = json.loads((fixtures_dir / "enumeration_counts.json").read_text())
        for size in ("2", "3", "4"):
            for cls, want in frozen[size].items():
                got = [a for a in enumerate_algebras(cls, int(size))
                       if a.size == int(size)]
                assert len(got) == want, (size, cls, len(got), want)


def test_criterion_4_law_suite(candidate):
    with criterion(4, "equational laws on the catalog up to size 6"):
        for alg in enumerate_algebras("ccpba", 6):
            lat, impl, neg, tilde, t1 = (alg.lattice, alg.impl, alg.neg,
                                         alg.tilde, alg.tilde_one)
            n = lat.size
            for a in range(n):
                assert lat.leq[a][tilde[tilde[a]]]                       # (ii)
                assert tilde[tilde[impl[t1][a]]] == lat.top              # (iii)
                assert tilde[a] == neg[lat.meet[a][neg[t1]]]             # (iv)
                assert lat.leq[neg[a]][tilde[a]]                         # (v)
                assert lat.leq[a][tilde[neg[a]]]                         # (vi)
                assert lat.leq[neg[tilde[a]]][tilde[neg[a]]]             # (vii)
                assert tilde[a] == neg[neg[tilde[a]]]                    # (viii)
                assert lat.leq[neg[tilde[neg[a]]]][neg[a]]               # (ix)
                assert impl[impl[impl[t1][a]][t1]][t1] == lat.top        # Peirce
                for b in range(n):
                    assert impl[a][tilde[b]] == impl[b][tilde[a]]        # (i)
        # membership equivalence over all candidates with a pBa reduct
        for lat in all_lattices(6):
            if lat.size == 1:
                continue
            for t1 in range(lat.size):
                cand = candidate(lat, t1)
                report = classify_algebra(cand)
                dne = cand.neg[cand.neg[t1]] == t1
                assert report.is_ccpba.holds == dne
                assert report.is_jp_algebra.holds == dne


AXIOM_INSTANCES = {"a": Atom("p"), "b": Atom("q"), "c": Atom("r")}


def test_criterion_5_soundness_suites(fixtures_dir):
    with criterion(5, "axiom soundness on the matching catalogs"):
        ccpba = enumerate_algebras("ccpba", 6)
        for sid in [f"A{i}" for i in range(1, 12)]:
            for scheme in SCHEMES[sid]:
                inst = substitute(scheme, AXIOM_INSTANCES)
                for alg in ccpba:
                    assert algebra_valid(alg, inst).valid, (sid, alg.name)
        em = substitute(SCHEMES["A12"][0], AXIOM_INSTANCES)
        for alg in ccpba:
            assert algebra_valid(alg, em).valid == \
                classify_algebra(alg).is_cvcpba.holds, alg.name
        kim = enumerate_algebras("kim", 5)
        for sid in [f"A{i}" for i in range(1, 18)]:
            for premises, concl in SEQUENT_RULES[sid]:
                if premises:
                    continue  # rules with premises are covered by the algebra laws
                lhs = substitute(concl[0], AXIOM_INSTANCES)
                rhs = substitute(concl[1], AXIOM_INSTANCES)
                for alg in kim:
                    assert sequent_valid(alg, lhs, rhs).valid, (sid, alg.name)
        a18l = substitute(SEQUENT_RULES["A18"][0][1][0], AXIOM_INSTANCES)
        a18r = substitute(SEQUENT_RULES["A18"][0][1][1], AXIOM_INSTANCES)
        for alg in kim:
            has_em = all(alg.lattice.join[i][alg.tilde[i]] == alg.lattice.top
                         for i in range(alg.size))
            assert sequent_valid(alg, a18l, a18r).valid == has_em, alg.name
        # derived-theorem goals: the bundled derivation targets
        ccpba5 = enumerate_algebras("ccpba", 5)
        for name in [f"ilm_{c}.prf" for c in "abcdefghij"]:
            _, _, script = parse_proof((fixtures_dir / name).read_text())
            for alg in ccpba5:
                assert algebra_valid(alg, script.goal).valid, (name, alg.name)
        for name in [f"kim_p{i}.prf" for i in range(1, 8)]:
            _, _, root = parse_proof((fixtures_dir / name).read_text())
            for alg in kim:
                assert sequent_valid(alg, root.lhs, root.rhs).valid, (name, alg.name)


BATTERY = [parse(t) for t in [
    "p | ~p", "!p -> ~p", "~~p", "~top", "!!~top <-> ~top",
    "~(p | q) <-> (~p & ~q)", "p -> ~!p", "!~p -> ~!p",
    "~p <-> (p -> ~top)", "bot -> p", "(p -> q) -> (~q -> ~p)", "~p | !!p",
]]


def _random_subnormal_frames(count: int, max_worlds: int):
    rng = random.Random(20260810)
    seen = set()
    frames = []
    while len(frames) < count:
        n = rng.randint(1, max_worlds)
        names = [f"w{i}" for i in range(n)]
        rows = [[i == j for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    rows[i][j] = True
        for k in range(n):
            for i in range(n):
                if rows[i][k]:
                    for j in range(n):
                        if rows[k][j]:
                            rows[i][j] = True
        leq = tuple(tuple(r) for r in rows)
        ups = frame_upsets(leq)
        y0 = rng.choice(ups)
        fr = SubNormalFrame(tuple(names), leq, y0)
        if dne_tilde_top_witness(fr) is not None:
            continue
        key = (leq, y0)
        if key in seen:
            continue
        seen.add(key)
        frames.append(fr)
    return frames


def test_criterion_6_translation_suite():
    with criterion(6, "round-trip and truth preservation for 200 frames"):
        frames = _random_subnormal_frames(200, 8)
        # make sure identity frames are represented
        extra = [SubNormalFrame(("a", "b"), ((True, False), (False, True)),
                                frozenset()),
                 SubNormalFrame(("a", "b"), ((True, True), (False, True)),
                                frozenset({0, 1}))]
        frames.extend(extra)
        rng = random.Random(414213)
        identity_count = 0
        for fr in frames:
            nh = phi(fr)
            assert psi(nh) == fr
            assert phi(psi(nh)) == nh
            if is_identity(fr):
                identity_count += 1
            assert is_identity(fr) == is_identity(nh)
            ups = frame_upsets(fr.leq)
            for _ in range(3):
                v = {"p": rng.choice(ups), "q": rng.choice(ups)}
                for f in BATTERY:
                    assert truth_set(fr, v, f) == truth_set(nh, v, f)
        assert len(frames) >= 200
        assert identity_count >= 10


def test_criterion_7_duality_suite():
    with criterion(7, "embeddings are isomorphisms at finite scale"):
        for alg in enumerate_algebras("ccpba", 6):
            emb = stone_embedding(alg)
            assert emb.injective and emb.onto, alg.name
        for fr in subnormal_frames(5):
            emb = frame_embedding(fr)
            assert emb.injective and emb.onto
        for alg in enumerate_algebras("kim", 5):
            emb = kim_algebra_embedding(alg)
            assert emb.injective and emb.onto, alg.name
        for fr in subnormal_frames(5):
            n = fr.size
            c_pairs = [(fr.worlds[i], fr.worlds[j])
                       for i in range(n) for j in range(n)
                       if any(fr.leq[i][z] and fr.leq[j][z] and z not in fr.y0
                              for z in range(n))]
            cf = build_compat(fr.worlds,
                              [(fr.worlds[i], fr.worlds[j]) for i in range(n)
                               for j in range(n) if fr.leq[i][j] and i != j],
                              c_pairs, require_subcompat=True)
            emb = kim_frame_embedding(cf)
            assert emb.injective and emb.onto


DNE_FORMULA = parse("!!~top <-> ~top")


def test_criterion_8_canonicity():
    with criterion(8, "frame-condition checks agree with validity search"):
        sub_candidates = subnormal_frames(5, require_d=False)
        for fr in sub_candidates:
            holds = dne_tilde_top_witness(fr) is None
            assert frame_valid(fr, DNE_FORMULA).valid == holds
        for fr in sub_candidates:
            n = fr.size
            rn1 = tuple(tuple(any(fr.leq[i][z] and fr.leq[j][z] for z in range(n))
                              for j in range(n)) for i in range(n))
            rn2 = tuple(tuple(any(fr.leq[i][z] and fr.leq[j][z] and z not in fr.y0
                                  for z in range(n)) for j in range(n))
                        for i in range(n))
            nh = NhatFrame(fr.worlds, fr.leq, rn1, rn2)
            others = [v for v in nhat_violations(nh) if v[0] != "3"]
            assert not others  # the common-bound relations satisfy (1) and (2)
            holds = dne_tilde_top_witness(nh) is None
            assert frame_valid(nh, DNE_FORMULA).valid == holds
            cf = CompatFrame(fr.worlds, fr.leq, rn2)
            holds = dne_tilde_top_witness(cf) is None
            assert frame_sequent_valid(cf, parse("!!~top"), parse("~top")).valid == holds
            assert frame_sequent_valid(cf, parse("~top"), parse("!!~top")).valid


def test_criterion_9_proof_fixtures(fixtures_dir):
    with criterion(9, "bundled proofs check; negatives rejected by class"):
        positives = (["top_three_lines.prf"]
                     + [f"ilm_{c}.prf" for c in "abcdefghij"]
                     + [f"kim_p{i}.prf" for i in range(1, 8)]
                     + ["kimprime_a16.prf", "kimprime_a17.prf"])
        for name in positives:
            mode, system, obj = parse_proof((fixtures_dir / name).read_text())
            check = check_hilbert if mode == "hilbert" else check_derivation
            assert check(system, obj).ok, name
        for name, kind in (("neg_bad_instance.prf", "bad-instance"),
                           ("neg_bad_mp.prf", "bad-mp"),
                           ("neg_premise_mismatch.prf", "premise-mismatch")):
            mode, system, obj = parse_proof((fixtures_dir / name).read_text())
            check = check_hilbert if mode == "hilbert" else check_derivation
            result = check(system, obj)
            assert not result.ok and result.error == kind, name


def test_criterion_10_countermodel_fixtures(a_prime, b_prime):
    with criterion(10, "countermodel searches return their canonical first witnesses"):
        # p | ~p is refuted at size 3 with the middle element
        first = countermodel_search("ILM", parse("p | ~p"), 3)
        assert first is not None
        alg, valuation = first
        mapping = iso_check(alg, a_prime)
        assert alg.size == 3 and mapping is not None
        assert mapping[valuation["p"]] == "a"
        # bot <-> ~top: refuted already by the 2-element algebra with the
        # distinguished element on top (frozen from the exhaustive scan); the
        # 3-element variant refutes it as well
        second = countermodel_search("ILM", parse("bot <-> ~top"), 3)
        assert second is not None
        alg2, _ = second
        assert alg2.size == 2 and alg2.tilde_one == alg2.lattice.top
        assert not algebra_valid(b_prime, parse("bot <-> ~top")).valid
        # ~~p |- p: same situation one language down
        goal = (parse("~~p"), parse("p"))
        third = countermodel_search("Kim", goal, 3)
        assert third is not None
        alg3, val3 = third
        assert alg3.size == 2 and val3 == {"p": "e0"}
        assert all(alg3.tilde[i] == alg3.lattice.top for i in range(2))
        assert not sequent_valid(kim_reduct(b_prime), *goal).valid
        # determinism: identical invocations yield identical witnesses
        assert countermodel_search("ILM", parse("p | ~p"), 3) == first
        assert countermodel_search("ILM", parse("bot <-> ~top"), 3) == second
        assert countermodel_search("Kim", goal, 3) == third
