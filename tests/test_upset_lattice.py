"""One upset lattice per order, masks end to end, for the catalogs and the bridge.

`lattice._upset_tables` holds an order's upset masks, their positions and
the inclusion, meet and join tables.  `all_lattices` reads each catalog
lattice from it (the upsets of the converse of its poset of
join-irreducibles), and `bridge._upset_lattice` only names the upsets after
the frame's worlds, so a complex algebra on the converse of a catalog poset
shares the catalog lattice's tables.  The catalogs must equal the former
frozenset enumeration (`oracles.all_lattices`, `oracles.grow_posets`), each
bridge lattice the one `oracles.lattice_from_upsets` builds from the
frozenset upsets, and every embedding's mapping the frozenset search the
bridge once ran (`oracles.algebra_embedding_image`,
`oracles.frame_embedding_image`).  A mask with no position is a
VerificationError naming the element or world, never a bare KeyError.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from twoneg import bridge, lattice
from twoneg.algebra import enumerate_algebras, read_algebra
from twoneg.bridge import (canonical_frame_ccpba, canonical_frame_kim,
                           complex_algebra_compat, complex_algebra_subnormal,
                           frame_embedding, kim_algebra_embedding, kim_frame_embedding,
                           stone_embedding, upset_name)
from twoneg.cli import main
from twoneg.errors import VerificationError
from twoneg.frames import (SubNormalFrame, build_subnormal, frame_upsets, read_frame,
                           write_frame)
from twoneg.lattice import all_lattices, all_posets

ROOT = Path(__file__).resolve().parent.parent


def _perfbench_gen():
    """perfbench/gen.py, loaded from its file and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                  ROOT / "perfbench" / "gen.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


GEN = _perfbench_gen()
POOL = GEN.duality_pool()
POOL_FRAMES = [read_frame(f[kind]) for f in POOL["frames"] for kind in ("subnormal", "compat")]


def _pool_algebras():
    for spec in POOL["algebras"]:
        names, pairs = GEN.chain_product(spec["dims"])
        key = "x".join(map(str, spec["dims"])) + f"/{spec['tilde_one']}"
        yield read_algebra(GEN.algebra_text(key, names, pairs, spec["tilde_one"]))


@pytest.fixture
def fork():
    return build_subnormal(["w0", "w1", "w2"], [("w0", "w1"), ("w0", "w2")], ["w2"])


def _matches_oracle(fr) -> bool:
    ups = frame_upsets(fr.leq)
    masks, pos, lat = bridge._upset_lattice(fr)
    return (lat == oracles.lattice_from_upsets(ups, [upset_name(fr.worlds, s) for s in ups])
            and masks == tuple(sum(1 << w for w in s) for s in ups)
            and pos == {mask: i for i, mask in enumerate(masks)})


def test_upset_lattice_matches_lattice_from_upsets_on_every_small_poset():
    frames = [SubNormalFrame(tuple(f"w{i}" for i in range(size)), leq, frozenset())
              for size, posets in all_posets(6).items() for leq in posets]
    assert len(frames) == 1 + 2 + 5 + 16 + 63 + 318
    assert all(_matches_oracle(fr) for fr in frames)


def test_upset_lattice_matches_lattice_from_upsets_on_the_duality_pool():
    assert len(POOL_FRAMES) == 2 * len(POOL["frames"]) > 0
    assert all(_matches_oracle(fr) for fr in POOL_FRAMES)


def test_all_lattices_match_the_frozenset_enumeration():
    for n in range(13):
        assert all_lattices(n) == oracles.all_lattices(n), n
    assert len(all_lattices(12)) == 342


def test_poset_growth_matches_the_frozenset_growth():
    assert all_posets(7) == {k: v for k, v in oracles.grow_posets(7).items() if k}


def test_catalog_and_complex_algebras_share_one_upset_lattice():
    """A complex algebra on the converse of a catalog poset reads the catalog
    lattice's own tables from the cache."""
    all_lattices.cache_clear()
    lattice._lattices.cache_clear()
    lattice._posets_by_downsets.cache_clear()
    lattice._upset_tables.cache_clear()
    info = lattice._upset_tables.cache_info
    catalog = all_lattices(5)
    assert info().misses == len(catalog) == 1 + 1 + 1 + 2 + 3
    before = info()
    posets = [leq for d in range(1, 6) for leq in lattice._posets_by_downsets(d)]
    assert len(posets) == len(catalog)
    for leq in posets:
        fr = SubNormalFrame(tuple(f"w{i}" for i in range(len(leq))), tuple(zip(*leq)),
                            frozenset())
        got = complex_algebra_subnormal(fr).lattice
        cat = next(lat for lat in catalog if lat.leq == got.leq)
        assert got.leq is cat.leq and got.meet is cat.meet and got.join is cat.join
    assert (info().hits, info().misses) == (before.hits + len(posets), before.misses)


def test_embedding_mappings_match_the_frozenset_search():
    algebras = list(_pool_algebras()) + list(enumerate_algebras("ccpba", 8))
    assert len(algebras) > len(POOL["algebras"])
    for alg in algebras:
        assert stone_embedding(alg).mapping == \
            oracles.algebra_embedding_image(alg, canonical_frame_ccpba(alg))
        assert kim_algebra_embedding(alg).mapping == \
            oracles.algebra_embedding_image(alg, canonical_frame_kim(alg))
    for fr in POOL_FRAMES:
        if isinstance(fr, SubNormalFrame):
            emb, alg = frame_embedding(fr), complex_algebra_subnormal(fr)
        else:
            emb, alg = kim_frame_embedding(fr), complex_algebra_compat(fr)
        assert emb.mapping == oracles.frame_embedding_image(fr, alg)


def test_one_upset_lattice_per_order(a_prime, fork):
    assert bridge._upset_tables is lattice._upset_tables
    info = bridge._upset_tables.cache_info
    bridge._upset_tables.cache_clear()
    stone_embedding(a_prime)
    kim_algebra_embedding(a_prime)
    assert info().misses == 1
    bridge._upset_tables.cache_clear()
    frame_embedding(fork)
    complex_algebra_subnormal(fork)
    assert info().misses == 1
    before = info()
    renamed = build_subnormal(["r", "a", "b"], [("r", "a"), ("r", "b")], ["b"])
    assert renamed.leq == fork.leq
    alg = complex_algebra_subnormal(renamed)
    assert (info().hits, info().misses) == (before.hits + 1, before.misses)
    assert alg.lattice.elements == ("{}", "{a}", "{b}", "{a,b}", "{r,a,b}")
    assert alg.element(alg.tilde_one) == "{b}"


def _drop_last_filter(monkeypatch):
    real = bridge._prime_filters
    monkeypatch.setattr(bridge, "_prime_filters", lambda leq: real(leq)[:-1])


def test_missing_positions_are_verification_errors(monkeypatch, a_prime, fork):
    _drop_last_filter(monkeypatch)
    with pytest.raises(VerificationError) as e:
        frame_embedding(fork)  # the upsets holding w2 are the dropped filter
    assert (e.value.kind, e.value.witness) == ("world-not-a-prime-filter", "w2")
    small = canonical_frame_ccpba(a_prime)  # one world: the filter {a, 1} dropped
    monkeypatch.undo()
    with pytest.raises(VerificationError) as e:
        bridge._algebra_embedding(a_prime, small, complex_algebra_subnormal)
    assert (e.value.kind, e.value.witness) == ("sigma-not-an-upset", "a")


def test_missing_positions_reach_the_cli_as_verification_errors(monkeypatch, capsys,
                                                               tmp_path, fork):
    path = tmp_path / "fork.frm"
    path.write_text(write_frame(fork, "fork"))
    _drop_last_filter(monkeypatch)
    code = main(["--porcelain", "duality", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "error=world-not-a-prime-filter" in out


def test_missing_positions_are_verification_errors_under_optimize():
    # python -O strips assert statements; the rejections must not rely on them
    code = ("from twoneg import bridge\n"
            "from twoneg.algebra import attach_negations\n"
            "from twoneg.errors import VerificationError\n"
            "from twoneg.frames import build_subnormal\n"
            "from twoneg.lattice import build_lattice\n"
            "fork = build_subnormal(['w0', 'w1', 'w2'], [('w0', 'w1'), ('w0', 'w2')], ['w2'])\n"
            "alg = attach_negations(build_lattice(['0', 'a', '1'], [('0', 'a'), ('a', '1')]), 0)\n"
            "def report(run):\n"
            "    try:\n"
            "        run()\n"
            "    except VerificationError as e:\n"
            "        print(e.kind, e.witness)\n"
            "real = bridge._prime_filters\n"
            "bridge._prime_filters = lambda leq: real(leq)[:-1]\n"
            "report(lambda: bridge.frame_embedding(fork))\n"
            "small = bridge.canonical_frame_ccpba(alg)\n"
            "bridge._prime_filters = real\n"
            "report(lambda: bridge._algebra_embedding(alg, small,\n"
            "                                         bridge.complex_algebra_subnormal))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["world-not-a-prime-filter w2", "sigma-not-an-upset a"]
