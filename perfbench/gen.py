"""Seeded input generators for the benchmark.

Everything here is plain data (formula text, frame files, chain shapes) so
the program under test only ever sees generated inputs.  Query *pools* are
drawn once from the fixed POOL_SEED, because `record.json` holds the expected
answer of every pooled query; a workload seed then picks, orders and
relabels queries from the pools.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
CAPS = json.loads((HERE / "caps.json").read_text())

POOL_SEED = 20101594

HILBERT_FULL = ("ILM", "ILM-v", "ILM1", "ILM2")
HILBERT_JP = ("JP'",)
SEQUENT_SYSTEMS = ("Kim", "Kim-v", "Kim'")
CLASSES = ("pba", "ccpba", "cvcpba", "kim", "kim_vee")
ATOMS = ("p", "q", "r")


# -- formulas ------------------------------------------------------------------

def _grow(rng: random.Random, names, depth: int, impl: bool, neg: bool, bot: bool) -> str:
    binary = ["&", "|"] + (["->", "->"] if impl else [])
    unary = ["~"] + (["!"] if neg else [])
    leaves = list(names) * 3 + ["top"] + (["bot"] if bot else [])

    def grow(d: int) -> str:
        roll = rng.random()
        if d == 0 or roll < 0.15:
            return rng.choice(leaves)
        if roll < 0.40:
            return rng.choice(unary) + grow(d - 1)
        return f"({grow(d - 1)} {rng.choice(binary)} {grow(d - 1)})"

    return grow(depth)


def formula(rng: random.Random, n_atoms: int, depth: int, *, impl: bool = True,
            neg: bool = True, bot: bool = True) -> str:
    """Fully parenthesised formula text using exactly the first n_atoms atoms."""
    names = ATOMS[:n_atoms]
    while True:
        text = _grow(rng, names, depth, impl, neg, bot)
        if _words(text) >= set(names):
            return text


def _words(text: str) -> set[str]:
    for ch in "()&|->!~":
        text = text.replace(ch, " ")
    return set(text.split())


def sequent(rng: random.Random, n_atoms: int, depth: int) -> str:
    """`lhs |- rhs` over the implication-free language, all atoms used."""
    names = ATOMS[:n_atoms]
    while True:
        lhs = _grow(rng, names, depth, False, True, True)
        rhs = _grow(rng, names, depth, False, True, True)
        if _words(lhs + " " + rhs) >= set(names):
            return f"{lhs} |- {rhs}"


# -- frames ----------------------------------------------------------------------

def _closure(n: int, edges) -> list[list[bool]]:
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in edges:
        leq[a][b] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


def _upsets(leq) -> list[frozenset[int]]:
    n = len(leq)
    out = []
    for mask in range(1 << n):
        s = frozenset(i for i in range(n) if mask >> i & 1)
        if all(j in s for i in s for j in range(n) if leq[i][j]):
            out.append(s)
    return out


def _condition_d_closure(leq, y0: set[int]) -> set[int]:
    """Smallest upset containing y0 that satisfies condition (D)."""
    n = len(leq)
    y = set(y0)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            if x in y:
                continue
            if all(any(leq[v][z] and z in y for z in range(n))
                   for v in range(n) if leq[x][v]):
                y.update(j for j in range(n) if leq[x][j])
                changed = True
    return y


def subnormal_frame(rng: random.Random, n: int, max_upsets: int, min_upsets: int = 1):
    """(worlds, leq table, y0) for a random sub-normal frame whose upset count
    lies in [min_upsets, max_upsets]."""
    while True:
        p = rng.uniform(0.25, 0.7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        leq = _closure(n, edges)
        ups = _upsets(leq)
        if not min_upsets <= len(ups) <= max_upsets:
            continue
        seed = {x for x in range(n) if rng.random() < 0.25}
        y0 = {j for x in seed for j in range(n) if leq[x][j]}
        y0 = _condition_d_closure(leq, y0)
        worlds = [f"w{i}" for i in range(n)]
        return worlds, leq, frozenset(y0)


def compat_relation(leq, y0) -> list[list[bool]]:
    """x C y iff x and y share an upper bound outside y0; with y0 satisfying
    (D) this is a sub-compatibility frame whose quiet worlds are y0."""
    n = len(leq)
    return [[any(leq[x][z] and leq[y][z] and z not in y0 for z in range(n))
             for y in range(n)] for x in range(n)]


def frame_text(kind: str, name: str, worlds, leq, y0=frozenset(), c=None) -> str:
    n = len(worlds)
    lines = [f"frame {kind} {name}", "worlds " + " ".join(worlds)]
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b]:
                lines.append(f"leq {worlds[a]} {worlds[b]}")
    if kind == "subnormal" and y0:
        lines.append("y0 " + " ".join(worlds[i] for i in sorted(y0)))
    if kind == "compat":
        for a in range(n):
            for b in range(n):
                if c[a][b]:
                    lines.append(f"c {worlds[a]} {worlds[b]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# -- chain products ----------------------------------------------------------------

def chain_product(dims) -> tuple[list[str], list[tuple[str, str]]]:
    """Element names and covering pairs of the product of chains of the given lengths."""
    elems = list(itertools.product(*[range(d) for d in dims]))
    names = ["x" + "".join(str(v) for v in e) for e in elems]
    index = {e: i for i, e in enumerate(elems)}
    pairs = []
    for i, e in enumerate(elems):
        for k, d in enumerate(dims):
            if e[k] + 1 < d:
                up = e[:k] + (e[k] + 1,) + e[k + 1:]
                pairs.append((names[i], names[index[up]]))
    return names, pairs


def regular_elements(dims) -> list[str]:
    """Names of the elements fixed by double pseudocomplement: every coordinate
    at the bottom or the top of its chain."""
    return ["x" + "".join(str(v) for v in e)
            for e in itertools.product(*[(0, d - 1) for d in dims])]


def algebra_text(name: str, names, pairs, tilde_one: str | None) -> str:
    lines = [f"algebra {name}", "elements " + " ".join(names)]
    lines += [f"leq {a} {b}" for a, b in pairs]
    if tilde_one is not None:
        lines.append(f"tilde_one {tilde_one}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def relabelled(rng: random.Random, names, pairs, tilde_one):
    """The same algebra with element names permuted and listed in a shuffled order."""
    fresh = [f"y{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    ren = dict(zip(names, fresh))
    order = list(fresh)
    rng.shuffle(order)
    new_pairs = [(ren[a], ren[b]) for a, b in pairs]
    rng.shuffle(new_pairs)
    return algebra_text("copy", order, new_pairs, ren[tilde_one])


# -- pools -------------------------------------------------------------------------

def cold_pool() -> dict:
    """Formula and sequent pools for the fresh-process CLI queries (2 atoms)."""
    rng = random.Random(POOL_SEED)
    cap = CAPS["cold-catalog"]
    return {
        "full": [formula(rng, 2, 3) for _ in range(cap["pool_formulas"])],
        "jp": [formula(rng, 2, 3, neg=False, bot=False)
               for _ in range(cap["pool_formulas_jp"])],
        "sequent": [sequent(rng, 2, 2) for _ in range(cap["pool_sequents"])],
    }


def cold_universe() -> list[list[str]]:
    """Every CLI argument vector a cold-catalog plan can contain."""
    pool = cold_pool()
    cap = CAPS["cold-catalog"]
    out = []
    for size in cap["countermodel_sizes"]:
        for system in HILBERT_FULL:
            out += [cm_argv(system, size, f) for f in pool["full"]]
        out += [cm_argv("JP'", size, f) for f in pool["jp"]]
    for size in cap["sequent_sizes"]:
        for system in SEQUENT_SYSTEMS:
            out += [seq_argv(system, size, s) for s in pool["sequent"]]
    for size in cap["enumerate_sizes"]:
        out += [enum_argv(c, size) for c in CLASSES]
    return out


def cm_argv(system: str, size: int, f: str) -> list[str]:
    return ["countermodel", "--system", system, "--max-size", str(size), f]


def seq_argv(system: str, size: int, s: str) -> list[str]:
    return ["countermodel", "--system", system, "--max-size", str(size), "--sequent", s]


def enum_argv(cls: str, size: int) -> list[str]:
    return ["enumerate", "--class", cls, "--size", str(size)]


def cold_pass(seed: int) -> list[list[str]]:
    """One cold-catalog pass: a fixed mix of sizes, systems and classes (one
    size-8 countermodel, eight size-7, four size-6, four small queries; every
    system and class) with the goals drawn from the seed, in seeded order.
    The catalog build sets a query's cost, so every seed's pass costs alike.
    Most queries are size 7, so that the median query is mostly catalog
    building rather than interpreter start-up."""
    rng = random.Random(seed)
    pool = cold_pool()

    def hilbert(system, size):
        return cm_argv(system, size, rng.choice(pool["jp"] if system == "JP'" else pool["full"]))

    def seq(system, size):
        return seq_argv(system, size, rng.choice(pool["sequent"]))

    opener = hilbert("ILM", 8)
    body = [hilbert("ILM", 7), hilbert("ILM-v", 7), hilbert("ILM2", 7), hilbert("JP'", 7),
            seq("Kim", 7), seq("Kim-v", 7), enum_argv("ccpba", 7), enum_argv("kim", 7),
            hilbert("ILM1", 6), seq("Kim'", 6), enum_argv("pba", 6), enum_argv("cvcpba", 6),
            hilbert("ILM1", 5), seq("Kim'", 5), enum_argv("kim_vee", 5), enum_argv("kim", 4)]
    rng.shuffle(body)
    return [opener] + body


def warm_pool() -> dict:
    """Query pools for the in-process validity workload."""
    rng = random.Random(POOL_SEED + 1)
    cap = CAPS["warm-validity"]
    pool: dict[str, list] = {"cm": [], "sweep": [], "frame": []}
    for _ in range(cap["pool_countermodel"]):
        if rng.random() < 0.7:
            system = rng.choice(HILBERT_FULL + HILBERT_JP)
            jp = system == "JP'"
            goal = formula(rng, rng.choice((2, 3)), 3, neg=not jp, bot=not jp)
        else:
            system = rng.choice(SEQUENT_SYSTEMS)
            goal = sequent(rng, rng.choice((2, 3)), 2)
        pool["cm"].append(("cm", system, cap["max_size"], goal))
    for _ in range(cap["pool_sweep"]):
        cls = rng.choice(("ccpba", "cvcpba", "kim", "kim_vee"))
        if cls in ("kim", "kim_vee"):
            goal = sequent(rng, rng.choice((2, 3)), 2)
        else:
            goal = formula(rng, rng.choice((2, 3)), 3)
        pool["sweep"].append(("sweep", cls, cap["max_size"], goal))
    frames = []
    lo, hi = cap["frame_valuations"]
    while len(frames) < cap["pool_frames"]:
        n = rng.randint(*cap["frame_worlds"])
        kind = ("subnormal", "nhat", "compat")[len(frames) % 3]
        n_atoms = rng.choice((2, 3))
        if kind == "compat":
            # canonical frames of catalog Kim algebras, built in set-up
            idx = rng.randrange(cap["compat_catalog_prefix"])
            goal = sequent(rng, n_atoms, 2)
            frames.append(("frame", "compat", f"kim:{idx}", goal))
            continue
        worlds, leq, y0 = subnormal_frame(rng, n, int(hi ** (1 / n_atoms)),
                                          int(lo ** (1 / n_atoms)) + 1)
        text = frame_text("subnormal", f"g{len(frames)}", worlds, leq, y0)
        if rng.random() < 0.5:
            goal = formula(rng, n_atoms, 3)
        else:
            goal = sequent(rng, n_atoms, 2)
        frames.append(("frame", kind, text, goal))
    pool["frame"] = frames
    return pool


def proof_fixtures(root: Path) -> list[str]:
    return sorted(p.name for p in (root / "tests" / "fixtures").glob("*.prf"))


def duality_pool() -> dict:
    """Algebra inputs (chain product, ~1, interval pair) and frame inputs."""
    rng = random.Random(POOL_SEED + 2)
    cap = CAPS["duality"]
    algebras = []
    for dims in cap["chain_shapes"]:
        names, pairs = chain_product(dims)
        size = len(names)
        for t1 in regular_elements(dims):
            # build_au needs u1 <= u2; take a random comparable pair
            a, b = sorted(rng.sample(range(size), 2))
            ea = tuple(int(ch) for ch in names[a][1:])
            eb = tuple(int(ch) for ch in names[b][1:])
            lo = "x" + "".join(str(min(x, y)) for x, y in zip(ea, eb))
            hi = "x" + "".join(str(max(x, y)) for x, y in zip(ea, eb))
            algebras.append({"dims": list(dims), "tilde_one": t1, "u": [lo, hi]})
    frames = []
    for i in range(cap["pool_frames"]):
        n = rng.randint(*cap["frame_worlds"])
        worlds, leq, y0 = subnormal_frame(rng, n, cap["frame_max_upsets"])
        frames.append({
            "subnormal": frame_text("subnormal", f"d{i}", worlds, leq, y0),
            "compat": frame_text("compat", f"c{i}", worlds, leq,
                                 c=compat_relation(leq, y0)),
        })
    return {"algebras": algebras, "frames": frames}
