"""The three workloads: set-up, the queries of one pass, and answer checks.

A pass is the workload's whole query pool in a seeded order, so every run
answers the same mix of queries and only order, atom names and relabellings
depend on the seed.  Each query is a `Query`: `run()` calls the program and
returns its answer, `canon(answer)` is the text whose digest `record.json`
holds, and `verify(answer)` re-checks the answer independently of the record
(None when it holds, else a reason).  `Outcome` times the queries of a loop
and counts every failed check without stopping the loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import speed
import tables

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = HERE / "out"
# OEIS A006982: distributive lattices on n elements, n = 1..8.
A006982 = (1, 1, 1, 2, 3, 5, 8, 15)


@dataclass
class Query:
    key: str
    kind: str
    run: Callable[[], object]
    canon: Callable[[object], str]
    verify: Callable[[object], str | None]
    # queries whose latencies are pooled into one median; default: repeats of this query
    group: str = ""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_record() -> dict[str, str]:
    path = HERE / "record.json"
    return json.loads(path.read_text()) if path.is_file() else {}


class Outcome:
    """Per-query latencies and check results of one loop."""

    def __init__(self, record: dict[str, str]):
        self.record = record
        self.samples: list[tuple[str, str, float]] = []  # (group, kind, seconds)
        self.starts: list[float] = []  # perf_counter at each query's start
        self.ok: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def answer(self, q) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            ans = q.run()
        except Exception as e:  # a crash is a failed query, never an aborted run
            dt = time.perf_counter() - t0
            reason = f"{type(e).__name__}: {e}"
        else:
            dt = time.perf_counter() - t0
            reason = self._check(q, ans)
        self.samples.append((q.group or q.key, q.kind, dt))
        self.starts.append(t0)
        self.ok.append(reason is None)
        if reason is not None:
            self._bad(q, reason)
        return dt

    def _check(self, q, ans) -> str | None:
        try:
            got = digest(q.canon(ans))
            reason = q.verify(ans)
        except Exception as e:
            return f"check raised {type(e).__name__}: {e}"
        want = self.record.get(q.key)
        if want is None:
            return "no recorded answer"
        if got != want:
            return f"answer digest {got} != recorded {want}"
        return reason

    def _bad(self, q, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{q.key[:120]!r}: {why}")

    def global_checks(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:20])


def _split_goal(text: str):
    lhs, sep, rhs = text.partition("|-")
    return (lhs, rhs) if sep else None


def _rename_text(text: str, ren: dict[str, str]) -> str:
    return re.sub(r"[a-z][a-zA-Z0-9_]*", lambda m: ren.get(m.group(), m.group()), text)


# -- cold-catalog -----------------------------------------------------------------

class ColdCatalog:
    """Fresh `twoneg --porcelain` processes; the parent only spawns and checks."""

    name = "cold-catalog"

    def __init__(self, seed: int):
        self.seed = seed
        self.record = load_record()
        self.counts = json.loads((FIXTURES / "enumeration_counts.json").read_text())
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.timeout = gen.CAPS["cold-catalog"]["query_timeout_s"]
        # set by the timed run: samples host speed while each query's process runs
        self.meter = None
        self.cpu_s: list[float] = []  # CPU seconds of each query's process

    def warm_up(self) -> list[str]:
        return []

    def plan(self, k: int) -> list[list[str]]:
        return gen.cold_pass(self.seed * 1009 + k)

    def pass_queries(self, k: int) -> list[Query]:
        return [self.query(argv) for argv in self.plan(k)]

    def query(self, argv: list[str], runner=None) -> Query:
        key = "cold|" + "\x1f".join(argv)
        cmd = [sys.executable, "-m", "twoneg.cli", "--porcelain"] + argv

        def run():
            if runner is not None:
                return runner(argv)
            cpu0 = speed.children_cpu_s()
            try:
                with self.meter.watch() if self.meter else contextlib.nullcontext():
                    p = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                       timeout=self.timeout, cwd=ROOT)
            finally:
                self.cpu_s.append(speed.children_cpu_s() - cpu0)
            return p.returncode, p.stdout, p.stderr

        def canon(ans):
            return f"{ans[0]}\n{ans[1]}"

        def verify(ans):
            rc, out, err = ans
            if "Traceback" in err or rc not in (0, 1):
                return f"exit {rc}: {err.strip()[-200:]}"
            if argv[0] != "enumerate":
                return None
            kv = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
            cls, size = argv[2], int(argv[4])
            count = int(kv.get("count", -1))
            if cls == "pba" and count != A006982[size - 1]:
                return f"pba count {count} at size {size}, A006982 says {A006982[size - 1]}"
            want = self.counts.get(str(size), {}).get(cls)
            if want is not None and count != want:
                return f"{cls} count {count} at size {size}, fixture says {want}"
            return None

        size = argv[argv.index("--size" if argv[0] == "enumerate" else "--max-size") + 1]
        return Query(key, argv[0], run, canon, verify, group=f"size-{size}")


# -- warm-validity ----------------------------------------------------------------

class WarmValidity:
    """Library calls over catalogs built once in set-up."""

    name = "warm-validity"

    def __init__(self, seed: int):
        self.seed = seed
        self.record = load_record()
        self.pool = gen.warm_pool()
        self.max_size = gen.CAPS["warm-validity"]["max_size"]
        rng = random.Random(seed)
        names = list(gen.ATOMS)
        rng.shuffle(names)
        # atom renaming: the seed changes names, never the search order or cost
        self.ren = dict(zip(gen.ATOMS, names))
        self.back = {v: k for k, v in self.ren.items()}
        self.proofs = {name: (FIXTURES / name).read_text()
                       for name in gen.proof_fixtures(ROOT)}

    def warm_up(self) -> list[str]:
        """Build every catalog the queries use and the frames; return failed
        seed-independent checks (catalog counts)."""
        from twoneg import algebra, bridge, frames
        problems = []
        counts = json.loads((FIXTURES / "enumeration_counts.json").read_text())
        for cls in gen.CLASSES:
            cat = algebra.enumerate_algebras(cls, self.max_size, guard=None)
            for size_s, want in counts.items():
                got = sum(1 for a in cat if a.size == int(size_s))
                if got != want[cls]:
                    problems.append(f"{cls} size {size_s}: {got} != {want[cls]}")
            if cls == "pba":
                for size in range(2, self.max_size + 1):
                    got = sum(1 for a in cat if a.size == size)
                    if got != A006982[size - 1]:
                        problems.append(f"pba size {size}: {got} != A006982 {A006982[size - 1]}")
        kim = algebra.enumerate_algebras("kim", self.max_size, guard=None)
        self.frames = {}
        for _, kind, src, _ in self.pool["frame"]:
            if src in self.frames:
                continue
            if kind == "compat":
                self.frames[src] = bridge.canonical_frame_kim(kim[int(src.split(":")[1])])
            else:
                self.frames[src] = frames.read_frame(src)
        return problems

    def pass_queries(self, k: int) -> list[Query]:
        rng = random.Random(self.seed * 1009 + k)
        qs = [self._cm(q) for q in self.pool["cm"]]
        qs += [self._sweep(q) for q in self.pool["sweep"]]
        qs += [self._frame(q) for q in self.pool["frame"]]
        qs += [self._proof(name) for name in self.proofs]
        rng.shuffle(qs)
        return qs

    def _goal(self, text: str):
        from twoneg import formula
        parts = _split_goal(text)
        if parts is None:
            return formula.parse(text)
        return formula.parse(parts[0]), formula.parse(parts[1])

    def _unrename(self, valuation) -> list:
        return sorted((self.back[k], v) for k, v in valuation.items())

    def _cm(self, q) -> Query:
        _, system, size, text = q
        renamed = _rename_text(text, self.ren)
        from twoneg import proofs

        def run():
            goal = self._goal(renamed)
            return goal, proofs.countermodel_search(system, goal, size)

        def canon(ans):
            found = ans[1]
            if found is None:
                return "none"
            return f"{found[0].name}|{self._unrename(found[1])}"

        def verify(ans):
            goal, found = ans
            if found is not None and not tables.algebra_falsifies(found[0], goal, found[1]):
                return f"witness does not falsify in {found[0].name}"
            return None

        return Query(f"cm|{system}|{size}|{text}", "countermodel", run, canon, verify)

    def _sweep(self, q) -> Query:
        _, cls, size, text = q
        renamed = _rename_text(text, self.ren)
        from twoneg import algebra

        def run():
            goal = self._goal(renamed)
            cat = algebra.enumerate_algebras(cls, size, guard=None)
            if isinstance(goal, tuple):
                return goal, cat, [algebra.sequent_valid(a, goal[0], goal[1]) for a in cat]
            return goal, cat, [algebra.algebra_valid(a, goal) for a in cat]

        def canon(ans):
            return ";".join("1" if v.valid else f"0{self._unrename(v.valuation)}"
                            for v in ans[2])

        def verify(ans):
            goal, cat, verdicts = ans
            for a, v in zip(cat, verdicts):
                if not v.valid and not tables.algebra_falsifies(a, goal, v.valuation):
                    return f"witness does not falsify in {a.name}"
            return None

        return Query(f"sweep|{cls}|{size}|{text}", "sweep", run, canon, verify)

    def _frame(self, q) -> Query:
        _, kind, src, text = q
        renamed = _rename_text(text, self.ren)
        from twoneg import frames, translate

        def run():
            goal = self._goal(renamed)
            fr = self.frames[src]
            if kind == "nhat":
                fr = translate.phi(fr)
            if isinstance(goal, tuple):
                return goal, fr, frames.frame_sequent_valid(fr, goal[0], goal[1])
            return goal, fr, frames.frame_valid(fr, goal)

        def canon(ans):
            v = ans[2]
            if v.valid:
                return "1"
            return f"0{self._unrename(v.valuation)}@{v.world}"

        def verify(ans):
            goal, fr, v = ans
            if not v.valid and not tables.frame_falsifies(fr, goal, v.valuation, v.world):
                return "frame witness does not falsify"
            return None

        return Query(f"frame|{kind}|{digest(src)}|{text}", "frame", run, canon, verify)

    def _proof(self, name: str) -> Query:
        from twoneg import proofs
        text = self.proofs[name]

        def run():
            mode, system, obj = proofs.parse_proof(text)
            if mode == "hilbert":
                return mode, system, obj, proofs.check_hilbert(system, obj)
            return mode, system, obj, proofs.check_derivation(system, obj)

        def canon(ans):
            r = ans[3]
            return f"{ans[0]}|{ans[1]}|{r.ok}|{r.error}|{r.where}|{r.detail}"

        def verify(ans):
            ok = ans[3].ok
            if ok == name.startswith("neg_"):
                return f"proof {name} {'accepted' if ok else 'rejected'}"
            return None

        return Query(f"proof|{name}", "proof", run, canon, verify)


# -- duality ------------------------------------------------------------------------

def _embedding_text(e) -> str:
    return f"{e.mapping}|{sorted(e.checks.items())}|{e.injective}|{e.onto}"


def _onto(e) -> str | None:
    return None if e.onto and e.injective else "finite embedding not onto"


class Duality:
    """Prime filters, embeddings and isomorphism on generated algebras and frames."""

    name = "duality"

    def __init__(self, seed: int):
        self.seed = seed
        self.record = load_record()
        self.pool = gen.duality_pool()

    def warm_up(self) -> list[str]:
        from twoneg import algebra, frames
        rng = random.Random(self.seed)
        self.algebras = []
        for spec in self.pool["algebras"]:
            names, pairs = gen.chain_product(spec["dims"])
            key = "x".join(str(d) for d in spec["dims"]) + f"/{spec['tilde_one']}"
            alg = algebra.read_algebra(gen.algebra_text(key, names, pairs, spec["tilde_one"]))
            copy_text = gen.relabelled(rng, names, pairs, spec["tilde_one"])
            copy = algebra.read_algebra(copy_text)
            u = tuple(alg.lattice.index(e) for e in spec["u"])
            self.algebras.append((key, alg, copy, u))
        self.frames = [(f"frame{i}", frames.read_frame(f["subnormal"]),
                        frames.read_frame(f["compat"]))
                       for i, f in enumerate(self.pool["frames"])]
        return []

    def pass_queries(self, k: int) -> list[Query]:
        rng = random.Random(self.seed * 1009 + k)
        qs = []
        for key, alg, copy, u in self.algebras:
            qs += self._algebra_queries(key, alg, copy, u)
        for key, sub, comp in self.frames:
            qs += self._frame_queries(key, sub, comp)
        rng.shuffle(qs)
        return qs

    def _algebra_queries(self, key, alg, copy, u) -> list[Query]:
        from twoneg import algebra, bridge

        def iso_verify(m):
            if m is None or not tables.is_isomorphism(alg, copy, m):
                return "no isomorphism to the relabelled copy"
            return None

        return [
            Query(f"classify|{key}", "classify", lambda: algebra.classify_algebra(alg),
                  repr, lambda r: None if r.is_ccpba.holds else "not a ccpba"),
            Query(f"stone|{key}", "stone", lambda: bridge.stone_embedding(alg),
                  _embedding_text, _onto),
            Query(f"kimemb|{key}", "kim_embedding", lambda: bridge.kim_algebra_embedding(alg),
                  _embedding_text, _onto),
            Query(f"canonical|{key}", "canonical_file",
                  lambda: bridge.canonical_frame_file(alg, "subnormal"), str, lambda t: None),
            Query(f"au|{key}|{u}", "build_au",
                  lambda: algebra.write_algebra(algebra.build_au(alg, u[0], u[1])),
                  str, lambda t: None),
            Query(f"iso|{key}", "iso_check", lambda: algebra.iso_check(alg, copy),
                  lambda m: str(m is not None), iso_verify),
        ]

    def _frame_queries(self, key, sub, comp) -> list[Query]:
        from twoneg import algebra, bridge, frames, translate

        def round_trip():
            nh = translate.phi(sub)
            return frames.write_frame(nh), translate.psi(nh) == sub

        def kim_tables(k):
            return f"{k.lattice.elements}|{k.lattice.leq}|{k.neg}|{k.tilde}"

        return [
            Query(f"frame_emb|{key}", "frame_embedding", lambda: bridge.frame_embedding(sub),
                  _embedding_text, _onto),
            Query(f"kim_frame_emb|{key}", "kim_frame_embedding",
                  lambda: bridge.kim_frame_embedding(comp), _embedding_text, _onto),
            Query(f"complex_sub|{key}", "complex_subnormal",
                  lambda: algebra.write_algebra(bridge.complex_algebra_subnormal(sub)),
                  str, lambda t: None),
            Query(f"complex_compat|{key}", "complex_compat",
                  lambda: bridge.complex_algebra_compat(comp), kim_tables, lambda k: None),
            Query(f"phi_psi|{key}", "phi_psi", round_trip, lambda r: r[0],
                  lambda r: None if r[1] else "psi(phi(F)) != F"),
        ]


WORKLOADS = {w.name: w for w in (ColdCatalog, WarmValidity, Duality)}
