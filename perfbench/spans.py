"""Spans around the public functions of the twoneg modules, recorded from outside.

`Tracer.install` rebinds every public module-level function of each module
(including aliases other modules imported with `from ... import`) to a
wrapper that records a span: name, start, end, parent span and query id.
Self-recursive functions such as `algebra.evaluate` are left alone, since a
span per recursion step would swamp the measurement; their work is counted
as self time of the caller.  Spans live in compact arrays until `write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("cli", "formula", "lattice", "algebra", "frames", "translate", "bridge", "proofs")
CACHED = (("lattice", "all_posets"), ("lattice", "all_lattices"),
          ("algebra", "enumerate_algebras"), ("lattice", "derive_heyting"),
          ("frames", "frame_upsets"))
HARNESS = "bench"


def _is_recursive(fn) -> bool:
    code = getattr(fn, "__code__", None)
    return code is not None and fn.__name__ in code.co_names


def public_functions(mod):
    """(name, function) for the module-level functions defined in `mod` whose
    names are not private; `lru_cache` wrappers count as functions."""
    for name, obj in vars(mod).items():
        target = getattr(obj, "__wrapped__", obj)
        if (not name.startswith("_") and callable(obj) and not inspect.isclass(obj)
                and getattr(target, "__module__", None) == mod.__name__):
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.stack: list[int] = []
        self.current_query = -1
        self.suspended = False
        self.hooks: dict[str, object] = {}
        self.counts: Counter = Counter()
        self.errors: dict[str, Counter] = defaultdict(Counter)
        self.hook_time: dict[int, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []

    # -- spans -------------------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.current_query)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def root(self, name: str, query: int):
        """Context manager for a harness span that parents one query's calls."""
        tracer = self

        class _Root:
            def __enter__(self):
                tracer.current_query = query
                self.i = tracer.open(f"{HARNESS}.{name}")
                return self

            def __exit__(self, *exc):
                tracer.close(self.i)
                return False

        return _Root()

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        module = name.split(".", 1)[0]
        hook = self.hooks.get(name)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            misses = cache_info().misses if cache_info is not None else 0
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer.close(i)
                p = tracer.parent[i]
                if p < 0 or not tracer.names[tracer.name_id[p]].startswith(module + "."):
                    tracer.errors[module][getattr(e, "kind", type(e).__name__)] += 1
                raise
            tracer.close(i)
            if hook is not None:
                miss = cache_info is not None and cache_info().misses > misses
                t0 = time.perf_counter()
                tracer.suspended = True
                try:
                    hook(tracer, i, args, kwargs, result, miss)
                finally:
                    tracer.suspended = False
                    p = tracer.parent[i]
                    if p >= 0:
                        tracer.hook_time[p] += time.perf_counter() - t0
            return result

        wrapper.__traced__ = fn
        return wrapper

    def install(self, package: str = "twoneg") -> None:
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for name, fn in public_functions(mod):
                if _is_recursive(getattr(fn, "__wrapped__", fn)):
                    self.skipped.append(f"{short}.{name}")
                else:
                    wrapped[id(fn)] = self._wrap(fn, f"{short}.{name}")
        # rebind every alias, including names other modules imported directly
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, w)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    # -- aggregation -----------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name calls, self time and inclusive time, plus module totals."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for p, t in self.hook_time.items():
            child[p] += t
        calls: Counter = Counter()
        pairs: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        incl: defaultdict = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            p = self.parent[i]
            if p >= 0:
                pairs[f"{self.names[self.name_id[p]]}>{name}"] += 1
            busy[name] += dur - child[i]
            incl[name] += dur
        return {"calls": dict(calls), "pairs": dict(pairs), "busy": dict(busy), "incl": dict(incl),
                "errors": {m: dict(c) for m, c in self.errors.items()},
                "counts": dict(self.counts)}

    def has_child(self, i: int, name: str) -> bool:
        """Whether span i (just closed) has a direct child span named `name`."""
        nid = self._name_ids.get(name)
        return any(self.parent[k] == i and self.name_id[k] == nid
                   for k in range(i + 1, len(self.start)))

    def write(self, path: Path) -> None:
        """Spans as JSON lines: one header, then [span, parent, query, name, start, end]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["span", "parent", "query", "name",
                                            "start", "end"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(json.dumps([i, self.parent[i], self.query[i],
                                     self.names[self.name_id[i]],
                                     self.start[i], self.end[i]]) + "\n")


def cache_snapshot(package: str = "twoneg") -> dict[str, tuple[int, int]]:
    out = {}
    for short, fn_name in CACHED:
        fn = getattr(importlib.import_module(f"{package}.{short}"), fn_name)
        fn = getattr(fn, "__traced__", fn)
        info = fn.cache_info()
        out[f"{short}.{fn_name}"] = (info.hits, info.misses)
    return out


# -- counts derived from results ---------------------------------------------------

def _rank(indices, base: int) -> int:
    r = 0
    for i in indices:
        r = r * base + i
    return r + 1


def _algebra_valuations(alg, names, verdict) -> int:
    if verdict.valid:
        return alg.size ** len(names)
    return _rank([alg.lattice.elements.index(verdict.valuation[n]) for n in names], alg.size)


def _frame_valuations(fr, names, verdict) -> int:
    from twoneg import frames
    ups = list(frames.frame_upsets.__traced__.__wrapped__(fr.leq))
    if verdict.valid:
        return len(ups) ** len(names)
    idx = [ups.index(frozenset(fr.worlds.index(w) for w in verdict.valuation[n]))
           for n in names]
    return _rank(idx, len(ups))


def _lines_checked(proof, result) -> int:
    idx = [line.index for line in proof.lines]
    if result.ok or result.where not in idx:
        return len(idx)
    return idx.index(result.where) + 1


def _nodes_checked(root, result) -> int:
    order, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        order.append(node.label)
        stack.extend(reversed(node.children))
    if result.ok or result.where not in order:
        return len(order)
    return order.index(result.where) + 1


def install_hooks(tracer: Tracer) -> None:
    from twoneg.formula import And, atoms
    c = tracer.counts

    def all_posets(t, i, a, k, res, miss):
        if miss:
            c["lattice.posets_generated"] += sum(len(v) for v in res.values())

    def all_lattices(t, i, a, k, res, miss):
        if miss:
            c["lattice.lattices_kept"] += len(res)

    def enumerate_algebras(t, i, a, k, res, miss):
        if miss:
            c["algebra.catalog_entries"] += len(res)

    def algebra_valid(t, i, a, k, res, miss):
        c["algebra.valuations_tried"] += _algebra_valuations(a[0], atoms(a[1]), res)

    def sequent_valid(t, i, a, k, res, miss):
        c["algebra.valuations_tried"] += _algebra_valuations(a[0], atoms(And(a[1], a[2])), res)

    def frame_valid(t, i, a, k, res, miss):
        c["frames.valuations_tried"] += _frame_valuations(a[0], atoms(a[1]), res)

    def frame_sequent_valid(t, i, a, k, res, miss):
        c["frames.valuations_tried"] += _frame_valuations(a[0], atoms(And(a[1], a[2])), res)

    def prime_filters(t, i, a, k, res, miss):
        if t.has_child(i, "lattice.upsets_of"):
            c["bridge.filters_kept"] += len(res)

    def upsets_of(t, i, a, k, res, miss):
        p = t.parent[i]
        if p >= 0 and t.names[t.name_id[p]] == "bridge.prime_filters":
            c["bridge.upsets_scanned"] += len(res)

    def check_hilbert(t, i, a, k, res, miss):
        c["proofs.lines_checked"] += _lines_checked(a[1], res)

    def check_derivation(t, i, a, k, res, miss):
        c["proofs.lines_checked"] += _nodes_checked(a[1], res)

    for name, fn in {
        "lattice.all_posets": all_posets, "lattice.all_lattices": all_lattices,
        "algebra.enumerate_algebras": enumerate_algebras,
        "algebra.algebra_valid": algebra_valid, "algebra.sequent_valid": sequent_valid,
        "frames.frame_valid": frame_valid, "frames.frame_sequent_valid": frame_sequent_valid,
        "bridge.prime_filters": prime_filters, "lattice.upsets_of": upsets_of,
        "proofs.check_hilbert": check_hilbert, "proofs.check_derivation": check_derivation,
    }.items():
        tracer.hooks[name] = fn


def merge(aggs: list[dict]) -> dict:
    """Sum several `aggregate()` results (one per traced process)."""
    out: dict = {"calls": Counter(), "pairs": Counter(), "busy": Counter(),
                 "incl": Counter(), "errors": defaultdict(Counter),
                 "counts": Counter()}
    for agg in aggs:
        for key in ("calls", "pairs", "busy", "incl", "counts"):
            out[key].update(agg[key])
        for m, kinds in agg["errors"].items():
            out["errors"][m].update(kinds)
    return out


def cache_delta(before: dict, after: dict) -> dict[str, float]:
    out = {}
    for name, (hits, misses) in after.items():
        out[f"{name}.cache_hits"] = hits - before.get(name, (0, 0))[0]
        out[f"{name}.cache_misses"] = misses - before.get(name, (0, 0))[1]
    return out


BUSY = ("cli.main", "formula.parse", "lattice.all_posets", "lattice.canonical_form",
        "lattice.build_lattice", "lattice.upsets_of", "algebra.enumerate_algebras",
        "algebra.algebra_valid", "algebra.sequent_valid", "algebra.iso_check",
        "algebra.classify_algebra", "algebra.build_au", "frames.frame_valid",
        "frames.frame_sequent_valid", "frames.frame_upsets", "frames.truth_set",
        "translate.phi",
        "translate.psi", "bridge.prime_filters", "bridge.stone_embedding",
        "bridge.kim_algebra_embedding", "bridge.frame_embedding",
        "bridge.kim_frame_embedding", "bridge.complex_algebra_subnormal",
        "bridge.complex_algebra_compat", "proofs.countermodel_search",
        "proofs.parse_proof", "proofs.check_hilbert", "proofs.check_derivation")
CALLS = ("formula.parse", "lattice.canonical_form", "lattice.build_lattice",
         "frames.truth_set", "bridge.prime_filters")
COUNTS = ("lattice.posets_generated", "lattice.lattices_kept", "algebra.catalog_entries",
          "algebra.valuations_tried", "frames.valuations_tried", "bridge.upsets_scanned",
          "proofs.lines_checked")


def layer_metrics(agg: dict, caches: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit)."""
    busy, incl, calls, counts = agg["busy"], agg["incl"], agg["calls"], agg["counts"]
    m: dict[str, tuple[float, str]] = {}
    for name in BUSY:
        m[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    for name in CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in COUNTS:
        m[name] = (counts.get(name, 0), "count")
    for name, value in caches.items():
        m[name] = (value, "count")

    def ratio(a, b):
        return a / b if b else 0.0

    m["lattice.distributive_yield"] = (ratio(counts.get("lattice.lattices_kept", 0),
                                             counts.get("lattice.posets_generated", 0)), "ratio")
    m["bridge.prime_filter_yield"] = (ratio(counts.get("bridge.filters_kept", 0),
                                            counts.get("bridge.upsets_scanned", 0)), "ratio")
    m["algebra.valuations_per_s"] = (ratio(
        counts.get("algebra.valuations_tried", 0),
        incl.get("algebra.algebra_valid", 0.0) + incl.get("algebra.sequent_valid", 0.0)), "1/s")
    m["frames.valuations_per_s"] = (ratio(
        counts.get("frames.valuations_tried", 0),
        incl.get("frames.frame_valid", 0.0) + incl.get("frames.frame_sequent_valid", 0.0)), "1/s")
    m["proofs.algebras_scanned"] = (
        agg["pairs"].get("proofs.countermodel_search>algebra.algebra_valid", 0)
        + agg["pairs"].get("proofs.countermodel_search>algebra.sequent_valid", 0), "count")
    for mod in MODULES:
        m[f"{mod}.busy_s"] = (sum(v for k, v in busy.items() if k.startswith(mod + ".")), "s")
        m[f"{mod}.errors"] = (sum(agg["errors"].get(mod, {}).values()), "count")
    return m
