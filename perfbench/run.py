"""twoneg benchmark: one command, three workloads, end-to-end or traced metrics.

    python3 perfbench/run.py --workload warm-validity --seed 1 --seconds 15 --trace 0

Workloads (all closed loops, one client, one query at a time):

* cold-catalog  -- each query is a fresh `twoneg --porcelain` process
  (countermodel / enumerate, sizes 4-8); the catalog is rebuilt every time.
* warm-validity -- library calls over catalogs built in set-up: countermodel
  search, validity sweeps, frame validity, proof checking.
* duality       -- prime filters, embeddings, complex algebras, translations
  and isomorphism checks on generated chain products and small frames.

A run answers whole passes over the workload's query pool until at least
`--seconds` of query time is measured, so every run answers the same mix.
Timings are reported at reference speed: each is scaled by the time of a
fixed kernel measured around it on the same CPU (speed.py), so that the
host's changing speed cancels; the raw wall-clock figures are printed as
info lines.
`--trace 0` prints the end-to-end metrics; `--trace 1` runs one pass
untraced and one traced (in fresh processes), prints the per-layer metrics
and writes the spans to perfbench/out/.  The last stdout line is the JSON
result.  Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import work

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up runs at least SETUP_SAMPLES times and for at least SETUP_MIN_S, so
# that the median of a short set-up spans several changes of host speed
SETUP_SAMPLES = 5
SETUP_MIN_S = 3.0


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _metadata() -> dict:
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            rev = ref
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "git_revision": rev, "platform": platform.platform()}


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _workload(name: str, seed: int):
    cls = work.WORKLOADS.get(name)
    if cls is None:
        _fail(f"unknown workload {name!r}; choose from {sorted(work.WORKLOADS)}")
    return cls(seed)


def _setup_child(args, meter: speed.Meter) -> tuple[float, float]:
    """Wall time, and CPU time at reference speed, of a fresh process that
    only sets the workload up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--phase", "setup"]
    cpu0 = speed.children_cpu_s()
    with meter.watch():
        t0 = time.perf_counter()
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        t1 = time.perf_counter()
    if p.returncode != 0:
        _fail(f"set-up failed: {p.stderr.strip()[-400:]}")
    return t1 - t0, (speed.children_cpu_s() - cpu0) * meter.scale(t0, t1)


def _loop(wl, outcome: work.Outcome, seconds: float, meter: speed.Meter) -> list[float]:
    """Whole passes until `seconds` of query time is measured; per-pass times."""
    passes: list[float] = []
    while sum(passes) < seconds:
        dt = 0.0
        for q in wl.pass_queries(len(passes)):
            meter.due()
            dt += outcome.answer(q)
        passes.append(dt)
    meter.tick()
    return passes


def end_to_end(args) -> dict:
    speed.pin_to_one_cpu()
    meter = speed.Meter()
    setup_raw, setup = [], []
    t0 = time.perf_counter()
    while len(setup) < SETUP_SAMPLES or time.perf_counter() - t0 < SETUP_MIN_S:
        wall, ref = _setup_child(args, meter)
        setup_raw.append(wall)
        setup.append(ref)
    wl = _workload(args.workload, args.seed)
    cold = args.workload == "cold-catalog"
    if cold:
        wl.meter = meter
    outcome = work.Outcome(wl.record)
    outcome.global_checks(wl.warm_up())
    passes = _loop(wl, outcome, args.seconds, meter)
    # a cold query costs its process's CPU time, an in-process query its wall time
    costs = wl.cpu_s if cold else [dt for _, _, dt in outcome.samples]
    ref = [(g, kind, cost * meter.scale(t0, t0 + dt))
           for (g, kind, dt), t0, cost in zip(outcome.samples, outcome.starts, costs)]
    robust = robust_latencies(ref)
    lat = [t for t, ok in zip(robust, outcome.ok) if ok]
    if not lat:
        _fail("no query answered correctly: " + "; ".join(outcome.problems[:3]))
    who = resource.RUSAGE_CHILDREN if args.workload == "cold-catalog" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "queries_per_s": (len(lat) / sum(robust), "1/s"),
        "query_p50_s": (statistics.median(lat), "s"),
        "query_p90_s": (_quantile(lat, 90), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw = robust_latencies(outcome.samples)
    info = {"pass_s": passes, "queries": outcome.attempted, "samples": len(lat),
            "setup_samples_s": setup, "setup_samples_wall_s": setup_raw,
            "wall_queries_per_s": len(raw) / sum(raw),
            "wall_query_p50_s": statistics.median(raw),
            "kernel_s": [min(meter.took), statistics.median(meter.took), max(meter.took)],
            "kernel_samples": len(meter.took),
            "failed_frac": outcome.failed / outcome.attempted,
            "p50_s_by_kind": _by_kind(ref)}
    return _result(outcome.attempted, outcome.failed, outcome.problems, metrics, info)


def robust_latencies(samples: list[tuple[str, str, float]]) -> list[float]:
    """Each sample replaced by the median of its group, so that a burst of
    machine noise moves a statistic only when it hits most of a group."""
    groups: dict[str, list[float]] = {}
    for g, _, dt in samples:
        groups.setdefault(g, []).append(dt)
    med = {g: statistics.median(v) for g, v in groups.items()}
    return [med[g] for g, _, _ in samples]


def _by_kind(samples) -> dict:
    kinds: dict[str, list[float]] = {}
    for _, kind, dt in samples:
        kinds.setdefault(kind, []).append(dt)
    return {k: [len(v), statistics.median(v)] for k, v in sorted(kinds.items())}


def _result(attempted: int, failed: int, problems: list[str], metrics: dict,
            info: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info, "problems": problems}


# -- traced run ---------------------------------------------------------------------

def plan_phase(args) -> dict:
    """One pass in this process, traced or not; used by the traced run."""
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install_hooks(tracer)
        tracer.install()

    def root(name: str, query: int):
        return tracer.root(name, query) if tracer else contextlib.nullcontext()

    caches0 = spans.cache_snapshot()
    t0 = time.perf_counter()
    wl = _workload(args.workload, args.seed)
    outcome = work.Outcome(wl.record)
    with root("setup", -1):
        outcome.global_checks(wl.warm_up())
    for qi, q in enumerate(wl.pass_queries(0)):
        with root("query", qi):
            outcome.answer(q)
    wall = time.perf_counter() - t0
    res = {"wall_s": wall, "attempted": outcome.attempted, "failed": outcome.failed,
           "problems": outcome.problems}
    if tracer is not None:
        tracer.uninstall()
        res["agg"] = tracer.aggregate()
        res["caches"] = spans.cache_delta(caches0, spans.cache_snapshot())
        res["spans"] = len(tracer.start)
        res["skipped"] = tracer.skipped
        path = work.OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        res["spans_file"] = str(path.relative_to(ROOT))
    return res


def _plan_child(args, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--phase", "plan", "--trace", str(int(traced))]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=175)
    if p.returncode != 0:
        _fail(f"plan phase failed: {p.stderr.strip()[-400:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def traced(args) -> dict:
    if args.workload == "cold-catalog":
        import traced_cli
        untraced, traced_res = traced_cli.run_pass(args, False), traced_cli.run_pass(args, True)
    else:
        untraced, traced_res = _plan_child(args, False), _plan_child(args, True)
    agg = traced_res["agg"]
    metrics = spans.layer_metrics(agg, traced_res["caches"])
    module_busy = sum(metrics[f"{m}.busy_s"][0] for m in spans.MODULES)
    metrics["cli.startup_s"] = (traced_res.get("startup_s", 0.0), "s")
    metrics["trace.wall_s"] = (traced_res["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (untraced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced_res["wall_s"] - untraced["wall_s"], "s")
    metrics["trace.harness_s"] = (traced_res["wall_s"] - module_busy, "s")
    metrics["trace.spans"] = (traced_res["spans"], "count")
    info = {"spans_file": traced_res.get("spans_file"), "not_wrapped": traced_res.get("skipped"),
            "errors_by_kind": agg["errors"], "module_busy_s": module_busy}
    return _result(untraced["attempted"] + traced_res["attempted"],
                   untraced["failed"] + traced_res["failed"],
                   untraced["problems"] + traced_res["problems"], metrics, info)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("run", "setup", "plan"), default="run",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "twoneg" / "cli.py").is_file():
        _fail(f"program sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    if args.phase == "setup":
        _workload(args.workload, args.seed).warm_up()
        return 0
    if args.phase == "plan":
        print(json.dumps(plan_phase(args)))
        return 0
    res = traced(args) if args.trace else end_to_end(args)
    res["info"]["meta"] = _metadata()
    res["info"]["workload"] = args.workload
    res["info"]["seed"] = args.seed
    for name, (value, unit) in sorted(res["metrics"].items()):
        print(f"{name:44s} {value:16.6g} {unit}")
    for key, value in res["info"].items():
        print(f"# {key}: {json.dumps(value)}")
    for p in res["problems"]:
        print(f"# problem: {p}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
