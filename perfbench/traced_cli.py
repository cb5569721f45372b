"""Run one `twoneg` CLI query under the span tracer, in a fresh process.

    python3 perfbench/traced_cli.py SPAWN_T RESULT.json SPANS.jsonl QUERY_ID -- --porcelain ARGS...

SPAWN_T is the parent's `time.perf_counter()` just before the spawn (the
monotonic clock is shared by all processes of the machine), so the child
reports its own start-up time.  The CLI's stdout and exit code pass through
unchanged; the span aggregate goes to RESULT.json and the spans to
SPANS.jsonl.  `run_pass` is the parent side used by the cold-catalog
traced run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as tr
import work

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def child(argv: list[str]) -> int:
    spawn_t, result_path, spans_path, query = argv[:4]
    cli_argv = argv[5:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = tr.Tracer()
    tr.install_hooks(tracer)
    tracer.install()
    startup = time.perf_counter() - float(spawn_t)
    caches0 = tr.cache_snapshot()
    from twoneg import cli
    with tracer.root("child", int(query)):
        rc = cli.main(cli_argv)
    sys.stdout.flush()
    tracer.uninstall()
    Path(result_path).write_text(json.dumps({
        "agg": tracer.aggregate(), "caches": tr.cache_delta(caches0, tr.cache_snapshot()),
        "startup_s": startup, "spans": len(tracer.start), "skipped": tracer.skipped}))
    tracer.write(Path(spans_path))
    return rc


def run_pass(args, traced: bool) -> dict:
    """One cold-catalog pass, each query in a fresh (traced) process."""
    wl = work.ColdCatalog(args.seed)
    outcome = work.Outcome(wl.record)
    work.OUT.mkdir(parents=True, exist_ok=True)
    results: list[dict] = []
    span_files: list[Path] = []

    def runner_for(qi: int):
        def runner(cli_argv):
            res_path = work.OUT / f"child-{args.seed}-{qi}.json"
            span_path = work.OUT / f"child-{args.seed}-{qi}.jsonl"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), repr(time.perf_counter()),
                   str(res_path), str(span_path), str(qi), "--", "--porcelain"] + cli_argv
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=wl.timeout, cwd=ROOT)
            if res_path.is_file():
                results.append(json.loads(res_path.read_text()))
                res_path.unlink()
                span_files.append(span_path)
            return p.returncode, p.stdout, p.stderr
        return runner

    t0 = time.perf_counter()
    for qi, argv in enumerate(wl.plan(0)):
        outcome.answer(wl.query(argv, runner_for(qi) if traced else None))
    wall = time.perf_counter() - t0
    res = {"wall_s": wall, "attempted": outcome.attempted, "failed": outcome.failed,
           "problems": outcome.problems}
    if traced:
        res["agg"] = tr.merge([r["agg"] for r in results])
        caches: dict[str, float] = {}
        for r in results:
            for k, v in r["caches"].items():
                caches[k] = caches.get(k, 0) + v
        res["caches"] = caches
        res["startup_s"] = statistics.median(r["startup_s"] for r in results) if results else 0.0
        res["spans"] = sum(r["spans"] for r in results)
        res["skipped"] = results[0]["skipped"] if results else []
        path = work.OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as out:
            for i, sp in enumerate(span_files):
                with open(sp, encoding="utf-8") as fh:
                    lines = fh.readlines()
                out.writelines(lines if i == 0 else lines[1:])
                sp.unlink()
        res["spans_file"] = str(path.relative_to(ROOT))
    return res


if __name__ == "__main__":
    sys.exit(child(sys.argv[1:]))
