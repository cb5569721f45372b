"""Regenerate record.json: the expected answer digest of every pooled query.

    python3 perfbench/record.py

Runs every query the workloads can draw, in one process with warm caches,
and re-checks each answer independently (falsifying valuations through the
table evaluator, embeddings onto, isomorphisms verified) before recording
it.  The record pins today's answers byte for byte; rerun it only when an
answer is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tables  # noqa: E402
import work  # noqa: E402


def _cold_falsifier_ok(argv: list[str], out: str) -> bool:
    from twoneg import algebra, formula, proofs
    kv = dict(line.split("=", 1) for line in out.splitlines())
    system, size = argv[2], int(argv[4])
    cls = (proofs.HILBERT_SYSTEMS.get(system) or proofs.SEQUENT_SYSTEMS[system]).algebra_class
    alg = next(a for a in algebra.enumerate_algebras(cls, size, guard=None)
               if a.name == kv["countermodel"])
    witness = {k[len("witness_"):]: v for k, v in kv.items() if k.startswith("witness_")}
    if argv[5] == "--sequent":
        lhs, _, rhs = argv[6].partition("|-")
        goal = (formula.parse(lhs), formula.parse(rhs))
    else:
        goal = formula.parse(argv[5])
    return tables.algebra_falsifies(alg, goal, witness)


def record_cold(rec: dict) -> None:
    from twoneg import cli
    wl = work.ColdCatalog(0)
    for argv in gen.cold_universe():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["--porcelain"] + argv)
        ans = (rc, buf.getvalue(), "")
        q = wl.query(argv)
        problem = q.verify(ans)
        if problem is None and rc == 1 and not _cold_falsifier_ok(argv, ans[1]):
            problem = "witness does not falsify"
        if problem is not None:
            raise SystemExit(f"{argv}: {problem}")
        rec[q.key] = work.digest(q.canon(ans))


def record_in_process(wl, rec: dict) -> None:
    problems = wl.warm_up()
    if problems:
        raise SystemExit(f"{wl.name}: {problems}")
    for q in wl.pass_queries(0):
        ans = q.run()
        problem = q.verify(ans)
        if problem is not None:
            raise SystemExit(f"{q.key}: {problem}")
        rec[q.key] = work.digest(q.canon(ans))


def main() -> int:
    rec: dict[str, str] = {}
    record_in_process(work.WarmValidity(0), rec)
    record_in_process(work.Duality(0), rec)
    record_cold(rec)
    (HERE / "record.json").write_text(json.dumps(rec, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(rec)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
