#!/usr/bin/env python3
"""Freeze the catalogs: one digest per entry of every class at sizes 2..8.

Each digest covers the entry's name, its lattice (element names, order,
meet/join tables, bottom, top) and its operations (implication, both
negations, tilde_one).  The digests, in catalog order, are written to
tests/fixtures/catalog_digests.json; tests/test_catalog_digests.py rebuilds
the catalogs and compares.  Regenerate only when a catalog is meant to change:

    PYTHONPATH=src python tools/catalog_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from twoneg.algebra import CATALOG_CLASSES, Algebra, enumerate_algebras

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "catalog_digests.json"
MAX_SIZE = 8


def entry_digest(alg) -> str:
    lat = alg.lattice
    record = {
        "name": alg.name, "elements": lat.elements, "leq": lat.leq,
        "meet": lat.meet, "join": lat.join, "bottom": lat.bottom, "top": lat.top,
        "impl": alg.impl if isinstance(alg, Algebra) else None,
        "neg": alg.neg, "tilde": alg.tilde,
        "tilde_one": alg.tilde_one if isinstance(alg, Algebra) else None,
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def catalog_digests(max_size: int = MAX_SIZE) -> dict[str, list[list[str]]]:
    """class -> [[name, digest], ...] in catalog order."""
    return {cls: [[alg.name, entry_digest(alg)]
                  for alg in enumerate_algebras(cls, max_size)]
            for cls in CATALOG_CLASSES}


def main() -> None:
    blocks = [f" {json.dumps(cls)}: [\n"
              + ",\n".join(f"  {json.dumps(pair)}" for pair in pairs) + "\n ]"
              for cls, pairs in catalog_digests().items()]
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
