#!/usr/bin/env python3
"""Freeze the catalogs: one digest per entry of every class at sizes 2..8,
and one per (class, size) section at sizes 9..14.

Each entry digest covers the entry's name, its lattice (element names,
order, meet/join tables, bottom, top) and its operations (implication, both
negations, tilde_one).  A section digest hashes the names and entry digests
of one size in catalog order, and is stored with the section's entry count.
The digests, in catalog order, are written to
tests/fixtures/catalog_digests.json; tests/test_catalog_digests.py rebuilds
the catalogs and compares.  Regenerate only when a catalog is meant to change:

    PYTHONPATH=src python tools/catalog_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from twoneg.algebra import CATALOG_CLASSES, _section, enumerate_algebras

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "catalog_digests.json"
MAX_SIZE = 8
SECTION_SIZES = range(MAX_SIZE + 1, 15)


def entry_digest(alg) -> str:
    lat = alg.lattice
    record = {
        "name": alg.name, "elements": lat.elements, "leq": lat.leq,
        "meet": lat.meet, "join": lat.join, "bottom": lat.bottom, "top": lat.top,
        "impl": alg.impl, "neg": alg.neg, "tilde": alg.tilde, "tilde_one": alg.tilde_one,
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def catalog_digests(max_size: int = MAX_SIZE) -> dict[str, list[list[str]]]:
    """class -> [[name, digest], ...] in catalog order."""
    return {cls: [[alg.name, entry_digest(alg)]
                  for alg in enumerate_algebras(cls, max_size)]
            for cls in CATALOG_CLASSES}


def section_digests(cls: str) -> list[list]:
    """[cls, size, entry count, digest] for each size in SECTION_SIZES; the
    digest hashes the [name, entry digest] pairs of that size in catalog
    order, read from the catalog's cached size section."""
    rows = []
    for size in SECTION_SIZES:
        section = [[alg.name, entry_digest(alg)] for alg in _section(cls, size)]
        rows.append([cls, size, len(section),
                     hashlib.sha256(json.dumps(section).encode()).hexdigest()[:16]])
    return rows


def main() -> None:
    blocks = [f" {json.dumps(cls)}: [\n"
              + ",\n".join(f"  {json.dumps(pair)}" for pair in pairs) + "\n ]"
              for cls, pairs in catalog_digests().items()]
    sections = [row for cls in CATALOG_CLASSES for row in section_digests(cls)]
    blocks.append(' "sections": [\n'
                  + ",\n".join(f"  {json.dumps(row)}" for row in sections) + "\n ]")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
