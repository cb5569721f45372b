#!/usr/bin/env python3
"""Independent brute-force oracle for the small catalog counts.

Deliberately self-contained (no twoneg import): enumerates *all labeled*
reflexive-transitive-antisymmetric relations on n <= 4 points, filters the
bounded distributive lattices, attaches negations by direct table scans, and
dedupes by trying every permutation.  The resulting counts are frozen in
tests/fixtures/enumeration_counts.json; the catalog enumerator must stay
stable against them.

Counts exclude the one-element algebra, matching the catalog default.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "enumeration_counts.json"
MAX_N = 4


def all_labeled_posets(n):
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((False, True), repeat=len(cells)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), b in zip(cells, bits):
            leq[i][j] = b
        ok = True
        for i in range(n):
            for j in range(n):
                if leq[i][j] and leq[j][i] and i != j:
                    ok = False
                if not ok:
                    break
                if leq[i][j]:
                    for k in range(n):
                        if leq[j][k] and not leq[i][k]:
                            ok = False
                            break
            if not ok:
                break
        if ok:
            yield leq


def bounds_and_tables(leq):
    n = len(leq)
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if leq[c][a] and leq[c][b]]
            best = [m for m in lower if all(leq[c][m] for c in lower)]
            if len(best) != 1:
                return None
            meet[a][b] = best[0]
            upper = [c for c in range(n) if leq[a][c] and leq[b][c]]
            best = [m for m in upper if all(leq[m][c] for c in upper)]
            if len(best) != 1:
                return None
            join[a][b] = best[0]
    bottoms = [i for i in range(n) if all(leq[i][j] for j in range(n))]
    tops = [i for i in range(n) if all(leq[j][i] for j in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        return None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return None
    return meet, join, bottoms[0], tops[0]


def heyting(leq, meet):
    n = len(leq)
    impl = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            cand = [c for c in range(n) if leq[meet[a][c]][b]]
            best = [m for m in cand if all(leq[c][m] for c in cand)]
            if len(best) != 1:
                return None
            impl[a][b] = best[0]
    return impl


def perms_equal(n, struct_a, struct_b):
    """struct = (leq, extras...) with extras unary tables or marked indices."""
    leq_a, *rest_a = struct_a
    leq_b, *rest_b = struct_b
    for perm in itertools.permutations(range(n)):
        if any(leq_a[i][j] != leq_b[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            continue
        ok = True
        for xa, xb in zip(rest_a, rest_b):
            if isinstance(xa, int):
                ok = xb == perm[xa]
            else:
                ok = all(xb[perm[i]] == perm[xa[i]] for i in range(n))
            if not ok:
                break
        if ok:
            return True
    return False


def dedupe(n, structs):
    reps = []
    for s in structs:
        if not any(perms_equal(n, s, r) for r in reps):
            reps.append(s)
    return reps


def is_antitone(leq, t):
    n = len(leq)
    return all(leq[t[b]][t[a]] for a in range(n) for b in range(n) if leq[a][b])


def is_minimal_neg(leq, meet, join, bottom, top, t):
    n = len(leq)
    if t[bottom] != top:
        return False
    if not is_antitone(leq, t):
        return False
    for a in range(n):
        for b in range(n):
            if not leq[meet[t[a]][t[b]]][t[join[a][b]]]:
                return False
    for a in range(n):
        if not leq[a][t[t[a]]]:
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if leq[meet[a][b]][c] and not leq[meet[a][t[c]]][t[b]]:
                    return False
    return True


def is_intuitionistic_neg(leq, meet, join, bottom, top, t):
    if not is_minimal_neg(leq, meet, join, bottom, top, t):
        return False
    return all(meet[a][t[a]] == bottom for a in range(len(leq)))


def main():
    counts: dict[str, dict[str, int]] = {}
    for n in range(2, MAX_N + 1):
        pba, ccpba, cvcpba, kim, kim_vee = [], [], [], [], []
        for leq in all_labeled_posets(n):
            bt = bounds_and_tables(leq)
            if bt is None:
                continue
            meet, join, bottom, top = bt
            impl = heyting(leq, meet)
            if impl is None:
                continue
            frozen = tuple(tuple(row) for row in leq)
            pba.append((frozen,))
            neg = tuple(impl[a][bottom] for a in range(n))
            for t1 in range(n):
                if neg[neg[t1]] != t1:
                    continue
                tilde = tuple(impl[a][t1] for a in range(n))
                ccpba.append((frozen, t1))
                if all(join[a][tilde[a]] == top for a in range(n)):
                    cvcpba.append((frozen, t1))
            for tilde in itertools.product(range(n), repeat=n):
                if not is_minimal_neg(leq, meet, join, bottom, top, tilde):
                    continue
                if neg[neg[tilde[top]]] != tilde[top]:
                    continue
                # the intuitionistic negation is unique (the pseudocomplement),
                # but verify rather than assume
                if not is_intuitionistic_neg(leq, meet, join, bottom, top, neg):
                    raise SystemExit(f"oracle_counts: the pseudocomplement of {frozen} "
                                     "is not an intuitionistic negation")
                kim.append((frozen, neg, tilde))
                if all(join[a][tilde[a]] == top for a in range(n)):
                    kim_vee.append((frozen, neg, tilde))
        counts[str(n)] = {
            "pba": len(dedupe(n, pba)),
            "ccpba": len(dedupe(n, ccpba)),
            "cvcpba": len(dedupe(n, cvcpba)),
            "kim": len(dedupe(n, kim)),
            "kim_vee": len(dedupe(n, kim_vee)),
        }
        print(n, counts[str(n)])
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
