"""Law suites over the enumerated catalogs: the kite ordering of the
negation flags, the ILM1 axioms and P sequents, the excluded-middle
subclasses, and the catalogs against brute-force and per-class oracles.
The derived equations and the membership equivalence are acceptance
criterion 4."""

from __future__ import annotations

import pytest

from twoneg._record import replace
from twoneg.algebra import (CATALOG_CLASSES, KimAlgebra, _absorb,
                            _canonical_data, _em, _or_linear, _quasi,
                            algebra_valid, attach_negations, classify_negation_pair,
                            enumerate_algebras, kim_violations, sequent_valid,
                            tilde_one_candidates)
from twoneg.formula import parse
from twoneg.lattice import (FiniteLattice, _lattice, all_lattices,
                            canonical_form, derive_heyting)

import oracles


def test_kite_order_on_enumerated_pairs():
    for alg in enumerate_algebras("kim", 4):
        kite = classify_negation_pair(alg.lattice, alg.neg, alg.tilde)
        assert kite.intuitionistic.holds <= kite.minimal.holds
        assert kite.minimal.holds <= kite.quasi_minimal.holds
        assert kite.quasi_minimal.holds <= kite.preminimal.holds
        if kite.ortho.holds:
            assert kite.intuitionistic.holds and kite.de_morgan.holds


ILM1_AXIOMS = ["~p <-> (p -> ~top)", "!!~top <-> ~top"]


def test_ilm1_axioms_and_a11_on_catalog():
    a11 = "~p <-> (p -> !!~top)"
    for alg in enumerate_algebras("ccpba", 4):
        for text in ILM1_AXIOMS + [a11]:
            assert algebra_valid(alg, parse(text)).valid, (alg.name, text)


P_SEQUENTS = [("~p & ~q", "~(p | q)"), ("top", "~bot"), ("p", "~~p"),
              ("!!~top", "~top")]


def test_p_sequents_on_kim_catalog():
    for alg in enumerate_algebras("kim", 4):
        assert kim_violations(alg.lattice, alg.neg, alg.tilde) is None
        for lhs, rhs in P_SEQUENTS:
            assert sequent_valid(alg, parse(lhs), parse(rhs)).valid


@pytest.mark.parametrize("cls", ["ccpba", "kim"])
def test_em_subclass_is_exact(cls):
    vee = "cvcpba" if cls == "ccpba" else "kim_vee"
    full = enumerate_algebras(cls, 4)
    sub = enumerate_algebras(vee, 4)
    em_holding = [a.name for a in full
                  if all(a.lattice.join[i][a.tilde[i]] == a.lattice.top
                         for i in range(a.size))]
    assert len(em_holding) == len(sub)


# ---------------------------------------------------------------------------
# Brute-force oracle for the Kim catalogs: every antitone map with
# t(bottom) = top, filtered by the minimal-negation laws and the dne link,
# deduplicated by canonical form.  The catalog builds the same classes as
# implication-free reducts of the ccpba/cvcpba pairs.

def _antitone_maps(lat):
    """All order-reversing unary maps with t(bottom) = top, by backtracking in
    a linear-extension order."""
    n = lat.size
    order = sorted(range(n), key=lambda x: (sum(1 for k in range(n) if lat.leq[k][x]), x))
    below = [[k for k in range(n) if lat.leq[k][x] and k != x] for x in range(n)]
    t = [None] * n

    def rec(k):
        if k == n:
            yield tuple(t)
            return
        x = order[k]
        if x == lat.bottom:
            t[x] = lat.top
            yield from rec(k + 1)
            t[x] = None
            return
        cap = lat.top
        for d in below[x]:
            if t[d] is not None:
                cap = lat.meet[cap][t[d]]
        for val in range(n):
            if lat.leq[val][cap]:
                t[x] = val
                yield from rec(k + 1)
        t[x] = None

    yield from rec(0)


def _kim_oracle(cls, max_size):
    found = {}
    for lat in all_lattices(max_size):
        if lat.size == 1:
            continue
        impl = derive_heyting(lat)
        neg = tuple(impl[a][lat.bottom] for a in range(lat.size))
        for tilde in _antitone_maps(lat):
            if _or_linear(lat, tilde) or _quasi(lat, tilde) or _absorb(lat, tilde):
                continue
            t1 = tilde[lat.top]
            if neg[neg[t1]] != t1:
                continue
            if cls == "kim_vee" and _em(lat, tilde) is not None:
                continue
            key, perm = canonical_form(lat.leq, (neg, tilde), ())
            found.setdefault(key, (lat, perm, neg, tilde))
    out = []
    counters = {}
    for key in sorted(found, key=lambda k: (k[0], k)):
        lat, perm, neg, tilde = found[key]
        n = lat.size
        inv = sorted(range(n), key=perm.__getitem__)
        rl = FiniteLattice(
            tuple(f"e{i}" for i in range(n)),
            tuple(tuple(lat.leq[inv[i]][inv[j]] for j in range(n)) for i in range(n)),
            tuple(tuple(perm[lat.meet[inv[i]][inv[j]]] for j in range(n)) for i in range(n)),
            tuple(tuple(perm[lat.join[inv[i]][inv[j]]] for j in range(n)) for i in range(n)),
            perm[lat.bottom], perm[lat.top])
        i = counters.get(n, 0)
        counters[n] = i + 1
        out.append(KimAlgebra(f"{cls}_{n}_{i}", rl,
                              tuple(perm[neg[inv[x]]] for x in range(n)),
                              tuple(perm[tilde[inv[x]]] for x in range(n))))
    return tuple(out)


@pytest.mark.parametrize("cls", ["kim", "kim_vee"])
def test_kim_catalog_matches_antitone_oracle(cls):
    assert enumerate_algebras(cls, 6) == _kim_oracle(cls, 6)


# ---------------------------------------------------------------------------
# Per-class oracle: one canonical pass for each of the five classes, with the
# excluded-middle filter inside the pass and the Kim classes keyed on their
# two negations only.  The catalog runs the pba and ccpba passes alone and
# derives cvcpba as the EM sub-list of ccpba and the Kim classes as reducts.

def _per_class_catalog(cls, max_size, include_trivial):
    kim = cls in ("kim", "kim_vee")
    found = {}
    for lat in all_lattices(max_size):
        if lat.size == 1 and not include_trivial:
            continue
        for t1 in ([None] if cls == "pba" else tilde_one_candidates(lat)):
            alg = attach_negations(lat, t1)
            if cls in ("cvcpba", "kim_vee") and _em(lat, alg.tilde) is not None:
                continue
            if kim:
                alg = KimAlgebra("", lat, alg.neg, alg.tilde)
            key, perm = _canonical_data(alg)
            if key not in found:
                relabelled = _lattice([f"e{i}" for i in range(lat.size)],
                                      oracles.relabel(lat.leq, perm))
                new = attach_negations(relabelled, None if t1 is None else perm[t1])
                found[key] = KimAlgebra("", new.lattice, new.neg, new.tilde) if kim else new
    counters = {}
    out = []
    for key in sorted(found, key=lambda k: (k[0], k)):
        alg = found[key]
        i = counters.get(alg.size, 0)
        counters[alg.size] = i + 1
        out.append(replace(alg, name=f"{cls}_{alg.size}_{i}"))
    return tuple(out)


@pytest.mark.parametrize("include_trivial", [False, True])
@pytest.mark.parametrize("cls", CATALOG_CLASSES)
def test_catalog_matches_per_class_passes(cls, include_trivial):
    for max_size in range(1, 10):
        assert (enumerate_algebras(cls, max_size, include_trivial, None)
                == _per_class_catalog(cls, max_size, include_trivial)), max_size
