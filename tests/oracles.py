"""The scans the residuation kernel replaced, kept as test oracles.

`residuum`, `derive_heyting` and `residuation_mismatch` are the former
bodies in `twoneg.lattice`, and `residuation_witness` and `absorb` the former
triple loops of `algebra._residuation_witness` and `algebra._absorb`.  Each
now reads `lattice._below` instead; `tests/test_residuation_kernel.py`
requires the same tables, errors and witnesses.

`ccpba_flags` is the former body of `algebra.ccpba_flags`, which scanned
for a residuation witness on every call; the package now decides `is_pba`
from the cached residuum and walks only to name a witness
(`tests/test_pba_decision.py`).

`distributivity_witness` is the triple scan `build_lattice` once ran on every
lattice; it now decides distributivity by join-primeness and keeps its own
copy of the scan only to name the witness (`tests/test_join_prime.py`).

`build_subnormal`, `nhat_violations`, `build_nhat`, `subcompat_violation`
and `build_compat` are the hand-written law sequences `twoneg.frames` once
ran; the builders now read one law table per frame kind
(`tests/test_frame_laws.py`).

`no_successor_in` is the frozenset clause frame truth sets and
`bridge.complex_algebra_compat` once read; both now read the mask kernel
`frames._no_successor_in` (`tests/test_frame_evaluator.py`).

`is_upset`, `stability_witness`, `condensation_witness`,
`symmetry_witness`, `tilde_top_worlds`, `dne_tilde_top_witness`,
`is_identity`, `common_successor` and `phi` are the cell-by-cell table
scans `twoneg.frames` and `twoneg.translate` once ran; the frame conditions
now read successor masks and `~top` and condition (D)/(3) the truth-set
kernel (`tests/test_frame_laws.py`).  The builder oracles above read these
copies, never the package's own.

`path_failure` is the law-by-law scan of the kite path that
`algebra._path_failure` once ran on every negation; it now decides the first
five laws from the residuum and scans only to name a witness
(`tests/test_residuum_decision.py`).

`canonical_form` is the product search `lattice.canonical_form` once ran:
it encodes every relabelling that permutes the sorted signature blocks
inside themselves and keeps the least encoding, the first one met on a tie.
The package now searches only the relabellings with least order bits
(`tests/test_canonical_form.py`).

`algebra_embedding_image` and `frame_embedding_image` are the frozenset
images `bridge._algebra_embedding` and `bridge._frame_embedding` once
computed: sigma(a), or the upsets holding a world, as a frozenset found by a
linear search of `frame_upsets` or `prime_filters`.  The bridge now maps
masks through the position dicts of its order-keyed upset lattice
(`tests/test_upset_lattice.py`).

`downsets_of`, `lattice_from_upsets`, `grow_posets` and `all_lattices` are
the former frozenset enumeration of `twoneg.lattice`: posets grown on
frozenset downsets, and each catalog lattice built from its downsets by
O(U^2) inclusion tests and two `_bound_table` passes.  The package now
grows posets on downset masks and reads each catalog lattice from the
order-keyed upset lattice of the converse, `lattice._upset_tables`, which
the bridge's complex algebras read too (`tests/test_upset_lattice.py`).
`lattice_from_upsets` also checks the bridge's upset lattices there.
`relabel` is the relabelling `grow_posets` reads; the package now decodes
each canonical poset and catalog entry from its key's bits.

`countermodel_scan` is the former body of `proofs.countermodel_search`,
which built the whole catalog up to the bound before it scanned.  The
package now walks the catalog one cached size section at a time and stops
at the first size that fails (`tests/test_graded_catalogs.py`).

`walk` is the former recursive body of `algebra.evaluate`, and
`frame_walk` that of `frames.truth_set` over frozensets, the sub-normal `~`
read from the order and Y0.  `sequent_scan` is the former body of
`algebra.sequent_valid` and `frame_scan` that of `frames._first_falsifier`:
one loop over `itertools.product` of the valuations, each side evaluated
by the walk.  The package compiles each goal into one staged loop nest,
`algebra._program`, which these share no code with
(`tests/test_evaluator.py`, `tests/test_frame_evaluator.py` and
`tests/test_staged_search.py`).

M3 and N5 are lattice records that `build_lattice` rejects as not
distributive; they reach the `residuum-missing` error.

`parse` is the former two-stage parser of `twoneg.formula`: a tokenizer
that matched one regex per token into (kind, value, offset) triples, then a
method per grammar level over them, with `depth` the walk for the tree-depth
check.  The package now scans each text with one `findall` and works out
offsets only when it raises (`tests/test_formula.py`).
"""

from __future__ import annotations

import itertools
import re

from twoneg.algebra import (_PATH, ATOM_GUARD, VALID, Algebra, Flag, KimAlgebra, Verdict,
                            _flag, algebra_valid, enumerate_algebras, sequent_valid)
from twoneg.bridge import prime_filters
from twoneg.errors import (AlgebraError, BoundGuardError, FormulaSyntaxError, FrameError,
                           LatticeError)
from twoneg.formula import (_ATOM_RE, _KEYWORDS, BOT, MAX_DEPTH, MAX_NODES, TOP, And, Atom, Bot,
                            Formula, Impl, Neg, Or, Tilde, Top, _children, atoms, contains,
                            fold, render, subformulas)
from twoneg.frames import (WORLD_GUARD, CompatFrame, NhatFrame, SubNormalFrame, _close_order,
                           _relation, frame_upsets)
from twoneg.lattice import (_encode, _lattice, _order, _signatures, _table,
                            _up_masks, canonical_form as package_canonical_form)
from twoneg.proofs import HILBERT_SYSTEMS, SEQUENT_SYSTEMS, expand_neg


def residuum(lat, a, b):
    """max{c : a /\\ c <= b} if the set has a maximum, else None."""
    leq, meet = lat.leq, lat.meet
    candidates = [c for c in range(lat.size) if leq[meet[a][c]][b]]
    m = candidates[0]  # bottom always qualifies, so nonempty
    for c in candidates[1:]:
        if leq[m][c]:
            m = c
    for c in candidates:
        if not leq[c][m]:
            return None
    return m


def derive_heyting(lat):
    """Full residuum table; raises residuum-missing with the witness pair."""
    n = lat.size
    table = []
    for a in range(n):
        row = []
        for b in range(n):
            r = residuum(lat, a, b)
            if r is None:
                raise LatticeError("residuum-missing",
                                   (lat.elements[a], lat.elements[b]))
            row.append(r)
        table.append(tuple(row))
    return tuple(table)


def residuation_mismatch(lat, impl):
    """First cell (row-major) where a declared implication table disagrees with
    the derived residuum, or None if the table is the genuine residuation."""
    for a in range(lat.size):
        for b in range(lat.size):
            if residuum(lat, a, b) != impl[a][b]:
                return (lat.elements[a], lat.elements[b])
    return None


def residuation_witness(lat, impl):
    for a in range(lat.size):
        for b in range(lat.size):
            for c in range(lat.size):
                if lat.leq[lat.meet[a][c]][b] != lat.leq[c][impl[a][b]]:
                    return (a, b, c)
    return None


def ccpba_flags(alg, witness=residuation_witness):
    """(`is_pba`, `is_ccpba`): `is_pba` from the first residuation witness
    `witness(lat, impl)` finds, `is_ccpba` also !!~1 = ~1."""
    lat = alg.lattice
    pba = _flag(lat, witness(lat, alg.impl))
    if alg.tilde is None:
        return pba, Flag(False, ())
    t1 = alg.tilde_one
    dne = Flag(True) if alg.neg[alg.neg[t1]] == t1 else Flag(False, (lat.elements[t1],))
    return pba, pba if not pba.holds else dne


def absorb(lat, t):
    for a in range(lat.size):
        for b in range(lat.size):
            for c in range(lat.size):
                if lat.leq[lat.meet[a][b]][c] and not lat.leq[lat.meet[a][t[c]]][t[b]]:
                    return (a, b, c)
    return None


def path_failure(lat, t, k=len(_PATH)):
    """The first failed law among the first k of the kite path, as
    (position, law, witness), or None: every law scanned in order."""
    for pos, (law, check) in enumerate(_PATH[:k]):
        w = check(lat, t)
        if w is not None:
            return pos, law, w
    return None


def distributivity_witness(n, meet, join):
    """The first triple (a, b, c), row-major, where a /\\ (b \\/ c) differs
    from (a /\\ b) \\/ (a /\\ c), or None if the lattice is distributive."""
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return (a, b, c)
    return None


def canonical_form(leq, unaries=(), marks=()):
    """(key, perm): the least encoding over the block-respecting
    relabellings, tried one by one in `itertools.product` order."""
    n = len(leq)
    sigs = _signatures(_up_masks(leq), _up_masks(zip(*leq)), unaries, marks)
    blocks = {}
    for x in range(n):
        blocks.setdefault(sigs[x], []).append(x)
    ordered = [blocks[s] for s in sorted(blocks)]
    best = best_perm = None
    for choice in itertools.product(*(itertools.permutations(b) for b in ordered)):
        perm = [0] * n
        for pos, old in enumerate(itertools.chain.from_iterable(choice)):
            perm[old] = pos
        enc = _encode(leq, unaries, marks, perm)
        if best is None or enc < best:
            best, best_perm = enc, perm
    return best, best_perm


def no_successor_in(rel, s):
    """Worlds with no `rel`-successor in `s`."""
    n = len(rel)
    return frozenset(w for w in range(n) if all(v not in s for v in range(n) if rel[w][v]))


def is_upset(leq, s):
    return all(j in s for i in s for j in range(len(leq)) if leq[i][j])


def tilde_top_worlds(fr):
    """Worlds where `~top` holds: those with no `~`-successor."""
    return frozenset(x for x, row in enumerate(fr.tilde) if not any(row))


def dne_tilde_top_witness(fr):
    """First world outside `~top` each of whose `!`-successors has a
    `!`-successor inside `~top`, or None."""
    quiet = tilde_top_worlds(fr)
    rel = fr.bang
    n = fr.size
    for x in range(n):
        if x in quiet:
            continue
        if all(any(rel[y][z] and z in quiet for z in range(n))
               for y in range(n) if rel[x][y]):
            return fr.worlds[x]
    return None


def is_identity(fr):
    n, tilde = fr.size, fr.tilde
    return all(fr.leq[y][x] for x in range(n) for y in range(n) if tilde[x][y])


def stability_witness(leq, r):
    # (<= ; R ; >=) subset of R: x' <= x, x R y, y' <= y  =>  x' R y'.
    n = len(leq)
    for x in range(n):
        for y in range(n):
            if not r[x][y]:
                continue
            for xp in range(n):
                if not leq[xp][x]:
                    continue
                for yp in range(n):
                    if leq[yp][y] and not r[xp][yp]:
                        return (xp, x, y, yp)
    return None


def condensation_witness(leq, r):
    # x R y  =>  some z above both with x R z.
    n = len(leq)
    for x in range(n):
        for y in range(n):
            if r[x][y] and not any(leq[x][z] and leq[y][z] and r[x][z]
                                   for z in range(n)):
                return (x, y)
    return None


def symmetry_witness(leq, r):
    n = len(r)
    for x in range(n):
        for y in range(n):
            if r[x][y] != r[y][x]:
                return (x, y)
    return None


def common_successor(names, rel):
    n = len(names)
    return [(names[x], names[y]) for x in range(n) for y in range(n)
            if any(rel[x][z] and rel[y][z] for z in range(n))]


def phi(fr):
    """`translate.phi` over the copies above and the `build_nhat` below."""
    n, names = fr.size, fr.worlds
    order = [(names[x], names[y]) for x in range(n) for y in range(n)
             if fr.leq[x][y] and x != y]
    out = build_nhat(names, order, common_successor(names, fr.bang),
                     common_successor(names, fr.tilde))
    if is_identity(fr) and not is_identity(out):
        raise FrameError("translation-broke-identity", None)
    return out


def build_subnormal(worlds, leq_pairs, y0_names):
    ws = tuple(worlds)
    leq = _close_order(ws, leq_pairs)
    idx = {w: i for i, w in enumerate(ws)}
    for w in y0_names:
        if w not in idx:
            raise FrameError("relation-out-of-range", ("y0", w))
    y0 = frozenset(idx[w] for w in y0_names)
    fr = SubNormalFrame(ws, leq, y0)
    if not is_upset(leq, y0):
        raise FrameError("y0-not-upset", tuple(sorted(ws[i] for i in y0)))
    w = dne_tilde_top_witness(fr)
    if w is not None:
        raise FrameError("condition-violation", ("D", w))
    return fr


_SYMMETRY_CONDENSATION = (("symmetry", symmetry_witness),
                          ("condensation", condensation_witness))


def nhat_violations(fr):
    out = []
    for tag, rel in (("R1", fr.rn1), ("R2", fr.rn2)):
        for law, witness in (("stability", stability_witness), *_SYMMETRY_CONDENSATION):
            w = witness(fr.leq, rel)
            if w is not None:
                out.append((f"{tag}-{law}", tuple(fr.worlds[i] for i in w)))
    for x in range(fr.size):
        if not fr.rn1[x][x]:
            out.append(("R1-reflexivity", (fr.worlds[x],)))
            break
    w3 = dne_tilde_top_witness(fr)
    if w3 is not None:
        out.append(("3", (w3,)))
    return out


def build_nhat(worlds, leq_pairs, rn1_pairs, rn2_pairs):
    ws = tuple(worlds)
    leq = _close_order(ws, leq_pairs)
    fr = NhatFrame(ws, leq, _relation(ws, rn1_pairs), _relation(ws, rn2_pairs))
    bad = nhat_violations(fr)
    if bad:
        raise FrameError("condition-violation", bad[0])
    return fr


def subcompat_violation(fr):
    for law, witness in _SYMMETRY_CONDENSATION:
        w = witness(fr.leq, fr.c)
        if w is not None:
            return (f"C-{law}", tuple(fr.worlds[i] for i in w))
    w3 = dne_tilde_top_witness(fr)
    if w3 is not None:
        return ("3", (w3,))
    return None


def build_compat(worlds, leq_pairs, c_pairs, *, require_subcompat=False):
    ws = tuple(worlds)
    leq = _close_order(ws, leq_pairs)
    fr = CompatFrame(ws, leq, _relation(ws, c_pairs))
    w = stability_witness(leq, fr.c)  # the downward-closure law (C)
    if w is not None:
        raise FrameError("condition-violation",
                         ("C-law", tuple(ws[i] for i in w)))
    if require_subcompat:
        bad = subcompat_violation(fr)
        if bad is not None:
            raise FrameError("condition-violation", bad)
    return fr


def algebra_embedding_image(alg, fr):
    """a -> the position of sigma(a) among the upsets of the canonical frame `fr`."""
    filters = prime_filters(alg.lattice)
    ups = frame_upsets(fr.leq)
    return tuple(ups.index(frozenset(i for i, f in enumerate(filters) if a in f))
                 for a in range(alg.size))


def frame_embedding_image(fr, alg):
    """w -> the position of {upsets containing w} among the prime filters of
    `alg`, the complex algebra of `fr`."""
    ups = frame_upsets(fr.leq)
    filters = prime_filters(alg.lattice)
    return tuple(filters.index(frozenset(j for j, u in enumerate(ups) if w in u))
                 for w in range(fr.size))


def _record(names, pairs):
    idx = {e: i for i, e in enumerate(names)}
    up, _ = _order(len(names), [(idx[a], idx[b]) for a, b in pairs])
    return _lattice(names, up)


M3 = _record(["0", "x", "y", "z", "1"],
             [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")])
N5 = _record(["0", "a", "b", "c", "1"],
             [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])


def downsets_of(leq):
    rev = tuple(tuple(leq[j][i] for j in range(len(leq))) for i in range(len(leq)))
    return list(frame_upsets(rev))


def lattice_from_upsets(sets, names):
    """Lattice of a family of sets closed under union/intersection, ordered
    by inclusion."""
    return _lattice(names, [sum(1 << j for j, t in enumerate(sets) if s <= t) for s in sets])


def relabel(leq, perm):
    """The up-set masks of `leq` with each element i moved to perm[i]."""
    up = [0] * len(leq)
    for i, row in enumerate(leq):
        up[perm[i]] = sum(1 << perm[j] for j, b in enumerate(row) if b)
    return up


def grow_posets(max_size, max_downsets=None):
    """Canonical posets of each size 0..max_size, grown on frozenset downsets."""
    by_size = {0: ((),)}
    for k in range(1, max_size + 1):
        seen = {}
        for base in by_size[k - 1]:
            downs = downsets_of(base)
            for dset in downs:
                if (max_downsets is not None
                        and len(downs) + sum(dset <= d for d in downs) > max_downsets):
                    continue
                rows = [tuple(base[i]) + (i in dset,) for i in range(k - 1)]
                rows.append(tuple(False for _ in range(k - 1)) + (True,))
                cand = tuple(rows)
                key, perm = package_canonical_form(cand)
                if key not in seen:
                    seen[key] = _table(relabel(cand, perm))
        by_size[k] = tuple(seen[key] for key in sorted(seen))
    return by_size


def all_lattices(max_size):
    """The catalog of distributive lattices of at most `max_size` elements."""
    if max_size < 1:
        return ()
    by_size = {}
    for posets in grow_posets(max_size - 1, max_size).values():
        for leq in posets:
            downs = downsets_of(leq)
            names = [f"e{i}" for i in range(len(downs))]
            by_size.setdefault(len(downs), []).append(lattice_from_upsets(downs, names))
    return tuple(lat for size in sorted(by_size) for lat in by_size[size])


def countermodel_scan(system, goal, max_size):
    """The first falsifier in the whole catalog of the system's class up to
    `max_size`, built before the scan; None when there is none."""
    if system in HILBERT_SYSTEMS:
        sys = HILBERT_SYSTEMS[system]
        if not isinstance(goal, Formula):
            raise AlgebraError("wrong-goal-kind", system, "expected a formula")
        if sys.forbidden and contains(goal, sys.forbidden):
            raise AlgebraError("wrong-language", render(goal))
        f = expand_neg(goal) if sys.expand else goal
        cls, check = sys.algebra_class, lambda alg: algebra_valid(alg, f)
    elif system in SEQUENT_SYSTEMS:
        if isinstance(goal, Formula):
            raise AlgebraError("wrong-goal-kind", system, "expected a sequent")
        lhs, rhs = goal
        if contains(lhs, Impl) or contains(rhs, Impl):
            raise AlgebraError("wrong-language", f"{render(lhs)} |- {render(rhs)}")
        cls, check = (SEQUENT_SYSTEMS[system].algebra_class,
                      lambda alg: sequent_valid(alg, lhs, rhs))
    else:
        raise AlgebraError("unknown-system", system)
    for alg in enumerate_algebras(cls, max_size, guard=None):
        verdict = check(alg)
        if not verdict.valid:
            return alg, verdict.valuation
    return None


def walk(alg, f, valuation):
    """The value of `f` in `alg`; an error is raised at the first offending
    node a left-to-right walk meets."""
    lat = alg.lattice
    match f:
        case Top():
            return lat.top
        case Bot():
            return lat.bottom
        case Atom(name):
            v = valuation.get(name)
            if v is None:
                raise AlgebraError("unbound-atom", name)
            return v
        case And(l, r):
            return lat.meet[walk(alg, l, valuation)][walk(alg, r, valuation)]
        case Or(l, r):
            return lat.join[walk(alg, l, valuation)][walk(alg, r, valuation)]
        case Impl(l, r):
            if isinstance(alg, KimAlgebra):
                raise AlgebraError("implication-in-kim-language", f)
            return alg.impl[walk(alg, l, valuation)][walk(alg, r, valuation)]
        case Neg(c):
            return alg.neg[walk(alg, c, valuation)]
        case Tilde(c):
            if isinstance(alg, Algebra) and alg.tilde is None:
                raise AlgebraError("tilde-undefined", f)
            return alg.tilde[walk(alg, c, valuation)]
    raise TypeError(f"not a formula: {f!r}")


def sequent_scan(alg, lhs, rhs):
    """v(lhs) = 1 implies v(rhs) = 1 on every valuation in
    `itertools.product` order, each side through `walk`: an error in lhs is
    raised at the first valuation, one in rhs alone at the first valuation
    that sends lhs to 1."""
    names = atoms(And(lhs, rhs))
    top = alg.lattice.top
    for combo in itertools.product(range(alg.size), repeat=len(names)):
        at = dict(zip(names, combo))
        if walk(alg, lhs, at) == top and walk(alg, rhs, at) != top:
            return Verdict(False, {k: alg.element(i) for k, i in at.items()})
    return VALID


def frame_walk(fr, valuation, f):
    """The worlds of `fr` where `f` holds, as a frozenset; an error is raised
    at the first offending node a left-to-right walk meets."""
    n = fr.size
    every = frozenset(range(n))
    bang, tilde = fr.bang, fr.tilde

    def rec(g):
        match g:
            case Top():
                return every
            case Bot():
                return frozenset()
            case Atom(name):
                if name not in valuation:
                    raise FrameError("unbound-atom", name)
                return valuation[name]
            case And(l, r):
                return rec(l) & rec(r)
            case Or(l, r):
                return rec(l) | rec(r)
            case Impl(l, r):
                if isinstance(fr, CompatFrame):
                    raise FrameError("wrong-language", g)
                left, right = rec(l), rec(r)
                return frozenset(
                    w for w in range(n)
                    if all(v in right for v in range(n)
                           if fr.leq[w][v] and v in left))
            case Neg(c):
                return no_successor_in(bang, rec(c))
            case Tilde(c):
                body = rec(c)
                # the sub-normal clause from the order and Y0, not from the
                # frame's `~` relation
                if isinstance(fr, SubNormalFrame):
                    return frozenset(
                        w for w in range(n)
                        if all(v in fr.y0 for v in range(n)
                               if fr.leq[w][v] and v in body))
                return no_successor_in(tilde, body)
        raise TypeError(f"not a formula: {g!r}")

    return rec(f)


def frame_scan(fr, lhs, rhs, max_worlds=WORLD_GUARD, max_atoms=ATOM_GUARD):
    """The first upset valuation in `itertools.product` order with some
    world in the truth set of lhs but not of rhs, reported with the least
    such world.  On a compatibility frame the first `->` in pre-order, lhs
    before rhs, is rejected first; then the bounds, unless None."""
    if isinstance(fr, CompatFrame):
        for g in itertools.chain(subformulas(lhs), subformulas(rhs)):
            if isinstance(g, Impl):
                raise FrameError("wrong-language", g)
    names = atoms(And(lhs, rhs))
    if max_worlds is not None and fr.size > max_worlds:
        raise BoundGuardError("frame worlds", max_worlds, fr.size)
    if max_atoms is not None and len(names) > max_atoms:
        raise BoundGuardError("valuation atoms", max_atoms, len(names))
    for combo in itertools.product(frame_upsets(fr.leq), repeat=len(names)):
        at = dict(zip(names, combo))
        bad = frame_walk(fr, at, lhs) - frame_walk(fr, at, rhs)
        if bad:
            witness = {name: tuple(fr.worlds[i] for i in sorted(s)) for name, s in at.items()}
            return Verdict(False, witness, fr.worlds[min(bad)])
    return VALID


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<iff><->)|(?P<arrow>->)|(?P<amp>&)|(?P<bar>\|)|(?P<bang>!)"
    r"|(?P<tilde>~)|(?P<lp>\()|(?P<rp>\))|(?P<word>[a-zA-Z][a-zA-Z0-9_]*))"
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            # skip over trailing whitespace before declaring failure
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise FormulaSyntaxError(bad, frozenset({"token"}),
                                     f"unexpected character {text[bad]!r}")
        kind = m.lastgroup
        value = m.group(kind)
        start = m.end() - len(value)
        if kind == "word":
            if value in _KEYWORDS:
                kind = value
            elif not _ATOM_RE.match(value):
                raise FormulaSyntaxError(start, frozenset({"identifier"}),
                                         f"bad identifier {value!r}")
        tokens.append((kind, value, start))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


_START_EXPECT = frozenset({"top", "bot", "identifier", "(", "!", "~"})


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0
        self.shared = False

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: frozenset[str]):
        kind, value, offset = self.peek()
        raise FormulaSyntaxError(offset, expected,
                                 f"found {value!r}" if value else "found end of input")

    def nested(self, parse_fn) -> Formula:
        """`parse_fn()` one nesting level deeper, rejected past MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise FormulaSyntaxError(self.peek()[2], frozenset(),
                                     f"nested deeper than {MAX_DEPTH} levels")
        node = parse_fn()
        self.depth -= 1
        return node

    def formula(self) -> Formula:
        left = self.impl()
        if self.peek()[0] == "iff":
            self.take()
            self.shared = True
            right = self.nested(self.formula)
            return And(Impl(left, right), Impl(right, left))
        return left

    def impl(self) -> Formula:
        left = self.disj()
        if self.peek()[0] == "arrow":
            self.take()
            return Impl(left, self.nested(self.impl))
        return left

    def disj(self) -> Formula:
        node = self.conj()
        while self.peek()[0] == "bar":
            self.take()
            node = Or(node, self.conj())
        return node

    def conj(self) -> Formula:
        node = self.unary()
        while self.peek()[0] == "amp":
            self.take()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        kind, _, _ = self.peek()
        if kind == "bang":
            self.take()
            return Neg(self.nested(self.unary))
        if kind == "tilde":
            self.take()
            return Tilde(self.nested(self.unary))
        return self.atom()

    def atom(self) -> Formula:
        kind, value, _ = self.peek()
        if kind == "top":
            self.take()
            return TOP
        if kind == "bot":
            self.take()
            return BOT
        if kind == "word":
            self.take()
            return Atom(value)
        if kind == "lp":
            self.take()
            node = self.nested(self.formula)
            if self.peek()[0] != "rp":
                self.fail(frozenset({")"}))
            self.take()
            return node
        self.fail(_START_EXPECT)
        raise AssertionError("unreachable")


def parse(text: str) -> Formula:
    """Parse `text` into a Formula; raises FormulaSyntaxError with the offset on failure."""
    p = Parser(text)
    node = p.formula()
    if p.peek()[0] != "eof":
        p.fail(frozenset({"end of input", "->", "<->", "&", "|"}))
    # a token adds at most two levels (`<->`: an And over Impls), so short
    # input needs no walk
    if len(p.tokens) > MAX_DEPTH // 2 and depth(node) > MAX_DEPTH:
        raise FormulaSyntaxError(0, frozenset(), f"formula deeper than {MAX_DEPTH} levels")
    # without `<->` every node has a token of its own; with it, count the
    # occurrences over the shared nodes, each node once
    if ((p.shared or len(p.tokens) > MAX_NODES)
            and fold(node, lambda g, kids: 1 + sum(kids)) > MAX_NODES):
        raise FormulaSyntaxError(0, frozenset(), f"formula has more than {MAX_NODES} nodes")
    return node


def depth(f: Formula) -> int:
    """Levels below the root on the longest path, walked level by level so
    that a node shared by several parents (`<->` shares both sides) is seen
    once per level."""
    height, level = 0, {id(f): f}
    while True:
        below = {id(c): c for g in level.values() for c in _children(g)}
        if not below:
            return height
        height, level = height + 1, below
