"""Bounded distributive lattices carrying an intuitionistic negation and a
minimal negation.

Two flavours live here.  `Algebra` has a residuated implication: `!a` is
`a -> 0` and `~a` is `a -> t` for a distinguished element `t` (written
`tilde_one`) that must be fixed under double `!`.  `KimAlgebra` drops the
implication and keeps only the two negation tables, constrained by the
negation laws directly.  The implication table of an `Algebra` is always
derived by residuation; declared tables can only be cross-checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Mapping, Union

from .errors import AlgebraError, BoundGuardError, VerificationError
from .formula import And, Atom, Bot, Formula, Impl, Neg, Or, Tilde, Top, atoms
from .lattice import (FiniteLattice, OpTable, all_lattices, build_lattice,
                      canonical_form, derive_heyting, transitive_reduction)

__all__ = [
    "Algebra", "KimAlgebra", "AnyAlgebra", "Verdict", "Flag", "KiteReport",
    "ClassReport", "attach_negations", "classify_algebra",
    "classify_negation_pair", "evaluate", "algebra_valid", "sequent_valid",
    "tilde_one_candidates", "build_au", "iso_check", "enumerate_algebras",
    "read_algebra", "write_algebra", "CATALOG_CLASSES",
]

Unary = tuple[int, ...]


@dataclass(frozen=True)
class _Carrier:
    """A named lattice, shared by the two flavours."""

    name: str
    lattice: FiniteLattice

    @property
    def size(self) -> int:
        return self.lattice.size

    def element(self, i: int) -> str:
        return self.lattice.elements[i]


@dataclass(frozen=True)
class Algebra(_Carrier):
    """Residuated algebra; `tilde_one is None` means a plain pseudo-Boolean
    algebra with no minimal negation attached."""

    impl: OpTable
    neg: Unary
    tilde_one: int | None
    tilde: Unary | None


@dataclass(frozen=True)
class KimAlgebra(_Carrier):
    """Implication-free algebra with negation tables `neg` (intuitionistic)
    and `tilde` (minimal) linked by !!~1 = ~1."""

    neg: Unary
    tilde: Unary


AnyAlgebra = Union[Algebra, KimAlgebra]


@dataclass(frozen=True)
class Verdict:
    """Result of an exhaustive validity search; `valuation` maps atom names to
    element (or upset) witnesses when falsified."""

    valid: bool
    valuation: dict | None = None
    world: str | None = None

    def __bool__(self) -> bool:
        return self.valid


VALID = Verdict(True)


def attach_negations(lat: FiniteLattice, tilde_one: int | None, *,
                     name: str = "", require_dne: bool = True) -> Algebra:
    """Derive the implication by residuation and attach both negations.

    Rejects (dne-violation) when !!t differs from t, unless `require_dne` is
    False -- candidates built that way are only meant for classification.
    """
    impl = derive_heyting(lat)
    neg = tuple(impl[a][lat.bottom] for a in range(lat.size))
    if tilde_one is None:
        return Algebra(name, lat, impl, neg, None, None)
    fixed = neg[neg[tilde_one]]
    if require_dne and fixed != tilde_one:
        raise AlgebraError("dne-violation", lat.elements[tilde_one],
                           f"!!~1 = {lat.elements[fixed]}")
    tilde = tuple(impl[a][tilde_one] for a in range(lat.size))
    return Algebra(name, lat, impl, neg, tilde_one, tilde)


def tilde_one_candidates(lat: FiniteLattice) -> list[int]:
    """Elements fixed under double intuitionistic negation."""
    impl = derive_heyting(lat)
    neg = tuple(impl[a][lat.bottom] for a in range(lat.size))
    return [e for e in range(lat.size) if neg[neg[e]] == e]


# ---------------------------------------------------------------------------
# Negation-law checks.  Each returns a falsifying witness tuple or None; the
# kite flags are cumulative down the preminimal..intuitionistic path.

def _antitone(lat, t):
    for a in range(lat.size):
        for b in range(lat.size):
            if lat.leq[a][b] and not lat.leq[t[b]][t[a]]:
                return (a, b)
    return None


def _or_linear(lat, t):
    for a in range(lat.size):
        for b in range(lat.size):
            if not lat.leq[lat.meet[t[a]][t[b]]][t[lat.join[a][b]]]:
                return (a, b)
    return None


def _nor(lat, t):
    return None if t[lat.bottom] == lat.top else (lat.bottom,)


def _quasi(lat, t):
    for a in range(lat.size):
        if not lat.leq[a][t[t[a]]]:
            return (a,)
    return None


def _absorb(lat, t):
    for a in range(lat.size):
        for b in range(lat.size):
            for c in range(lat.size):
                if lat.leq[lat.meet[a][b]][c] and not lat.leq[lat.meet[a][t[c]]][t[b]]:
                    return (a, b, c)
    return None


def _intuit(lat, t):
    for a in range(lat.size):
        if lat.meet[a][t[a]] != lat.bottom:
            return (a,)
    return None


def _de_morgan(lat, t):
    for a in range(lat.size):
        if not lat.leq[t[t[a]]][a]:
            return (a,)
    return None


def _em(lat, t):
    for a in range(lat.size):
        if lat.join[a][t[a]] != lat.top:
            return (a,)
    return None


@dataclass(frozen=True)
class Flag:
    holds: bool
    witness: tuple[str, ...] | None = None


def _flag(lat: FiniteLattice, witness) -> Flag:
    if witness is None:
        return Flag(True)
    return Flag(False, tuple(lat.elements[i] for i in witness))


@dataclass(frozen=True)
class KiteReport:
    """Placement of a negation table on the kite of negation properties, with
    the fixed companion negation `neg` assumed intuitionistic."""

    preminimal: Flag
    quasi_minimal: Flag
    minimal: Flag
    intuitionistic: Flag
    de_morgan: Flag
    ortho: Flag
    em: Flag
    dne_tilde_one: Flag


def minimal_negation_violation(lat: FiniteLattice, t: Unary):
    """First failed law on the preminimal..minimal path, as (law, witness)."""
    for law, check in (("antitone", _antitone), ("or-linear", _or_linear),
                       ("nor", _nor), ("quasi", _quasi), ("absorption", _absorb)):
        w = check(lat, t)
        if w is not None:
            return law, w
    return None


def intuitionistic_negation_violation(lat: FiniteLattice, t: Unary):
    v = minimal_negation_violation(lat, t)
    if v is not None:
        return v
    w = _intuit(lat, t)
    if w is not None:
        return ("intuitionistic", w)
    return None


def classify_negation_pair(lat: FiniteLattice, neg: Unary, tilde: Unary) -> KiteReport:
    """Kite verdicts for `tilde` against the intuitionistic companion `neg`.

    `neg` is re-verified to be intuitionistic; the dne flag compares !!~1
    with ~1 where ~1 := tilde(top).
    """
    bad = intuitionistic_negation_violation(lat, neg)
    if bad is not None:
        law, w = bad
        raise AlgebraError("neg-not-intuitionistic",
                           tuple(lat.elements[i] for i in w), law)
    pre_w = _antitone(lat, tilde) or _or_linear(lat, tilde) or _nor(lat, tilde)
    pre = _flag(lat, pre_w)
    quasi = Flag(False, pre.witness) if not pre.holds else _flag(lat, _quasi(lat, tilde))
    minimal = Flag(False, quasi.witness) if not quasi.holds else _flag(lat, _absorb(lat, tilde))
    intuit = Flag(False, minimal.witness) if not minimal.holds else _flag(lat, _intuit(lat, tilde))
    dem = _flag(lat, _de_morgan(lat, tilde))
    if intuit.holds and dem.holds:
        ortho = Flag(True)
    else:
        ortho = Flag(False, (intuit if not intuit.holds else dem).witness)
    em = _flag(lat, _em(lat, tilde))
    t1 = tilde[lat.top]
    dd = neg[neg[t1]]
    dne = Flag(True) if lat.leq[dd][t1] else Flag(False, (lat.elements[t1],))
    return KiteReport(pre, quasi, minimal, intuit, dem, ortho, em, dne)


@dataclass(frozen=True)
class ClassReport:
    is_pba: Flag
    is_ccpba: Flag
    is_cvcpba: Flag
    is_jp_algebra: Flag
    is_kim: Flag
    is_kim_vee: Flag
    tilde_involutive: Flag


def _residuation_witness(lat: FiniteLattice, impl: OpTable):
    for a in range(lat.size):
        for b in range(lat.size):
            for c in range(lat.size):
                if lat.leq[lat.meet[a][c]][b] != lat.leq[c][impl[a][b]]:
                    return (a, b, c)
    return None


def classify_algebra(alg: Algebra) -> ClassReport:
    """Decide every class membership exhaustively, witnesses attached."""
    lat = alg.lattice
    pba = _flag(lat, _residuation_witness(lat, alg.impl))
    if alg.tilde is None:
        missing = Flag(False, ())
        return ClassReport(pba, missing, missing, missing, missing, missing, missing)
    t = alg.tilde
    t1 = alg.tilde_one
    assert t1 is not None
    dne_ok = alg.neg[alg.neg[t1]] == t1
    ccpba = Flag(pba.holds and dne_ok,
                 None if pba.holds and dne_ok else (pba.witness or (lat.elements[t1],)))
    em = _flag(lat, _em(lat, t))
    cvc = Flag(ccpba.holds and em.holds,
               None if ccpba.holds and em.holds else (ccpba.witness or em.witness))
    jp_w = next(((a,) for a in range(lat.size)
                 if t[t[alg.impl[t1][a]]] != lat.top), None)
    jp = Flag(pba.holds and jp_w is None,
              None if pba.holds and jp_w is None else (pba.witness or _flag(lat, jp_w).witness))
    kim_v = kim_violations(lat, alg.neg, t)
    kim = Flag(kim_v is None, None if kim_v is None
               else tuple(lat.elements[i] for i in kim_v[1]))
    kim_vee = Flag(kim.holds and em.holds,
                   None if kim.holds and em.holds else (kim.witness or em.witness))
    inv_w = next(((a,) for a in range(lat.size) if t[t[a]] != a), None)
    return ClassReport(pba, ccpba, cvc, jp, kim, kim_vee, _flag(lat, inv_w))


def kim_violations(lat: FiniteLattice, neg: Unary, tilde: Unary):
    """None if (lat, neg, tilde) is a valid implication-free algebra of the
    two-negation kind, else (law, witness)."""
    bad = intuitionistic_negation_violation(lat, neg)
    if bad is not None:
        return ("neg-" + bad[0], bad[1])
    bad = minimal_negation_violation(lat, tilde)
    if bad is not None:
        return ("tilde-" + bad[0], bad[1])
    t1 = tilde[lat.top]
    if neg[neg[t1]] != t1:
        return ("dne", (t1,))
    return None


def build_kim(lat: FiniteLattice, neg: Unary, tilde: Unary, *, name: str = "") -> KimAlgebra:
    if not lat.distributive:
        raise AlgebraError("not-a-kim-algebra", None, "lattice not distributive")
    bad = kim_violations(lat, neg, tilde)
    if bad is not None:
        raise AlgebraError("not-a-kim-algebra",
                           tuple(lat.elements[i] for i in bad[1]), bad[0])
    return KimAlgebra(name, lat, neg, tilde)


def kim_reduct(alg: Algebra, *, name: str = "") -> KimAlgebra:
    """Drop the implication of a two-negation algebra."""
    if alg.tilde is None:
        raise AlgebraError("not-a-kim-algebra", alg.name, "no minimal negation attached")
    return build_kim(alg.lattice, alg.neg, alg.tilde, name=name or alg.name)


# ---------------------------------------------------------------------------
# Evaluation and validity.

def evaluate(alg: AnyAlgebra, f: Formula, valuation: Mapping[str, int]) -> int:
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
            return lat.meet[evaluate(alg, l, valuation)][evaluate(alg, r, valuation)]
        case Or(l, r):
            return lat.join[evaluate(alg, l, valuation)][evaluate(alg, r, valuation)]
        case Impl(l, r):
            if isinstance(alg, KimAlgebra):
                raise AlgebraError("implication-in-kim-language", f)
            return alg.impl[evaluate(alg, l, valuation)][evaluate(alg, r, valuation)]
        case Neg(c):
            return alg.neg[evaluate(alg, c, valuation)]
        case Tilde(c):
            if isinstance(alg, Algebra) and alg.tilde is None:
                raise AlgebraError("tilde-undefined", f)
            assert alg.tilde is not None
            return alg.tilde[evaluate(alg, c, valuation)]
    raise TypeError(f"not a formula: {f!r}")


def _valuations(alg: AnyAlgebra, names: list[str]) -> Iterable[dict[str, int]]:
    for combo in itertools.product(range(alg.size), repeat=len(names)):
        yield dict(zip(names, combo))


def algebra_valid(alg: AnyAlgebra, f: Formula) -> Verdict:
    """Exhaustive search over all valuations; first falsifier in lexicographic
    order over the declared element order."""
    names = atoms(f)
    for v in _valuations(alg, names):
        if evaluate(alg, f, v) != alg.lattice.top:
            return Verdict(False, {k: alg.element(i) for k, i in v.items()})
    return VALID


def sequent_valid(alg: AnyAlgebra, lhs: Formula, rhs: Formula) -> Verdict:
    """v(lhs) = 1 implies v(rhs) = 1, for every valuation."""
    names = atoms(And(lhs, rhs))
    top = alg.lattice.top
    for v in _valuations(alg, names):
        if evaluate(alg, lhs, v) == top and evaluate(alg, rhs, v) != top:
            return Verdict(False, {k: alg.element(i) for k, i in v.items()})
    return VALID


# ---------------------------------------------------------------------------
# The interval construction: from a pseudo-Boolean algebra H and u1 <= u2,
# the pairs (a2 /\ u1, a2) with a2 <= u2 form a two-negation algebra.

def build_au(h: Algebra, u1: int, u2: int, *, name: str = "") -> Algebra:
    """Carrier {(a2 /\\ u1, a2) : a2 <= u2} with the componentwise operations;
    the result is rebuilt through residuation and cross-checked against the
    defining formulas, so a mismatch raises VerificationError."""
    lat = h.lattice
    if not lat.leq[u1][u2]:
        raise AlgebraError("u-not-ordered", (lat.elements[u1], lat.elements[u2]))
    members = [(lat.meet[a2][u1], a2) for a2 in range(lat.size) if lat.leq[a2][u2]]
    members.sort(key=lambda p: p[1])
    names = [f"({lat.elements[p[0]]},{lat.elements[p[1]]})" for p in members]
    pos = {p: i for i, p in enumerate(members)}
    pairs = [(names[i], names[j]) for i, p in enumerate(members)
             for j, q in enumerate(members)
             if lat.leq[p[0]][q[0]] and lat.leq[p[1]][q[1]]]
    carrier = build_lattice(names, pairs)

    def f_impl(p, q):
        return (lat.meet[h.impl[p[0]][q[0]]][u1], lat.meet[h.impl[p[1]][q[1]]][u2])

    def f_tilde(p):
        na = h.neg[p[0]]
        return (lat.meet[u1][na], lat.meet[u2][na])

    bottom_pair = members[carrier.bottom]
    top_pair = members[carrier.top]
    for p in members:
        if f_tilde(p) not in pos:
            raise VerificationError("au-tilde-escapes-carrier", p)
    tilde_one = pos[f_tilde(top_pair)]
    alg = attach_negations(carrier, tilde_one, name=name or f"{h.name}_au")
    for i, p in enumerate(members):
        for j, q in enumerate(members):
            fi = f_impl(p, q)
            if fi not in pos or pos[fi] != alg.impl[i][j]:
                raise VerificationError("au-impl-mismatch", (names[i], names[j]))
            if pos[(lat.meet[p[0]][q[0]], lat.meet[p[1]][q[1]])] != carrier.meet[i][j]:
                raise VerificationError("au-meet-mismatch", (names[i], names[j]))
            if pos[(lat.join[p[0]][q[0]], lat.join[p[1]][q[1]])] != carrier.join[i][j]:
                raise VerificationError("au-join-mismatch", (names[i], names[j]))
        assert alg.tilde is not None
        if pos[f_tilde(p)] != alg.tilde[i]:
            raise VerificationError("au-tilde-mismatch", names[i])
        nf = f_impl(p, bottom_pair)
        if pos[nf] != alg.neg[i]:
            raise VerificationError("au-neg-mismatch", names[i])
    report = classify_algebra(alg)
    if not report.is_ccpba.holds:
        raise VerificationError("au-not-ccpba", report.is_ccpba.witness)
    return alg


# ---------------------------------------------------------------------------
# Isomorphism and catalogs.

def _canonical_data(alg: AnyAlgebra):
    if isinstance(alg, Algebra):
        unaries: tuple[Unary, ...] = (alg.neg,) if alg.tilde is None else (alg.neg, alg.tilde)
        marks = () if alg.tilde_one is None else (alg.tilde_one,)
    else:
        unaries = (alg.neg, alg.tilde)
        marks = ()
    return canonical_form(alg.lattice.leq, unaries, marks)


def iso_check(a: AnyAlgebra, b: AnyAlgebra) -> dict[str, str] | None:
    """A structure-preserving bijection between the carriers, or None."""
    if type(a) is not type(b) or a.size != b.size:
        return None
    if isinstance(a, Algebra) and (a.tilde is None) != (b.tilde is None):  # type: ignore[union-attr]
        return None
    key_a, perm_a = _canonical_data(a)
    key_b, perm_b = _canonical_data(b)
    if key_a != key_b:
        return None
    inv_b = [0] * b.size
    for old, new in enumerate(perm_b):
        inv_b[new] = old
    f = [inv_b[perm_a[i]] for i in range(a.size)]
    la, lb = a.lattice, b.lattice
    for i in range(a.size):
        for j in range(a.size):
            if la.leq[i][j] != lb.leq[f[i]][f[j]] or (
                    isinstance(a, Algebra) and f[a.impl[i][j]] != b.impl[f[i]][f[j]]):
                raise VerificationError("iso-binary-mismatch", (a.element(i), a.element(j)))
        if f[a.neg[i]] != b.neg[f[i]] or (
                a.tilde is not None and f[a.tilde[i]] != b.tilde[f[i]]):
            raise VerificationError("iso-unary-mismatch", a.element(i))
    return {a.element(i): b.element(f[i]) for i in range(a.size)}


def _relabel_lattice(lat: FiniteLattice, perm: list[int]) -> FiniteLattice:
    n = lat.size
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    names = tuple(f"e{i}" for i in range(n))
    leq = tuple(tuple(lat.leq[inv[i]][inv[j]] for j in range(n)) for i in range(n))
    meet = tuple(tuple(perm[lat.meet[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
    join = tuple(tuple(perm[lat.join[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
    return FiniteLattice(names, leq, meet, join, perm[lat.bottom], perm[lat.top],
                         lat.distributive)


CATALOG_CLASSES = ("pba", "ccpba", "cvcpba", "kim", "kim_vee")


@lru_cache(maxsize=None)
def enumerate_algebras(cls: str, max_size: int, include_trivial: bool = False,
                       guard: int | None = 8) -> tuple[AnyAlgebra, ...]:
    """All non-isomorphic catalog members of `cls` with size <= max_size, in
    canonical order (size, then canonical key); elements renamed e0, e1, ...

    ccpba pairs every distributive lattice with every !!-fixed element as ~1.
    The Kim classes are the implication-free reducts of the same pairs: in a
    Heyting algebra the Kim laws force ~a = a -> ~1 (absorption with
    (a, 1, a) gives ~a <= a -> ~1, quasi at 1 gives ~~1 = 1, and absorption
    with (a -> ~1, a, ~1) the converse), so they are the ccpba/cvcpba pairs
    with the implication dropped.
    """
    if cls not in CATALOG_CLASSES:
        raise AlgebraError("unknown-class", cls)
    if max_size < 1:
        raise AlgebraError("bad-size", max_size)
    if guard is not None and max_size > guard:
        raise BoundGuardError("enumerate max_size", guard, max_size)
    kim = cls in ("kim", "kim_vee")
    found: dict[tuple, AnyAlgebra] = {}
    for lat in all_lattices(max_size):
        if lat.size == 1 and not include_trivial:
            continue
        for t1 in ([None] if cls == "pba" else tilde_one_candidates(lat)):
            alg: AnyAlgebra = attach_negations(lat, t1)
            if cls in ("cvcpba", "kim_vee") and _em(lat, alg.tilde) is not None:
                continue
            if kim:
                alg = KimAlgebra("", lat, alg.neg, alg.tilde)
            key, perm = _canonical_data(alg)
            if key not in found:
                new = attach_negations(_relabel_lattice(lat, perm),
                                       None if t1 is None else perm[t1])
                found[key] = KimAlgebra("", new.lattice, new.neg, new.tilde) if kim else new
    entries = [found[k] for k in sorted(found, key=lambda k: (k[0], k))]
    counters: dict[int, int] = {}
    out: list[AnyAlgebra] = []
    for alg in entries:
        i = counters.get(alg.size, 0)
        counters[alg.size] = i + 1
        out.append(replace(alg, name=f"{cls}_{alg.size}_{i}"))
    return tuple(out)


# ---------------------------------------------------------------------------
# Algebra files: `algebra NAME / elements ... / leq a b ... / tilde_one e / end`,
# `#` starts a comment, tokens are whitespace-separated.

def read_algebra(text: str) -> Algebra:
    from .errors import FileFormatError
    name: str | None = None
    elements: list[str] = []
    pairs: list[tuple[str, str]] = []
    tilde_name: str | None = None
    ended = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise FileFormatError("trailing-content", line)
        words = line.split()
        match words:
            case ["algebra", nm]:
                if name is not None:
                    raise FileFormatError("duplicate-directive", "algebra")
                name = nm
            case ["elements", *rest] if rest:
                elements.extend(rest)
            case ["leq", a, b]:
                pairs.append((a, b))
            case ["tilde_one", e]:
                if tilde_name is not None:
                    raise FileFormatError("duplicate-directive", "tilde_one")
                tilde_name = e
            case ["end"]:
                ended = True
            case _:
                raise FileFormatError("bad-line", line)
    if not ended:
        raise FileFormatError("missing-end", None)
    if not elements:
        raise FileFormatError("missing-elements", None)
    lat = build_lattice(elements, pairs)
    t1 = lat.index(tilde_name) if tilde_name is not None else None
    return attach_negations(lat, t1, name=name or "algebra")


def write_algebra(alg: Algebra) -> str:
    lat = alg.lattice
    lines = [f"algebra {alg.name}", "elements " + " ".join(lat.elements)]
    for a, b in transitive_reduction(lat.leq):
        lines.append(f"leq {lat.elements[a]} {lat.elements[b]}")
    if alg.tilde_one is not None:
        lines.append(f"tilde_one {lat.elements[alg.tilde_one]}")
    lines.append("end")
    return "\n".join(lines) + "\n"
