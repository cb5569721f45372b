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
import operator
from functools import lru_cache
from typing import Mapping, Union

from ._record import record, replace
from .errors import (AlgebraError, BoundGuardError, FileFormatError, LatticeError,
                     VerificationError, content_lines, given_once)
from .formula import (TOP, And, Atom, Bot, Formula, Impl, Neg, Or, Tilde, Top,
                      atoms, contains, fold, subformulas)
from .lattice import (FiniteLattice, OpTable, Unary, _below, _bits, _decoded, _lattice,
                      _lattices, _residuum, _transpose, _up_masks, build_lattice,
                      canonical_form, derive_heyting, transitive_reduction)

__all__ = [
    "Algebra", "KimAlgebra", "AnyAlgebra", "Verdict", "Flag", "KiteReport",
    "ClassReport", "attach_negations", "ccpba_flags", "classify_algebra",
    "classify_negation_pair", "evaluate", "algebra_valid", "sequent_valid",
    "tilde_one_candidates", "build_au", "iso_check", "enumerate_algebras",
    "read_algebra", "write_algebra", "CATALOG_CLASSES", "SIZE_GUARD", "ATOM_GUARD",
]


@record
class _Carrier:
    """A named lattice, shared by the two flavours."""

    name: str
    lattice: FiniteLattice

    @property
    def size(self) -> int:
        return self.lattice.size

    def element(self, i: int) -> str:
        return self.lattice.elements[i]


@record
class Algebra(_Carrier):
    """Residuated algebra; `tilde_one is None` means a plain pseudo-Boolean
    algebra with no minimal negation attached."""

    impl: OpTable
    neg: Unary
    tilde_one: int | None
    tilde: Unary | None


@record
class KimAlgebra(_Carrier):
    """Implication-free algebra with negation tables `neg` (intuitionistic)
    and `tilde` (minimal) linked by !!~1 = ~1: the reduct of a ccpBa, so it
    reads `impl` and `tilde_one` (not fields) as None."""

    neg: Unary
    tilde: Unary
    impl = tilde_one = None


AnyAlgebra = Union[Algebra, KimAlgebra]


@record
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
                     name: str = "") -> Algebra:
    """Derive the implication by residuation and attach both negations.

    Rejects (dne-violation) when !!t differs from t.
    """
    impl = derive_heyting(lat)
    neg = tuple(impl[a][lat.bottom] for a in range(lat.size))
    if tilde_one is None:
        return Algebra(name, lat, impl, neg, None, None)
    fixed = neg[neg[tilde_one]]
    if fixed != tilde_one:
        raise AlgebraError("dne-violation", lat.elements[tilde_one],
                           f"!!~1 = {lat.elements[fixed]}")
    tilde = tuple(impl[a][tilde_one] for a in range(lat.size))
    return Algebra(name, lat, impl, neg, tilde_one, tilde)


def tilde_one_candidates(lat: FiniteLattice) -> list[int]:
    """Elements fixed under double intuitionistic negation."""
    neg = attach_negations(lat, None).neg
    return [e for e in range(lat.size) if neg[neg[e]] == e]


# ---------------------------------------------------------------------------
# Negation-law checks.  Each returns a falsifying witness tuple or None; the
# kite flags are cumulative down the preminimal..intuitionistic path `_PATH`.

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
    """The first (a, b, c) with a /\\ b <= c but not a /\\ ~c <= ~b: the c
    above a /\\ b outside {c : a /\\ ~c <= ~b}."""
    up = _up_masks(lat.leq)
    rows = [[row[x] for x in t] for row in lat.meet]
    for a, below in enumerate(_below(lat.leq, rows)):
        for b, ab in enumerate(lat.meet[a]):
            bad = up[ab] & ~below[t[b]]
            if bad:
                return (a, b, next(_bits(bad)))
    return None


def _intuit(lat, t):
    for a in range(lat.size):
        if lat.meet[a][t[a]] != lat.bottom:
            return (a,)
    return None


# The kite path in checking order: a negation is preminimal when it passes
# the first three laws, quasi-minimal the first four, minimal the first five
# and intuitionistic all six.
_PATH = (("antitone", _antitone), ("or-linear", _or_linear), ("nor", _nor),
         ("quasi", _quasi), ("absorption", _absorb), ("intuitionistic", _intuit))


def _path_failure(lat, t, k: int = len(_PATH)):
    """The first failed law among the first k of `_PATH`, as
    (position, law, witness), or None.

    Decided from the residuum: on a Heyting lattice, with t1 = t(1), a
    negation passes the first five laws exactly when t(a) = a -> t1 for
    every a (Rasiowa's contrapositional complement), and then passes the
    sixth exactly when t1 = 0:
      - absorption at (a, 1, a) gives a /\\ t(a) <= t1, so t(a) <= a -> t1;
      - quasi at 1 gives t(t1) = 1, and absorption at (a -> t1, a, t1) then
        gives a -> t1 <= t(a);
      - a -> t1 passes all five laws;
      - a /\\ (a -> t1) = 0 for every a iff t1 = 0 (take a = 1).
    So the scans run only to name the first failure's witness: from the
    sixth law when `t` is a -> t1, from the first otherwise, and on a
    record with no residuum (no Heyting lattice).
    """
    start = 0
    try:
        impl = derive_heyting(lat)
    except LatticeError:
        impl = None
    t1 = t[lat.top]
    if impl is not None and all(t[a] == row[t1] for a, row in enumerate(impl)):
        if t1 == lat.bottom:
            return None
        start = len(_PATH) - 1
    for pos, (law, check) in enumerate(_PATH[start:k], start):
        w = check(lat, t)
        if w is not None:
            return pos, law, w
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


@record
class Flag:
    holds: bool
    witness: tuple[str, ...] | None = None


def _flag(lat: FiniteLattice, witness) -> Flag:
    if witness is None:
        return Flag(True)
    return Flag(False, tuple(lat.elements[i] for i in witness))


def _all(*flags: Flag) -> Flag:
    """Holds when every flag holds; else the first failing flag."""
    return next((f for f in flags if not f.holds), Flag(True))


@record
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


def classify_negation_pair(lat: FiniteLattice, neg: Unary, tilde: Unary) -> KiteReport:
    """Kite verdicts for `tilde` against the intuitionistic companion `neg`.

    `neg` is re-verified to be intuitionistic; the dne flag compares !!~1
    with ~1 where ~1 := tilde(top).
    """
    bad = _path_failure(lat, neg)
    if bad is not None:
        raise AlgebraError("neg-not-intuitionistic",
                           tuple(lat.elements[i] for i in bad[2]), bad[1])
    bad = _path_failure(lat, tilde)
    failed = len(_PATH) if bad is None else bad[0]
    pre, quasi, minimal, intuit = (Flag(True) if failed >= k else _flag(lat, bad[2])
                                   for k in (3, 4, 5, len(_PATH)))
    dem = _flag(lat, _de_morgan(lat, tilde))
    em = _flag(lat, _em(lat, tilde))
    t1 = tilde[lat.top]
    dne = Flag(True) if lat.leq[neg[neg[t1]]][t1] else Flag(False, (lat.elements[t1],))
    return KiteReport(pre, quasi, minimal, intuit, dem, _all(intuit, dem), em, dne)


@record
class ClassReport:
    is_pba: Flag
    is_ccpba: Flag
    is_cvcpba: Flag
    is_jp_algebra: Flag
    is_kim: Flag
    is_kim_vee: Flag
    tilde_involutive: Flag


def _residuation_witness(lat: FiniteLattice, impl: OpTable):
    """The first (a, b, c) where a /\\ c <= b and c <= a -> b disagree."""
    down = _transpose(_up_masks(lat.leq), lat.size)
    for a, below in enumerate(_below(lat.leq, lat.meet)):
        for b, mask in enumerate(below):
            bad = mask ^ down[impl[a][b]]
            if bad:
                return (a, b, next(_bits(bad)))
    return None


def _is_residuum(lat: FiniteLattice, impl: OpTable) -> bool:
    """Whether `impl` is `derive_heyting(lat)` and the record's meets are
    those of its order, both read from the cache `lattice._residuum`; False
    on a record with no meets or no residuum."""
    try:
        meet, table, _ = _residuum(lat.leq)
    except LatticeError:
        return False
    return impl == table and lat.meet == meet


def ccpba_flags(alg: Algebra) -> tuple[Flag, Flag]:
    """`is_pba` (the implication re-checked by residuation) and `is_ccpba`
    (also !!~1 = ~1); a plain pBa fails the latter with witness ().

    `is_pba` holds without the `_residuation_witness` walk when
    `_is_residuum` does.  Proof: `derive_heyting` took each a -> b as the
    element whose down-set is the mask {c : a /\\ c <= b} that `_below`
    builds from the order's meets.  The walk builds the same masks from the
    record's meets, which are those, and compares each with the down-set of
    the a -> b it holds, so it finds no witness.  On any mismatch and on a
    record with no residuum (M3, N5) the walk runs and names the witness,
    so every flag and witness is the walk's.
    """
    lat = alg.lattice
    pba = (Flag(True) if _is_residuum(lat, alg.impl)
           else _flag(lat, _residuation_witness(lat, alg.impl)))
    if alg.tilde is None:
        return pba, Flag(False, ())
    t1 = alg.tilde_one
    dne = Flag(True) if alg.neg[alg.neg[t1]] == t1 else Flag(False, (lat.elements[t1],))
    return pba, _all(pba, dne)


def classify_algebra(alg: Algebra) -> ClassReport:
    """Decide every class membership exhaustively, witnesses attached."""
    lat = alg.lattice
    pba, ccpba = ccpba_flags(alg)
    if alg.tilde is None:  # every class below needs a ~1: all fail as ccpba does
        return ClassReport(pba, *[ccpba] * 6)
    t = alg.tilde
    em = _flag(lat, _em(lat, t))
    jp_w = next(((a,) for a in range(lat.size)
                 if t[t[alg.impl[alg.tilde_one][a]]] != lat.top), None)
    kim_v = kim_violations(lat, alg.neg, t)
    kim = Flag(True) if kim_v is None else _flag(lat, kim_v[1])
    inv_w = next(((a,) for a in range(lat.size) if t[t[a]] != a), None)
    return ClassReport(pba, ccpba, _all(ccpba, em), _all(pba, _flag(lat, jp_w)), kim,
                       _all(kim, em), _flag(lat, inv_w))


def kim_violations(lat: FiniteLattice, neg: Unary, tilde: Unary):
    """None if (lat, neg, tilde) is a valid implication-free algebra of the
    two-negation kind, else (law, witness): `neg` runs the whole of `_PATH`,
    `tilde` all of it but the intuitionistic law."""
    for prefix, t, k in (("neg-", neg, len(_PATH)), ("tilde-", tilde, len(_PATH) - 1)):
        bad = _path_failure(lat, t, k)
        if bad is not None:
            return (prefix + bad[1], bad[2])
    t1 = tilde[lat.top]
    if neg[neg[t1]] != t1:
        return ("dne", (t1,))
    return None


def build_kim(lat: FiniteLattice, neg: Unary, tilde: Unary, *, name: str = "") -> KimAlgebra:
    bad = kim_violations(lat, neg, tilde)
    if bad is not None:
        raise AlgebraError("not-a-kim-algebra",
                           tuple(lat.elements[i] for i in bad[1]), bad[0])
    return KimAlgebra(name, lat, neg, tilde)


# ---------------------------------------------------------------------------
# Evaluation and validity.  Each goal is compiled once (`_program`) into one
# loop nest over the valuations that stops at the first valuation passing a
# test: algebra and frame searches run it over every element or upset, an
# evaluation and a truth set over the one value of each atom.

# Goal plans kept by value (the LRU behind `_plan`), frame goals (compiled
# over upsets) among them.  One pass of the warm-validity benchmark workload
# cycles through 240 distinct goals, each in one language, whose plans keep
# about 0.76 MB with their guards (tracemalloc, Python 3.11, freed by
# clearing the cache; 0.72 MB without them); 512 holds them twice over.  In
# front of it `_plan` keeps one more entry, the last goals looked up,
# matched by identity.
_PROGRAM_CACHE = 512

# The absorbing laws a search's guards may rest on (`_program`), law i read
# as `l<i>`: a node of the connective is top once its kids have the values
# given (None: any value).  That is top | b, a | top, bottom -> b, a -> top
# and top & top.  `!bottom` and `~bottom` would add nothing: a node of one
# kid is known in the loop its kid is, and is then tested by its value.
_ABSORBING = ((Or, ("top", None)), (Or, (None, "top")), (Impl, ("bottom", None)),
              (Impl, (None, "top")), (And, ("top", "top")))

# Per kind of search target, one row: the code of And, Or, Impl, Neg and
# Tilde; the test a search of (lhs, rhs) stops at, by the number of goals it
# keeps; the format a known lhs fails where no stop test can hold, which
# like a rhs forced to top rules the test out before the innermost loop; and
# per absorbing law, the lines of `make` that set `l<i>` to whether the
# bound tables obey it.  Over the op tables a search stops at lhs at top and
# rhs not, or at lhs at top alone when only the rhs has a node the language
# lacks, so that it raises the rhs error there.  Over the world masks of a
# frame (`frames._bind`) it stops at some world in lhs and not in rhs; `|`
# and `&` are int operators, so top | b, a | top and top & top hold of every
# mask within top, and bottom -> b and a -> top both read the order's clause
# at the empty mask.
_TABLES = (("meet[{}][{}]", "join[{}][{}]", "impl[{}][{}]", "neg[{}]", "tilde[{}]"),
           {2: "{} == top and {} != top", 1: "{} == top"}, "{} != top", (
               ("l0 = {*join[top]} == {top}",),
               ("l1 = True", "for row in join: l1 &= row[top] == top"),
               ("l2 = {*impl[bottom]} == {top}",),
               ("l3 = True", "for row in impl: l3 &= row[top] == top"),
               ("l4 = meet[top][top] == top",)))
_UPSETS = (("{} & {}", "{} | {}", "impl[{} & ~{}]", "neg[{}]", "tilde[{}]"),
           {2: "{} & ~{}"}, "not {}", (
               ("l0 = True",), ("l1 = True",), ("l2 = impl[bottom] == top",),
               ("l3 = impl[bottom] == top",), ("l4 = True",)))

# Per language of a search's target, the connective it lacks and the error
# kind a node of it raises (None: none), and the row its goals compile by:
# Kim, plain pseudo-Boolean and two-negation algebras, compatibility frames
# and the other frames.  No other evaluation code names either.
_LANGUAGES = {"kim": (Impl, "implication-in-kim-language", _TABLES),
              "pba": (Tilde, "tilde-undefined", _TABLES), "ccpba": (None, None, _TABLES),
              "compat": (Impl, "wrong-language", _UPSETS), "frame": (None, None, _UPSETS)}

# The loops a search nests at most: CPython nests at most 20 blocks, so the
# atoms from the 20th on share one innermost loop over `product` of their
# domains, which keeps the order.
_NEST = 19


def _program(goals: tuple[Formula, ...], names: tuple[str, ...], row: tuple, test: str | None):
    """Compile `goals` over the atoms `names` by the code of `row`
    (`_TABLES`, `_UPSETS`) into a factory `make(meet, join, impl, neg,
    tilde, top, bottom)` of `search(d0, ..., dk)`: one loop per atom over
    that atom's domain, in `itertools.product` order, that returns the
    atoms' values and then the goals' values at the first valuation passing
    `test` (a format over the goals' values), or at the first valuation
    when `test` is None; None when no valuation passes.

    Every distinct node gets one assignment, so a node that `<->` shares is
    computed once.  It is assigned in the loop of its last atom, or before
    every loop when it has none, so it is recomputed only when one of its
    atoms changes.  After the assignments of each loop above the innermost,
    a search with a test skips to the loop's next value (before every loop:
    returns None) once the values known there rule the test out
    (`_guards`), so it passes the same first valuation.  The operations are
    closure cells, so one compiled function serves every algebra of a
    catalog; each law a guard reads is checked on them once per `make`
    call.  The source holds only fixed identifiers, `d<i>`, `v<i>`, `x<j>`,
    `l<i>` and `row`: atom names never enter it.
    """
    code, _, fails, checks = row
    ops = dict(zip((And, Or, Impl, Neg, Tilde), code))
    var = {name: f"v{i}" for i, name in enumerate(names)}
    slot: dict[str, str] = {}
    shape: dict[str, tuple] = {}  # each node's connective and kids
    # the loop a value is known in: 0 before every loop, i + 1 in the loop of v<i>
    level = {"top": 0, "bottom": 0}
    level.update((v, min(i, _NEST) + 1) for i, v in enumerate(var.values()))

    def node(g: Formula, kids: list[str]) -> str:
        t = type(g)
        if t is Atom:
            return var[g.name]
        if t is Top:
            return "top"
        if t is Bot:
            return "bottom"
        expr = ops[t].format(*kids)
        if expr not in slot:
            slot[expr] = x = f"x{len(slot)}"
            level[x] = max(level[k] for k in kids)
            shape[x] = t, kids
        return slot[expr]

    results = [fold(g, node) for g in goals]
    vs = list(var.values())
    doms = [f"d{i}" for i in range(len(vs))]
    heads = [f"for {v} in {d}:" for v, d in zip(vs[:_NEST], doms)]
    if len(vs) > _NEST:
        heads.append(f"for {', '.join(vs[_NEST:])}, in product({', '.join(doms[_NEST:])}):")
    guards, read = _guards(results, level, shape, len(heads), fails) if test else ([], ())
    body = [f"def search({', '.join(doms)}):"]
    for depth in range(len(heads) + 1):
        if depth:
            body.append(" " * depth + heads[depth - 1])
        body += [" " * (depth + 1) + f"{x} = {expr}"
                 for expr, x in slot.items() if level[x] == depth]
        if depth < len(guards) and guards[depth]:
            body += [" " * (depth + 1) + f"if {' or '.join(guards[depth])}:",
                     " " * (depth + 2) + ("continue" if depth else "return None")]
    pad = " " * (len(heads) + 1)
    found = f"return ({''.join(v + ', ' for v in vs + results)})"
    body += [pad + found] if test is None else [f"{pad}if {test.format(*results)}:",
                                                 f"{pad} {found}"]
    laws = [line for i in read for line in checks[i]]
    source = ("def make(meet, join, impl, neg, tilde, top, bottom):\n"
              + "".join(f" {line}\n" for line in laws + body) + " return search\n")
    namespace: dict = {"__builtins__": {}, "product": itertools.product}
    exec(compile(source, "<twoneg goal>", "exec"), namespace)
    return namespace["make"]


def _conjunction(parts: tuple[str, ...]) -> str:
    return " and ".join(parts) or "True"


def _guards(results: list[str], level: dict[str, int], shape: dict[str, tuple],
            depths: int, fails: str) -> tuple[list[list[str]], list[int]]:
    """Per loop depth below `depths`, the conditions on the values known
    there that rule out the test of a search over (lhs, rhs), or over lhs
    alone: the lhs, once known, `fails` (a format over it), or the rhs is
    forced to top through the absorbing laws (`_ABSORBING`), a law read as
    `l<i>`.  A condition an outer depth already tested is left out, since
    that depth went on only where it was false.  Also the laws they read."""

    def top_at(x: str, depth: int) -> list[tuple[str, ...]]:
        # the conjunctions, any one of which forces `x` to top (() always)
        if level[x] <= depth:
            return [()] if x == "top" else [(f"{x} == top",)]
        t, kids = shape.get(x, (None, ()))
        found = []
        for i, (law, needs) in enumerate(_ABSORBING):
            if law is not t:
                continue
            parts = [f"l{i}"]
            for kid, need in zip(kids, needs):
                if need is None:
                    continue
                if need == "top":
                    sub = top_at(kid, depth)
                else:
                    sub = [] if level[kid] > depth else [
                        () if kid == "bottom" else (f"{kid} == bottom",)]
                if not sub:
                    break
                parts += sub[0] if len(sub) == 1 else [f"({' or '.join(map(_conjunction, sub))})"]
            else:
                found.append(tuple(dict.fromkeys(parts)))
        return found

    lhs, tested, guards = results[0], set(), []
    for depth in range(depths):
        conds = [fails.format(lhs)] if level[lhs] == depth and lhs != "top" else []
        if len(results) == 2:
            conds += [c for c in map(_conjunction, top_at(results[1], depth)) if c not in tested]
        tested.update(conds)
        guards.append(conds)
    words = " ".join(map(" ".join, guards)).replace("(", " ").replace(")", " ").split()
    return guards, sorted({int(w[1:]) for w in words if w[0] == "l"})


def _last_lookup(planned):
    """`planned` behind a one-entry memo of its last lookup, matched when the
    language is equal and each goal is the same object, so that a sweep,
    which looks its goal up once per algebra, compares it node by node at
    most once.  The memo holds one goal tuple and its plan, never more.
    `cache_clear` empties the memo and `planned`; `cache_info` is `planned`'s."""
    last = (None, (), None)  # language, goals, plan: one tuple, swapped whole

    def plan(goals: tuple[Formula, ...], language: str):
        nonlocal last
        seen, kept, found = last
        if language == seen and len(goals) == len(kept) and all(map(operator.is_, goals, kept)):
            return found
        found = planned(goals, language)
        last = language, goals, found
        return found

    def cache_clear() -> None:
        nonlocal last
        last = (None, (), None)
        planned.cache_clear()

    plan.__doc__ = planned.__doc__
    plan.cache_info, plan.cache_clear = planned.cache_info, cache_clear
    return plan


@_last_lookup
@lru_cache(maxsize=_PROGRAM_CACHE)
def _plan(goals: tuple[Formula, ...], language: str):
    """What a search or an evaluation needs of `goals` in `language` that no
    algebra or frame changes: the atom names of all goals in
    first-occurrence order, per goal whether it has a node the language
    lacks, and the `_program` factory of the goals before the first such
    one (None if that is the first goal).  A search of (lhs, rhs) tests the
    goals it keeps by its row's stop test; a one-goal plan has no test.

    The last lookup is matched by identity (`_last_lookup`), any other by
    value in an LRU of `_PROGRAM_CACHE` entries, so an equal goal may be
    another object: a plan holds no node, and an error names the caller's
    own node, found by `_raise_first_error` on the caller's goals.
    """
    lacks, _, row = _LANGUAGES[language]
    names = tuple(dict.fromkeys(name for g in goals for name in atoms(g)))
    offends = tuple(lacks is not None and contains(g, lacks) for g in goals)
    kept = goals[:offends.index(True)] if True in offends else goals
    test = row[1].get(len(kept)) if len(goals) > 1 else None
    return names, offends, _program(kept, names, row, test) if kept else None


def _language(alg: AnyAlgebra) -> str:
    if alg.impl is None:
        return "kim"
    return "pba" if alg.tilde is None else "ccpba"


def _bind(alg: AnyAlgebra, make):
    """The search of the factory `make` over the tables of `alg`."""
    lat = alg.lattice
    return make(lat.meet, lat.join, alg.impl, alg.neg, alg.tilde, lat.top, lat.bottom)


def _raise_first_error(goals: tuple[Formula, ...], language: str, error: type,
                       valuation: Mapping | None = None) -> None:
    """Raise `error` at the first node of `goals` in pre-order, goals left
    to right, that `language` lacks (`_LANGUAGES`), or that is an atom a
    given `valuation` leaves unbound (absent or None); else return."""
    lacks, kind, _ = _LANGUAGES[language]
    for g in itertools.chain(*map(subformulas, goals)):
        if type(g) is lacks:
            raise error(kind, g)
        if type(g) is Atom and valuation is not None and valuation.get(g.name) is None:
            raise error("unbound-atom", g.name)


def evaluate(alg: AnyAlgebra, f: Formula, valuation: Mapping[str, int]) -> int:
    """Value of `f` in `alg` with each atom sent to its element index; after
    the errors of `f`, a value that is no index is valuation-not-element."""
    _raise_first_error((f,), _language(alg), AlgebraError, valuation)
    names, _, make = _plan((f,), _language(alg))
    for name in names:
        if not isinstance(valuation[name], int) or valuation[name] not in range(alg.size):
            raise AlgebraError("valuation-not-element", name)
    return _bind(alg, make)(*[(valuation[n],) for n in names])[-1]


def algebra_valid(alg: AnyAlgebra, f: Formula) -> Verdict:
    """The sequent `top |- f`, as in `frames.frame_valid`: the first
    falsifier in lexicographic order over the declared element order."""
    return sequent_valid(alg, TOP, f)


def sequent_valid(alg: AnyAlgebra, lhs: Formula, rhs: Formula) -> Verdict:
    """v(lhs) = 1 implies v(rhs) = 1, for every valuation, tried in
    lexicographic order; the first falsifier is reported.  The atoms, the
    language check and the compiled search come from one plan per goal and
    language (`_plan`), shared by every algebra of a sweep.  An error in
    `lhs` is raised first; one in `rhs` alone only once some valuation sends
    `lhs` to 1.  Its witness is the first offending node of the caller's own
    `lhs` or `rhs` in pre-order."""
    names, offends, make = _plan((lhs, rhs), _language(alg))
    if offends[0]:
        _raise_first_error((lhs, rhs), _language(alg), AlgebraError)
    found = _bind(alg, make)(*(range(alg.size),) * len(names))
    if found is None:
        return VALID
    if offends[1]:
        _raise_first_error((lhs, rhs), _language(alg), AlgebraError)
    return Verdict(False, {k: alg.element(i) for k, i in zip(names, found)})


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
        if pos[f_tilde(p)] != alg.tilde[i]:
            raise VerificationError("au-tilde-mismatch", names[i])
        nf = f_impl(p, bottom_pair)
        if pos[nf] != alg.neg[i]:
            raise VerificationError("au-neg-mismatch", names[i])
    ccpba = ccpba_flags(alg)[1]
    if not ccpba.holds:
        raise VerificationError("au-not-ccpba", ccpba.witness)
    return alg


# ---------------------------------------------------------------------------
# Isomorphism and catalogs.

def _canonical_data(alg: AnyAlgebra):
    unaries = (alg.neg,) if alg.tilde is None else (alg.neg, alg.tilde)
    marks = () if alg.tilde_one is None else (alg.tilde_one,)
    return canonical_form(alg.lattice.leq, unaries, marks)


def iso_check(a: AnyAlgebra, b: AnyAlgebra) -> dict[str, str] | None:
    """A structure-preserving bijection between the carriers, or None."""
    if type(a) is not type(b) or a.size != b.size:
        return None
    if (a.tilde is None) != (b.tilde is None):
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
                    a.impl is not None and f[a.impl[i][j]] != b.impl[f[i]][f[j]]):
                raise VerificationError("iso-binary-mismatch", (a.element(i), a.element(j)))
        if f[a.neg[i]] != b.neg[f[i]] or (
                a.tilde is not None and f[a.tilde[i]] != b.tilde[f[i]]):
            raise VerificationError("iso-unary-mismatch", a.element(i))
    return {a.element(i): b.element(f[i]) for i in range(a.size)}


CATALOG_CLASSES = ("pba", "ccpba", "cvcpba", "kim", "kim_vee")

# Default bounds on the algebra size a search scans and on the atoms of a
# validity search's goal; `guard=None` or `max_atoms=None` (CLI: `--force`)
# lifts them.
SIZE_GUARD = 8
ATOM_GUARD = 3


@lru_cache(maxsize=None)
def _section(cls: str, size: int) -> tuple[AnyAlgebra, ...]:
    """The catalog members of `cls` with `size` elements in canonical order,
    named `{cls}_{size}_0`, `{cls}_{size}_1`, ...  Only pba (no ~1) and
    ccpba (every !!-fixed element as ~1) run a canonical pass: it keeps the
    keys and decodes each entry from its key, the order from the bits and ~1
    from the marks.  cvcpba is the sub-list of ccpba where excluded middle
    holds.  The Kim classes are the implication-free reducts of ccpba and
    cvcpba: in a Heyting algebra the Kim laws force ~a = a -> ~1 (the
    theorem and its proof are in `_path_failure`'s docstring)."""
    if cls in ("pba", "ccpba"):
        keys = {_canonical_data(attach_negations(lat, t1))[0] for lat in _lattices(size)
                for t1 in ([None] if cls == "pba" else tilde_one_candidates(lat))}
        return tuple(attach_negations(_lattice([f"e{i}" for i in range(size)], _decoded(key)),
                                      key[3][0] if key[3] else None, name=f"{cls}_{size}_{i}")
                     for i, key in enumerate(sorted(keys)))
    entries: tuple[AnyAlgebra, ...] = _section("ccpba", size)
    if cls in ("cvcpba", "kim_vee"):
        entries = tuple(a for a in entries if _em(a.lattice, a.tilde) is None)
    if cls in ("kim", "kim_vee"):
        entries = tuple(KimAlgebra("", a.lattice, a.neg, a.tilde) for a in entries)
    return tuple(replace(alg, name=f"{cls}_{size}_{i}") for i, alg in enumerate(entries))


@lru_cache(maxsize=None)
def enumerate_algebras(cls: str, max_size: int, include_trivial: bool = False,
                       guard: int | None = SIZE_GUARD) -> tuple[AnyAlgebra, ...]:
    """All non-isomorphic catalog members of `cls` with size <= max_size, in
    canonical order (size, then canonical key); elements renamed e0, e1, ...
    It joins the size sections (`_section`) from 2, or 1 with `include_trivial`:
    a section does not depend on the bound, as keys start with the size and
    names count within it, so each is built once per process."""
    if cls not in CATALOG_CLASSES:
        raise AlgebraError("unknown-class", cls)
    if max_size < 1:
        raise AlgebraError("bad-size", max_size)
    if guard is not None and max_size > guard:
        raise BoundGuardError("enumerate max_size", guard, max_size)
    return tuple(alg for size in range(1 if include_trivial else 2, max_size + 1)
                 for alg in _section(cls, size))


# ---------------------------------------------------------------------------
# Algebra files: `algebra NAME / elements ... / leq a b ... / tilde_one e / end`,
# `#` starts a comment, tokens are whitespace-separated.

def read_algebra(text: str) -> Algebra:
    name: str | None = None
    elements: list[str] = []
    pairs: list[tuple[str, str]] = []
    tilde_name: str | None = None
    seen: set[tuple[str, ...]] = set()
    for line in content_lines(text):
        match line.split():
            case ["algebra", nm]:
                if name is not None:
                    raise FileFormatError("duplicate-directive", "algebra")
                name = nm
            case ["elements", *rest] if rest:
                for e in rest:
                    given_once(seen, ("elements", e), line, f"element {e}")
                elements.extend(rest)
            case ["leq", a, b]:
                given_once(seen, ("leq", a, b), line, f"leq {a} {b}")
                pairs.append((a, b))
            case ["tilde_one", e]:
                if tilde_name is not None:
                    raise FileFormatError("duplicate-directive", "tilde_one")
                tilde_name = e
            case _:
                raise FileFormatError("bad-line", line)
    if not elements:
        raise FileFormatError("missing-elements", None)
    if name is None:  # as a .frm or .prf file, an .alg file starts with its header
        raise FileFormatError("missing-header", None, "expected 'algebra NAME'")
    lat = build_lattice(elements, pairs)
    t1 = lat.index(tilde_name) if tilde_name is not None else None
    return attach_negations(lat, t1, name=name)


def write_algebra(alg: Algebra) -> str:
    lat = alg.lattice
    lines = [f"algebra {alg.name}", "elements " + " ".join(lat.elements)]
    for a, b in transitive_reduction(lat.leq):
        lines.append(f"leq {lat.elements[a]} {lat.elements[b]}")
    if alg.tilde_one is not None:
        lines.append(f"tilde_one {lat.elements[alg.tilde_one]}")
    lines.append("end")
    return "\n".join(lines) + "\n"
