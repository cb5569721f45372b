"""Test-only helpers over the package API: the formula and unary-map
strategies, the outcome of a call and its comparison, products of chains,
the implication-free reduct of a two-negation algebra, an algebra record
read off any implication table, the pseudo-complement, every sub-normal
frame up to a size, a frame model with pointwise truth, N-hat frames whose
`!` relation is off the order, and a module loaded from its file; and the
inputs several test modules share: the five-class catalog, the frame
corpus, the adversarial atom names, the bundled proofs by mode and the
phi/psi formula battery."""

from __future__ import annotations

import functools
import importlib.util
import itertools
import random
from pathlib import Path

from hypothesis import strategies as st

from twoneg._record import record
from twoneg.algebra import CATALOG_CLASSES, Algebra, build_kim, enumerate_algebras
from twoneg.bridge import canonical_frame_ccpba, canonical_frame_kim
from twoneg.errors import FrameError, LatticeError, WorkbenchError
from twoneg.formula import BOT, TOP, And, Atom, Formula, Impl, Neg, Or, Tilde, parse
from twoneg.frames import (Frame, NhatFrame, SubNormalFrame, dne_tilde_top_witness,
                           frame_upsets, read_frame, truth_set)
from twoneg.lattice import all_posets, build_lattice, derive_heyting
from twoneg.translate import phi

from oracles import is_upset

# Every catalog algebra up to size 5, of all five classes.
CATALOG = [alg for cls in CATALOG_CLASSES for alg in enumerate_algebras(cls, 5)]

# The bundled three-world frame and the canonical frames of the ccpba catalog
# to size 6, their phi images, and the canonical frames of the Kim catalog to
# size 6.
_SUBNORMAL = ([read_frame((Path(__file__).parent / "fixtures" / "three_world.frm").read_text())]
              + [canonical_frame_ccpba(alg) for alg in enumerate_algebras("ccpba", 6)])
FRAMES = (_SUBNORMAL + [phi(fr) for fr in _SUBNORMAL]
          + [canonical_frame_kim(alg) for alg in enumerate_algebras("kim", 6)])

# Atom names a careless code generator would confuse with its own identifiers.
NAMES = ["p", "q", "meet", "neg", "top_", "x0", "v0", "d0", "make", "search", "impl",
         "tilde", "bottom", "dom", "product"]

# The bundled proofs that check, by mode.
PROOFS = {"hilbert": ["top_three_lines.prf"] + [f"ilm_{c}.prf" for c in "abcdefghij"],
          "sequent": ([f"kim_p{i}.prf" for i in range(1, 8)]
                      + ["kimprime_a16.prf", "kimprime_a17.prf"])}

# Formulas whose truth sets phi and psi must keep.
BATTERY = [parse(t) for t in [
    "p | ~p", "!p -> ~p", "~~p", "~top", "!!~top <-> ~top",
    "~(p | q) <-> (~p & ~q)", "p -> ~!p", "!~p -> ~!p",
    "~p <-> (p -> ~top)", "bot -> p", "(p -> q) -> (~q -> ~p)", "~p | !!p",
]]


@functools.cache
def formulas(names: tuple[str, ...], with_impl: bool = True, max_leaves: int = 8):
    """Formulas over the atoms `names`, with `->` and `<->` as the parser
    builds it (sharing both sides) when `with_impl` is set.  One strategy
    per argument tuple: building it is most of the cost of drawing from it."""
    leaves = st.sampled_from([TOP, BOT] + [Atom(n) for n in names])

    def grow(kids):
        nodes = [st.builds(And, kids, kids), st.builds(Or, kids, kids),
                 st.builds(Neg, kids), st.builds(Tilde, kids)]
        if with_impl:
            nodes += [st.builds(Impl, kids, kids),
                      st.builds(lambda a, b: And(Impl(a, b), Impl(b, a)), kids, kids)]
        return st.one_of(nodes)

    return st.recursive(leaves, grow, max_leaves=max_leaves)


def unary(n: int):
    """Maps of an n-element carrier into itself, as tuples."""
    return st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)


def outcome(fn, *args, **kwargs):
    """The result, or the class, kind, witness and detail of the error raised."""
    try:
        return fn(*args, **kwargs)
    except WorkbenchError as e:
        return (type(e).__name__, e.kind, e.witness, e.detail)


def same(a, b) -> bool:
    """Equal outcomes; an offending `Formula` witness must be the same object."""
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b) == 4 \
            and isinstance(a[2], Formula):
        return a[:2] == b[:2] and a[2] is b[2] and a[3] == b[3]
    return a == b


def chain_product(dims):
    """The product of chains with `dims` elements each, elements named by
    their coordinates (digits) and listed in `itertools.product` order."""
    elements = list(itertools.product(*(range(d) for d in dims)))
    names = ["".join(map(str, e)) for e in elements]
    pairs = [(names[i], names[j]) for i, a in enumerate(elements)
             for j, b in enumerate(elements)
             if sum(y - x for x, y in zip(a, b)) == 1 and all(x <= y for x, y in zip(a, b))]
    return build_lattice(names, pairs)


def kim_reduct(alg):
    """Drop the implication of a two-negation algebra."""
    return build_kim(alg.lattice, alg.neg, alg.tilde, name=alg.name)


def table_record(lat, tilde_one: int | None, impl=None) -> Algebra:
    """The `Algebra` record over `lat` with implication `impl` (by default
    the residuum) and `tilde_one` as ~1, its negations read off `impl` as
    `attach_negations` reads them.  Nothing checks it: `attach_negations`
    rejects a ~1 with !!~1 != ~1, and the tests that classify such
    candidates or corrupted tables build the record here."""
    impl = derive_heyting(lat) if impl is None else impl
    neg = tuple(row[lat.bottom] for row in impl)
    tilde = None if tilde_one is None else tuple(row[tilde_one] for row in impl)
    return Algebra("record", lat, impl, neg, tilde_one, tilde)


def pseudo_complement(lat):
    """`!` of `lat` read off its residuum, or None when it has none."""
    try:
        return tuple(row[lat.bottom] for row in derive_heyting(lat))
    except LatticeError:
        return None


def subnormal_frames(max_worlds: int, require_d: bool = True) -> list[SubNormalFrame]:
    """Every sub-normal frame with every upset as Y0, on the canonical posets
    of 1 to `max_worlds` worlds named w0, w1, ...; only those meeting
    condition (D) when `require_d` is set."""
    posets = all_posets(max_worlds)
    return [fr for size in range(1, max_worlds + 1) for leq in posets[size]
            for y0 in frame_upsets(leq)
            for fr in [SubNormalFrame(tuple(f"w{i}" for i in range(size)), leq, y0)]
            if not require_d or dne_tilde_top_witness(fr) is None]


def truth_at(fr: Frame, valuation: dict[str, frozenset[int]], world: str, f: Formula) -> bool:
    return fr.index(world) in truth_set(fr, valuation, f)


@record
class FrameModel:
    """A frame plus an upset-valued valuation (checked at construction)."""

    frame: Frame
    valuation: dict[str, frozenset[int]]

    def __post_init__(self):
        for name, s in self.valuation.items():
            if not is_upset(self.frame.leq, s):
                raise FrameError("valuation-not-upset", name)

    def truth(self, world: str, f: Formula) -> bool:
        return truth_at(self.frame, self.valuation, world, f)


_SMALL_POSETS = [leq for size, posets in all_posets(4).items() if size > 1 for leq in posets]


def off_order(seed: int) -> NhatFrame:
    """An N-hat frame, never validated, with random R1 and R2: `!` reads R1,
    which need not contain or be the order."""
    rnd = random.Random(seed)
    leq = rnd.choice(_SMALL_POSETS)
    n = len(leq)

    def relation():
        return tuple(tuple(rnd.random() < 0.3 for _ in range(n)) for _ in range(n))

    return NhatFrame(tuple(f"w{i}" for i in range(n)), leq, relation(), relation())


def load_module(path, name: str):
    """The module at `path`, loaded from its file under `name`."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
