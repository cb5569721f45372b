"""Propositional formulas over two negations.

Surface syntax (ASCII): `top bot & | -> ! ~ <->`, parenthesised subterms,
atoms matching ``[a-z][a-zA-Z0-9_]*``.  `!` is the intuitionistic negation,
`~` the minimal one; both bind tighter than `&`, and consecutive unaries
need no parentheses (`!!~top`).  `a <-> b` is sugar for
`(a -> b) & (b -> a)` and never appears in the AST.

Grammar::

    formula := impl ("<->" formula)?
    impl    := disj ("->" impl)?
    disj    := conj ("|" conj)*
    conj    := unary ("&" unary)*
    unary   := ("!" | "~") unary | atom
    atom    := "top" | "bot" | ident | "(" formula ")"
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .errors import FormulaSyntaxError

__all__ = [
    "Formula", "Top", "Bot", "Atom", "And", "Or", "Impl", "Neg", "Tilde",
    "TOP", "BOT", "MAX_DEPTH", "parse", "render", "subformulas", "fold",
    "atoms", "contains", "match_scheme", "substitute",
]

_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_KEYWORDS = frozenset({"top", "bot"})

# Deepest nesting (parentheses and operators) and deepest AST a parsed
# formula may have; deeper input is a syntax error, so that the recursive
# parser and the evaluators stay far from the interpreter's stack limit.
MAX_DEPTH = 100


class Formula:
    """Base class; all nodes are frozen dataclasses with structural equality."""

    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class Bot(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not _ATOM_RE.match(self.name) or self.name in _KEYWORDS:
            raise FormulaSyntaxError(0, frozenset({"identifier"}),
                                     f"reserved or malformed atom name {self.name!r}")


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Impl(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Neg(Formula):
    child: Formula


@dataclass(frozen=True)
class Tilde(Formula):
    child: Formula


TOP = Top()
BOT = Bot()

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<iff><->)|(?P<arrow>->)|(?P<amp>&)|(?P<bar>\|)|(?P<bang>!)"
    r"|(?P<tilde>~)|(?P<lp>\()|(?P<rp>\))|(?P<word>[a-zA-Z][a-zA-Z0-9_]*))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
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
        assert kind is not None
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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

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
    p = _Parser(text)
    node = p.formula()
    if p.peek()[0] != "eof":
        p.fail(frozenset({"end of input", "->", "<->", "&", "|"}))
    # a token adds at most two levels (`<->`: an And over Impls), so short
    # input needs no walk
    if len(p.tokens) > MAX_DEPTH // 2 and _depth(node) > MAX_DEPTH:
        raise FormulaSyntaxError(0, frozenset(), f"formula deeper than {MAX_DEPTH} levels")
    return node


# Binding strengths for minimal-parenthesis rendering: atoms and constants
# bind tightest, then the unaries, then each infix operator, which also names
# the strength its left and right operands need to go without parentheses.
_ATOMIC, _UNARY = 4, 3
_INFIX = {Impl: (" -> ", 0, 1, 0), Or: (" | ", 1, 1, 2), And: (" & ", 2, 2, 3)}


def _operand(kid: tuple[str, int], need: int) -> str:
    return f"({kid[0]})" if kid[1] < need else kid[0]


def _render_node(g: Formula, kids: list[tuple[str, int]]) -> tuple[str, int]:
    """(text, binding strength) of `g` from those of its children."""
    match g:
        case Top():
            return "top", _ATOMIC
        case Bot():
            return "bot", _ATOMIC
        case Atom(name):
            return name, _ATOMIC
        case Neg():
            return "!" + _operand(kids[0], _UNARY), _UNARY
        case Tilde():
            return "~" + _operand(kids[0], _UNARY), _UNARY
    op, strength, left, right = _INFIX[type(g)]
    return _operand(kids[0], left) + op + _operand(kids[1], right), strength


def render(f: Formula) -> str:
    """Minimal-parenthesis text; parse(render(f)) is structurally equal to f."""
    return fold(f, _render_node)[0]


# -- one traversal ----------------------------------------------------------
# Structural walks go through `_children` and its inverse `_rebuild` without
# recursion, so they work at any depth; the parser and the evaluators
# recurse and rely on MAX_DEPTH.

def _children(f: Formula) -> tuple[Formula, ...]:
    # dispatch on the exact type: a class-pattern `match` costs five times
    # as much, and this runs once per node of every walk
    t = type(f)
    if t is And or t is Or or t is Impl:
        return (f.left, f.right)
    if t is Neg or t is Tilde:
        return (f.child,)
    if t is Atom or t is Top or t is Bot:
        return ()
    raise TypeError(f"not a formula: {f!r}")


def _rebuild(f: Formula, kids) -> Formula:
    """The node `f` over the children `kids`."""
    return type(f)(*kids) if kids else f


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every subformula occurrence, each node before its children, left
    before right; lazily, so a search can stop at the first hit."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(_children(g)))


def fold(f: Formula, combine):
    """Bottom-up value of `f`: `combine(node, values of its children)`.  A
    node shared by several parents (`<->` shares both sides) is folded once."""
    value: dict[int, object] = {}
    stack = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if id(g) in value:
            continue
        kids = _children(g)
        if expanded:
            value[id(g)] = combine(g, [value[id(c)] for c in kids])
        else:
            stack.append((g, True))
            stack.extend([(c, False) for c in reversed(kids)])
    return value[id(f)]


def _depth(f: Formula) -> int:
    """Levels below the root on the longest path, walked level by level so
    that a node shared by several parents (`<->` shares both sides) is seen
    once per level."""
    depth, level = 0, {id(f): f}
    while True:
        below = {id(c): c for g in level.values() for c in _children(g)}
        if not below:
            return depth
        depth, level = depth + 1, below


def atoms(f: Formula) -> list[str]:
    """Atom names in first-occurrence order, duplicates removed."""
    return list(dict.fromkeys(g.name for g in subformulas(f) if type(g) is Atom))


def contains(f: Formula, kinds) -> bool:
    """Whether some subformula is an instance of `kinds` (a node class or a
    tuple of them)."""
    return any(isinstance(g, kinds) for g in subformulas(f))


def match_into(scheme: Formula, target: Formula, subst: dict[str, Formula]) -> bool:
    """Extend `subst` so that subst(scheme) == target; one-way matching."""
    stack = [(scheme, target)]
    while stack:
        s, t = stack.pop()
        if type(s) is Atom:
            bound = subst.get(s.name)
            if bound is None:
                subst[s.name] = t
            elif bound != t:
                return False
        elif type(s) is not type(t):
            return False
        else:
            stack.extend(zip(reversed(_children(s)), reversed(_children(t))))
    return True


def match_scheme(scheme: Formula, target: Formula) -> dict[str, Formula] | None:
    """The unique substitution sending `scheme` to `target`, or None."""
    subst: dict[str, Formula] = {}
    if match_into(scheme, target, subst):
        return subst
    return None


def substitute(scheme: Formula, subst: dict[str, Formula]) -> Formula:
    return fold(scheme, lambda g, kids: subst.get(g.name, g) if isinstance(g, Atom)
                else _rebuild(g, kids))
