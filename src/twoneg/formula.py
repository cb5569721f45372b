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
from typing import Iterator

from .errors import FormulaSyntaxError

__all__ = [
    "Formula", "Top", "Bot", "Atom", "And", "Or", "Impl", "Neg", "Tilde",
    "TOP", "BOT", "MAX_DEPTH", "MAX_NODES", "parse", "render", "subformulas", "fold",
    "atoms", "contains", "match_scheme", "substitute",
]

_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_KEYWORDS = frozenset({"top", "bot"})

# Deepest nesting (parentheses and operators) and deepest AST a parsed
# formula may have; deeper input is a syntax error, so that the recursive
# parser and the nodes' own `==` and `repr` stay far from the interpreter's
# stack limit.
MAX_DEPTH = 100

# Most subformula occurrences a parsed formula may have.  `a <-> b` shares
# both sides, so a chain of k `<->` has about 3 * 2**k occurrences, and
# every walk by occurrence (printing, atoms, comparing) would take that long.
MAX_NODES = 10_000


class Formula:
    """Base class of the formula nodes.  Nodes are immutable and compare
    structurally, only within one node class; each computes its hash once,
    at construction, as the hash of the tuple of its fields."""

    __slots__ = ("_hash",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash


# The node methods name their fields instead of looping over a field list,
# and the constructors store them through the slot descriptors: every parse
# and substitution builds nodes, and equality and hashing run on every cache
# lookup and proof-line match.
_set_hash = Formula._hash.__set__
_EMPTY_HASH = hash(())


class _Constant(Formula):
    __slots__ = ()
    __match_args__ = ()

    def __init__(self):
        _set_hash(self, _EMPTY_HASH)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    __hash__ = Formula.__hash__

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}()"

    def __reduce__(self):
        return self.__class__, ()


class Top(_Constant):
    __slots__ = ()


class Bot(_Constant):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        if not _ATOM_RE.match(name) or name in _KEYWORDS:
            raise FormulaSyntaxError(0, frozenset({"identifier"}),
                                     f"reserved or malformed atom name {name!r}")
        _set_name(self, name)
        _set_hash(self, hash((name,)))

    def __eq__(self, other):
        if other.__class__ is Atom:
            return self.name == other.name
        return NotImplemented

    __hash__ = Formula.__hash__

    def __repr__(self) -> str:
        return f"Atom(name={self.name!r})"

    def __reduce__(self):
        return Atom, (self.name,)


_set_name = Atom.name.__set__


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((left, right)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or (self._hash == other._hash and self.left == other.left
                                     and self.right == other.right)
        return NotImplemented

    __hash__ = Formula.__hash__

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(left={self.left!r}, right={self.right!r})"

    def __reduce__(self):
        return self.__class__, (self.left, self.right)


_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Impl(_Binary):
    __slots__ = ()


class _Unary(Formula):
    __slots__ = ("child",)
    __match_args__ = ("child",)

    def __init__(self, child: Formula):
        _set_child(self, child)
        _set_hash(self, hash((child,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or (self._hash == other._hash and self.child == other.child)
        return NotImplemented

    __hash__ = Formula.__hash__

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(child={self.child!r})"

    def __reduce__(self):
        return self.__class__, (self.child,)


_set_child = _Unary.child.__set__


class Neg(_Unary):
    __slots__ = ()


class Tilde(_Unary):
    __slots__ = ()


TOP = Top()
BOT = Bot()

# One match per token: `<->`, `->`, a word, or any other single character.
# A word led by an uppercase letter and a character that is no operator are
# errors wherever they stand (`_syntax_error`).
_TOKEN_RE = re.compile(r"<->|->|[a-zA-Z][a-zA-Z0-9_]*|\S")
_LOWER = frozenset("abcdefghijklmnopqrstuvwxyz")
_UPPER = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_OPERATORS = frozenset({"<->", "->", "&", "|", "!", "~", "(", ")"})
_CONSTANTS = {"top": TOP, "bot": BOT}
_UNARIES = {"!": Neg, "~": Tilde}
_BINDING = {"<->": 0, "->": 1, "|": 2, "&": 3}  # how tightly each infix binds
_START_EXPECT = frozenset({"top", "bot", "identifier", "(", "!", "~"})
_END_EXPECT = frozenset({"end of input", "->", "<->", "&", "|"})
_NESTED = f"nested deeper than {MAX_DEPTH} levels"


def _syntax_error(text: str, tokens: list[str], i: int, expected: frozenset[str],
                  detail: str | None = None) -> FormulaSyntaxError:
    """The error of the first stray character or bad identifier in `text`,
    wherever it stands, else the parser's error at token `i`: `detail`, or
    the token found there.  Offsets are worked out here, on the way out."""
    for j, tok in enumerate(tokens):
        if tok[:1] in _UPPER:
            i, expected, detail = j, frozenset({"identifier"}), f"bad identifier {tok!r}"
            break
        if tok and tok[:1] not in _LOWER and tok not in _OPERATORS:
            i, expected, detail = j, frozenset({"token"}), f"unexpected character {tok!r}"
            break
    else:
        if detail is None:
            detail = f"found {tokens[i]!r}" if tokens[i] else "found end of input"
    starts = [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]
    return FormulaSyntaxError(starts[i], expected, detail)


def parse(text: str) -> Formula:
    """Parse `text` into a Formula; raises FormulaSyntaxError with the offset on failure.

    One regex scan splits the text into token strings, and a precedence
    descent reads them: `expr(depth, floor)` reads operands joined by the
    infix operators that bind at least as tightly as `floor` (`_BINDING`),
    which gives the grammar's trees.  `depth` counts the enclosing
    parentheses, unaries and right sides of `->` and `<->`, up to MAX_DEPTH;
    `height` is the tree depth of the last node read, so that no walk of the
    tree checks MAX_DEPTH afterwards.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # end of input
    pos = height = 0

    def operand(depth: int) -> Formula:
        nonlocal pos, height
        tok = tokens[pos]
        pos += 1
        if tok[:1] in _LOWER:
            height = 0
            return _CONSTANTS.get(tok) or Atom(tok)
        if tok == "(":
            if depth == MAX_DEPTH:
                raise _syntax_error(text, tokens, pos, frozenset(), _NESTED)
            node = expr(depth + 1, 0)
            if tokens[pos] != ")":
                raise _syntax_error(text, tokens, pos, frozenset({")"}))
            pos += 1
            return node
        if tok in _UNARIES:
            if depth == MAX_DEPTH:
                raise _syntax_error(text, tokens, pos, frozenset(), _NESTED)
            node = _UNARIES[tok](operand(depth + 1))
            height += 1
            return node
        raise _syntax_error(text, tokens, pos - 1, _START_EXPECT)

    def expr(depth: int, floor: int) -> Formula:
        nonlocal pos, height
        node = operand(depth)
        h = height
        while True:
            binding = _BINDING.get(tokens[pos], -1)
            if binding < floor:
                height = h
                return node
            pos += 1
            if binding == 3:
                node = And(node, operand(depth))
            elif binding == 2:
                node = Or(node, expr(depth, 3))
            else:  # `->` and `<->` group to the right, one nesting level deeper
                if depth == MAX_DEPTH:
                    raise _syntax_error(text, tokens, pos, frozenset(), _NESTED)
                right = expr(depth + 1, binding)
                if binding:
                    node = Impl(node, right)
                else:  # an And over Impls: one level more on either side
                    node = And(Impl(node, right), Impl(right, node))
                    h, height = h + 1, height + 1
            h = (h if h > height else height) + 1

    try:
        node = expr(0, 0)
        if tokens[pos]:
            raise _syntax_error(text, tokens, pos, _END_EXPECT)
    finally:
        del operand, expr  # they refer to each other: no cycle for the collector
    if height > MAX_DEPTH:
        raise FormulaSyntaxError(0, frozenset(), f"formula deeper than {MAX_DEPTH} levels")
    # without `<->` every node has a token of its own; with it, count the
    # occurrences over the shared nodes, each node once
    if (("<->" in tokens or len(tokens) > MAX_NODES)
            and fold(node, lambda g, kids: 1 + sum(kids)) > MAX_NODES):
        raise FormulaSyntaxError(0, frozenset(), f"formula has more than {MAX_NODES} nodes")
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
# recursion, so they work at any depth; only the parser recurses, and it
# relies on MAX_DEPTH.

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
