"""The formula syntax, and the one-scan parser against the former
tokenizer and parser (`oracles.parse`): equal nodes, or the same error
offset, expected set and detail."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from twoneg.errors import FormulaSyntaxError
from twoneg.formula import (MAX_NODES, And, Atom, Bot, Impl, Neg, Or, Tilde, Top,
                            atoms, match_scheme, parse, render, subformulas,
                            substitute)

import oracles

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def test_precedence_example():
    assert parse("~p -> !q | r") == Impl(Tilde(P), Or(Neg(Q), R))


def test_right_associative_arrow():
    assert parse("p -> q -> r") == Impl(P, Impl(Q, R))


def test_parenthesized_constants():
    assert parse("top -> (bot -> top)") == Impl(Top(), Impl(Bot(), Top()))


def test_iff_desugars():
    assert parse("p <-> q") == And(Impl(P, Q), Impl(Q, P))
    assert parse("~a <-> (a -> !!~top)") == And(
        Impl(Tilde(Atom("a")), Impl(Atom("a"), Neg(Neg(Tilde(Top()))))),
        Impl(Impl(Atom("a"), Neg(Neg(Tilde(Top())))), Tilde(Atom("a"))))


def test_consecutive_unaries():
    assert parse("!!~top") == Neg(Neg(Tilde(Top())))


@pytest.mark.parametrize("f,text", [
    (Impl(And(P, Q), R), "p & q -> r"),
    (Tilde(Top()), "~top"),
    (Or(P, Tilde(P)), "p | ~p"),
])
def test_render_examples(f, text):
    assert render(f) == text


def test_render_keeps_needed_parens():
    assert render(Or(P, Or(Q, R))) == "p | (q | r)"
    assert render(And(Or(P, Q), R)) == "(p | q) & r"
    assert render(Impl(Impl(P, Q), R)) == "(p -> q) -> r"


@pytest.mark.parametrize("text,names", [
    ("p & q -> p", ["p", "q"]),
    ("top", []),
    ("~p | !p", ["p"]),
])
def test_atoms_examples(text, names):
    assert atoms(parse(text)) == names


def test_match_scheme_examples():
    s = parse("a -> (b -> a)")
    assert match_scheme(s, parse("p -> (q -> p)")) == {"a": P, "b": Q}
    assert match_scheme(s, parse("p -> (q -> r)")) is None
    a11 = parse("~a <-> (a -> !!~top)")
    inst = substitute(a11, {"a": Tilde(P)})
    assert match_scheme(a11, inst) == {"a": Tilde(P)}


def test_syntax_error_offset_and_expected():
    with pytest.raises(FormulaSyntaxError) as e:
        parse("p -> )")
    assert e.value.offset == 5
    assert ")" not in e.value.expected  # a formula was expected there
    with pytest.raises(FormulaSyntaxError):
        parse("p @ q")
    with pytest.raises(FormulaSyntaxError):
        parse("(p")


def test_node_cap_without_iff():
    # a balanced formula stays shallow, so only the occurrence cap stops it
    text = "p"
    for _ in range(12):
        text = f"({text}) | ({text})"
    assert sum(1 for _ in subformulas(parse(text))) == 8191 <= MAX_NODES
    with pytest.raises(FormulaSyntaxError) as e:
        parse(f"({text}) | ({text})")
    assert str(MAX_NODES) in e.value.detail


def test_reserved_word_as_atom_rejected():
    with pytest.raises(FormulaSyntaxError):
        Atom("top")
    with pytest.raises(FormulaSyntaxError):
        Atom("P")


names = st.sampled_from(["p", "q", "r", "s1", "long_name"])


def formulas(depth=4):
    base = st.one_of(st.just(Top()), st.just(Bot()), names.map(Atom))
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda t: And(*t)),
            st.tuples(kids, kids).map(lambda t: Or(*t)),
            st.tuples(kids, kids).map(lambda t: Impl(*t)),
            kids.map(Neg),
            kids.map(Tilde),
        ),
        max_leaves=25)


@given(formulas())
def test_round_trip(f):
    assert parse(render(f)) == f


@given(formulas())
def test_match_recovers_substitution(body):
    scheme = parse("a -> (b -> a)")
    sigma = {"a": body, "b": Tilde(body)}
    inst = substitute(scheme, sigma)
    assert match_scheme(scheme, inst) == sigma


@given(formulas())
def test_substitution_atoms_subset(body):
    scheme = parse("a & (b -> a)")
    sigma = {"a": body, "b": And(body, Atom("q"))}
    got = set(atoms(substitute(scheme, sigma)))
    allowed = set(atoms(sigma["a"])) | set(atoms(sigma["b"]))
    assert got <= allowed


def _outcome(parser, text):
    try:
        return parser(text)
    except FormulaSyntaxError as e:
        return (e.offset, e.expected, e.detail)


# Token soups: atoms, keywords, every operator, words no atom may be
# (uppercase- and digit-led), stray characters, and runs of spaces and tabs
# between them and after them.
SOUP_TOKENS = st.sampled_from(["p", "q", "x_1", "top", "bot", "topx", "&", "|", "->", "<->",
                               "!", "~", "(", ")", "P", "Qx", "1p", "9", "@", "-", "<", ">",
                               "_", "\u00e9", "-->", "<-"])
GAPS = st.sampled_from(["", " ", "  ", "\t", " \t "])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(GAPS, SOUP_TOKENS), max_size=14), GAPS)
def test_token_soup_matches_the_oracle(pairs, tail):
    text = "".join(gap + tok for gap, tok in pairs) + tail
    assert _outcome(parse, text) == _outcome(oracles.parse, text)


@settings(max_examples=200, deadline=None)
@given(formulas(), st.integers(min_value=0), SOUP_TOKENS, st.booleans())
def test_spliced_formula_matches_the_oracle(f, at, tok, splice):
    """A rendered formula, whole or with one soup token spliced in."""
    text = render(f)
    if splice:
        at %= len(text) + 1
        text = f"{text[:at]} {tok} {text[at:]}"
    assert _outcome(parse, text) == _outcome(oracles.parse, text)


# Each nesting form at depth n, the chains whose tree is deep with no
# nesting at all, and `<->` chains about the node cap.
NESTINGS = {
    "parens": lambda n: "(" * n + "p" + ")" * n,
    "bang": lambda n: "!" * n + "p",
    "tilde": lambda n: "~!" * (n // 2) + "~" * (n % 2) + "p",
    "arrow": lambda n: "p -> " * n + "p",
    "iff": lambda n: "p <-> " * n + "q",
    "iff-terms": lambda n: " <-> ".join(["p"] * (n - 88)),  # 11-14 terms: the node cap
    "mixed": lambda n: "(!" * (n // 2) + "p" + ")" * (n // 2) + " -> q" * (n % 2),
    "and-chain": lambda n: " & ".join(["p"] * (n + 1)),
    "or-chain": lambda n: " | ".join(["p"] * (n + 1)),
    "unclosed": lambda n: "(" * n + "p" + ")" * (n - 1),
    "stray-after": lambda n: "!" * n + "p @",
}


@pytest.mark.parametrize("n", range(99, 103))
@pytest.mark.parametrize("form", NESTINGS)
def test_depth_edges_match_the_oracle(form, n):
    text = NESTINGS[form](n)
    assert _outcome(parse, text) == _outcome(oracles.parse, text)


def test_parse_leaves_no_garbage_cycle():
    """The parser's two closures refer to each other; `parse` unlinks them
    before it returns or raises, so that no parse leaves work for the cycle
    collector."""
    gc.collect()
    gc.disable()
    try:
        for text in ("p -> q & !r", "p <-> q", "p @ q", "(p", "!" * 101 + "p"):
            try:
                parse(text)
            except FormulaSyntaxError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()
