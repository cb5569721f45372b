from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from twoneg.errors import FormulaSyntaxError
from twoneg.formula import (MAX_NODES, And, Atom, Bot, Impl, Neg, Or, Tilde, Top,
                            atoms, match_scheme, parse, render, subformulas,
                            substitute)

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
