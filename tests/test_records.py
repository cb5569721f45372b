"""The records and formula nodes against real `dataclasses` copies of them.

The program builds its value classes without `dataclasses` (see
`twoneg._record` and `twoneg.formula`); each test here builds the frozen
dataclass the class used to be, from the same annotations, defaults and
`__post_init__`, and requires the same equality, hash, repr, match
arguments, defaults, frozen assignment and `replace`."""

from __future__ import annotations

import dataclasses
import pickle
from copy import deepcopy

import pytest
from hypothesis import given

from twoneg import _record, algebra, bridge, formula, frames, lattice, proofs
from twoneg._record import replace
from twoneg.cli import main
from twoneg.errors import FormulaSyntaxError, FrameError, VerificationError
from twoneg.formula import (And, Atom, Bot, Impl, Neg, Or, Tilde, Top, fold,
                            parse, render)

import support
from test_formula import formulas

RECORDS = [obj for mod in (algebra, bridge, frames, lattice, proofs, support)
           for obj in vars(mod).values()
           if isinstance(obj, type) and obj.__module__ == mod.__name__
           and obj.__setattr__ is _record._frozen_setattr]

_ORACLES: dict[type, type] = {}


def oracle(cls: type) -> type:
    """The frozen dataclass `cls` was declared as: its own annotations (left
    for `dataclasses` to sort out, `ClassVar` included), its defaults and
    `__post_init__`, over the oracles of its record bases."""
    if cls not in _ORACLES:
        own = cls.__dict__.get("__annotations__", {})
        ns = {"__module__": cls.__module__, "__qualname__": cls.__qualname__,
              "__annotations__": dict(own)}
        ns.update((name, cls.__dict__[name]) for name in own if name in cls.__dict__)
        if "__post_init__" in cls.__dict__:
            ns["__post_init__"] = cls.__dict__["__post_init__"]
        bases = tuple(oracle(b) for b in cls.__bases__ if b is not object) or (object,)
        _ORACLES[cls] = dataclasses.dataclass(frozen=True)(type(cls.__name__, bases, ns))
    return _ORACLES[cls]


FORK = frames.build_subnormal(["r", "a", "b"], [("r", "a"), ("r", "b")], [])

# field values that pass each class's __post_init__; other fields get strings
VALID_FIELDS = {
    "FrameModel": {"frame": FORK, "valuation": {"p": frozenset({1})}},
    "Embedding": {"checks": {"homomorphism": True}, "injective": True},
}


def _sample(cls) -> dict:
    fixed = VALID_FIELDS.get(cls.__name__, {})
    return {name: fixed.get(name, f"{name}-value") for name in cls.__match_args__}


def _same_outcome(f, g):
    """f() and g() both return equal values or both raise the same type."""
    try:
        want = f()
    except Exception as e:
        with pytest.raises(type(e)):
            g()
        return
    assert g() == want


def test_every_record_is_found():
    assert len(RECORDS) == 20
    assert {"Algebra", "FiniteLattice", "SubNormalFrame", "Embedding",
            "DerivationNode"} <= {cls.__name__ for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_dataclass(cls):
    dc = oracle(cls)
    assert cls.__match_args__ == dc.__match_args__
    fields = _sample(cls)
    new, old = cls(**fields), dc(**fields)
    assert repr(new) == repr(old)
    assert new == cls(*fields.values()) and old == dc(*fields.values())
    assert new != old and old != new  # different classes never compare equal
    _same_outcome(lambda: hash(old), lambda: hash(new))
    for name in cls.__match_args__:
        if name in VALID_FIELDS.get(cls.__name__, {}):
            continue
        changed = {**fields, name: "other"}
        assert (cls(**changed) == new) is (dc(**changed) == old) is False
        assert repr(replace(new, **{name: "other"})) == repr(
            dataclasses.replace(old, **{name: "other"}))
        for obj in (new, old):
            with pytest.raises(AttributeError):
                setattr(obj, name, "x")
            with pytest.raises(AttributeError):
                delattr(obj, name)
    with pytest.raises(TypeError):
        replace(new, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), "one too many")
    with pytest.raises(TypeError):
        cls(*fields.values(), **{cls.__match_args__[0]: "twice"})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_defaults_match_dataclass(cls):
    dc = oracle(cls)
    required = [f.name for f in dataclasses.fields(dc)
                if f.default is dataclasses.MISSING]
    fields = {k: v for k, v in _sample(cls).items() if k in required}
    assert repr(cls(**fields)) == repr(dc(**fields))
    values = list(_sample(cls).values())
    for given in range(len(required), len(values) + 1):
        assert repr(cls(*values[:given])) == repr(dc(*values[:given]))
    if len(required) < len(cls.__match_args__):
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in fields.items() if k != required[-1]})


def test_post_init_rejections():
    with pytest.raises(FrameError) as e:
        support.FrameModel(FORK, {"p": frozenset({0})})
    assert e.value.kind == "valuation-not-upset"
    model = support.FrameModel(FORK, {"p": frozenset({1})})
    with pytest.raises(FrameError):
        replace(model, valuation={"q": frozenset({0, 1})})
    good = bridge.Embedding("a", "b", (0, 1), {"hom": True}, True, True)
    for bad in ({"checks": {"hom": False}}, {"injective": False}):
        with pytest.raises(VerificationError) as e:
            replace(good, **bad)
        assert e.value.kind == "embedding-check-failed"
        with pytest.raises(VerificationError):
            dataclasses.replace(oracle(bridge.Embedding)(**_sample(bridge.Embedding)), **bad)
    for name in ("P", "top", "1p", ""):
        with pytest.raises(FormulaSyntaxError):
            Atom(name)


def test_verdicts_are_true_exactly_when_they_hold():
    """A refuted `Verdict` and a rejected `CheckResult` are falsy, so that
    `if algebra_valid(...)` reads the verdict: a record class without
    `__bool__` is truthy whatever it holds."""
    assert bool(algebra.VALID) and not bool(algebra.Verdict(False, {"p": "a"}))
    assert bool(proofs.ACCEPT) and not bool(proofs.CheckResult(False, "x"))


# -- formula nodes ------------------------------------------------------------

def _node_oracles():
    def dc(name, fields, post_init=None):
        ns = {"__module__": formula.__name__, "__qualname__": name}
        if post_init is not None:
            ns["__post_init__"] = post_init
        return dataclasses.make_dataclass(name, fields, frozen=True, namespace=ns)

    def check_atom(self):
        Atom(self.name)  # the same validation

    return {Top: dc("Top", []), Bot: dc("Bot", []), Atom: dc("Atom", ["name"], check_atom),
            **{c: dc(c.__name__, ["left", "right"]) for c in (And, Or, Impl)},
            **{c: dc(c.__name__, ["child"]) for c in (Neg, Tilde)}}


NODE_ORACLES = _node_oracles()


def as_dataclass(f):
    """`f` rebuilt from the dataclass copies of the node classes."""
    def node(g, kids):
        old = NODE_ORACLES[type(g)]
        return old(g.name) if type(g) is Atom else old(*kids)
    return fold(f, node)


@given(formulas(), formulas())
def test_formula_nodes_match_dataclasses(f, g):
    old_f, old_g = as_dataclass(f), as_dataclass(g)
    assert repr(f) == repr(old_f)
    assert hash(f) == hash(old_f)
    assert (f == g) is (old_f == old_g)
    assert (f != g) is (old_f != old_g)
    copy = parse(render(f))
    assert copy == f and hash(copy) == hash(f)
    assert Neg(f) != Tilde(f) and And(f, g) != Or(f, g) and Or(f, g) != Impl(f, g)
    assert Neg(f) == Neg(copy) and Impl(f, g) == Impl(copy, g)
    assert pickle.loads(pickle.dumps(f)) == f and deepcopy(f) == f


def test_formula_node_shape():
    assert Top() != Bot() and Top() == Top() and hash(Top()) == hash(Bot()) == hash(())
    assert Atom("p") != "p"
    for cls, old in NODE_ORACLES.items():
        assert cls.__match_args__ == old.__match_args__
    node = Impl(Tilde(Atom("p")), Top())
    match node:
        case Impl(Tilde(Atom(name)), Top()):
            assert name == "p"
        case _:
            pytest.fail("class patterns no longer match")
    for obj, field in ((node, "left"), (node.left, "child"), (Atom("p"), "name")):
        with pytest.raises(AttributeError):
            setattr(obj, field, Atom("q"))
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        Top().extra = 1


def test_formula_repr_reaches_porcelain_unchanged(capsys, fixtures_dir):
    code = main(["--porcelain", "eval", str(fixtures_dir / "h5.alg"), "~p", "--assign", "p=a"])
    assert code == 2
    assert capsys.readouterr().out.splitlines() == [
        "error=tilde-undefined", "detail=tilde-undefined at Tilde(child=Atom(name='p'))"]

