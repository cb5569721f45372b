"""Hilbert proof checking, sequent derivation checking, countermodel search.

The Hilbert systems share modus ponens as the only rule and differ in axiom
schemes and language.  `ILM2` has no primitive `!`: its negation is sugar for
`a -> bot`, expanded before checking.  `JP'` has neither `bot` nor `!`.
Sequent systems are implication-free; rules with premises are matched against
child sequents by a single substitution.

There is no proof search.  Refutation goes through the finite catalogs: the
search scans algebras of the system's class in canonical order, smallest
first, and reports the first falsifier.  Absence up to a bound is reported as
just that, never as theoremhood.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import record
from .algebra import SIZE_GUARD, _section, sequent_valid
from .errors import (AlgebraError, BoundGuardError, FileFormatError, content_lines,
                     given_once)
from .formula import (BOT, TOP, Bot, Formula, Impl, Neg, _rebuild, contains, fold,
                      match_into, parse, render)

__all__ = [
    "SCHEMES", "HILBERT_SYSTEMS", "SEQUENT_RULES", "SEQUENT_SYSTEMS",
    "ProofLine", "ProofScript", "DerivationNode", "CheckResult",
    "check_hilbert", "check_derivation", "expand_neg", "countermodel_search",
    "parse_proof", "hilbert_proof_text", "sequent_proof_text", "system_names",
]


# Axiom schemes; metavariables are the atoms a, b, c.  The texts are parsed
# on first use (`_schemes`, or the module attribute SCHEMES), so a command
# that checks no proof never parses them.
_SCHEME_TEXTS: dict[str, tuple[str, ...]] = {
    "A1": ("a -> (b -> a)",),
    "A2": ("(a -> (b -> c)) -> ((a -> b) -> (a -> c))",),
    "A3": ("a -> (a | b)", "b -> (a | b)"),
    "A4": ("(a -> c) -> ((b -> c) -> ((a | b) -> c))",),
    "A5": ("(a & b) -> a", "(a & b) -> b"),
    "A6": ("(a -> b) -> ((a -> c) -> (a -> (b & c)))",),
    "A7": ("a -> top",),
    "A8": ("bot -> a",),
    "A9": ("(a -> b) -> ((a -> !b) -> !a)",),
    "A10": ("!a -> (a -> b)",),
    "A11": ("~a <-> (a -> !!~top)",),
    "A12": ("a | ~a",),
    "A13": ("(a -> b) -> ((a -> ~b) -> ~a)",),
    "Pprime": ("~~(~top -> b)",),
    # The replacement pair for A11 in the reaxiomatisation ILM1:
    "TD": ("~a <-> (a -> ~top)",),
    "DNE": ("!!~top <-> ~top",),
}


@lru_cache(maxsize=None)
def _schemes() -> dict[str, tuple[Formula, ...]]:
    return {sid: tuple(map(parse, texts)) for sid, texts in _SCHEME_TEXTS.items()}


@record
class HilbertSystem:
    name: str
    axioms: tuple[str, ...]
    algebra_class: str
    forbidden: tuple[type, ...] = ()  # connectives outside the language
    expand: bool = False  # rewrite !x to x -> bot before checking


HILBERT_SYSTEMS: dict[str, HilbertSystem] = {
    "ILM": HilbertSystem("ILM", tuple(f"A{i}" for i in range(1, 12)), "ccpba"),
    "ILM-v": HilbertSystem("ILM-v", tuple(f"A{i}" for i in range(1, 13)), "cvcpba"),
    "ILM1": HilbertSystem("ILM1", tuple(f"A{i}" for i in range(1, 11)) + ("TD", "DNE"),
                          "ccpba"),
    "ILM2": HilbertSystem("ILM2", tuple(f"A{i}" for i in range(1, 9)) + ("A13", "Pprime"),
                          "ccpba", expand=True),
    "JP'": HilbertSystem("JP'", tuple(f"A{i}" for i in range(1, 8)) + ("A13", "Pprime"),
                         "ccpba", (Bot, Neg)),
}


def expand_neg(f: Formula) -> Formula:
    """Rewrite every !x into x -> bot (the ILM2 reading of negation)."""
    return fold(f, lambda g, kids: Impl(kids[0], BOT) if isinstance(g, Neg)
                else _rebuild(g, kids))


@record
class ProofLine:
    index: int
    formula: Formula
    just: tuple  # ("axiom", id) or ("mp", i, j)


@record
class ProofScript:
    lines: tuple[ProofLine, ...]
    goal: Formula


@record
class CheckResult:
    ok: bool
    error: str | None = None
    where: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


ACCEPT = CheckResult(True)


def _is_instance(f: Formula, scheme_id: str) -> bool:
    return any(match_into(scheme, f, {}) for scheme in _schemes()[scheme_id])


def check_hilbert(system: str, proof: ProofScript) -> CheckResult:
    """Accept iff every line is a scheme instance or modus ponens from earlier
    lines, the last line is the goal and every line is used to derive it."""
    sys = HILBERT_SYSTEMS.get(system)
    if sys is None:
        return CheckResult(False, "unknown-system", None, system)
    if not proof.lines:
        return CheckResult(False, "goal-mismatch", None, "empty proof")
    formulas: dict[int, Formula] = {}
    prev = 0
    goal = expand_neg(proof.goal) if sys.expand else proof.goal
    if sys.forbidden and contains(proof.goal, sys.forbidden):
        return CheckResult(False, "wrong-language", None, render(proof.goal))
    for line in proof.lines:
        if line.index <= prev:
            return CheckResult(False, "bad-line-order", line.index)
        prev = line.index
        if sys.forbidden and contains(line.formula, sys.forbidden):
            return CheckResult(False, "wrong-language", line.index)
        f = expand_neg(line.formula) if sys.expand else line.formula
        match line.just:
            case ("axiom", scheme_id):
                if scheme_id not in sys.axioms:
                    return CheckResult(False, "bad-instance", line.index,
                                       f"{scheme_id} not an axiom of {system}")
                if not _is_instance(f, scheme_id):
                    return CheckResult(False, "bad-instance", line.index, scheme_id)
            case ("mp", i, j):
                if i not in formulas or j not in formulas:
                    return CheckResult(False, "bad-mp", line.index,
                                       "cites a missing or later line")
                maj = formulas[i]
                if not (isinstance(maj, Impl) and maj.left == formulas[j]
                        and maj.right == f):
                    return CheckResult(False, "bad-mp", line.index)
            case _:
                return CheckResult(False, "bad-justification", line.index)
        formulas[line.index] = f
    if formulas[proof.lines[-1].index] != goal:
        return CheckResult(False, "goal-mismatch", proof.lines[-1].index)
    idx = _unreached({line.index: line.just[1:] if line.just[0] == "mp" else ()
                      for line in proof.lines})
    if idx is not None:
        return CheckResult(False, "unused-line", idx, "not used to derive the last line")
    return ACCEPT


def _unreached(cites: dict[int, tuple[int, ...]]) -> int | None:
    """The first line, in order, that the last line does not reach through
    the lines each line cites, or None.  `cites` maps each line number, in
    proof order, to the earlier lines it cites."""
    used = {next(reversed(cites))}
    for idx, refs in reversed(cites.items()):
        if idx in used:
            used.update(refs)
    return next((idx for idx in cites if idx not in used), None)


# ---------------------------------------------------------------------------
# Sequent systems.

Sequent = tuple[Formula, Formula]
RuleVariant = tuple[tuple[Sequent, ...], Sequent]


# Each rule variant is its premises, then its conclusion, as (lhs, rhs)
# texts, parsed on first use like the axiom schemes.
_SEQUENT_RULE_TEXTS: dict[str, tuple[tuple[tuple[str, str], ...], ...]] = {
    "A1": ((("a", "a"),),),
    "A2": ((("a", "b"), ("b", "c"), ("a", "c")),),
    "A3": ((("a & b", "a"),), (("a & b", "b"),)),
    "A4": ((("a", "b"), ("a", "c"), ("a", "b & c")),),
    "A5": ((("a", "c"), ("b", "c"), ("a | b", "c")),),
    "A6": ((("a", "a | b"),), (("b", "a | b"),)),
    "A7": ((("a & (b | c)", "(a & b) | (a & c)"),),),
    "A8": ((("a", "top"),),),
    "A9": ((("bot", "a"),),),
    "A10": ((("a", "b"), ("!b", "!a")),),
    "A11": ((("!a & !b", "!(a | b)"),),),
    "A12": ((("top", "!bot"),),),
    "A13": ((("a", "!!a"),),),
    "A14": ((("a & b", "c"), ("a & !c", "!b")),),
    "A15": ((("a & !a", "b"),),),
    "A16": ((("~a", "!(a & !~top)"),),),
    "A17": ((("!(a & !~top)", "~a"),),),
    "A18": ((("top", "a | ~a"),),),
    "P2": ((("a", "b"), ("~b", "~a")),),
    "P3": ((("~a & ~b", "~(a | b)"),),),
    "P4": ((("top", "~bot"),),),
    "P5": ((("a", "~~a"),),),
    "P6": ((("a & b", "c"), ("a & ~c", "~b")),),
    "P7": ((("!!~top", "~top"),),),
}


def _sequent(texts: tuple[str, str]) -> Sequent:
    return (parse(texts[0]), parse(texts[1]))


@lru_cache(maxsize=None)
def _sequent_rules() -> dict[str, tuple[RuleVariant, ...]]:
    return {rid: tuple((tuple(map(_sequent, v[:-1])), _sequent(v[-1])) for v in variants)
            for rid, variants in _SEQUENT_RULE_TEXTS.items()}


def __getattr__(name: str):
    """SCHEMES and SEQUENT_RULES, parsed on first access."""
    if name == "SCHEMES":
        return _schemes()
    if name == "SEQUENT_RULES":
        return _sequent_rules()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@record
class SequentSystem:
    name: str
    rules: tuple[str, ...]
    algebra_class: str
    forbidden = (Impl,)  # every sequent system is implication-free


SEQUENT_SYSTEMS: dict[str, SequentSystem] = {
    "Kim": SequentSystem("Kim", tuple(f"A{i}" for i in range(1, 18)), "kim"),
    "Kim-v": SequentSystem("Kim-v", tuple(f"A{i}" for i in range(1, 19)), "kim_vee"),
    "Kim'": SequentSystem("Kim'", tuple(f"A{i}" for i in range(1, 16))
                          + tuple(f"P{i}" for i in range(2, 8)), "kim"),
}


@record
class DerivationNode:
    lhs: Formula
    rhs: Formula
    rule: str
    children: tuple["DerivationNode", ...] = ()
    label: int | None = None


def check_derivation(system: str, root: DerivationNode) -> CheckResult:
    """Accept iff every node's sequent matches a variant of its cited rule,
    premises against children, under one substitution per node."""
    sys = SEQUENT_SYSTEMS.get(system)
    if sys is None:
        return CheckResult(False, "unknown-system", None, system)

    def visit(node: DerivationNode) -> CheckResult:
        for f in (node.lhs, node.rhs):
            if contains(f, sys.forbidden):
                return CheckResult(False, "wrong-language", node.label, render(f))
        if node.rule not in sys.rules:
            return CheckResult(False, "bad-axiom" if not node.children
                               else "premise-mismatch", node.label,
                               f"{node.rule} not a rule of {system}")
        variants = _sequent_rules()[node.rule]
        arities = {len(v[0]) for v in variants}
        if len(node.children) not in arities:
            return CheckResult(False, "arity-error", node.label,
                               f"{node.rule} expects {sorted(arities)} premises")
        matched = False
        for premises, concl in variants:
            if len(premises) != len(node.children):
                continue
            subst: dict[str, Formula] = {}
            if not (match_into(concl[0], node.lhs, subst)
                    and match_into(concl[1], node.rhs, subst)):
                continue
            if all(match_into(p[0], ch.lhs, subst) and match_into(p[1], ch.rhs, subst)
                   for p, ch in zip(premises, node.children)):
                matched = True
                break
        if not matched:
            kind = "bad-axiom" if not node.children else "premise-mismatch"
            return CheckResult(False, kind, node.label, node.rule)
        return ACCEPT

    # Each distinct node once, in pre-order: a node met again was accepted
    # together with its subtree when first met.
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            res = visit(node)
            if not res.ok:
                return res
            stack.extend(reversed(node.children))
    return ACCEPT


# ---------------------------------------------------------------------------
# Countermodel search over the catalogs.

def system_names() -> tuple[str, ...]:
    return tuple(HILBERT_SYSTEMS) + tuple(SEQUENT_SYSTEMS)


def countermodel_search(system: str, goal, max_size: int, *,
                        guard: int | None = SIZE_GUARD):
    """Scan the system's catalog by size sections, smallest first, and return
    (algebra, falsifying valuation) from the first that fails, or None.

    `goal` is a Formula for the Hilbert systems, an (lhs, rhs) tuple of
    formulas for the sequent systems, and wrong-goal-kind otherwise; a
    Hilbert goal f is searched as the sequent `top |- f`.
    `guard=None` lifts the bound on `max_size`.
    """
    if guard is not None and max_size > guard:
        raise BoundGuardError("countermodel max_size", guard, max_size)
    sys = HILBERT_SYSTEMS.get(system) or SEQUENT_SYSTEMS.get(system)
    if sys is None:
        raise AlgebraError("unknown-system", system)
    hilbert = isinstance(sys, HilbertSystem)
    if not (isinstance(goal, Formula) if hilbert else type(goal) is tuple and len(goal) == 2
            and all(isinstance(g, Formula) for g in goal)):
        raise AlgebraError("wrong-goal-kind", system,
                           "expected a formula" if hilbert else "expected a sequent")
    lhs, rhs = (TOP, goal) if hilbert else goal
    if contains(lhs, sys.forbidden) or contains(rhs, sys.forbidden):
        raise AlgebraError("wrong-language",
                           render(rhs) if hilbert else f"{render(lhs)} |- {render(rhs)}")
    if hilbert and sys.expand:
        rhs = expand_neg(rhs)
    if max_size < 1:
        raise AlgebraError("bad-size", max_size)
    for size in range(2, max_size + 1):
        for alg in _section(sys.algebra_class, size):
            verdict = sequent_valid(alg, lhs, rhs)
            if not verdict.valid:
                return alg, verdict.valuation
    return None


# ---------------------------------------------------------------------------
# Proof files.
#
#   proof hilbert ILM          |  proof sequent Kim'
#   1 <formula> axiom A1       |  1 <lhs> |- <rhs> axiom A3
#   2 <formula> mp 1 1         |  2 <lhs> |- <rhs> rule A2 from 1 2
#   qed <formula>              |  end        (last line is the conclusion)
#   end

def parse_proof(text: str):
    mode = ""
    system = ""
    hlines: list[ProofLine] = []
    goal: Formula | None = None
    nodes: dict[int, tuple[DerivationNode, str]] = {}  # each with its line text
    last: DerivationNode | None = None
    seen: set[int] = set()  # line numbers, in either mode
    for line in content_lines(text):
        words = line.split()
        if words[0] == "proof":
            if len(words) != 3 or words[1] not in ("hilbert", "sequent"):
                raise FileFormatError("bad-header", line)
            if mode:
                raise FileFormatError("duplicate-directive", "proof")
            mode, system = words[1], words[2]
            continue
        if not mode:
            raise FileFormatError("missing-header", line)
        if mode == "hilbert" and words[0] == "qed":
            if goal is not None:
                raise FileFormatError("duplicate-directive", "qed")
            goal = parse(line[len("qed"):].strip())
            continue
        if not words[0].isdigit():
            raise FileFormatError("bad-line", line)
        idx = int(words[0])
        given_once(seen, idx, line, f"line {idx}")
        body = line[len(words[0]):].strip()
        if mode == "hilbert":
            if " axiom " in body:
                ftext, aid = body.rsplit(" axiom ", 1)
                hlines.append(ProofLine(idx, parse(ftext), ("axiom", aid.strip())))
            elif " mp " in body:
                ftext, refs = body.rsplit(" mp ", 1)
                parts = refs.split()
                if len(parts) != 2 or not all(p.isdigit() for p in parts):
                    raise FileFormatError("bad-line", line)
                hlines.append(ProofLine(idx, parse(ftext),
                                        ("mp", int(parts[0]), int(parts[1]))))
            else:
                raise FileFormatError("bad-line", line)
        else:
            if " |- " not in body:
                raise FileFormatError("bad-line", line, "missing ' |- '")
            children = []
            if " axiom " in body:
                seq_text, rule = body.rsplit(" axiom ", 1)
            elif " rule " in body:
                seq_text, rest = body.rsplit(" rule ", 1)
                rule, *rwords = rest.split()
                refs = rwords[1:]
                if rwords[:1] != ["from"] or not refs or not all(r.isdigit() for r in refs):
                    raise FileFormatError("bad-line", line)
                for r in refs:
                    if int(r) not in nodes:
                        raise FileFormatError("bad-reference", line)
                    children.append(nodes[int(r)][0])
            else:
                raise FileFormatError("bad-line", line)
            lhs_t, _, rhs_t = seq_text.partition(" |- ")
            node = DerivationNode(parse(lhs_t), parse(rhs_t), rule.strip(),
                                  tuple(children), idx)
            nodes[idx] = (node, line)
            last = node
    if mode == "hilbert":
        if goal is None:
            raise FileFormatError("missing-qed", None)
        return ("hilbert", system, ProofScript(tuple(hlines), goal))
    if mode == "sequent":
        if last is None:
            raise FileFormatError("empty-proof", None)
        idx = _unreached({idx: tuple(child.label for child in node.children)
                          for idx, (node, _) in nodes.items()})
        if idx is not None:  # never checked: `check_derivation` walks from the last line
            raise FileFormatError("unused-line", nodes[idx][1],
                                  f"line {idx} is not used to derive the last line")
        return ("sequent", system, last)
    raise FileFormatError("missing-header", None)


def hilbert_proof_text(system: str, proof: ProofScript) -> str:
    lines = [f"proof hilbert {system}"]
    for ln in proof.lines:
        if ln.just[0] == "axiom":
            lines.append(f"{ln.index} {render(ln.formula)} axiom {ln.just[1]}")
        else:
            lines.append(f"{ln.index} {render(ln.formula)} mp {ln.just[1]} {ln.just[2]}")
    lines.append(f"qed {render(proof.goal)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def sequent_proof_text(system: str, root: DerivationNode) -> str:
    lines = [f"proof sequent {system}"]
    number: dict[int, int] = {}
    # Post-order: a node is numbered once all its children are.
    stack = [root]
    while stack:
        node = stack[-1]
        pending = [ch for ch in node.children if id(ch) not in number]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        if id(node) in number:
            continue
        number[id(node)] = len(number) + 1
        seq = f"{render(node.lhs)} |- {render(node.rhs)}"
        if node.children:
            lines.append(f"{number[id(node)]} {seq} rule {node.rule} from "
                         + " ".join(str(number[id(ch)]) for ch in node.children))
        else:
            lines.append(f"{number[id(node)]} {seq} axiom {node.rule}")
    lines.append("end")
    return "\n".join(lines) + "\n"
