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

from ._record import record
from .algebra import SIZE_GUARD, algebra_valid, enumerate_algebras, sequent_valid
from .errors import AlgebraError, BoundGuardError, FileFormatError, content_lines
from .formula import (BOT, Bot, Formula, Impl, Neg, _rebuild, contains, fold,
                      match_into, parse, render)

__all__ = [
    "SCHEMES", "HILBERT_SYSTEMS", "SEQUENT_RULES", "SEQUENT_SYSTEMS",
    "ProofLine", "ProofScript", "DerivationNode", "CheckResult",
    "check_hilbert", "check_derivation", "expand_neg", "countermodel_search",
    "parse_proof", "hilbert_proof_text", "sequent_proof_text", "system_names",
]


_s = parse

# Axiom schemes; metavariables are the atoms a, b, c.
SCHEMES: dict[str, tuple[Formula, ...]] = {
    "A1": (_s("a -> (b -> a)"),),
    "A2": (_s("(a -> (b -> c)) -> ((a -> b) -> (a -> c))"),),
    "A3": (_s("a -> (a | b)"), _s("b -> (a | b)")),
    "A4": (_s("(a -> c) -> ((b -> c) -> ((a | b) -> c))"),),
    "A5": (_s("(a & b) -> a"), _s("(a & b) -> b")),
    "A6": (_s("(a -> b) -> ((a -> c) -> (a -> (b & c)))"),),
    "A7": (_s("a -> top"),),
    "A8": (_s("bot -> a"),),
    "A9": (_s("(a -> b) -> ((a -> !b) -> !a)"),),
    "A10": (_s("!a -> (a -> b)"),),
    "A11": (_s("~a <-> (a -> !!~top)"),),
    "A12": (_s("a | ~a"),),
    "A13": (_s("(a -> b) -> ((a -> ~b) -> ~a)"),),
    "Pprime": (_s("~~(~top -> b)"),),
    # The replacement pair for A11 in the reaxiomatisation ILM1:
    "TD": (_s("~a <-> (a -> ~top)"),),
    "DNE": (_s("!!~top <-> ~top"),),
}


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
    for scheme in SCHEMES[scheme_id]:
        if match_into(scheme, f, {}):
            return True
    return False


def check_hilbert(system: str, proof: ProofScript) -> CheckResult:
    """Accept iff every line is a scheme instance or modus ponens from earlier
    lines, and the last line is the goal."""
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
    return ACCEPT


# ---------------------------------------------------------------------------
# Sequent systems.

Sequent = tuple[Formula, Formula]
RuleVariant = tuple[tuple[Sequent, ...], Sequent]


def _seq(lhs: str, rhs: str) -> Sequent:
    return (_s(lhs), _s(rhs))


def _rule(*premises_and_conclusion: Sequent) -> RuleVariant:
    *premises, conclusion = premises_and_conclusion
    return (tuple(premises), conclusion)


SEQUENT_RULES: dict[str, tuple[RuleVariant, ...]] = {
    "A1": (_rule(_seq("a", "a")),),
    "A2": (_rule(_seq("a", "b"), _seq("b", "c"), _seq("a", "c")),),
    "A3": (_rule(_seq("a & b", "a")), _rule(_seq("a & b", "b"))),
    "A4": (_rule(_seq("a", "b"), _seq("a", "c"), _seq("a", "b & c")),),
    "A5": (_rule(_seq("a", "c"), _seq("b", "c"), _seq("a | b", "c")),),
    "A6": (_rule(_seq("a", "a | b")), _rule(_seq("b", "a | b"))),
    "A7": (_rule(_seq("a & (b | c)", "(a & b) | (a & c)")),),
    "A8": (_rule(_seq("a", "top")),),
    "A9": (_rule(_seq("bot", "a")),),
    "A10": (_rule(_seq("a", "b"), _seq("!b", "!a")),),
    "A11": (_rule(_seq("!a & !b", "!(a | b)")),),
    "A12": (_rule(_seq("top", "!bot")),),
    "A13": (_rule(_seq("a", "!!a")),),
    "A14": (_rule(_seq("a & b", "c"), _seq("a & !c", "!b")),),
    "A15": (_rule(_seq("a & !a", "b")),),
    "A16": (_rule(_seq("~a", "!(a & !~top)")),),
    "A17": (_rule(_seq("!(a & !~top)", "~a")),),
    "A18": (_rule(_seq("top", "a | ~a")),),
    "P2": (_rule(_seq("a", "b"), _seq("~b", "~a")),),
    "P3": (_rule(_seq("~a & ~b", "~(a | b)")),),
    "P4": (_rule(_seq("top", "~bot")),),
    "P5": (_rule(_seq("a", "~~a")),),
    "P6": (_rule(_seq("a & b", "c"), _seq("a & ~c", "~b")),),
    "P7": (_rule(_seq("!!~top", "~top")),),
}


@record
class SequentSystem:
    name: str
    rules: tuple[str, ...]
    algebra_class: str


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
            if contains(f, Impl):
                return CheckResult(False, "wrong-language", node.label, render(f))
        if node.rule not in sys.rules:
            return CheckResult(False, "bad-axiom" if not node.children
                               else "premise-mismatch", node.label,
                               f"{node.rule} not a rule of {system}")
        variants = SEQUENT_RULES[node.rule]
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
    """Scan the system's catalog in canonical order, smallest size first, and
    return (algebra, falsifying valuation) or None up to max_size.

    `goal` is a Formula for the Hilbert systems, an (lhs, rhs) pair for the
    sequent systems.  `guard=None` lifts the bound on `max_size`.
    """
    if guard is not None and max_size > guard:
        raise BoundGuardError("countermodel max_size", guard, max_size)
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
    nodes: dict[int, DerivationNode] = {}
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
        if idx in seen:
            raise FileFormatError("bad-line", line, f"line {idx} already given")
        seen.add(idx)
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
            if " axiom " in body:
                seq_text, aid = body.rsplit(" axiom ", 1)
                lhs_t, _, rhs_t = seq_text.partition(" |- ")
                node = DerivationNode(parse(lhs_t), parse(rhs_t), aid.strip(),
                                      (), idx)
            elif " rule " in body:
                seq_text, rest = body.rsplit(" rule ", 1)
                rwords = rest.split()
                if len(rwords) < 3 or rwords[1] != "from":
                    raise FileFormatError("bad-line", line)
                refs = rwords[2:]
                if not all(r.isdigit() for r in refs):
                    raise FileFormatError("bad-line", line)
                children = []
                for r in refs:
                    if int(r) not in nodes:
                        raise FileFormatError("bad-reference", line)
                    children.append(nodes[int(r)])
                lhs_t, _, rhs_t = seq_text.partition(" |- ")
                node = DerivationNode(parse(lhs_t), parse(rhs_t), rwords[0],
                                      tuple(children), idx)
            else:
                raise FileFormatError("bad-line", line)
            nodes[idx] = node
            last = node
    if mode == "hilbert":
        if goal is None:
            raise FileFormatError("missing-qed", None)
        return ("hilbert", system, ProofScript(tuple(hlines), goal))
    if mode == "sequent":
        if last is None:
            raise FileFormatError("empty-proof", None)
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
