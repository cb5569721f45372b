#!/usr/bin/env python3
"""Regenerate the bundled .prf fixtures in tests/fixtures/.

Hilbert proofs are assembled through a tiny combinator layer (identity,
syllogism, weakening, conjunction, double-negation introduction, and a
context monad that compiles hypothetical reasoning down to A1/A2 + MP), so
every emitted line is a raw axiom instance or modus ponens.  Each fixture is
re-checked before writing; on any bad construction or failed re-check the
script stops with exit code 1 before writing that fixture, `python -O` or not.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import NoReturn

from twoneg.formula import And, Atom, Bot, Formula, Impl, Neg, Or, Tilde, Top, parse, render
from twoneg.proofs import (DerivationNode, ProofLine, ProofScript, SCHEMES,
                           check_derivation, check_hilbert, hilbert_proof_text,
                           match_into, sequent_proof_text)

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

P, Q, R, S = Atom("p"), Atom("q"), Atom("r"), Atom("s")
T = Tilde(Top())          # ~top
N = Neg(T)                # !~top
D = Neg(N)                # !!~top
TOP = Top()
BOT = Bot()


def fail(message: str) -> NoReturn:
    raise SystemExit(f"make_proof_fixtures: {message}")


def is_instance(f: Formula, sid: str) -> bool:
    return any(match_into(s, f, {}) for s in SCHEMES[sid])


class Hilbert:
    """Proof-in-progress: raw axiom/mp emission with formula dedup, plus the
    derived moves used by the fixture constructions."""

    def __init__(self):
        self.lines: list[ProofLine] = []
        self.by_formula: dict[Formula, int] = {}

    def formula(self, idx: int) -> Formula:
        return self.lines[idx - 1].formula

    def _emit(self, f: Formula, just: tuple) -> int:
        if f in self.by_formula:
            return self.by_formula[f]
        n = len(self.lines) + 1
        self.lines.append(ProofLine(n, f, just))
        self.by_formula[f] = n
        return n

    def ax(self, sid: str, inst: Formula) -> int:
        if not is_instance(inst, sid):
            fail(f"{render(inst)} is not an instance of {sid}")
        return self._emit(inst, ("axiom", sid))

    def mp(self, i: int, j: int) -> int:
        maj = self.formula(i)
        if not (isinstance(maj, Impl) and maj.left == self.formula(j)):
            fail(f"bad mp: {render(maj)} from {render(self.formula(j))}")
        return self._emit(maj.right, ("mp", i, j))

    # -- derived moves ------------------------------------------------------

    def imp_id(self, a: Formula) -> int:
        aa = Impl(a, a)
        l1 = self.ax("A1", Impl(a, Impl(aa, a)))
        l2 = self.ax("A2", Impl(self.formula(l1), Impl(Impl(a, aa), aa)))
        l3 = self.mp(l2, l1)
        l4 = self.ax("A1", Impl(a, aa))
        return self.mp(l3, l4)

    def weaken(self, i: int, x: Formula) -> int:
        y = self.formula(i)
        return self.mp(self.ax("A1", Impl(y, Impl(x, y))), i)

    def mp_under(self, i: int, j: int) -> int:
        # X -> (Y -> Z),  X -> Y  =>  X -> Z
        f = self.formula(i)
        x, yz = f.left, f.right
        a2 = self.ax("A2", Impl(f, Impl(Impl(x, yz.left), Impl(x, yz.right))))
        return self.mp(self.mp(a2, i), j)

    def apply_const(self, i: int, j: int) -> int:
        # X -> (W -> V) plus theorem W  =>  X -> V
        return self.mp_under(i, self.weaken(j, self.formula(i).left))

    def syl(self, i: int, j: int) -> int:
        # X -> Y,  Y -> Z  =>  X -> Z
        x = self.formula(i).left
        return self.mp_under(self.weaken(j, x), i)

    def precompose(self, i: int, z: Formula) -> int:
        # X -> Y  =>  (Y -> Z) -> (X -> Z)
        f = self.formula(i)
        x, y = f.left, f.right
        yz = Impl(y, z)
        l1 = self.ax("A1", Impl(yz, Impl(x, yz)))
        a2 = self.ax("A2", Impl(Impl(x, yz), Impl(Impl(x, y), Impl(x, z))))
        l2 = self.syl(l1, a2)
        return self.apply_const(l2, i)

    def imp_cong(self, i: int, x: Formula) -> int:
        # Z -> W  =>  (X -> Z) -> (X -> W)
        f = self.formula(i)
        l1 = self.weaken(i, x)
        a2 = self.ax("A2", Impl(Impl(x, f), Impl(Impl(x, f.left), Impl(x, f.right))))
        return self.mp(a2, l1)

    def top_thm(self) -> int:
        tt = self.imp_id(TOP)
        return self.mp(self.ax("A7", Impl(self.formula(tt), TOP)), tt)

    def conj(self, i: int, j: int) -> int:
        a, b = self.formula(i), self.formula(j)
        t = self.top_thm()
        wa = self.weaken(i, TOP)
        wb = self.weaken(j, TOP)
        a6 = self.ax("A6", Impl(Impl(TOP, a),
                                Impl(Impl(TOP, b), Impl(TOP, And(a, b)))))
        return self.mp(self.mp(self.mp(a6, wa), wb), t)

    def proj_l(self, i: int) -> int:
        f = self.formula(i)
        return self.mp(self.ax("A5", Impl(f, f.left)), i)

    def proj_r(self, i: int) -> int:
        f = self.formula(i)
        return self.mp(self.ax("A5", Impl(f, f.right)), i)

    def contrapose(self, i: int) -> int:
        # X -> Y  =>  !Y -> !X
        f = self.formula(i)
        x, y = f.left, f.right
        a9 = self.ax("A9", Impl(f, Impl(Impl(x, Neg(y)), Neg(x))))
        m = self.mp(a9, i)
        l = self.ax("A1", Impl(Neg(y), Impl(x, Neg(y))))
        return self.syl(l, m)

    def dni(self, a: Formula) -> int:
        # theorem  a -> !!a
        t1 = self.ax("A1", Impl(a, Impl(Neg(a), a)))
        t2 = self.ax("A9", Impl(Impl(Neg(a), a),
                                Impl(Impl(Neg(a), Neg(a)), Neg(Neg(a)))))
        t3 = self.syl(t1, t2)
        return self.apply_const(t3, self.imp_id(Neg(a)))

    def a11(self, alpha: Formula) -> int:
        body = Impl(alpha, D)
        return self.ax("A11", And(Impl(Tilde(alpha), body), Impl(body, Tilde(alpha))))

    def peirce_nn(self, t: Formula, a: Formula) -> int:
        # ((t -> a) -> !!t) -> !!t
        nt, nnt = Neg(t), Neg(Neg(t))
        l1 = self.ax("A10", Impl(nt, Impl(t, a)))
        l2 = self.precompose(l1, nnt)
        l3 = self.imp_id(nt)
        l4 = self.ax("A9", Impl(Impl(nt, nt), Impl(Impl(nt, nnt), nnt)))
        l5 = self.mp(l4, l3)
        return self.syl(l2, l5)

    def script(self, goal_line: int) -> ProofScript:
        """The lines `goal_line` is derived from, numbers kept: a proof file
        may hold no line the last line does not use."""
        used, todo = set(), [goal_line]
        while todo:
            n = todo.pop()
            if n not in used:
                used.add(n)
                just = self.lines[n - 1].just
                todo.extend(just[1:] if just[0] == "mp" else ())
        return ProofScript(tuple(ln for ln in self.lines if ln.index in used),
                           self.formula(goal_line))


class Ctx:
    """Hypothetical reasoning compiled to implications: a Ctx line with
    hypotheses [C1, .., Ck] is a real proof line of C1 -> (.. -> (Ck -> Z))."""

    def __init__(self, hb: Hilbert, parent: "Ctx | None", hyp: Formula):
        self.hb = hb
        self.parent = parent
        self.hypo = hyp
        self.chain: list[Formula] = (parent.chain if parent else []) + [hyp]

    def strip(self, f: Formula) -> Formula:
        for h in self.chain:
            if not (isinstance(f, Impl) and f.left == h):
                fail(f"{render(f)} is not under the hypothesis {render(h)}")
            f = f.right
        return f

    def lift(self, i: int) -> int:
        # theorem  =>  ctx line
        w = self.hb.weaken(i, self.hypo)
        return self.parent.lift(w) if self.parent else w

    def embed(self, i: int) -> int:
        # parent ctx line of Z  =>  ctx line of Z
        if self.parent is None:
            return self.hb.weaken(i, self.hypo)
        z = self.parent.strip(self.hb.formula(i))
        a1 = self.hb.ax("A1", Impl(z, Impl(self.hypo, z)))
        return self.parent.app(self.parent.lift(a1), i)

    def hyp(self) -> int:
        ident = self.hb.imp_id(self.hypo)
        return self.parent.lift(ident) if self.parent else ident

    def app(self, f_idx: int, x_idx: int) -> int:
        body = self.strip(self.hb.formula(f_idx))
        if not isinstance(body, Impl):
            fail(f"cannot apply {render(body)}: not an implication")
        if self.parent is None:
            return self.hb.mp_under(f_idx, x_idx)
        c = self.hypo
        a2 = self.hb.ax("A2", Impl(Impl(c, body),
                                   Impl(Impl(c, body.left), Impl(c, body.right))))
        step = self.parent.app(self.parent.lift(a2), f_idx)
        return self.parent.app(step, x_idx)


def ctx_chain(hb: Hilbert, hyps: list[Formula]) -> list[Ctx]:
    out: list[Ctx] = []
    for h in hyps:
        out.append(Ctx(hb, out[-1] if out else None, h))
    return out


# ---------------------------------------------------------------------------
# The ten ILM theorem fixtures.

def ilm_a(hb: Hilbert) -> int:
    """!p <-> (p -> bot)"""
    fwd = hb.ax("A10", Impl(Neg(P), Impl(P, BOT)))
    bb = hb.ax("A8", Impl(BOT, BOT))
    bnb = hb.ax("A8", Impl(BOT, Neg(BOT)))
    a9 = hb.ax("A9", Impl(Impl(BOT, BOT), Impl(Impl(BOT, Neg(BOT)), Neg(BOT))))
    notbot = hb.mp(hb.mp(a9, bb), bnb)
    a9b = hb.ax("A9", Impl(Impl(P, BOT), Impl(Impl(P, Neg(BOT)), Neg(P))))
    bwd = hb.apply_const(a9b, hb.weaken(notbot, P))
    return hb.conj(fwd, bwd)


def ilm_b(hb: Hilbert) -> int:
    """!!~top <-> ~top"""
    a11t = hb.a11(TOP)
    pr = hb.proj_r(a11t)                       # (top -> D) -> ~top
    l1 = hb.ax("A1", Impl(D, Impl(TOP, D)))
    fwd = hb.syl(l1, pr)                       # D -> ~top
    bwd = hb.dni(T)                            # ~top -> !!~top
    return hb.conj(fwd, bwd)


def _dne_pair(hb: Hilbert) -> tuple[int, int]:
    """Lines for D -> ~top and ~top -> D."""
    a11t = hb.a11(TOP)
    pr = hb.proj_r(a11t)
    fwd = hb.syl(hb.ax("A1", Impl(D, Impl(TOP, D))), pr)
    return fwd, hb.dni(T)


def ilm_c(hb: Hilbert) -> int:
    """~p <-> (p -> ~top)"""
    d2t, t2d = _dne_pair(hb)
    a11p = hb.a11(P)
    fwd = hb.syl(hb.proj_l(a11p), hb.imp_cong(d2t, P))
    bwd = hb.syl(hb.imp_cong(t2d, P), hb.proj_r(a11p))
    return hb.conj(fwd, bwd)


def ilm_d(hb: Hilbert) -> int:
    """~~(~top -> p)"""
    x = Tilde(Impl(T, P))
    f1 = hb.proj_l(hb.a11(Impl(T, P)))         # x -> ((~top -> p) -> D)
    pn = hb.peirce_nn(T, P)                    # ((~top -> p) -> D) -> D
    f2 = hb.syl(f1, pn)                        # x -> D
    pr = hb.proj_r(hb.a11(x))                  # (x -> D) -> ~x
    return hb.mp(pr, f2)


def ilm_e(hb: Hilbert) -> int:
    """~p <-> !(p & !~top)"""
    pn = And(P, N)
    # forward: ~p -> !(p & !~top)
    (c1,) = ctx_chain(hb, [Tilde(P)])
    t1 = c1.app(c1.lift(hb.proj_l(hb.a11(P))), c1.hyp())      # p -> !N
    pre = hb.precompose(hb.ax("A5", Impl(pn, P)), Neg(N))
    t2 = c1.app(c1.lift(pre), t1)                             # (p&N) -> !N
    a9 = hb.ax("A9", Impl(Impl(pn, N), Impl(Impl(pn, Neg(N)), Neg(pn))))
    t3 = hb.mp(a9, hb.ax("A5", Impl(pn, N)))
    fwd = c1.app(c1.lift(t3), t2)                             # ~p -> !(p&N)
    # backward: !(p & !~top) -> ~p
    c1b, c2b = ctx_chain(hb, [Neg(pn), P])
    x1 = c2b.app(c2b.lift(hb.ax("A1", Impl(P, Impl(N, P)))), c2b.hyp())
    x2 = c2b.lift(hb.imp_id(N))
    a6 = hb.ax("A6", Impl(Impl(N, P), Impl(Impl(N, N), Impl(N, pn))))
    x3 = c2b.app(c2b.app(c2b.lift(a6), x1), x2)               # N -> (p&N)
    x4 = c2b.app(c2b.lift(hb.ax("A1", Impl(Neg(pn), Impl(N, Neg(pn))))),
                 c2b.embed(c1b.hyp()))                        # N -> !(p&N)
    a9b = hb.ax("A9", Impl(Impl(N, pn), Impl(Impl(N, Neg(pn)), Neg(N))))
    core = c2b.app(c2b.app(c2b.lift(a9b), x3), x4)            # !(p&N) -> (p -> !N)
    bwd = hb.syl(core, hb.proj_r(hb.a11(P)))
    return hb.conj(fwd, bwd)


def ilm_f(hb: Hilbert, at: Formula = P) -> int:
    """!p -> ~p"""
    a10 = hb.ax("A10", Impl(Neg(at), Impl(at, D)))
    return hb.syl(a10, hb.proj_r(hb.a11(at)))


def ilm_g(hb: Hilbert) -> int:
    """p -> ~!p"""
    return hb.syl(hb.dni(P), ilm_f(hb, Neg(P)))


def ilm_h(hb: Hilbert) -> int:
    """!~p -> ~!p"""
    c1, c2 = ctx_chain(hb, [Neg(Tilde(P)), Neg(P)])
    t1 = c2.app(c2.lift(ilm_f(hb, P)), c2.hyp())              # ~p
    a10 = hb.ax("A10", Impl(Neg(Tilde(P)), Impl(Tilde(P), D)))
    t2 = c2.app(c2.app(c2.lift(a10), c2.embed(c1.hyp())), t1)  # D
    core = t2                                                 # !~p -> (!p -> D)
    return hb.syl(core, hb.proj_r(hb.a11(Neg(P))))


def ilm_i(hb: Hilbert) -> int:
    """~p <-> !!~p"""
    pn = And(P, N)
    fwd = hb.dni(Tilde(P))
    # reconstruct both directions of (e) inside this proof
    e_line = ilm_e(hb)
    e_fwd = hb.proj_l(e_line)
    e_bwd = hb.proj_r(e_line)
    cc = hb.contrapose(hb.contrapose(e_fwd))   # !!~p -> !!!(p&N)
    tnn = hb.contrapose(hb.dni(pn))            # !!!(p&N) -> !(p&N)
    bwd = hb.syl(hb.syl(cc, tnn), e_bwd)
    return hb.conj(fwd, bwd)


def ilm_j(hb: Hilbert) -> int:
    """!~!p -> !p"""
    return hb.contrapose(ilm_g(hb))


# ---------------------------------------------------------------------------
# Sequent derivations.

def ax(rule: str, lhs, rhs) -> DerivationNode:
    return DerivationNode(lhs, rhs, rule)


def rule(rid: str, lhs, rhs, *children) -> DerivationNode:
    return DerivationNode(lhs, rhs, rid, tuple(children))


def cut(n1: DerivationNode, n2: DerivationNode) -> DerivationNode:
    if n1.rhs != n2.lhs:
        fail(f"cut: {render(n1.rhs)} is not {render(n2.lhs)}")
    return rule("A2", n1.lhs, n2.rhs, n1, n2)


def proj1(a, b) -> DerivationNode:
    return ax("A3", And(a, b), a)


def proj2(a, b) -> DerivationNode:
    return ax("A3", And(a, b), b)


def pair(n1: DerivationNode, n2: DerivationNode) -> DerivationNode:
    if n1.lhs != n2.lhs:
        fail(f"pair: {render(n1.lhs)} is not {render(n2.lhs)}")
    return rule("A4", n1.lhs, And(n1.rhs, n2.rhs), n1, n2)


def comm(a, b) -> DerivationNode:
    # a & b |- b & a
    return pair(proj2(a, b), proj1(a, b))


def kim_p1() -> DerivationNode:
    # (p & q) & (r & s) |- p & r
    lhs = And(And(P, Q), And(R, S))
    left = cut(proj1(And(P, Q), And(R, S)), proj1(P, Q))
    right = cut(proj2(And(P, Q), And(R, S)), proj1(R, S))
    return pair(left, right)


def kim_p2() -> DerivationNode:
    # ~p |- ~(p & q)
    pq = And(P, Q)
    m1 = ax("A16", Tilde(P), Neg(And(P, N)))
    inner = pair(cut(proj1(pq, N), proj1(P, Q)), proj2(pq, N))  # (p&q)&N |- p&N
    m3 = rule("A10", Neg(And(P, N)), Neg(And(pq, N)), inner)
    m5 = ax("A17", Neg(And(pq, N)), Tilde(pq))
    return cut(cut(m1, m3), m5)


def _distribute(a, b) -> DerivationNode:
    # (a | b) & N |- (a & N) | (b & N)
    ab = Or(a, b)
    c0 = comm(ab, N)                                        # (a|b)&N |- N&(a|b)
    d = ax("A7", And(N, ab), Or(And(N, a), And(N, b)))
    left = cut(comm(N, a), ax("A6", And(a, N), Or(And(a, N), And(b, N))))
    right = cut(comm(N, b), ax("A6", And(b, N), Or(And(a, N), And(b, N))))
    merge = rule("A5", Or(And(N, a), And(N, b)), Or(And(a, N), And(b, N)), left, right)
    return cut(cut(c0, d), merge)


def kim_p3() -> DerivationNode:
    # ~p & ~q |- ~(p | q)
    tp, tq = Tilde(P), Tilde(Q)
    s3 = cut(proj1(tp, tq), ax("A16", tp, Neg(And(P, N))))
    s6 = cut(proj2(tp, tq), ax("A16", tq, Neg(And(Q, N))))
    s7 = pair(s3, s6)
    s8 = ax("A11", And(Neg(And(P, N)), Neg(And(Q, N))), Neg(Or(And(P, N), And(Q, N))))
    s9 = cut(s7, s8)
    s11 = rule("A10", Neg(Or(And(P, N), And(Q, N))), Neg(And(Or(P, Q), N)),
               _distribute(P, Q))
    s13 = ax("A17", Neg(And(Or(P, Q), N)), Tilde(Or(P, Q)))
    return cut(cut(s9, s11), s13)


def kim_p4() -> DerivationNode:
    # top |- ~bot
    t2 = rule("A10", Neg(BOT), Neg(And(BOT, N)), proj1(BOT, N))
    t4 = cut(ax("A12", TOP, Neg(BOT)), t2)
    return cut(t4, ax("A17", Neg(And(BOT, N)), Tilde(BOT)))


def _p_and_nbot(a) -> DerivationNode:
    # a |- a & !bot
    keep = ax("A1", a, a)
    nb = cut(ax("A8", a, TOP), ax("A12", TOP, Neg(BOT)))
    return pair(keep, nb)


def kim_p5() -> DerivationNode:
    # p |- ~~p
    tp = Tilde(P)
    lhs = And(P, And(tp, N))
    gets_p = proj1(P, And(tp, N))
    gets_tpn = proj2(P, And(tp, N))
    gets_tp = cut(gets_tpn, proj1(tp, N))
    gets_n = cut(gets_tpn, proj2(tp, N))
    pn = And(P, N)
    made_pn = pair(gets_p, gets_n)                          # lhs |- p & N
    made_not = cut(gets_tp, ax("A16", tp, Neg(pn)))         # lhs |- !(p&N)
    u1 = pair(made_pn, made_not)                            # lhs |- (p&N) & !(p&N)
    u2 = ax("A15", And(pn, Neg(pn)), BOT)
    u3 = cut(u1, u2)                                        # p & (~p & N) |- bot
    u4 = rule("A14", And(P, Neg(BOT)), Neg(And(tp, N)), u3)
    u6 = cut(_p_and_nbot(P), u4)                            # p |- !(~p & N)
    return cut(u6, ax("A17", Neg(And(tp, N)), Tilde(tp)))


def kim_p6() -> DerivationNode:
    # from p & q |- p (an A3 instance):  p & ~p |- ~q
    qn = And(Q, N)
    v1 = pair(proj1(P, qn), cut(proj2(P, qn), proj2(Q, N)))  # p&(q&N) |- p&N
    v2 = rule("A14", And(P, Neg(And(P, N))), Neg(qn), v1)
    s = And(P, Tilde(P))
    v6 = cut(proj2(P, Tilde(P)), ax("A16", Tilde(P), Neg(And(P, N))))
    v7 = pair(proj1(P, Tilde(P)), v6)                        # s |- p & !(p&N)
    v8 = cut(v7, v2)
    return cut(v8, ax("A17", Neg(qn), Tilde(Q)))


def kim_p7() -> DerivationNode:
    # !!~top |- ~top
    w2 = rule("A10", D, Neg(And(TOP, N)), proj2(TOP, N))
    return cut(w2, ax("A17", Neg(And(TOP, N)), T))


def kimprime_a16() -> DerivationNode:
    # ~p |- !(p & !~top)  in the P-rule presentation
    x1 = proj1(P, TOP)
    x2 = rule("P6", And(P, Tilde(P)), T, x1)
    x3 = rule("A14", And(P, N), Neg(Tilde(P)), x2)
    x4 = rule("A10", Neg(Neg(Tilde(P))), Neg(And(P, N)), x3)
    x5 = ax("A13", Tilde(P), Neg(Neg(Tilde(P))))
    return cut(x5, x4)


def kimprime_a17() -> DerivationNode:
    # !(p & !~top) |- ~p  in the P-rule presentation
    x = And(P, N)
    y2 = rule("A14", And(P, Neg(x)), Neg(N), ax("A1", x, x))
    y4 = cut(y2, ax("P7", D, T))                             # p & !x |- ~top
    y6 = cut(comm(Neg(x), P), y4)                            # !x & p |- ~top
    y7 = rule("P6", And(Neg(x), Tilde(T)), Tilde(P), y6)
    y8 = ax("P5", TOP, Tilde(T))
    y9 = pair(ax("A1", Neg(x), Neg(x)), cut(ax("A8", Neg(x), TOP), y8))
    return cut(y9, y7)


# ---------------------------------------------------------------------------

def write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path.relative_to(FIXTURES.parent.parent)}")


def hilbert_fixture(name: str, system: str, build) -> None:
    hb = Hilbert()
    goal = build(hb)
    script = hb.script(goal)
    res = check_hilbert(system, script)
    if not res.ok:
        fail(f"{name}: {res}")
    write(FIXTURES / name, hilbert_proof_text(system, script))


def sequent_fixture(name: str, system: str, root: DerivationNode) -> None:
    res = check_derivation(system, root)
    if not res.ok:
        fail(f"{name}: {res}")
    write(FIXTURES / name, sequent_proof_text(system, root))


def main() -> int:
    FIXTURES.mkdir(parents=True, exist_ok=True)

    top_proof = ProofScript((
        ProofLine(1, parse("top -> (bot -> top)"), ("axiom", "A1")),
        ProofLine(2, parse("(top -> (bot -> top)) -> top"), ("axiom", "A7")),
        ProofLine(3, parse("top"), ("mp", 2, 1)),
    ), parse("top"))
    res = check_hilbert("ILM", top_proof)
    if not res.ok:
        fail(f"top_three_lines.prf: {res}")
    write(FIXTURES / "top_three_lines.prf", hilbert_proof_text("ILM", top_proof))

    hilbert_fixture("ilm_a.prf", "ILM", ilm_a)
    hilbert_fixture("ilm_b.prf", "ILM", ilm_b)
    hilbert_fixture("ilm_c.prf", "ILM", ilm_c)
    hilbert_fixture("ilm_d.prf", "ILM", ilm_d)
    hilbert_fixture("ilm_e.prf", "ILM", ilm_e)
    hilbert_fixture("ilm_f.prf", "ILM", lambda hb: ilm_f(hb))
    hilbert_fixture("ilm_g.prf", "ILM", ilm_g)
    hilbert_fixture("ilm_h.prf", "ILM", ilm_h)
    hilbert_fixture("ilm_i.prf", "ILM", ilm_i)
    hilbert_fixture("ilm_j.prf", "ILM", ilm_j)

    sequent_fixture("kim_p1.prf", "Kim", kim_p1())
    sequent_fixture("kim_p2.prf", "Kim", kim_p2())
    sequent_fixture("kim_p3.prf", "Kim", kim_p3())
    sequent_fixture("kim_p4.prf", "Kim", kim_p4())
    sequent_fixture("kim_p5.prf", "Kim", kim_p5())
    sequent_fixture("kim_p6.prf", "Kim", kim_p6())
    sequent_fixture("kim_p7.prf", "Kim", kim_p7())
    sequent_fixture("kimprime_a16.prf", "Kim'", kimprime_a16())
    sequent_fixture("kimprime_a17.prf", "Kim'", kimprime_a17())

    write(FIXTURES / "neg_bad_instance.prf", "\n".join([
        "proof hilbert ILM",
        "1 p -> q axiom A9",
        "qed p -> q",
        "end",
    ]) + "\n")
    write(FIXTURES / "neg_bad_mp.prf", "\n".join([
        "proof hilbert ILM",
        "1 p -> (q -> p) axiom A1",
        "2 q mp 1 1",
        "qed q",
        "end",
    ]) + "\n")
    write(FIXTURES / "neg_premise_mismatch.prf", "\n".join([
        "proof sequent Kim",
        "1 q |- q axiom A1",
        "2 !q |- !p rule A10 from 1",
        "end",
    ]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
