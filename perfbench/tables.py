"""Independent re-checks of the program's answers, over its raw tables.

A small table evaluator for algebras and a truth-set evaluator for the three
frame kinds re-evaluate every reported falsifying valuation; `is_isomorphism`
re-verifies the bijections returned by `iso_check`.  Formulas are walked by
node class name so nothing here calls into the program.
"""

from __future__ import annotations


def eval_algebra(alg, f, val: dict[str, int]) -> int:
    lat = alg.lattice
    kind = type(f).__name__
    if kind == "Top":
        return lat.top
    if kind == "Bot":
        return lat.bottom
    if kind == "Atom":
        return val[f.name]
    if kind == "And":
        return lat.meet[eval_algebra(alg, f.left, val)][eval_algebra(alg, f.right, val)]
    if kind == "Or":
        return lat.join[eval_algebra(alg, f.left, val)][eval_algebra(alg, f.right, val)]
    if kind == "Impl":
        return alg.impl[eval_algebra(alg, f.left, val)][eval_algebra(alg, f.right, val)]
    if kind == "Neg":
        return alg.neg[eval_algebra(alg, f.child, val)]
    if kind == "Tilde":
        return alg.tilde[eval_algebra(alg, f.child, val)]
    raise TypeError(kind)


def algebra_falsifies(alg, goal, witness: dict[str, str]) -> bool:
    """Whether the named-element valuation really falsifies `goal` (a formula,
    or an (lhs, rhs) sequent) in `alg`."""
    val = {k: alg.lattice.elements.index(v) for k, v in witness.items()}
    top = alg.lattice.top
    if isinstance(goal, tuple):
        return eval_algebra(alg, goal[0], val) == top and eval_algebra(alg, goal[1], val) != top
    return eval_algebra(alg, goal, val) != top


def _box(n, rel, body):
    return frozenset(w for w in range(n) if all(v not in body for v in range(n) if rel[w][v]))


def truth(fr, f, val: dict[str, frozenset[int]]) -> frozenset[int]:
    n = len(fr.worlds)
    kind = type(f).__name__
    frame = type(fr).__name__
    if kind == "Top":
        return frozenset(range(n))
    if kind == "Bot":
        return frozenset()
    if kind == "Atom":
        return val[f.name]
    if kind in ("And", "Or", "Impl"):
        a, b = truth(fr, f.left, val), truth(fr, f.right, val)
        if kind == "And":
            return a & b
        if kind == "Or":
            return a | b
        return frozenset(w for w in range(n)
                         if all(v in b for v in range(n) if fr.leq[w][v] and v in a))
    body = truth(fr, f.child, val)
    if kind == "Neg":
        return _box(n, fr.rn1 if frame == "NhatFrame" else fr.leq, body)
    if kind == "Tilde":
        if frame == "SubNormalFrame":
            return frozenset(w for w in range(n)
                             if all(v in fr.y0 for v in range(n) if fr.leq[w][v] and v in body))
        return _box(n, fr.rn2 if frame == "NhatFrame" else fr.c, body)
    raise TypeError(kind)


def frame_falsifies(fr, goal, witness: dict[str, tuple[str, ...]], world: str) -> bool:
    val = {k: frozenset(fr.worlds.index(w) for w in ws) for k, ws in witness.items()}
    for s in val.values():
        if any(j not in s for i in s for j in range(len(fr.worlds)) if fr.leq[i][j]):
            return False
    w = fr.worlds.index(world)
    if isinstance(goal, tuple):
        return w in truth(fr, goal[0], val) and w not in truth(fr, goal[1], val)
    return w not in truth(fr, goal, val)


def is_isomorphism(a, b, mapping: dict[str, str]) -> bool:
    """`mapping` is a bijection of carriers preserving order and every operation."""
    if sorted(mapping) != sorted(a.lattice.elements):
        return False
    if sorted(mapping.values()) != sorted(b.lattice.elements):
        return False
    f = [b.lattice.elements.index(mapping[e]) for e in a.lattice.elements]
    n = len(f)
    la, lb = a.lattice, b.lattice
    if any(la.leq[i][j] != lb.leq[f[i]][f[j]] for i in range(n) for j in range(n)):
        return False
    if any(f[a.neg[i]] != b.neg[f[i]] for i in range(n)):
        return False
    if a.tilde is not None and any(f[a.tilde[i]] != b.tilde[f[i]] for i in range(n)):
        return False
    impl_a, impl_b = getattr(a, "impl", None), getattr(b, "impl", None)
    if impl_a is not None and any(f[impl_a[i][j]] != impl_b[f[i]][f[j]]
                                  for i in range(n) for j in range(n)):
        return False
    return True
