"""Command-line surface.

Exit codes: 0 success/valid/accepted, 1 falsified/rejected (witness in the
report), 2 malformed input, 3 bound guard tripped (override with --force),
4 internal error (an unexpected exception, reported without a traceback).
`--porcelain` switches to line-oriented key=value records with byte-stable
ordering.

An answer that cannot be written to stdout, `--help` included, is also exit
4, never a verdict: a failed write (a full device, or a pipe whose reader
has gone, even after the whole answer) or a closed stdout prints
`error=output-failed` and the detail to stderr, and stdout is pointed at
the null device so that the interpreter's final flush stays quiet.

An interrupt (SIGINT, Ctrl-C) is exit 130, the shell's code for it, outside
0-4 and so never a verdict: `error=interrupted` goes to stderr, with no
traceback.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import algebra as alg_mod
from .algebra import (ATOM_GUARD, SIZE_GUARD, Algebra, KimAlgebra,
                      algebra_valid, build_au, classify_algebra,
                      classify_negation_pair, enumerate_algebras, evaluate,
                      read_algebra, write_algebra)
from .errors import (AlgebraError, BoundGuardError, FileFormatError,
                     FormulaSyntaxError, LatticeError, WorkbenchError)
from .formula import Atom, Bot, Formula, Top
from .formula import atoms as formula_atoms
from .formula import fold
from .formula import parse as parse_formula
from .formula import render

GUARD_FILTER_CARRIER = 12


class Report:
    def __init__(self, porcelain: bool):
        self.porcelain = porcelain

    def kv(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        if self.porcelain:
            print(f"{key}={value}")
        else:
            print(f"{key}: {value}")

    def block(self, text: str) -> None:
        for line in text.rstrip("\n").split("\n"):
            if self.porcelain:
                print(f"out={line}")
            else:
                print(line)


def _ast_node(g: Formula, kids: list[str]) -> str:
    match g:
        case Top():
            return "Top"
        case Bot():
            return "Bot"
        case Atom(name):
            return name
    return f"{type(g).__name__}({','.join(kids)})"


def ast_string(f: Formula) -> str:
    return fold(f, _ast_node)


def _read_text(path: str, ext: str) -> str:
    """The text of the file at `path`, whose name must end in `ext`."""
    if not path.endswith(ext):
        raise FileFormatError("wrong-extension", path, f"expected {ext}")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FileFormatError("unreadable", path, str(e)) from None


def _load_algebra(path: str) -> Algebra:
    return read_algebra(_read_text(path, ".alg"))


def _load_filter_carrier(args) -> Algebra:
    """The algebra of `args.file`, at most GUARD_FILTER_CARRIER in size unless --force."""
    alg = _load_algebra(args.file)
    if not args.force and alg.size > GUARD_FILTER_CARRIER:
        raise BoundGuardError("prime-filter carrier", GUARD_FILTER_CARRIER, alg.size)
    return alg


def _load_frame(path: str, detail: str, *kinds: str):
    """The frame of `path`, which must be of one of `kinds`."""
    from . import frames
    fr = frames.read_frame(_read_text(path, ".frm"))
    if fr.kind not in kinds:
        raise FileFormatError("unsupported-kind", fr.kind, detail)
    return fr


def _parse_assignment(alg: Algebra | KimAlgebra, text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    if not text:
        return out
    for part in re.split(r",(?=[A-Za-z_][A-Za-z0-9_]*=)", text):
        if "=" not in part:
            raise FileFormatError("bad-assignment", part)
        name, _, value = part.partition("=")
        name = name.strip()
        try:
            Atom(name)  # the atom grammar, keywords excluded
        except FormulaSyntaxError:
            raise FileFormatError("bad-assignment", part) from None
        if name in out:
            raise FileFormatError("duplicate-assignment", name)
        out[name] = alg.lattice.index(value.strip())
    return out


def _emit(rep: Report, text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise FileFormatError("unwritable", out_path, str(e)) from None
        rep.kv("written", out_path)
    else:
        rep.block(text)


def _rejected(rep: Report, e: WorkbenchError) -> int:
    """Report the input as rejected with the kind of `e`: exit code 1."""
    rep.kv("accepted", False)
    rep.kv("error", e.kind)
    return 1


def _flag_report(rep: Report, prefix: str, flag) -> None:
    rep.kv(prefix, flag.holds)
    if not flag.holds and flag.witness:
        rep.kv(prefix + "_witness", ",".join(flag.witness))


class _SystemNames:
    """The `--system` choices, `proofs.system_names()`, read only when argparse
    checks or prints them, so that other commands never import `proofs`."""

    def __contains__(self, name) -> bool:
        from .proofs import system_names
        return name in system_names()

    def __iter__(self):
        from .proofs import system_names
        return iter(system_names())


# -- subcommands ---------------------------------------------------------------

def cmd_parse(args, rep: Report) -> int:
    f = parse_formula(args.formula)
    rep.kv("ast", ast_string(f))
    rep.kv("text", render(f))
    rep.kv("atoms", ",".join(formula_atoms(f)))
    return 0


def cmd_check_algebra(args, rep: Report) -> int:
    try:
        alg = _load_algebra(args.file)
    except (LatticeError, AlgebraError) as e:
        code = _rejected(rep, e)
        if e.witness is not None:
            rep.kv("witness", e.witness)
        return code
    rep.kv("accepted", True)
    rep.kv("name", alg.name)
    rep.kv("size", alg.size)
    rep.kv("bottom", alg.element(alg.lattice.bottom))
    rep.kv("top", alg.element(alg.lattice.top))
    rep.kv("tilde_one", alg.element(alg.tilde_one) if alg.tilde_one is not None else "-")
    return 0


def cmd_classify(args, rep: Report) -> int:
    try:
        alg = _load_algebra(args.file)
    except (LatticeError, AlgebraError) as e:
        return _rejected(rep, e)
    report = classify_algebra(alg)
    for field in report.__match_args__:
        _flag_report(rep, field, getattr(report, field))
    if alg.tilde is not None:
        kite = classify_negation_pair(alg.lattice, alg.neg, alg.tilde)
        for field in kite.__match_args__:
            _flag_report(rep, "kite_" + field, getattr(kite, field))
    return 0


def cmd_eval(args, rep: Report) -> int:
    alg = _load_algebra(args.file)
    f = parse_formula(args.formula)
    valuation = _parse_assignment(alg, args.assign or "")
    value = evaluate(alg, f, valuation)
    rep.kv("value", alg.element(value))
    return 0


def cmd_valid(args, rep: Report) -> int:
    alg = _load_algebra(args.file)
    f = parse_formula(args.formula)
    if not args.force:
        if alg.size > SIZE_GUARD:
            raise BoundGuardError("algebra size", SIZE_GUARD, alg.size)
        if len(formula_atoms(f)) > ATOM_GUARD:
            raise BoundGuardError("formula atoms", ATOM_GUARD, len(formula_atoms(f)))
    verdict = algebra_valid(alg, f)
    rep.kv("valid", verdict.valid)
    if not verdict.valid:
        for k in sorted(verdict.valuation):
            rep.kv(f"witness_{k}", verdict.valuation[k])
        return 1
    return 0


def cmd_enumerate(args, rep: Report) -> int:
    guard = None if args.force else SIZE_GUARD
    catalog = enumerate_algebras(args.cls, args.size, args.allow_trivial, guard)
    exact = [a for a in catalog if a.size == args.size]
    rep.kv("class", args.cls)
    rep.kv("size", args.size)
    rep.kv("count", len(exact))
    rep.kv("count_upto", len(catalog))
    for a in exact:
        rep.kv("algebra", a.name)
    return 0


def cmd_countermodel(args, rep: Report) -> int:
    from . import proofs
    if args.sequent and args.formula:
        raise FileFormatError("conflicting-goals", None,
                              "give either a formula or --sequent, not both")
    if args.sequent:
        lhs_t, sep, rhs_t = args.sequent.partition("|-")
        if not sep:
            raise FileFormatError("bad-sequent", args.sequent, "missing |-")
        lhs = parse_formula(lhs_t)
        try:
            rhs = parse_formula(rhs_t)
        except FormulaSyntaxError as e:  # an offset into the whole sequent
            raise FormulaSyntaxError(e.offset + len(lhs_t) + len(sep), e.expected,
                                     e.detail) from None
        goal = (lhs, rhs)
        rep.kv("sequent", f"{render(goal[0])} |- {render(goal[1])}")
    else:
        if not args.formula:
            raise FileFormatError("missing-goal", None)
        goal = parse_formula(args.formula)
        rep.kv("formula", render(goal))
    found = proofs.countermodel_search(args.system, goal, args.max_size,
                                       guard=None if args.force else SIZE_GUARD)
    if found is None:
        rep.kv("countermodel", "none")
        rep.kv("note", f"no countermodel up to size {args.max_size}")
        return 0
    alg, valuation = found
    rep.kv("countermodel", alg.name)
    rep.kv("size", alg.size)
    for k in sorted(valuation):
        rep.kv(f"witness_{k}", valuation[k])
    return 1


def cmd_translate(args, rep: Report) -> int:
    from . import frames, translate
    fr = _load_frame(args.file, "translation is between subnormal and nhat frames",
                     "subnormal", "nhat")
    if fr.kind == "subnormal":
        out = translate.phi(fr)
        rep.kv("direction", "subnormal->nhat")
        rep.kv("nhat_prime", frames.is_identity(out))
    else:
        out = translate.psi(fr)
        rep.kv("direction", "nhat->subnormal")
        rep.kv("identity", frames.is_identity(out))
    _emit(rep, frames.write_frame(out, "translated"), args.output)
    return 0


def cmd_complex(args, rep: Report) -> int:
    from . import bridge
    fr = _load_frame(args.file, "complex algebras are taken of subnormal/compat frames",
                     "subnormal", "compat")
    if fr.kind == "subnormal":
        alg = bridge.complex_algebra_subnormal(fr, name="complex")
        rep.kv("kind", "ccpba")
        rep.kv("size", alg.size)
        _emit(rep, write_algebra(alg), args.output)
    else:
        kim = bridge.complex_algebra_compat(fr, name="complex")
        rep.kv("kind", "kim")
        rep.kv("size", kim.size)
        for op in ("neg", "tilde"):
            for i in range(kim.size):
                rep.kv(f"{op}_{kim.element(i)}", kim.element(getattr(kim, op)[i]))
    return 0


def cmd_canonical(args, rep: Report) -> int:
    from . import bridge
    alg = _load_filter_carrier(args)
    try:
        text = bridge.canonical_frame_file(alg, "subnormal")
    except AlgebraError as e:
        return _rejected(rep, e)
    _emit(rep, text, args.output)
    return 0


def cmd_duality(args, rep: Report) -> int:
    from . import bridge
    if args.file.endswith(".alg"):
        alg = _load_filter_carrier(args)
        emb = bridge.stone_embedding(alg)
        rep.kv("stone_injective", emb.injective)
        rep.kv("stone_onto", emb.onto)
        rep.kv("stone_isomorphism", emb.is_isomorphism)
        kemb = bridge.kim_algebra_embedding(alg)
        rep.kv("kim_injective", kemb.injective)
        rep.kv("kim_onto", kemb.onto)
        return 0
    fr = _load_frame(args.file, "duality runs on subnormal/compat frames or .alg files",
                     "subnormal", "compat")
    if fr.kind == "subnormal":
        emb = bridge.frame_embedding(fr)
    else:
        emb = bridge.kim_frame_embedding(fr)
    rep.kv("frame_injective", emb.injective)
    rep.kv("frame_onto", emb.onto)
    return 0


def _split_u(elements: tuple[str, ...], text: str) -> tuple[str, str]:
    """`--u a,b` cut at its one comma with an element name on both sides, so
    a name may hold commas (a complex algebra's `{w1,w2}`).  Without such a
    comma, a lone comma still cuts and an unknown side is reported."""
    commas = [i for i, ch in enumerate(text) if ch == ","]
    fits = [i for i in commas
            if text[:i].strip() in elements and text[i + 1:].strip() in elements]
    cuts = fits or commas
    if len(cuts) != 1:
        raise FileFormatError("bad-u", text, "expected --u a,b")
    return text[:cuts[0]].strip(), text[cuts[0] + 1:].strip()


def cmd_build_au(args, rep: Report) -> int:
    alg = _load_algebra(args.file)
    first, second = _split_u(alg.lattice.elements, args.u)
    try:
        u1 = alg.lattice.index(first)
        u2 = alg.lattice.index(second)
        out = build_au(alg, u1, u2, name=f"{alg.name}_au")
    except AlgebraError as e:
        return _rejected(rep, e)
    rep.kv("size", out.size)
    _emit(rep, write_algebra(out), args.output)
    return 0


def cmd_check_proof(args, rep: Report) -> int:
    from . import proofs
    mode, system, obj = proofs.parse_proof(_read_text(args.file, ".prf"))
    rep.kv("mode", mode)
    rep.kv("system", system)
    if mode == "hilbert":
        result = proofs.check_hilbert(system, obj)
        rep.kv("goal", render(obj.goal))
    else:
        result = proofs.check_derivation(system, obj)
        rep.kv("goal", f"{render(obj.lhs)} |- {render(obj.rhs)}")
    rep.kv("accepted", result.ok)
    if not result.ok:
        rep.kv("error", result.error)
        if result.where is not None:
            rep.kv("line", result.where)
        if result.detail:
            rep.kv("detail", result.detail)
        return 1
    return 0


class _CliParser(argparse.ArgumentParser):
    """Help written and flushed here, so that a lost help reaches the output
    guard of `main`: argparse's own print drops a failed write."""

    def print_help(self, file=None) -> None:
        if (file or sys.stdout) is None:
            raise OSError("stdout is closed")
        print(self.format_help(), end="", file=file, flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(
        prog="twoneg",
        description="Workbench for finite two-negation algebras, their frames, "
                    "translations, dualities, and proof checking.")
    parser.add_argument("--porcelain", action="store_true",
                        help="machine-readable key=value output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *positionals, output=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        p.add_argument("--force", action="store_true",
                       help="override search bound guards")
        # accepted after the subcommand as well; SUPPRESS keeps the value the
        # top-level parser already produced when the flag is absent here
        p.add_argument("--porcelain", action="store_true",
                       default=argparse.SUPPRESS)
        for arg in positionals:
            p.add_argument(arg)
        if output:
            p.add_argument("-o", "--output")
        return p

    add("parse", cmd_parse, "parse a formula and print its tree", "formula")
    add("check-algebra", cmd_check_algebra, "validate an .alg file", "file")
    add("classify", cmd_classify, "class flags and kite placement of an .alg file", "file")
    p = add("eval", cmd_eval, "evaluate a formula under an assignment", "file", "formula")
    p.add_argument("--assign", default="", help="p=a,q=0 style element assignment")
    add("valid", cmd_valid, "exhaustive validity over an algebra", "file", "formula")

    p = add("enumerate", cmd_enumerate, "catalog counts up to isomorphism")
    p.add_argument("--class", dest="cls", required=True,
                   choices=list(alg_mod.CATALOG_CLASSES))
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--allow-trivial", action="store_true")

    p = add("countermodel", cmd_countermodel, "search the catalogs for a refuting algebra")
    # set after add_argument, which formats the choices (importing `proofs`)
    p.add_argument("--system", required=True).choices = _SystemNames()
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("formula", nargs="?")
    p.add_argument("--sequent", help='"lhs |- rhs" goal for the sequent systems')

    add("translate", cmd_translate, "translate between subnormal and nhat frames", "file",
        output=True)
    add("complex", cmd_complex, "complex algebra of a frame", "file", output=True)
    add("canonical", cmd_canonical, "canonical frame of an algebra", "file", output=True)
    add("duality", cmd_duality, "verify the round-trip embeddings", "file")
    p = add("build-au", cmd_build_au, "interval construction over a pBa", "file")
    p.add_argument("--u", required=True, help="u1,u2 with u1 <= u2")
    p.add_argument("-o", "--output")
    add("check-proof", cmd_check_proof, "check a .prf proof file", "file")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if sys.stdout is None:
            raise OSError("stdout is closed")
        code = _answer(args, Report(args.porcelain))
        sys.stdout.flush()
        return code
    except OSError as e:  # only a write to stdout gets here: the answer is lost
        print("error=output-failed", f"detail={type(e).__name__}: {e}",
              sep="\n", file=sys.stderr)
        if sys.stdout is not None:  # so that the interpreter's last flush is quiet
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return 4
    except KeyboardInterrupt:  # no answer and no verdict: the shell's code for SIGINT
        print("error=interrupted", file=sys.stderr)
        return 130


def _answer(args, rep: Report) -> int:
    try:
        return args.func(args, rep)
    except BoundGuardError as e:
        rep.kv("error", "bound-guard")
        rep.kv("detail", str(e))
        return 3
    except WorkbenchError as e:
        rep.kv("error", e.kind)
        rep.kv("detail", str(e))
        return 2
    except Exception as e:  # a defect, never a verdict: keep it off codes 0-3
        rep.kv("error", "internal-error")
        rep.kv("detail", f"{type(e).__name__}: {e}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
