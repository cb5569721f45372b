"""Seeded fuzz pass over the command line: random formula strings and
random or mutated input files must end in a documented exit code (0-3)
with no exception escaping `cli.main`; and a structural fault (a repeated
directive, header or line number) in any `.alg`, `.frm` or `.prf` file is
malformed input, exit 2; and deleting a content line of an accepted one
shows in stdout or the exit code."""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout
from pathlib import Path

from twoneg.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SEED = 20201

TOKENS = ["p", "q", "r", "top", "bot", "meet", "x0", "v0", "&", "|", "->", "<->",
          "!", "~", "(", ")", " ", "-", "<", ">", "|-", "#", "=", "1", "P", "_", "é"]

# Which commands read which fixture files.
FILE_COMMANDS = {".alg": ("check-algebra", "classify"), ".frm": ("complex",),
                 ".prf": ("check-proof",)}


def formula_text(rng: random.Random) -> str:
    """Half token soup, half grammatical formulas over three atoms."""
    if rng.random() < 0.5:
        return "".join(rng.choice(TOKENS) for _ in range(rng.randint(0, 25)))

    def grow(depth: int) -> str:
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(["p", "q", "r", "top", "bot"])
        kind = rng.randrange(5)
        if kind < 2:
            return rng.choice("!~") + grow(depth - 1)
        op = rng.choice(["&", "|", "->", "<->"])
        return f"({grow(depth - 1)} {op} {grow(depth - 1)})"

    return grow(rng.randint(0, 5))


def mutate(rng: random.Random, data: bytes) -> bytes:
    """A few random edits: drop, repeat or swap lines, swap or replace words,
    splice in bytes, truncate."""
    for _ in range(rng.randint(1, 4)):
        lines = data.split(b"\n")
        words = data.split()
        kind = rng.randrange(6)
        if kind == 0 and lines:
            del lines[rng.randrange(len(lines))]
            data = b"\n".join(lines)
        elif kind == 1 and lines:
            i = rng.randrange(len(lines))
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
            data = b"\n".join(lines)
        elif kind == 2 and len(lines) > 1:
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            data = b"\n".join(lines)
        elif kind == 3 and words:
            old = rng.choice(words)
            new = rng.choice(words + [b"", b"x", b"0", b"1", b"end", b"-1", b"99"])
            data = data.replace(old, new, 1)
        elif kind == 4:
            at = rng.randrange(len(data) + 1)
            data = data[:at] + rng.randbytes(rng.randint(1, 8)) + data[at:]
        else:
            data = data[:rng.randrange(len(data) + 1)]
    return data


def run_cli(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        return main(argv)


def formula_cases(rng: random.Random, count: int):
    for _ in range(count):
        text = formula_text(rng)
        yield ["parse", "--", text]
        yield ["eval", str(FIXTURES / "b_prime.alg"), "--assign", "p=a,q=0,r=1", "--", text]
        yield ["valid", str(FIXTURES / "h5.alg"), "--", text]
        system = rng.choice(["ILM", "ILM-v", "ILM1", "ILM2", "JP'"])
        yield ["countermodel", "--system", system, "--max-size", "3", "--", text]


def file_cases(rng: random.Random, count: int, tmp_path: Path):
    sources = sorted(p for p in FIXTURES.iterdir() if p.suffix in FILE_COMMANDS)
    for n in range(count):
        src = rng.choice(sources)
        if rng.random() < 0.2:
            data = rng.randbytes(rng.randint(0, 200))
        else:
            data = mutate(rng, src.read_bytes())
        path = tmp_path / f"case{n}{src.suffix}"
        path.write_bytes(data)
        for command in FILE_COMMANDS[src.suffix]:
            yield [command, str(path)]


def test_fuzz_exit_codes(tmp_path):
    rng = random.Random(SEED)
    cases = [*formula_cases(rng, 120), *file_cases(rng, 200, tmp_path)]
    for argv in cases:
        porcelain = ["--porcelain"] if rng.random() < 0.5 else []
        code = run_cli(porcelain + argv)
        assert code in (0, 1, 2, 3), argv


def _repeats(rng: random.Random, lines: list[str]):
    """Structural faults in a file: a line repeated right after itself and
    just before `end` (every line but a numbered proof line, and three of
    those), a later numbered line renumbered as the first, and a second
    header of another frame kind or proof mode."""
    content = [i for i, line in enumerate(lines) if line.split("#", 1)[0].strip()]
    end = next((i for i in content if lines[i].strip() == "end"), len(lines))
    numbered = [i for i in content if lines[i].split()[0].isdigit()]
    picked = [i for i in content if i not in numbered]
    picked += sorted(rng.sample(numbered, min(3, len(numbered))))
    for i in picked:
        yield lines[:i + 1] + lines[i:]
        if i < end - 1:
            yield lines[:end] + [lines[i]] + lines[end:]
    if len(numbered) > 1:
        i = rng.choice(numbered[1:])
        number = lines[numbered[0]].split()[0]
        yield lines[:i] + [number + " " + lines[i].split(None, 1)[1]] + lines[i + 1:]
    headers = {"frame": "frame compat other", "proof hilbert": "proof sequent Kim",
               "proof sequent": "proof hilbert ILM"}
    for i in content:
        for start, header in headers.items():
            if lines[i].startswith(start):
                yield lines[:end] + [header] + lines[end:]


def test_repeated_structure_is_malformed_input(tmp_path):
    """A repeated directive, header or line number exits 2 (never 1, never
    a traceback) in every fixture of every format and both proof modes."""
    sources = sorted(p for p in FIXTURES.iterdir() if p.suffix in FILE_COMMANDS)
    modes = {line.split()[1] for p in sources if p.suffix == ".prf"
             for line in p.read_text(encoding="utf-8").splitlines()[:1]}
    assert modes == {"hilbert", "sequent"}
    rng = random.Random(SEED)
    wrong = []
    for src in sources:
        lines = src.read_text(encoding="utf-8").splitlines()
        for n, case in enumerate(_repeats(rng, lines)):
            path = tmp_path / f"{src.stem}{src.suffix}"
            path.write_text("\n".join(case) + "\n", encoding="utf-8")
            for command in FILE_COMMANDS[src.suffix]:
                code = run_cli(["--porcelain", command, str(path)])
                if code != 2:
                    wrong.append((src.name, n, command, code))
    assert wrong == []


def _output(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_deleting_a_content_line_shows(tmp_path):
    """No line of an accepted file is dropped silently: deleting one content
    line of an accepted `.alg`, `.frm` or `.prf` fixture changes stdout or
    the exit code, or is rejected (exit 2).  Every content line is tried,
    except that of a proof's numbered lines only a seeded sample of six is:
    each deletion costs a parse and check of the whole proof."""
    sources = sorted(p for p in FIXTURES.iterdir() if p.suffix in FILE_COMMANDS)
    rng = random.Random(SEED)
    silent, accepted = [], 0
    for src in sources:
        lines = src.read_text(encoding="utf-8").splitlines()
        content = [i for i, line in enumerate(lines) if line.split("#", 1)[0].strip()]
        numbered = [i for i in content if lines[i].split()[0].isdigit()]
        picked = [i for i in content if i not in numbered]
        picked += rng.sample(numbered, min(6, len(numbered)))
        path = tmp_path / f"{src.stem}{src.suffix}"
        for command in FILE_COMMANDS[src.suffix]:
            before = _output(["--porcelain", command, str(src)])
            if before[0] == 2:
                continue
            accepted += 1
            for i in sorted(picked):
                path.write_text("\n".join(lines[:i] + lines[i + 1:]) + "\n", encoding="utf-8")
                after = _output(["--porcelain", command, str(path)])
                if after[0] != 2 and after == before:
                    silent.append((src.name, command, lines[i]))
    assert accepted == 36
    assert silent == []
