"""Shared exception types. Every error carries a stable `kind` string plus a witness."""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class; `kind` is a stable machine-readable tag, `witness` names the culprit."""

    def __init__(self, kind: str, witness: object = None, detail: str = ""):
        self.kind = kind
        self.witness = witness
        self.detail = detail
        msg = kind
        if witness is not None:
            msg += f" at {witness!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class FormulaSyntaxError(WorkbenchError):
    def __init__(self, offset: int, expected: frozenset[str], detail: str = ""):
        self.offset = offset
        self.expected = expected
        super().__init__("syntax-error", offset, detail or f"expected one of {sorted(expected)}")


class LatticeError(WorkbenchError):
    """Raised when declared order data does not describe a valid bounded (distributive) lattice."""


class AlgebraError(WorkbenchError):
    """Raised on bad algebra construction or evaluation (dne-violation, unbound-atom, ...)."""


class FrameError(WorkbenchError):
    """Raised on frame condition violations (condition name + witness tuple)."""


class FileFormatError(WorkbenchError):
    """Malformed .alg/.frm/.prf input."""


class VerificationError(WorkbenchError):
    """An embedding/duality re-check failed; indicates an implementation bug."""


class BoundGuardError(WorkbenchError):
    """A search bound guard tripped; passing None as the bound lifts it
    (CLI: --force)."""

    def __init__(self, what: str, limit: object, actual: object):
        super().__init__("bound-guard", what, f"limit {limit}, requested {actual}")


def given_once(seen: set, key, line: str, what: str) -> None:
    """Record `key`, read from `line`.  A file names each element, order or
    relation pair, Y0 world and proof line number once: a repeat is
    `bad-line`."""
    if key in seen:
        raise FileFormatError("bad-line", line, f"{what} already given")
    seen.add(key)


def content_lines(text: str):
    """The line grammar shared by .alg, .frm and .prf files: yield each line
    before `end` as its words joined by single spaces, with `#` comments and
    blank lines dropped, so no error that quotes a line depends on its
    spacing.  The first non-blank line after `end` is `trailing-content`;
    text without `end` is `missing-end` once every line before has been
    consumed."""
    lines = (" ".join(raw.split("#", 1)[0].split()) for raw in text.splitlines())
    for line in lines:
        if line == "end":
            for rest in lines:
                if rest:
                    raise FileFormatError("trailing-content", rest)
            return
        if line:
            yield line
    raise FileFormatError("missing-end", None)
