"""Workbench for finite bounded distributive lattices with a paired
intuitionistic/minimal negation, the matching frame semantics, translations
and dualities between them, and proof checking with bounded countermodel
search.

Submodules load on first use (`twoneg.frames`, `from twoneg import bridge`),
so that a command-line process imports only what its command runs."""

__version__ = "0.1.0"

_SUBMODULES = ("algebra", "bridge", "formula", "frames", "lattice", "proofs", "translate")

__all__ = [*_SUBMODULES, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        from importlib import import_module
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
