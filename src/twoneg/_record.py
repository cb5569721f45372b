"""Frozen value records without the `dataclasses` module.

`dataclasses` imports `inspect` (and with it `ast`, `dis` and `tokenize`)
and generates each class's methods from source text, which together cost a
fresh CLI process about as much as the search it answers.  `record` gives a class
the same behaviour from a few shared functions: an `__init__` over the
annotated fields (base-class fields first, `ClassVar` annotations skipped,
class attributes as defaults) that runs `__post_init__` if the class has
one, frozen assignment, `__match_args__`, and equality, hash and repr that
read exactly as the dataclass ones do.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make `cls` a frozen record over its annotated fields."""
    own = [name for name, ann in cls.__dict__.get("__annotations__", {}).items()
           if not str(ann).startswith(("ClassVar", "typing.ClassVar"))]
    inherited = getattr(cls, "__match_args__", ())
    fields = inherited + tuple(name for name in own if name not in inherited)
    names = frozenset(fields)
    defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
    required = len(fields) - len(defaults)
    if any(name not in defaults for name in fields[required:]):
        raise TypeError(f"{cls.__name__}: a field without default follows a default")
    tail = tuple(defaults.values())
    post_init = getattr(cls, "__post_init__", None)
    # the field values as a tuple, as the dataclass methods compare and hash
    # them (attrgetter returns a tuple for two or more names, and every
    # record here has at least two fields)
    values = attrgetter(*fields)

    def bind(args, kwargs) -> tuple:
        """Every field's value, from positional and keyword arguments and
        the defaults."""
        given = dict(zip(fields, args))
        if len(args) > len(fields) or not given.keys().isdisjoint(kwargs):
            raise TypeError(f"{cls.__name__}() got too many or repeated arguments")
        bound = {**defaults, **given, **kwargs}
        if bound.keys() != names:
            raise TypeError(f"{cls.__name__}() takes exactly the fields {fields}, "
                            f"got {tuple(bound)}")
        return tuple(bound[name] for name in fields)

    def __init__(self, *args, **kwargs):
        # positional arguments, with the defaults after them, are the
        # common call; keywords take the slower path
        if kwargs or not required <= len(args) <= len(fields):
            args = bind(args, kwargs)
        # one attribute at a time, in field order: instances then share
        # their attribute layout, which keeps attribute reads fast (filling
        # `self.__dict__` in one update makes every read several times slower)
        for name, value in zip(fields, args + tail[len(args) - required:]):
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in fields) + ")")

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = fields
    return cls


def replace(obj, **changes):
    """A copy of the record `obj` with the given fields changed; the copy is
    built through `__init__`, so `__post_init__` checks it again."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj.__match_args__},
                        **changes})
