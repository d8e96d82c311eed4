"""The one type rule for config fields.

Every config dataclass calls ``check_fields(self)`` first in its
``__post_init__``, which checks each field against its annotation:
``bool`` takes only a bool; ``int`` an integral number and ``float`` a real
number, neither a bool, a ``float`` field storing ``float(value)``; ``str`` a
string; ``dict`` a JSON object; ``tuple[X, ...]`` a list or tuple of X,
stored as a tuple; ``Optional[X]`` None or X; a dataclass type an instance
or a JSON object it is built from.  A mismatch raises ``ValueError`` naming
the field, and any other annotation is a ``TypeError``.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import typing

_NAMES = {bool: "bool", int: "int", float: "float", str: "str", dict: "object"}


class _Mismatch(Exception):
    pass


@functools.cache
def _rule(hint):
    """``(value, name) -> value`` for one annotation, raising _Mismatch."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and len(args) == 2 and args[1] is type(None):
        inner = _rule(args[0])
        return lambda value, name: None if value is None else inner(value, name)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = _rule(args[0])

        def items(value, name):
            if not isinstance(value, (list, tuple)):
                raise _Mismatch
            return tuple(item(v, name) for v in value)
        return items
    if hint not in _NAMES and not dataclasses.is_dataclass(hint):
        raise TypeError(f"no config rule for the annotation {hint!r}")
    kind = {int: numbers.Integral, float: numbers.Real}.get(hint, hint)

    def one(value, name):
        if type(value) is hint:
            return value
        if isinstance(value, kind) and not (isinstance(value, bool) and hint is not bool):
            return hint(value) if hint in (int, float) else value
        if isinstance(value, dict) and dataclasses.is_dataclass(hint):
            return build(hint, value, name)
        raise _Mismatch
    return one


def _describe(hint) -> str:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return f"{_describe(args[0])} or null"
    if origin is tuple:
        return f"list of {_describe(args[0])}"
    return _NAMES.get(hint) or hint.__name__


def convert(hint, value, name: str):
    """``value`` checked against the annotation ``hint``."""
    try:
        return _rule(hint)(value, name)
    except _Mismatch:
        raise ValueError(f"{name} must be {_describe(hint)}, got {value!r}") from None


@functools.cache
def hints(cls) -> dict:
    """Field name -> annotation of a config dataclass; TypeError naming the
    field if the rule cannot check its annotation (a bare ``tuple``, say)."""
    found = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        try:
            _rule(found[f.name])
        except TypeError as exc:
            raise TypeError(f"{cls.__name__}.{f.name}: {exc}") from None
    return {f.name: found[f.name] for f in dataclasses.fields(cls)}


def check_fields(obj) -> None:
    """Check every field of the dataclass ``obj``, storing converted values."""
    for name, hint in hints(type(obj)).items():
        object.__setattr__(obj, name, convert(hint, getattr(obj, name), name))


class ConfigError(Exception):
    """A config the run cannot use; the command line exits 2 on it."""


class SectionError(ValueError):
    """A bad config section: the message is ``before``, the section's dotted
    path ("top-level" for the whole file), then ``after``."""

    def __init__(self, path: str, before: str, after: str):
        self.path, self.before, self.after = path, before, after
        super().__init__(f"{before} {path or 'top-level'} {after}")


def build(cls, payload: dict, section: str):
    """``cls`` from a JSON object; SectionError on an unknown field or a bad value.

    ``section`` is the dotted path of ``payload`` in the config file, "" for
    the whole file; an error in a nested section names that section's path.
    """
    unknown = set(payload) - set(hints(cls))
    if unknown:
        raise SectionError(section, "unknown", f"fields: {sorted(unknown)}")
    try:
        return cls(**payload)
    except SectionError as exc:
        path = f"{section}.{exc.path}" if section else exc.path
        raise SectionError(path, exc.before, exc.after) from exc
    except (TypeError, ValueError) as exc:
        raise SectionError(section, "invalid", f"config: {exc}") from exc
