"""The one serialiser of every config value (DESIGN.md §25).

A config class subclasses :class:`Spec` and declares each field once, as
an annotated class attribute; validation and normalisation go in
``__post_init__``.  The class becomes a dataclass (constructor, value
equality, ``repr``), and from its fields it gets:

* ``to_dict()`` — the stored, JSON-ready form: a nested spec as its own
  ``to_dict()``, tuples as lists, dicts and lists copied;
* ``from_dict(data)`` — the inverse.  A key that is not a field is refused
  by name (a misspelt or removed option must not load as the default), and
  a field annotated with a spec class (or ``Optional`` of one) loads
  through that class, so nested blocks are checked too;
* ``replace(**changes)`` — a validated copy, refusing unknown fields alike.

Nothing of the package is imported here, so config classes anywhere in
``repro`` subclass :class:`Spec` without an import cycle.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Dict, Iterable


def _reject_unknown_keys(cls: type, keys: Iterable[str]) -> None:
    accepted = sorted(field.name for field in dataclasses.fields(cls))
    unknown = sorted(set(keys) - set(accepted))
    if unknown:
        raise ValueError(f"{cls.__name__} does not accept {unknown} (accepts: {accepted})")


@functools.cache
def _nested(cls: type) -> Dict[str, type]:
    """``{field: spec class}`` for the fields annotated with a spec class,
    or ``Optional`` of one (resolved once per class)."""
    nested = {}
    for name, hint in typing.get_type_hints(cls).items():
        union = typing.get_origin(hint) is typing.Union
        for option in typing.get_args(hint) if union else (hint,):
            if isinstance(option, type) and issubclass(option, Spec):
                nested[name] = option
    return nested


def _plain(value: Any) -> Any:
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class Spec:
    """Base class of the config values; see the module docstring."""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        dataclasses.dataclass(cls)

    def to_dict(self) -> Dict[str, Any]:
        return {
            field.name: _plain(getattr(self, field.name))
            for field in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]):
        _reject_unknown_keys(cls, data)
        nested = _nested(cls)
        return cls(**{
            key: value if value is None or key not in nested else nested[key].from_dict(value)
            for key, value in data.items()
        })

    def replace(self, **changes: Any):
        _reject_unknown_keys(type(self), changes)
        return dataclasses.replace(self, **changes)
