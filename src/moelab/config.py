"""The one boundary between JSON objects and the config dataclasses.

``Record.from_dict`` checks keys and value types against the field
annotations and raises ConfigError naming the dotted path of a bad value,
e.g. ``ExperimentConfig.train.base_lr``.  Values are kept as given (an int
in a float field stays an int), so configs round-trip to the same bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing

from .errors import ConfigError

# annotations of a dataclass, resolved once per class
field_types = functools.cache(typing.get_type_hints)

_KINDS = {int: "an int", float: "a finite number", str: "a string",
          bool: "true or false", dict: "a JSON object", list: "a list"}


def check_value(value, hint, where: str):
    """`value` if it fits the annotation `hint`, else ConfigError at `where`:
    int (not bool), float (an int or a finite float), str, bool, dict,
    dict[str, V], list[V], X | None, or a Record class (made an instance)."""
    if hint in _KINDS:  # exact JSON types, so a bool is not an int
        ok = (type(value) in (int, float) and math.isfinite(value)
              if hint is float else type(value) is hint)
        if not ok:
            raise ConfigError(f"{where} must be {_KINDS[hint]}, got {value!r}")
        return value
    if isinstance(hint, type) and issubclass(hint, Record):
        return hint.from_dict(value, where)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return check_value(value, inner, where)
    if origin is dict:  # JSON keys are always strings
        return {key: check_value(item, args[1], f"{where}.{key}")
                for key, item in check_value(value, dict, where).items()}
    if origin is list:
        return [check_value(item, args[0], f"{where}[{i}]")
                for i, item in enumerate(check_value(value, list, where))]
    raise TypeError(f"unsupported config annotation {hint!r}")


class Record:
    """Base of the config dataclasses: typed JSON in, plain dict out."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d, where: str | None = None):
        where = where or cls.__name__
        if not isinstance(d, dict):
            raise ConfigError(f"{where} must be a JSON object, got {d!r}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - set(fields))
        if unknown:
            raise ConfigError(f"{where}: unknown keys {unknown}; "
                              f"allowed {sorted(fields)}")
        missing = [name for name, f in fields.items() if name not in d
                   and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING]
        if missing:
            raise ConfigError(f"{where}: missing required keys {missing}")
        hints = field_types(cls)
        return cls(**{name: check_value(value, hints[name], f"{where}.{name}")
                      for name, value in d.items()})

