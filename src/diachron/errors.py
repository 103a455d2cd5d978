"""Exception hierarchy shared across the pipeline, and the strict decoder of
config and spec files.

The CLI maps these onto exit codes: ConfigError -> 2, InputError -> 3,
NumericError -> 4, OSError -> 5.
"""

import dataclasses
import functools
import math
import typing


class DiachronError(Exception):
    """Base class for all diachron-specific failures."""


class ConfigError(DiachronError):
    """Invalid configuration value or combination."""


class InputError(DiachronError):
    """Malformed, inconsistent, or missing input data."""


class NumericError(DiachronError):
    """A numeric stage cannot proceed (e.g. k exceeds the document count)."""


_type_hints = functools.cache(typing.get_type_hints)  # evaluating them dominates decode


def decode(cls, data, where=""):
    """Frozen dataclass `cls` from decoded JSON `data`, typed by its annotations.

    Nothing is coerced: an int field takes a JSON integer but not a bool, a
    float field a finite number (a JSON integer too), `X | None` also null,
    `tuple[X, ...]` a JSON array (or a tuple), and a nested dataclass a JSON
    object. An absent key takes the field's default; other keys are ignored.
    Every error is a ConfigError naming the key path. `where` is the path of
    `data` in its file, or a dict from each field to its path (a dict again
    for a nested dataclass) for an object the caller assembled.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {data!r}")
    types = _type_hints(cls)
    values = {}
    for f in dataclasses.fields(cls):
        if isinstance(where, dict):
            path = where.get(f.name, f.name)
        else:
            path = f"{where}.{f.name}" if where else f.name
        if f.name in data:
            values[f.name] = _value(types[f.name], data[f.name], path)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"config is missing a required field: {path}")
    return cls(**values)


def _value(tp, value, path):
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _value(args[0], value, path)
    if dataclasses.is_dataclass(tp):
        return decode(tp, value, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):  # a tuple as from dataclasses.asdict
            raise ConfigError(f"{path} must be a JSON array, got {value!r}")
        return tuple(_value(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if tp is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
        return value
    raise ConfigError(f"{path} must be of type {tp.__name__}, got {value!r}")
