"""Exception hierarchy shared across the pipeline, the strict reader of config
and spec files, and the decoder of those files and of the small JSON artifacts.

The CLI maps these onto exit codes: ConfigError -> 2, InputError -> 3,
NumericError -> 4, OSError -> 5.
"""

import dataclasses
import functools
import json
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


def read_json_object(path, kind):
    """The JSON object in the user-written `kind` ("config", "spec") file `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a long integer, deep nesting
        raise ConfigError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{kind} file {path} must hold a JSON object")
    return data


def decode(cls, data, where=""):
    """Frozen dataclass `cls` from decoded JSON `data`, typed by its annotations.

    Nothing is coerced: an int field takes a JSON integer but not a bool, a
    float field a finite number (a JSON integer too), a `Literal` choice
    only one of its strings, `X | None` also null, `tuple[X, ...]` a JSON
    array (or a tuple), `tuple[X, Y]` two items, an X and a Y, and a nested
    dataclass a JSON object. An absent key takes the field's default; a key
    that names no field is an error, unless it starts with `_comment` (a
    note, at any depth). Every error is a ConfigError naming the key path (an
    artifact reader reports it as an InputError); `where` is `data`'s path.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'the top level'} must be a JSON object, got {data!r}")
    types = _type_hints(cls)
    for key in data:
        if key not in types and not key.startswith("_comment"):
            raise ConfigError(f"unknown key {where}.{key}" if where else f"unknown key {key}")
    values = {}
    for f in dataclasses.fields(cls):
        path = f"{where}.{f.name}" if where else f.name
        if f.name in data:
            values[f.name] = _value(types[f.name], data[f.name], path)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing a required field: {path}")
    return cls(**values)


def _value(tp, value, path):
    if type(value) is tp and (tp is not float or math.isfinite(value)):  # a leaf: skips typing's calls
        return value
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _value(args[0], value, path)
    if dataclasses.is_dataclass(tp):
        return decode(tp, value, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):  # a tuple as from dataclasses.asdict
            raise ConfigError(f"{path} must be a JSON array, got {value!r}")
        types = args[:1] * len(value) if args[-1] is Ellipsis else args  # or tuple[X, Y]
        if len(value) != len(types):
            raise ConfigError(f"{path} must be a JSON array of {len(args)} items, got {value!r}")
        return tuple(_value(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(types, value)))
    if typing.get_origin(tp) is typing.Literal:
        if value in args:
            return value
        raise ConfigError(f"{path} must be one of {args}, got {value!r}")
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
