"""Exception hierarchy shared across the pipeline, the strict reader of config
and spec files, and the decoder of those files and of the small JSON artifacts
(records, all typing.NamedTuple classes), with its inverse, the encoder.

The CLI maps these onto exit codes: ConfigError -> 2, InputError -> 3,
NumericError -> 4, OSError -> 5.
"""

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


def checked(record):
    """Make the NamedTuple class `record` run its `check` method on every
    value it builds: by its constructor (so by `decode`), `_make` or `_replace`."""
    new = record.__new__

    @functools.wraps(new)  # so that the signature still names the fields
    def __new__(cls, *args, **kwargs):
        value = new(cls, *args, **kwargs)
        value.check()
        return value

    # NamedTuple's _make, which _replace calls, builds through tuple.__new__, past __new__
    record.__new__, record._make = staticmethod(__new__), classmethod(lambda cls, items: cls(*items))
    return record


def encode(value):
    """`value` as JSON holds it, the inverse of `decode`: a record, which json
    would write as an array, becomes an object of its fields and a tuple an array,
    their items encoded in turn; a list, a dict or a leaf is taken as it is."""
    if not isinstance(value, tuple):
        return value
    items = [encode(v) for v in value]
    return dict(zip(value._fields, items)) if hasattr(value, "_fields") else items


def decode(cls, data, where=""):
    """Record `cls`, a NamedTuple, from decoded JSON `data`, typed by its annotations.

    Nothing is coerced: an int field takes a JSON integer but not a bool, a
    float field a finite number (a JSON integer too), a `Literal` choice
    only one of its strings, `X | None` also null, `tuple[X, ...]` a JSON
    array (or a tuple), `tuple[X, Y]` two items, an X and a Y, and a nested
    record a JSON object. An absent key takes the field's default; a key
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
    for name in cls._fields:
        path = f"{where}.{name}" if where else name
        if name in data:
            values[name] = _value(types[name], data[name], path)
        elif name not in cls._field_defaults:
            raise ConfigError(f"missing a required field: {path}")
    return cls(**values)


def _value(tp, value, path):
    if type(value) is tp and (tp is not float or math.isfinite(value)):  # a leaf: skips typing's calls
        return value
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _value(args[0], value, path)
    if hasattr(tp, "_fields"):  # a record
        return decode(tp, value, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):  # or a tuple, as a record holds it
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
