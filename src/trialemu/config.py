"""Strict reader from YAML config files to frozen dataclasses.

The pipeline, trial and generator configs are all read here. A config
dataclass is the only listing of its YAML keys and defaults: a field is a
key, a nested dataclass a section and ``tuple[X, ...]`` a list. Unknown
keys, missing required keys, values of the wrong type and values the
dataclass rejects raise ``ConfigError`` naming the file and the dotted
key, e.g. ``pipeline.yaml: match.lamda_outcome: unknown key``; a key
given twice in one mapping names the file and the key.
"""

from __future__ import annotations

import dataclasses
import types
import typing

import yaml

from .errors import ConfigError


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that refuses a mapping key given twice; plain PyYAML keeps
    the last value, so a repeated section would silently replace the first."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _value in node.value:
            if not isinstance(key_node, yaml.ScalarNode):
                continue
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def read_yaml(path) -> dict:
    """The mapping a YAML file holds; an empty file is an empty mapping."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(doc, dict | None):
        raise ConfigError(f"{path}: expected a mapping of keys, got {doc!r}")
    return doc or {}


def build(cls, mapping, where, **parsers):
    """An instance of the dataclass ``cls`` read from a YAML mapping.

    ``where`` names the file in errors. ``parsers`` maps a dotted key to a
    function applied to that key's YAML value before the value is coerced
    to the field's annotation.
    """
    try:
        return _build(cls, mapping, "", parsers, None)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _build(cls, mapping, prefix, parsers, base):
    """Keys absent from the mapping keep the field default, or base's value."""
    if not isinstance(mapping, dict | None):
        raise _error(prefix, f"expected a mapping, got {mapping!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in (mapping or {}).items():
        key = f"{prefix}.{name}" if prefix else str(name)
        if name not in fields:
            raise _error(key, f"unknown key; expected one of {', '.join(fields)}")
        try:
            value = parsers[key](value) if key in parsers else value
            kwargs[name] = _coerce(hints[name], value, key, parsers,
                                   fields[name].default)
        except (KeyError, ValueError, TypeError) as exc:
            raise _error(key, exc) from None
    for name, f in fields.items():
        if base is None and name not in kwargs and (
                f.default is f.default_factory is dataclasses.MISSING):
            raise _error(f"{prefix}.{name}" if prefix else name, "missing required key")
    try:
        return cls(**kwargs) if base is None else dataclasses.replace(base, **kwargs)
    except (ConfigError, KeyError, ValueError, TypeError) as exc:
        raise _error(prefix, exc) from None


def _coerce(tp, value, key, parsers, default=None):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        (tp,) = set(args) - {type(None)}
        return None if value is None else _coerce(tp, value, key, parsers, default)
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, key, parsers,
                      default if isinstance(default, tp) else None)
    if origin is tuple:
        if not isinstance(value, list | None):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(_coerce(args[0], item, f"{key}[{i}]", parsers)
                     for i, item in enumerate(value or ()))
    if tp in (bool, int, float, str):
        if (isinstance(value, bool) != (tp is bool)
                or not isinstance(value, int | float | str)
                or tp is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError(f"expected {tp.__name__}, got {value!r}")
        return tp(value)
    return value  # object or dict: the dataclass checks it


def _error(key: str, problem) -> ConfigError:
    """ConfigError naming the dotted key; problem is a message or exception."""
    if isinstance(problem, KeyError):
        problem = f"missing key {problem}"
    return ConfigError(f"{key}: {problem}" if key else str(problem))
