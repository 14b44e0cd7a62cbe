"""Strict YAML configuration: unknown keys are errors, values are type-
checked, and every message carries the full key path.  Durations cross
the boundary in nanoseconds and become integer picoseconds internally.

A config section is read against a table of `Key`s, one per key, by
`read_keys`; the resolved dict it returns is what a manifest echoes.
"""

from __future__ import annotations

from collections.abc import Hashable
from contextlib import contextmanager
from dataclasses import fields
from typing import (Any, Dict, Iterator, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Type)

import yaml

from .dram import DeviceGeometry, RefreshConfig
from .schemes import DEFAULT_QUEUE_DEPTH, SCHEMES, SchemeConfig, preset
from .units import ns


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


_MISSING = object()


class Key(NamedTuple):
    """One config key: the types it takes, its default (none: required)
    and, for a count, its least value.  `types` may also be `[T]`, a
    non-empty list of `T`s, or `[table]`, a non-empty list of mappings
    each read against `table`; `(float,)` takes any number and resolves
    it to a float."""

    name: str
    types: Any
    default: Any = _MISSING
    minimum: Optional[int] = None


@contextmanager
def config_errors(where: str) -> Iterator[None]:
    """Report a domain constructor's ValueError as a ConfigError that
    names `where`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _unique_key_map(loader: yaml.SafeLoader, node: yaml.MappingNode):
    """A YAML mapping; a key given twice is an error, not the last value."""
    first: Dict[Any, int] = {}
    for key_node, _ in node.value:
        if key_node.tag == "tag:yaml.org,2002:merge":
            continue
        key = loader.construct_object(key_node, deep=True)
        if not isinstance(key, Hashable):
            continue  # the safe loader rejects it
        if key in first:
            raise yaml.constructor.ConstructorError(
                "while constructing a mapping", node.start_mark,
                f"found duplicate key {key!r} (first on line {first[key]})",
                key_node.start_mark)
        first[key] = key_node.start_mark.line + 1
    return loader.construct_yaml_map(node)


class _UniqueKeyLoader(yaml.SafeLoader):
    """PyYAML's safe loader, with `_unique_key_map` for every mapping."""


_UniqueKeyLoader.add_constructor("tag:yaml.org,2002:map", _unique_key_map)


def load_config(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loader = _UniqueKeyLoader(fh)
            try:
                data = loader.get_single_data()
            finally:
                loader.dispose()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, Mapping):
        raise ConfigError(f"config {path} must be a mapping at top level")
    return dict(data)


def check_keys(mapping: Mapping[str, Any], allowed: Sequence[str],
               path: str) -> None:
    # YAML keys need not be strings, nor all of one type.
    unknown = sorted(set(mapping) - set(allowed), key=str)
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ConfigError(f"unknown key {where!r} (allowed under "
                          f"{path or 'top level'}: {sorted(allowed)})")


def get_value(mapping: Mapping[str, Any], key: str,
              types: Tuple[Type, ...], path: str,
              default: Any = _MISSING) -> Any:
    where = f"{path}.{key}" if path else key
    if key not in mapping:
        if default is _MISSING:
            raise ConfigError(f"missing required key {where}")
        return default
    val = mapping[key]
    # bool passes isinstance(int) checks; never accept it for numbers.
    if isinstance(val, bool) and bool not in types:
        got = "a boolean"
    elif not isinstance(val, types):
        got = type(val).__name__
    else:
        return val
    expected = "/".join("null" if t is type(None) else t.__name__
                        for t in types)
    raise ConfigError(f"{where} must be {expected}, got {got}")


def read_keys(mapping: Mapping[str, Any], table: Sequence[Key],
              path: str) -> Dict[str, Any]:
    """`mapping` checked against `table`: no unknown key, each value of
    its type and at least its minimum; absent keys take their default,
    and so does a list given as null."""
    check_keys(mapping, [key.name for key in table], path)
    out = {}
    for name, types, default, minimum in table:
        if types == (float,):
            val = float(get_value(mapping, name, (int, float), path, default))
        elif not isinstance(types, list):
            val = get_value(mapping, name, types, path, default)
        elif mapping.get(name) is None:
            val = list(default)
        elif not isinstance(mapping[name], list) or not mapping[name]:
            raise ConfigError(f"{path}.{name} must be a non-empty list")
        else:
            val = [_list_item(elem, types[0], f"{path}.{name}[{i}]")
                   for i, elem in enumerate(mapping[name])]
        if minimum is not None and val < minimum:
            raise ConfigError(f"{path}.{name} must be >= {minimum}")
        out[name] = val
    return out


def _list_item(elem: Any, item: Any, where: str) -> Any:
    """One list element: an `item` if that is a type, else a mapping
    read against the table `item`."""
    if isinstance(item, type):
        if isinstance(elem, bool) or not isinstance(elem, item):
            raise ConfigError(f"{where} has the wrong type")
        return elem
    if not isinstance(elem, Mapping):
        raise ConfigError(f"{where} must be a mapping")
    return read_keys(elem, item, where)


def get_section(cfg: Mapping[str, Any], name: str) -> Dict[str, Any]:
    val = cfg.get(name, {})
    if val is None:
        return {}
    if not isinstance(val, Mapping):
        raise ConfigError(f"section {name!r} must be a mapping")
    return dict(val)


def read_section(cfg: Mapping[str, Any], name: str,
                 tables: Mapping[str, Sequence[Key]]) -> Dict[str, Any]:
    """Section `name` of `cfg` read against `tables[name]`, once `cfg`
    is checked to hold no section outside `tables`."""
    check_keys(cfg, tuple(tables), "")
    return read_keys(get_section(cfg, name), tables[name], name)


GEOMETRY = tuple(Key(f.name, (int,), f.default)
                 for f in fields(DeviceGeometry))
# Each RefreshConfig duration `t` is the key `t_ns`.
REFRESH = tuple(Key(f"{f.name}_ns", (int, float), f.default / 1000.0)
                for f in fields(RefreshConfig))
SCHEME = (Key("name", (str,)), Key("n_bo", (int,)), Key("n_mit", (int,), 1),
          Key("queue_depth", (int,), DEFAULT_QUEUE_DEPTH))


def geometry_from(cfg: Mapping[str, Any]) -> DeviceGeometry:
    sec = read_keys(get_section(cfg, "geometry"), GEOMETRY, "geometry")
    with config_errors("geometry"):
        return DeviceGeometry(**sec)


def refresh_from(cfg: Mapping[str, Any],
                 scheme: Optional[SchemeConfig] = None) -> RefreshConfig:
    """Refresh cadence; tRFC defaults to the scheme's own (MOAT stretches
    it) and the standard value otherwise."""
    raw = get_section(cfg, "refresh")
    sec = read_keys(raw, REFRESH, "refresh")
    if scheme is not None and "tRFC_ns" not in raw:
        sec["tRFC_ns"] = scheme.tRFC_ns
    with config_errors("refresh"):
        return RefreshConfig(**{key[:-len("_ns")]: ns(val)
                                for key, val in sec.items()})


def refresh_doc(refresh: RefreshConfig) -> Dict[str, float]:
    """The refresh section `refresh` resolves to, in nanoseconds."""
    return {f"{f.name}_ns": getattr(refresh, f.name) / 1000.0
            for f in fields(refresh)}


def scheme_from(cfg: Mapping[str, Any]) -> SchemeConfig:
    sec = read_keys(get_section(cfg, "scheme"), SCHEME, "scheme")
    name = sec.pop("name")
    if name not in SCHEMES:
        raise ConfigError(f"scheme.name must be one of {list(SCHEMES)}, "
                          f"got {name!r}")
    with config_errors("scheme"):
        return preset(name, **sec)


def scheme_doc(scheme: SchemeConfig) -> Dict[str, Any]:
    """The scheme section as `scheme` runs it: a preset may force its own
    n_mit.  The table's `name` is SchemeConfig's `scheme`."""
    return {key.name: getattr(scheme, "scheme" if key.name == "name"
                              else key.name) for key in SCHEME}


def dump_manifest(resolved: Mapping[str, Any]) -> str:
    """Canonical YAML echo of a fully resolved configuration."""
    return yaml.safe_dump(dict(resolved), sort_keys=True,
                          default_flow_style=False)
