"""Strict YAML configuration: unknown keys are errors, values are type-
checked, and every message carries the full key path.  Durations cross
the boundary in nanoseconds and become integer picoseconds internally.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Type

import yaml

from .dram import DeviceGeometry, RefreshConfig
from .schemes import DEFAULT_QUEUE_DEPTH, SCHEMES, SchemeConfig, preset
from .units import ns


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


_MISSING = object()


def load_config(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
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
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ConfigError(f"unknown key {where!r} (allowed under "
                          f"{path or 'top level'}: {sorted(allowed)})")


def get_value(mapping: Mapping[str, Any], key: str,
              types: Tuple[Type, ...], path: str,
              default: Any = _MISSING) -> Any:
    if key not in mapping:
        if default is _MISSING:
            raise ConfigError(f"missing required key "
                              f"{path + '.' if path else ''}{key}")
        return default
    val = mapping[key]
    # bool passes isinstance(int) checks; never accept it for numbers.
    if isinstance(val, bool) and bool not in types:
        raise ConfigError(f"{path + '.' if path else ''}{key} must be "
                          f"{'/'.join(t.__name__ for t in types)}, "
                          f"got a boolean")
    if not isinstance(val, types):
        raise ConfigError(f"{path + '.' if path else ''}{key} must be "
                          f"{'/'.join(t.__name__ for t in types)}, "
                          f"got {type(val).__name__}")
    return val


def get_section(cfg: Mapping[str, Any], name: str) -> Dict[str, Any]:
    val = cfg.get(name, {})
    if val is None:
        return {}
    if not isinstance(val, Mapping):
        raise ConfigError(f"section {name!r} must be a mapping")
    return dict(val)


_GEOMETRY_KEYS = ("rows_per_bank", "banks", "rows_per_dsa",
                  "counter_bits", "blast_radius")


def geometry_from(cfg: Mapping[str, Any]) -> DeviceGeometry:
    sec = get_section(cfg, "geometry")
    check_keys(sec, _GEOMETRY_KEYS, "geometry")
    defaults = DeviceGeometry()
    kwargs = {}
    for key in _GEOMETRY_KEYS:
        kwargs[key] = get_value(sec, key, (int,), "geometry",
                                getattr(defaults, key))
    try:
        return DeviceGeometry(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from exc


_REFRESH_KEYS = ("tREFW_ns", "tREFI_ns", "tRFC_ns")


def refresh_from(cfg: Mapping[str, Any],
                 scheme: Optional[SchemeConfig] = None) -> RefreshConfig:
    """Refresh cadence; tRFC defaults to the scheme's own (MOAT stretches
    it) and the standard value otherwise."""
    sec = get_section(cfg, "refresh")
    check_keys(sec, _REFRESH_KEYS, "refresh")
    defaults = RefreshConfig()
    trefw = get_value(sec, "tREFW_ns", (int, float), "refresh",
                      defaults.tREFW / 1000.0)
    trefi = get_value(sec, "tREFI_ns", (int, float), "refresh",
                      defaults.tREFI / 1000.0)
    default_trfc = (scheme.tRFC_ns if scheme is not None
                    else defaults.tRFC / 1000.0)
    trfc = get_value(sec, "tRFC_ns", (int, float), "refresh", default_trfc)
    try:
        return RefreshConfig(tREFW=ns(trefw), tREFI=ns(trefi),
                             tRFC=ns(trfc))
    except ValueError as exc:
        raise ConfigError(f"refresh: {exc}") from exc


_SCHEME_KEYS = ("name", "n_bo", "n_mit", "queue_depth")


def scheme_from(cfg: Mapping[str, Any]) -> SchemeConfig:
    sec = get_section(cfg, "scheme")
    check_keys(sec, _SCHEME_KEYS, "scheme")
    name = get_value(sec, "name", (str,), "scheme")
    if name not in SCHEMES:
        raise ConfigError(f"scheme.name must be one of {list(SCHEMES)}, "
                          f"got {name!r}")
    n_bo = get_value(sec, "n_bo", (int,), "scheme")
    n_mit = get_value(sec, "n_mit", (int,), "scheme", 1)
    depth = get_value(sec, "queue_depth", (int,), "scheme",
                      DEFAULT_QUEUE_DEPTH)
    try:
        return preset(name, n_bo=n_bo, n_mit=n_mit, queue_depth=depth)
    except ValueError as exc:
        raise ConfigError(f"scheme: {exc}") from exc


def dump_manifest(resolved: Mapping[str, Any]) -> str:
    """Canonical YAML echo of a fully resolved configuration."""
    return yaml.safe_dump(dict(resolved), sort_keys=True,
                          default_flow_style=False)
