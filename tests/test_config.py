"""Strict config parsing: key paths, type checks, section builders."""

import pytest

from hammersim.config import (ConfigError, check_keys, dump_manifest,
                              geometry_from, get_section, get_value,
                              load_config, refresh_from, scheme_from)
from hammersim.counters import VICTIM_COUNT
from hammersim.units import ns, us


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "scenario.yaml"
    p.write_text("scheme:\n  name: PVAC\n  n_bo: 64\n")
    cfg = load_config(str(p))
    assert cfg == {"scheme": {"name": "PVAC", "n_bo": 64}}


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(str(bad))
    binary = tmp_path / "binary.yaml"
    binary.write_bytes(b"# caf\xff\na: 1\n")
    with pytest.raises(ConfigError, match="cannot read.*0xff"):
        load_config(str(binary))
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42\n")
    with pytest.raises(ConfigError, match="mapping at top level"):
        load_config(str(scalar))
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert load_config(str(empty)) == {}


def test_check_keys_names_the_stray():
    check_keys({"a": 1}, ("a", "b"), "sec")
    with pytest.raises(ConfigError, match=r"unknown key 'sec\.c'"):
        check_keys({"a": 1, "c": 2}, ("a",), "sec")
    with pytest.raises(ConfigError, match="top level"):
        check_keys({"zz": 1}, ("a",), "")


def test_get_value_type_discipline():
    assert get_value({"k": 3}, "k", (int,), "s") == 3
    assert get_value({}, "k", (int,), "s", default=7) == 7
    with pytest.raises(ConfigError, match="missing required key s.k"):
        get_value({}, "k", (int,), "s")
    with pytest.raises(ConfigError, match="must be int, got str"):
        get_value({"k": "3"}, "k", (int,), "s")
    with pytest.raises(ConfigError, match="got a boolean"):
        get_value({"k": True}, "k", (int,), "s")


def test_get_section_shapes():
    assert get_section({}, "geometry") == {}
    assert get_section({"geometry": None}, "geometry") == {}
    assert get_section({"geometry": {"banks": 4}}, "geometry") == {"banks": 4}
    with pytest.raises(ConfigError, match="must be a mapping"):
        get_section({"geometry": 9}, "geometry")


def test_geometry_from_defaults_and_overrides():
    g = geometry_from({})
    assert g.rows_per_bank == 65536 and g.blast_radius == 2
    g = geometry_from({"geometry": {"rows_per_bank": 4096,
                                    "counter_bits": 16}})
    assert g.rows_per_bank == 4096 and g.counter_bits == 16
    with pytest.raises(ConfigError, match=r"geometry\.dsas"):
        geometry_from({"geometry": {"dsas": 3}})
    with pytest.raises(ConfigError, match="geometry"):
        geometry_from({"geometry": {"rows_per_dsa": 1000}})  # must divide


def test_refresh_from_follows_scheme_trfc():
    moat = scheme_from({"scheme": {"name": "MOAT", "n_bo": 32}})
    r = refresh_from({}, moat)
    assert r.tRFC == ns(410)
    r = refresh_from({})
    assert r.tRFC == ns(295) and r.tREFI == us(3.9)
    r = refresh_from({"refresh": {"tRFC_ns": 350}}, moat)
    assert r.tRFC == ns(350)
    with pytest.raises(ConfigError, match="refresh"):
        refresh_from({"refresh": {"tREFI_ns": -1}})


def test_scheme_from_builds_presets():
    cfg = {"scheme": {"name": "PVAC", "n_bo": 64, "n_mit": 4}}
    scheme = scheme_from(cfg)
    assert scheme.scheme == "PVAC"
    assert scheme.counter_semantics == VICTIM_COUNT
    assert scheme.n_mit == 4
    with pytest.raises(ConfigError, match="must be one of"):
        scheme_from({"scheme": {"name": "TRR", "n_bo": 64}})
    with pytest.raises(ConfigError, match="missing required key scheme.n_bo"):
        scheme_from({"scheme": {"name": "PVAC"}})
    # MOAT pins its own mitigation count; the preset forces it.
    moat = scheme_from({"scheme": {"name": "MOAT", "n_bo": 32, "n_mit": 2}})
    assert moat.n_mit == 1 and moat.tRFC_ns == 410.0
    with pytest.raises(ConfigError, match="scheme: "):
        scheme_from({"scheme": {"name": "PVAC", "n_bo": 0}})


def test_manifest_is_canonical():
    a = dump_manifest({"b": 1, "a": {"z": 2, "y": 3}})
    b = dump_manifest({"a": {"y": 3, "z": 2}, "b": 1})
    assert a == b
    assert a.index("a:") < a.index("b:")


def test_load_config_keeps_merge_keys_and_rejects_unhashable_ones(tmp_path):
    # Only a key given twice is new: a merged key may still be overridden.
    p = tmp_path / "scenario.yaml"
    p.write_text("base: &b {n_bo: 8, n_mit: 1}\nscheme: {<<: *b, n_bo: 9}\n")
    assert load_config(str(p))["scheme"] == {"n_bo": 9, "n_mit": 1}
    p.write_text("? [a]\n: 1\n")
    with pytest.raises(ConfigError, match="unhashable key"):
        load_config(str(p))
