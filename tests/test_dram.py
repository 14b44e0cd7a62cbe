"""Geometry and refresh-cadence value types."""

import pytest

from hammersim.dram import (DeviceGeometry, RefreshConfig, idle_bandwidth,
                            rows_per_refresh)
from hammersim.units import ns, us


def test_default_geometry_counter_cap():
    g = DeviceGeometry()
    assert g.counter_cap == 255
    assert DeviceGeometry(counter_bits=16).counter_cap == 65535


@pytest.mark.parametrize("bits", [0, 33, 64])
def test_geometry_rejects_counter_widths_the_kernels_cannot_hold(bits):
    # Both kernel builds must hold the cap; the compiled one stores 32 bits.
    with pytest.raises(ValueError, match="counter_bits"):
        DeviceGeometry(counter_bits=bits)
    assert DeviceGeometry(counter_bits=32).counter_cap == 2**32 - 1


def test_geometry_rejects_nondividing_dsa():
    with pytest.raises(ValueError):
        DeviceGeometry(rows_per_bank=1000, rows_per_dsa=512)


def test_refresh_window_is_a_power_of_two_ref_sweep():
    r = RefreshConfig()
    assert r.refs_per_window == 8192
    assert r.window_ps == 8192 * us(3.9)
    assert r.window_ps == 31_948_800_000  # 31.9488 ms


def test_rows_per_refresh_covers_bank_in_one_window():
    g = DeviceGeometry()
    r = RefreshConfig()
    rpr = rows_per_refresh(g, r)
    assert rpr == 8
    assert rpr * r.refs_per_window >= g.rows_per_bank
    small = DeviceGeometry(rows_per_bank=512, rows_per_dsa=512)
    assert rows_per_refresh(small, r) == 1


def test_idle_bandwidth_value():
    # One 295 ns REF per 3.9 us slice.
    assert idle_bandwidth(RefreshConfig()) == pytest.approx(1 - 295 / 3900)


def test_refresh_config_rejects_inverted_cadence():
    with pytest.raises(ValueError):
        RefreshConfig(tREFI=ns(100), tRFC=ns(295))


@pytest.mark.parametrize("timings", [
    {"tRFC": ns(-100)},
    {"tRFC": 0},
    {"tREFI": ns(-100), "tRFC": ns(-200)},
], ids=["negative_tRFC", "zero_tRFC", "negative_tREFI_and_tRFC"])
def test_refresh_config_rejects_non_positive_timings(timings):
    with pytest.raises(ValueError, match="tRFC must be > 0"):
        RefreshConfig(**timings)
