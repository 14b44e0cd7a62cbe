"""Latency-proportional energy model, and the engine's per-window
summaries that are read beside it."""

from itertools import islice

import pytest

from hammersim.attacks import RoundRobinSpec, gen_round_robin
from hammersim.counters import CsaLayout
from hammersim.dram import DeviceGeometry, RefreshConfig, ms, ns, us
from hammersim.energy import (CSA_PER_ACCESS_NAIVE, CSA_PER_ACCESS_OPTIMIZED,
                              CSA_PER_REF_NAIVE, CSA_PER_REF_OPTIMIZED,
                              EnergyModel, EnergyReport, default_energy_model,
                              energy_report)
from hammersim.engine import BankEngine, TraceEvent
from hammersim.schemes import SchemeConfig, preset

NAIVE = CsaLayout(kind="NaiveCsa")
OPTIMIZED = CsaLayout(kind="OptimizedDualCsa")
IN_DSA = CsaLayout(kind="InDsaRow")


def default_geometry() -> DeviceGeometry:
    return DeviceGeometry()


def hammer(row: int, count: int):
    """`count` back-to-back ACTs of one row."""
    return list(islice(gen_round_robin(RoundRobinSpec(n=1, base_row=row)),
                       count))


# -- calibration ---------------------------------------------------------------

def test_per_access_ratios_match_calibration():
    geometry = default_geometry()
    model = default_energy_model(geometry)
    naive = model.per_access_csa_ratio(NAIVE, geometry)
    optimized = model.per_access_csa_ratio(OPTIMIZED, geometry)
    assert naive == pytest.approx(CSA_PER_ACCESS_NAIVE, rel=1e-9)
    assert optimized == pytest.approx(CSA_PER_ACCESS_OPTIMIZED, rel=1e-9)
    assert model.per_access_csa_ratio(IN_DSA, geometry) == 0.0


def test_per_ref_ratios_match_calibration_within_one_percent():
    geometry = default_geometry()
    model = default_energy_model(geometry)
    naive = model.per_ref_csa_ratio(NAIVE, geometry)
    optimized = model.per_ref_csa_ratio(OPTIMIZED, geometry)
    assert naive == pytest.approx(CSA_PER_REF_NAIVE, rel=0.01)
    assert optimized == pytest.approx(CSA_PER_REF_OPTIMIZED, rel=0.01)


def test_calibration_ratios_are_pinned():
    geometry = default_geometry()
    model = default_energy_model(geometry)
    assert model.per_access_csa_ratio(NAIVE, geometry) == \
        pytest.approx(0.201, rel=1e-12)
    assert model.per_access_csa_ratio(OPTIMIZED, geometry) == \
        pytest.approx(0.198, rel=1e-12)
    assert model.per_ref_csa_ratio(NAIVE, geometry) == \
        pytest.approx(1.608, rel=1e-12)
    assert model.per_ref_csa_ratio(OPTIMIZED, geometry) == \
        pytest.approx(0.19346564885496184, rel=1e-12)


def test_default_model_coefficients():
    model = default_energy_model()
    assert model.csa_per_ns == pytest.approx(0.201 / 24.95, rel=1e-9)
    assert model.dsa_per_ns == 1.0 / 48.0
    assert model.half_csa_discount == pytest.approx(0.9550368, abs=1e-6)
    assert model.access_energy(48.0) == pytest.approx(1.0)


def test_model_validation():
    with pytest.raises(ValueError):
        EnergyModel(dsa_per_ns=-1, csa_per_ns=0, half_csa_discount=0.5)
    with pytest.raises(ValueError):
        EnergyModel(dsa_per_ns=0, csa_per_ns=-1, half_csa_discount=0.5)
    with pytest.raises(ValueError):
        EnergyModel(dsa_per_ns=0, csa_per_ns=0, half_csa_discount=0.0)


# -- report mechanics -----------------------------------------------------------

def test_zero_length_log_reports_zero_energy():
    report = energy_report([], preset("PVAC", 64), OPTIMIZED)
    assert report.total == 0.0
    assert report.baseline == 0.0
    assert report.normalized_total == 1.0


def test_unknown_log_event_rejected():
    with pytest.raises(ValueError):
        energy_report([(0, "WARP", 1, 0)], preset("PVAC", 64), OPTIMIZED)


def test_prac_timing_costs_more_per_access():
    log = [(0, "ACT", 10, 1)]
    prac = energy_report(log, preset("PRAC", 64), IN_DSA)
    default = energy_report(log, preset("Chronus", 64), IN_DSA)
    assert prac.energy["dsa_act"] > default.energy["dsa_act"]
    assert prac.energy["dsa_act"] / default.energy["dsa_act"] == \
        pytest.approx(52 / 48, rel=1e-12)


def test_total_is_the_sum_of_classes():
    geometry = DeviceGeometry(rows_per_bank=512, banks=1, rows_per_dsa=512,
                              counter_bits=16, blast_radius=2)
    engine = BankEngine(SchemeConfig(scheme="PVAC", n_bo=8, n_mit=4,
                                     proactive=False), geometry)
    engine.run_trace(hammer(10, 200), us(5000))
    report = energy_report(engine.log, engine.scheme.config, OPTIMIZED,
                           geometry, engine.refresh)
    assert report.total == pytest.approx(sum(report.energy.values()),
                                         rel=1e-12)
    assert report.energy["rfm"] > 0  # the run did alert and mitigate


def test_no_mitigation_default_run_normalizes_to_one():
    engine = BankEngine(preset("Chronus", 250), default_geometry())
    engine.run_trace(hammer(10, 50), us(2000))
    report = energy_report(engine.log, engine.scheme.config, IN_DSA,
                           default_geometry(), engine.refresh)
    assert report.normalized_total == pytest.approx(1.0, abs=1e-12)


def test_refresh_batches_separate_the_layouts():
    engine = BankEngine(preset("PVAC", 200), default_geometry())
    engine.run_trace([], us(400))  # refresh only: about a hundred REFs
    naive = energy_report(engine.log, engine.scheme.config, NAIVE,
                          default_geometry(), engine.refresh)
    optimized = energy_report(engine.log, engine.scheme.config, OPTIMIZED,
                              default_geometry(), engine.refresh)
    csa = lambda r: r.energy["csa_act"] + r.energy["csa_update"]
    assert csa(optimized) <= csa(naive)
    assert csa(naive) / csa(optimized) == \
        pytest.approx(CSA_PER_REF_NAIVE / CSA_PER_REF_OPTIMIZED, rel=0.01)


def test_rfm_commands_charge_once_per_timestamp():
    log = [(1_000_000, "RFM", 5, 0), (1_000_000, "RFM", 6, 0),
           (2_000_000, "RFM", -1, 0)]
    report = energy_report(log, preset("PVAC", 64), IN_DSA)
    assert report.occupancy_ns["rfm"] == pytest.approx(700.0)
    assert report.energy["rfm"] == pytest.approx(700.0 / 48.0)
    assert report.energy["csa_act"] == 0.0  # in-DSA layout, no subarray


def test_csv_lines_shape():
    report = energy_report([(0, "ACT", 10, 1)], preset("PVAC", 64),
                           OPTIMIZED)
    lines = report.to_csv_lines()
    assert lines[0] == "class,occupancy_ns,energy,fraction_of_total"
    assert len(lines) == 1 + 5 + 2
    assert lines[-2].startswith("total,,")
    assert lines[-2].endswith(",1.000000")
    empty = energy_report([], preset("PVAC", 64), OPTIMIZED).to_csv_lines()
    assert empty[-2] == "total,,0.000000,0.000000"


# -- window summaries -----------------------------------------------------------
#
# `BankEngine.finalize` is the one place windows are summed.  A 1 ms tREFW
# on a 512-row bank gives 256 REFs of two rows per window.

SHORT_REFRESH = RefreshConfig(tREFW=ms(1))
SMALL = DeviceGeometry(rows_per_bank=512, banks=1, rows_per_dsa=512,
                       counter_bits=16, blast_radius=2)


def hammered_windows(first_act_ps, windows):
    """PVAC (n_bo 8, one RFM per alert) with row 10 hammered eight times
    from `first_act_ps`: one alert, and one RFM that logs four rows."""
    engine = BankEngine(preset("PVAC", 8), SMALL, SHORT_REFRESH)
    trace = [TraceEvent(10, first_act_ps)] + \
        hammer(10, 7)
    metrics = engine.run_trace(trace, windows * SHORT_REFRESH.window_ps)
    rfm_times = [t for t, kind, _r, _c in engine.log if kind == "RFM"]
    assert len(rfm_times) == 4 and len(set(rfm_times)) == 1
    return metrics.windows


def test_window_summary_counts_and_blocking():
    (w,) = hammered_windows(0, 1)
    assert w.rfm_count == 1  # four logged rows, one command
    assert w.alert_count == 1
    assert w.blocked_ps == 256 * SHORT_REFRESH.tRFC + ns(350)
    assert w.bandwidth == 1 - w.blocked_ps / SHORT_REFRESH.window_ps


def test_window_summary_splits_windows():
    late = SHORT_REFRESH.window_ps + us(5)
    windows = hammered_windows(late, 2)
    assert [w.index for w in windows] == [0, 1]
    assert [(w.rfm_count, w.alert_count) for w in windows] == [(0, 0),
                                                               (1, 1)]
    assert windows[0].blocked_ps == 256 * SHORT_REFRESH.tRFC
    assert windows[1].blocked_ps == windows[0].blocked_ps + ns(350)


def test_idle_run_has_no_rfm_windows():
    engine = BankEngine(preset("PVAC", 200), SMALL, SHORT_REFRESH)
    windows = engine.run_trace([], 2 * SHORT_REFRESH.window_ps).windows
    assert len(windows) == 2
    assert all(w.rfm_count == 0 and w.alert_count == 0 for w in windows)


# -- pinned reports ---------------------------------------------------------------
#
# Every layout's CSV for two fixed runs: PVAC hammering row 127, whose
# counter group straddles the first 128-row chunk boundary, through one
# short window of SMALL (ACTs, REFs, RFMs and proactive refreshes), and
# a refresh-only run on the default bank.

HEADER = "class,occupancy_ns,energy,fraction_of_total"

PINNED_HAMMER = {
    "NaiveCsa": [
        "dsa_act,1920.000,40.000000,0.020808",
        "ref,75520.000,1573.333333,0.818444",
        "rfm,1750.000,36.458333,0.018966",
        "csa_act,33832.200,227.221034,0.118200",
        "csa_update,0.000,45.334966,0.023583",
        "total,,1922.347667,1.000000",
        "normalized_vs_baseline,,1.191538,",
    ],
    "OptimizedDualCsa": [
        "dsa_act,1920.000,40.000000,0.021294",
        "ref,75520.000,1573.333333,0.837562",
        "rfm,1750.000,36.458333,0.019409",
        "csa_act,29490.900,189.158750,0.100698",
        "csa_update,0.000,39.517647,0.021037",
        "total,,1878.468064,1.000000",
        "normalized_vs_baseline,,1.164340,",
    ],
    "InDsaRow": [
        "dsa_act,1920.000,40.000000,0.024245",
        "ref,75520.000,1573.333333,0.953656",
        "rfm,1750.000,36.458333,0.022099",
        "csa_act,0.000,0.000000,0.000000",
        "csa_update,0.000,0.000000,0.000000",
        "total,,1649.791667,1.000000",
        "normalized_vs_baseline,,1.022598,",
    ],
}

PINNED_REFRESH_ONLY = {
    "NaiveCsa": [
        "dsa_act,0.000,0.000000,0.000000",
        "ref,30385.000,633.020833,0.792619",
        "rfm,0.000,0.000000,0.000000",
        "csa_act,20558.800,138.075319,0.172887",
        "csa_update,0.000,27.548681,0.034494",
        "total,,798.644833,1.000000",
        "normalized_vs_baseline,,1.261641,",
    ],
    "OptimizedDualCsa": [
        "dsa_act,0.000,0.000000,0.000000",
        "ref,30385.000,633.020833,0.969482",
        "rfm,0.000,0.000000,0.000000",
        "csa_act,2569.850,16.483377,0.025245",
        "csa_update,0.000,3.443585,0.005274",
        "total,,652.947795,1.000000",
        "normalized_vs_baseline,,1.031479,",
    ],
    "InDsaRow": [
        "dsa_act,0.000,0.000000,0.000000",
        "ref,30385.000,633.020833,1.000000",
        "rfm,0.000,0.000000,0.000000",
        "csa_act,0.000,0.000000,0.000000",
        "csa_update,0.000,0.000000,0.000000",
        "total,,633.020833,1.000000",
        "normalized_vs_baseline,,1.000000,",
    ],
}


@pytest.mark.parametrize("kind", sorted(PINNED_HAMMER))
def test_alerting_hammer_report_is_pinned(kind):
    engine = BankEngine(preset("PVAC", 8), SMALL, SHORT_REFRESH)
    engine.run_trace(hammer(127, 40), SHORT_REFRESH.window_ps)
    kinds = {k for _t, k, _r, _c in engine.log}
    assert kinds == {"ACT", "REF", "RFM", "ALERT", "PROACT"}
    report = energy_report(engine.log, engine.scheme.config,
                           CsaLayout(kind=kind), SMALL, engine.refresh)
    assert report.to_csv_lines() == [HEADER] + PINNED_HAMMER[kind]


@pytest.mark.parametrize("kind", sorted(PINNED_REFRESH_ONLY))
def test_refresh_only_report_is_pinned(kind):
    engine = BankEngine(preset("PVAC", 200), default_geometry())
    engine.run_trace([], us(400))
    report = energy_report(engine.log, engine.scheme.config,
                           CsaLayout(kind=kind), default_geometry(),
                           engine.refresh)
    assert report.to_csv_lines() == [HEADER] + PINNED_REFRESH_ONLY[kind]
