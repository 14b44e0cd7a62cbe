"""Acceptance gate: one test per numbered criterion.

Every simulated run in this file goes through `finalize_audited`, so the
timing-legality auditor signs off on each acceptance run as a side
effect (criterion 6c makes that check explicit).

Criterion 3 pins the solver against its full reference threshold
grid.  Under the single global calibration that reproduces the most
cells at once, seven cells still land a few counts away from the
reference values; that test prints the whole side-by-side table and
fails honestly on the divergent cells rather than loosening tolerances
until they pass.
"""

import time
from itertools import islice

import pytest
from click.testing import CliRunner

from hammersim.cli import main as cli_main
from hammersim.config import geometry_from, refresh_from
from hammersim.counters import (CSA_COMPONENT_GROWTH, CSA_TRCD, CSA_TRP,
                                CSA_TUP, CSA_TWR, CSA_UPDATE_SHRINK,
                                CsaLayout, csa_scaled_latency)
from hammersim.energy import default_energy_model
from hammersim.engine import BankEngine, audit_log
from hammersim.attacks import RoundRobinSpec, gen_round_robin
from hammersim.schemes import SchemeConfig, preset
from hammersim.security import (AnalysisParams, brute_force_oracle, bw_bound,
                                security_table, small_oracle_geometry,
                                solve_nbo)
from hammersim.units import to_ns

GEOMETRY = geometry_from({})
TREFI = 3_900_000  # ps
NAIVE = CsaLayout(kind="NaiveCsa")
OPTIMIZED = CsaLayout(kind="OptimizedDualCsa")


def make_engine(config, collect_log=True):
    refresh = refresh_from({}, config)
    return BankEngine(config, GEOMETRY, refresh,
                      collect_log=collect_log), refresh


def finalize_audited(engine, config, refresh, duration_ps, events=None):
    """Run (or finish) a simulation and insist its log is legal."""
    if events is None:
        metrics = engine.finalize(duration_ps)
    else:
        metrics = engine.run_trace(events, duration_ps)
    problems = audit_log(engine.log, config, refresh)
    assert problems == [], problems[:5]
    return metrics


# ---------------------------------------------------------------------------


def test_criterion_1_idle_window_bandwidth():
    config = preset("PVAC", n_bo=64, n_mit=4)
    engine, refresh = make_engine(config)
    started = time.perf_counter()
    metrics = finalize_audited(engine, config, refresh, refresh.window_ps,
                               events=[])
    elapsed = time.perf_counter() - started
    bw = metrics.windows[0].bandwidth
    print(f"criterion 1: idle bandwidth {bw * 100:.4f}% "
          f"(target 92.44 +- 0.05), runtime {elapsed:.2f} s")
    assert bw * 100 == pytest.approx(92.44, abs=0.05)
    assert elapsed < 1.0


def test_criterion_2_refresh_domino_reproduction():
    windows = 64
    started = time.perf_counter()

    config = preset("PRAC", n_bo=64, n_mit=4)
    engine, refresh = make_engine(config)
    metrics = finalize_audited(engine, config, refresh,
                               windows * refresh.window_ps, events=[])
    alerted = [w.index for w in metrics.windows if w.alert_count > 0]
    assert alerted, "accumulating counters never tripped an alert"
    first = alerted[0]
    collapse_bw = metrics.windows[first].bandwidth

    quiet = preset("PVAC", n_bo=64, n_mit=4)
    engine2, refresh2 = make_engine(quiet)
    metrics2 = finalize_audited(engine2, quiet, refresh2,
                                windows * refresh2.window_ps, events=[])
    pvac_alerts = sum(w.alert_count for w in metrics2.windows)

    elapsed = time.perf_counter() - started
    print(f"criterion 2: first alert in window {first} (target 63 +- 1), "
          f"its bandwidth {collapse_bw * 100:.2f}% (target 20.56 +- 1), "
          f"self-resetting alerts {pvac_alerts}, runtime {elapsed:.1f} s")
    assert abs(first - 63) <= 1
    assert collapse_bw * 100 == pytest.approx(20.56, abs=1.0)
    assert pvac_alerts == 0
    assert elapsed < 180.0


# (scheme, n_mit, max_hc) -> threshold label the solver must reproduce.
# The row-refresh scheme ignores n_mit, so the table carries it once.
TARGET_NBO = {
    ("PVAC", 1, 128): "85", ("PVAC", 2, 128): "102", ("PVAC", 4, 128): "108",
    ("PRAC", 1, 128): "3", ("PRAC", 2, 128): "15", ("PRAC", 4, 128): "19",
    ("Chronus", 1, 128): "31",
    ("PVAC", 1, 2048): "2015", ("PVAC", 2, 2048): "2028",
    ("PVAC", 4, 2048): "2032",
    ("PRAC", 1, 2048): "495", ("PRAC", 2, 2048): "501",
    ("PRAC", 4, 2048): "503",
    ("Chronus", 1, 2048): "511",
    ("PVAC", 4, 64): "43",
    ("PRAC", 1, 64): "inf", ("PRAC", 2, 64): "inf", ("PRAC", 4, 64): "2",
    ("Chronus", 1, 64): "15",
    ("PVAC", 4, 32): "11",
    ("Chronus", 1, 32): "7",
}


def test_criterion_3_threshold_table():
    points = security_table((32, 64, 128, 2048),
                            ("PVAC", "PRAC", "Chronus"), (1, 2, 4))
    got = {(p.scheme, p.n_mit, p.max_hc): p.label for p in points}
    mismatches = {}
    print("criterion 3: scheme  n_mit  max_hc  target  solved")
    for key in sorted(TARGET_NBO, key=lambda k: (k[2], k[0], k[1])):
        want, have = TARGET_NBO[key], got[key]
        mark = "" if want == have else "   <-- differs"
        print(f"  {key[0]:<8}{key[1]:^7}{key[2]:^8}{want:>6}  "
              f"{have:>6}{mark}")
        if want != have:
            mismatches[key] = (want, have)
    assert not mismatches, (
        f"{len(mismatches)} cells diverge from the target grid under the "
        f"best single calibration: {mismatches}")


def test_criterion_4_mitigation_bandwidth_bound():
    targets = [
        ((4, 237, 48.0), 11.0),
        ((4, 52, 52.0), 34.1),
        ((1, 15, 48.0), 32.7),
        ((4, 43, 48.0), 40.4),
    ]
    for (m, n_bo, trc), pct in targets:
        bound = bw_bound(m, n_bo, trc)
        print(f"criterion 4: bound(m={m}, n_bo={n_bo}, tRC={trc}) "
              f"= {bound * 100:.3f}% (target {pct})")
        assert bound * 100 == pytest.approx(pct, abs=0.1)

    # A one-row saturating stream should spend the bounded fraction of
    # its non-idle time inside RFM service.
    config = SchemeConfig(scheme="PVAC", n_bo=237, n_mit=4, proactive=False)
    engine, refresh = make_engine(config)
    row = RoundRobinSpec(n=1, base_row=5000)
    metrics = finalize_audited(engine, config, refresh, refresh.window_ps,
                               events=islice(gen_round_robin(row), 700_000))
    rfm_ns = 350.0 * metrics.rfms_issued
    act_ns = 48.0 * metrics.acts_issued
    share = rfm_ns / (rfm_ns + act_ns)
    bound = bw_bound(4, 237, 48.0)
    rel = abs(share - bound) / bound
    print(f"criterion 4: engine share {share:.6f} vs bound {bound:.6f} "
          f"({rel * 100:.3f}% relative)")
    assert rel <= 0.02


def test_criterion_5_counter_subarray_latency():
    base_total = csa_scaled_latency(65536, 2).total_ns
    share = csa_scaled_latency(65536, 1).share
    print(f"criterion 5: 64K/BR2 update cycle {base_total:.2f} ns "
          f"(target 35.1 +- 0.1); BR1 access share {share * 100:.2f}% "
          f"(target 91.6 +- 0.5)")
    assert base_total == pytest.approx(35.1, abs=0.1)
    assert share * 100 == pytest.approx(91.6, abs=0.5)
    fixed = to_ns(CSA_TRCD + CSA_TWR + CSA_TRP)
    for rows in (65536, 131072, 262144):
        doublings = (rows // 65536).bit_length() - 1
        grow = CSA_COMPONENT_GROWTH ** doublings
        shrink = CSA_UPDATE_SHRINK ** doublings
        for br in (1, 2, 4):
            total = (fixed * grow
                     + (2 * br + 1) * to_ns(CSA_TUP) * shrink)
            print(f"criterion 5: {rows} rows, BR={br}: {total:.2f} ns")
            assert total < 48.0
            assert csa_scaled_latency(rows, br).scaled_total_ns < 48.0


def test_criterion_6a_refresh_only_counter_bound():
    config = preset("PVAC", n_bo=64, n_mit=4)
    engine, refresh = make_engine(config)
    # Read the peak from the rows each tREFI step counted: a row's count
    # at the end of any step was set in the last step that changed it,
    # so this equals the peak of a full-bank scan after every step.
    scheme, changed = engine.scheme, set()
    act, get = scheme._act, scheme.bank.core.get

    def counted(row, sem):
        changes = act(row, sem)
        changed.update(r for r, _count in changes)
        return changes
    scheme._act = counted
    peak = 0
    for k in range(2 * 8192):
        engine.advance_to((k + 1) * TREFI)
        peak = max(peak, max(map(get, changed), default=0))
        changed.clear()
    finalize_audited(engine, config, refresh, 2 * refresh.window_ps)
    print(f"criterion 6a: refresh-only peak counter {peak} "
          f"(bound 2*BR = {2 * GEOMETRY.blast_radius})")
    assert peak == 2 * GEOMETRY.blast_radius


def test_criterion_6b_oracle_soundness_grid():
    geometry = small_oracle_geometry(rows=256)
    checked = 0
    for name in ("PVAC", "PRAC", "Chronus"):
        for n_mit in (1, 4):
            for n_bo in (8, 12, 16, 24):
                check = brute_force_oracle(name, n_bo, n_mit, geometry)
                checked += 1
                assert check.sound, (name, n_mit, n_bo, check)
    print(f"criterion 6b: {checked} grid points, every brute-forced "
          f"hammer count within its analytical bound")
    assert checked >= 20


def test_criterion_6c_auditor_on_acceptance_runs():
    # Every run above goes through finalize_audited; repeat the domino
    # configuration here so the auditor's verdict is a criterion of its
    # own rather than a silent helper.
    config = preset("PRAC", n_bo=64, n_mit=4)
    engine, refresh = make_engine(config)
    engine.run_trace([], 4 * refresh.window_ps)
    problems = audit_log(engine.log, config, refresh)
    print(f"criterion 6c: auditor violations on a 4-window run: "
          f"{len(problems)}")
    assert problems == []


def test_criterion_6d_stride_three_is_worst():
    for max_hc in (32, 64):
        point = solve_nbo("PVAC", max_hc, AnalysisParams(n_mit=4))
        assert point.feasible
        per_stride = {}
        for stride in (1, 2, 3):
            config = preset("PVAC", n_bo=point.n_bo, n_mit=4)
            engine, refresh = make_engine(config)
            spec = RoundRobinSpec(n=128, stride=stride)
            metrics = finalize_audited(engine, config, refresh,
                                       refresh.window_ps,
                                       events=gen_round_robin(spec))
            per_stride[stride] = metrics.rfms_issued
        print(f"criterion 6d: max_hc={max_hc} n_bo={point.n_bo} "
              f"RFMs per window by stride: {per_stride}")
        assert per_stride[3] >= per_stride[1]
        assert per_stride[3] >= per_stride[2]


def test_criterion_6e_energy_ratio_calibration():
    model = default_energy_model(GEOMETRY)
    checks = [
        ("per-access, full-size",
         model.per_access_csa_ratio(NAIVE, GEOMETRY), 0.201),
        ("per-access, optimized",
         model.per_access_csa_ratio(OPTIMIZED, GEOMETRY), 0.198),
        ("per-REF, full-size",
         model.per_ref_csa_ratio(NAIVE, GEOMETRY), 1.61),
        ("per-REF, optimized",
         model.per_ref_csa_ratio(OPTIMIZED, GEOMETRY), 0.193),
    ]
    for label, got, want in checks:
        rel = abs(got - want) / want
        print(f"criterion 6e: {label}: {got:.5f} vs {want} "
              f"({rel * 100:.3f}% off)")
        assert rel <= 0.01, (label, got, want)


DOMINO_CFG = """\
domino:
  windows: 2
  schemes: [PRAC, PVAC]
  n_bo: 8
  n_mit: 1
geometry:
  rows_per_bank: 512
  rows_per_dsa: 512
"""

TABLE_CFG = """\
security_table:
  max_hc: [32, 64]
"""


def test_criterion_6f_reruns_are_byte_identical(tmp_path):
    runner = CliRunner()
    jobs = [("domino", DOMINO_CFG, "domino.csv"),
            ("security-table", TABLE_CFG, "security_table.csv")]
    for command, cfg_text, artifact in jobs:
        cfg = tmp_path / f"{command}.yaml"
        cfg.write_text(cfg_text)
        outs = []
        for attempt in ("one", "two"):
            outdir = tmp_path / f"{command}-{attempt}"
            result = runner.invoke(cli_main, [
                command, "--config", str(cfg), "--out", str(outdir),
                "--seed", "3"], catch_exceptions=False)
            assert result.exit_code == 0
            outs.append(outdir)
        for name in (artifact, "manifest.yaml"):
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes())
        print(f"criterion 6f: {command} rerun byte-identical "
              f"({artifact}, manifest.yaml)")


BENIGN_SCHEMES = ("PRAC", "QPRAC", "Chronus", "MOAT", "PVAC")


def simulate_benign(tmp_path, name: str, simulate: str):
    """Run `simulate` for scheme `name` on the benign-traffic bank: 1024
    rows in 256-row subarrays with 16-bit counters, a 1 ms tREFW, n_bo 16
    and n_mit 4 (MOAT 1), seed 0, with `simulate` as the simulate section
    and the event log written.  Returns the ACTs admitted, counted from
    the `ACT` lines of `events.csv`, and the rows of `summary.csv`."""
    n_mit = 1 if name == "MOAT" else 4
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(f"""\
scheme: {{name: {name}, n_bo: 16, n_mit: {n_mit}}}
geometry: {{rows_per_bank: 1024, rows_per_dsa: 256, counter_bits: 16}}
refresh: {{tREFW_ns: 1000000}}
simulate: {{{simulate}, write_events: true}}
""")
    outdir = tmp_path / name
    result = CliRunner().invoke(cli_main, [
        "simulate", "--config", str(cfg), "--out", str(outdir),
        "--seed", "0"], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    with open(outdir / "events.csv") as events:
        acts = sum(line.split(",")[2] == "ACT" for line in events)
    rows = [line.split(",") for line in
            (outdir / "summary.csv").read_text().splitlines()[1:]]
    return acts, rows


def test_benign_traffic_alerts_prac_not_pvac(tmp_path):
    """The paper's benign-traffic claim, through `simulate`: on benign
    traffic PVAC raises no alert, while PRAC does.

    The config was fixed before the run: `simulate_benign`'s bank and a
    `benign` stream of 48,000 ACTs 500 ns apart over 24 windows.  Each
    scheme's ACTs admitted, alerts, RFMs and mean bandwidth are
    printed."""
    totals = {}
    for name in BENIGN_SCHEMES:
        acts, rows = simulate_benign(
            tmp_path, name, "kind: benign, act_gap_ns: 500, count: 48000, "
            "duration_windows: 24")
        bandwidth = sum(float(r[1]) for r in rows[:-1]) / (len(rows) - 1)
        totals[name] = int(rows[-1][3])
        print(f"benign traffic: {name} {acts} ACTs, {totals[name]} alerts, "
              f"{rows[-1][2]} RFMs, mean bandwidth {bandwidth:.6f}")
    assert totals["PVAC"] == 0
    assert totals["PRAC"] >= 1


def test_benign_traffic_admits_more_acts_under_pvac(tmp_path):
    """PRAC's timing penalty on benign traffic, through `simulate`: with
    ACTs offered every 50 ns, between PVAC's 48 ns tRC and PRAC's 52 ns,
    PVAC admits more ACTs than each of the other four schemes.

    The config was fixed before the run: `simulate_benign`'s bank and a
    `benign` stream of 48,000 ACTs 50 ns apart over 2 windows.  PVAC
    alerts at this rate too, so no alert count is asserted; each
    scheme's ACTs, alerts and RFMs are printed."""
    admitted = {}
    for name in BENIGN_SCHEMES:
        acts, rows = simulate_benign(
            tmp_path, name, "kind: benign, act_gap_ns: 50, count: 48000, "
            "duration_windows: 2")
        admitted[name] = acts
        print(f"benign traffic at 50 ns: {name} {acts} ACTs, "
              f"{rows[-1][3]} alerts, {rows[-1][2]} RFMs")
    for name in BENIGN_SCHEMES:
        if name != "PVAC":
            assert admitted["PVAC"] > admitted[name], name
