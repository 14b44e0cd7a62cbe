"""Closed-loop bank engine: timing legality, ABO protocol, determinism."""

import dataclasses
import tracemalloc
from itertools import cycle, islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hammersim import _kernel_py, counters
from hammersim.attacks import DamageObserver, RoundRobinSpec, gen_round_robin
from hammersim.dram import (DeviceGeometry, RefreshConfig, ns,
                            rows_per_refresh, us)
from hammersim.engine import (BankEngine, TraceEvent, audit_log,
                              log_to_csv_lines)
from hammersim.schemes import SCHEMES, SchemeConfig, preset

TREFI = us(3.9)
TRFC = ns(295)


def small_geometry() -> DeviceGeometry:
    return DeviceGeometry(rows_per_bank=512, banks=1, rows_per_dsa=512,
                          counter_bits=16, blast_radius=2)


def plain_pvac(n_bo: int, n_mit: int = 4) -> SchemeConfig:
    """PVAC without the proactive hook, so only the alert path runs."""
    return SchemeConfig(scheme="PVAC", n_bo=n_bo, n_mit=n_mit,
                        proactive=False)


def hammer(row: int, count: int):
    """`count` back-to-back ACTs of one row."""
    return islice(gen_round_robin(RoundRobinSpec(n=1, base_row=row)), count)


def three_rows(count: int):
    """`count` back-to-back ACTs cycling rows 10, 17 and 301."""
    return islice(cycle([TraceEvent(r) for r in (10, 17, 301)]),
                  count)


def act_times(engine: BankEngine):
    return [t for t, kind, _, _ in engine.log if kind == "ACT"]


# -- command spacing ---------------------------------------------------------

def test_back_to_back_acts_sit_one_trc_apart():
    engine = BankEngine(plain_pvac(10_000), small_geometry())
    engine.run_trace(hammer(10, 30), us(3.9))
    times = act_times(engine)
    assert times[0] == TRFC  # the t=0 refresh runs first
    assert all(b - a == ns(48) for a, b in zip(times, times[1:]))


def test_prac_timing_stretches_the_act_gap():
    engine = BankEngine(preset("PRAC", 10_000), small_geometry())
    engine.run_trace(hammer(10, 30), us(3.9))
    times = act_times(engine)
    assert all(b - a == ns(52) for a, b in zip(times, times[1:]))


def test_refs_hold_their_cadence_when_idle():
    engine = BankEngine(plain_pvac(10_000), small_geometry())
    engine.run_trace([], us(200))
    refs = [t for t, kind, _, _ in engine.log if kind == "REF"]
    assert refs == [k * TREFI for k in range(len(refs))]
    assert len(refs) == 52  # ceil(200 / 3.9) slots due strictly before 200 us


def test_refresh_sweep_wraps_around_the_bank():
    engine = BankEngine(plain_pvac(10_000), small_geometry())
    engine.advance_to(514 * TREFI)
    rows = [row for _, kind, row, _ in engine.log if kind == "REF"]
    assert rows[:512] == list(range(512))
    assert rows[512:514] == [0, 1]


def test_ref_groups_that_do_not_divide_the_bank_wrap_row_by_row():
    # 16 REFs per window over 40 rows: 3 rows per REF, 40 % 3 == 1, so
    # the groups at k=13 and k=26 wrap past the last row.
    geometry = DeviceGeometry(rows_per_bank=40, banks=1, rows_per_dsa=40,
                              counter_bits=16, blast_radius=2)
    refresh = RefreshConfig(tREFW=16 * TREFI + 1, tREFI=TREFI, tRFC=TRFC)
    engine = BankEngine(plain_pvac(10_000), geometry, refresh)
    groups = []
    on_refresh = engine.scheme.on_refresh

    def spy(rows, **kwargs):
        groups.append(list(rows))
        return on_refresh(rows, **kwargs)
    engine.scheme.on_refresh = spy
    engine.advance_to(30 * TREFI)
    rpr, n = 3, 40
    assert groups == [[(k * rpr + i) % n for i in range(rpr)]
                      for k in range(30)]
    assert groups[13] == [39, 0, 1] and groups[26] == [38, 39, 0]


# -- trace plumbing ----------------------------------------------------------

def test_timed_event_waits_for_its_timestamp():
    engine = BankEngine(plain_pvac(10_000), small_geometry())
    engine.run_trace([TraceEvent(10, time_ps=us(7))], us(100))
    assert act_times(engine) == [us(7)]


def test_bad_trace_events_rejected():
    engine = BankEngine(plain_pvac(10_000), small_geometry())
    with pytest.raises(ValueError):
        engine.run_trace([TraceEvent(512)], us(10))


def test_stale_four_field_event_is_rejected_before_any_act():
    engine = BankEngine(plain_pvac(10_000), small_geometry())
    with pytest.raises(ValueError):
        engine.run_trace([("act", 10, None, 0)], us(10))
    assert engine.metrics.acts_issued == 0
    assert list(engine.log) == []


def test_idle_chronus_engine_reports_each_refreshed_row():
    # Chronus counts nothing on REF, but each REF still activates its
    # group: 8 rows here, a 512-row bank refreshed in 64 REFs.
    refresh = RefreshConfig(tREFW=64 * TREFI, tREFI=TREFI, tRFC=TRFC)
    engine = BankEngine(preset("Chronus", 64), small_geometry(), refresh)
    activated = []
    engine.attach_observer(SimpleNamespace(on_activation=activated.append))
    engine.advance_to(3 * TREFI)
    rpr = rows_per_refresh(engine.geometry, refresh)
    assert rpr == 8 and engine.metrics.refs_issued == 3
    assert activated == list(range(3 * rpr))
    assert engine.scheme.bank.core.snapshot() == [0] * 512


@pytest.mark.parametrize("scheme", [plain_pvac(10_000), preset("PRAC", 64)],
                         ids=["PVAC", "PRAC"])
def test_out_of_bank_act_fails_without_counting(scheme):
    engine = BankEngine(scheme, small_geometry())
    observer = DamageObserver(small_geometry())
    engine.attach_observer(observer)
    engine.issue_act(0)
    engine.issue_act(511)
    before = engine.scheme.bank.core.snapshot()
    acts, now, damage = (engine.metrics.acts_issued, engine.now,
                         list(observer.damage))
    for row in (-1, 512):
        with pytest.raises(ValueError, match="outside bank"):
            engine.issue_act(row)
    assert engine.scheme.bank.core.snapshot() == before
    assert engine.metrics.acts_issued == acts
    assert engine.now == now
    assert observer.damage == damage
    assert [row for _, kind, row, _ in engine.log if kind == "ACT"] \
        == [0, 511]


def test_every_admitted_act_is_counted():
    engine = BankEngine(plain_pvac(10_000), small_geometry())
    metrics = engine.run_trace(hammer(10, 300), us(10_000))
    assert metrics.acts_issued == 300
    assert len(act_times(engine)) == 300


# -- the alert protocol ------------------------------------------------------

def test_alert_window_admits_three_acts_then_bursts():
    engine = BankEngine(plain_pvac(8, n_mit=4), small_geometry())
    engine.run_trace(hammer(10, 40), us(100))
    kinds = [kind for _, kind, _, _ in engine.log]
    first = kinds.index("ALERT")
    assert kinds[first + 1:first + 4] == ["ACT", "ACT", "ACT"]
    tail = list(engine.log)[first + 4:]
    assert tail[0][1] == "RFM"
    rfm_times = []
    for entry in tail:
        if entry[1] != "RFM":
            break
        rfm_times.append(entry[0])
    assert len(set(rfm_times)) == 4  # n_mit commands, rows logged per command
    assert sorted(set(rfm_times)) == [rfm_times[0] + k * ns(350)
                                      for k in range(4)]


def test_alert_fires_with_the_crossing_act():
    engine = BankEngine(plain_pvac(8), small_geometry())
    engine.run_trace(hammer(10, 8), us(100))
    acts = act_times(engine)
    alerts = [t for t, kind, _, _ in engine.log if kind == "ALERT"]
    assert alerts[0] == acts[7]  # eighth activation pushes victims to 8


def test_idle_time_consumes_window_hold_and_burst():
    # With no demand waiting, the opportunity states lapse on their own:
    # a single hammered burst still ends with all n_mit RFMs issued.
    engine = BankEngine(plain_pvac(8, n_mit=4), small_geometry())
    metrics = engine.run_trace(hammer(10, 8), us(1000))
    assert metrics.alerts_raised == 1
    assert metrics.rfms_issued == 4
    assert audit_log(engine.log, engine.scheme.config,
                     engine.refresh) == []


def test_idle_gap_mitigates_before_it_refreshes():
    # The alert at 631 ns is followed by a 30 us gap with no demand: the
    # burst runs at once, ahead of the REF due at 3.9 us, whether the
    # gap is crossed by the late ACT itself or by an advance_to first.
    def run(advance_first):
        engine = BankEngine(plain_pvac(8, n_mit=4), small_geometry())
        for event in hammer(10, 8):
            engine.issue_act(event.row)
        if advance_first:
            engine.advance_to(us(30))
        assert engine.issue_act(300, us(30)) == us(30)
        return list(engine.log)
    log = run(False)
    assert log == run(True)
    commands = [(t, kind) for t, kind, _, _ in log if kind != "ACT"]
    assert list(dict.fromkeys(commands))[1:7] == [
        (ns(631), "ALERT"), (ns(679), "RFM"), (ns(1029), "RFM"),
        (ns(1379), "RFM"), (ns(1729), "RFM"), (TREFI, "REF")]


def test_every_alert_is_separated_by_rfm_service():
    engine = BankEngine(preset("PRAC", 4, 2), small_geometry())
    engine.run_trace(hammer(10, 120), us(2000))
    kinds = [kind for _, kind, _, _ in engine.log]
    assert kinds.count("ALERT") >= 2
    rfms_between = None
    for kind in kinds:
        if kind == "ALERT":
            assert rfms_between is None or rfms_between >= 1
            rfms_between = 0
        elif kind == "RFM" and rfms_between is not None:
            rfms_between += 1
    assert engine.metrics.rfms_issued == 2 * engine.metrics.alerts_raised


def test_hold_admits_delay_acts_before_next_alert():
    # After the burst, the next alert waits for n_mit demand ACTs.
    # Here the refill takes three: the burst's second RFM services a cold
    # victim whose own victim set bumps row 10 once, so three demand ACTs
    # complete the climb back to four.
    engine = BankEngine(preset("PRAC", 4, 2), small_geometry())
    engine.run_trace(hammer(10, 40), us(500))
    log = engine.log
    alert_ts = [t for t, kind, _, _ in log if kind == "ALERT"]
    last_rfm_before = max(t for t, kind, _, _ in log
                          if kind == "RFM" and t < alert_ts[1])
    acts_in_gap = [t for t in act_times(engine)
                   if last_rfm_before < t < alert_ts[1]]
    assert len(acts_in_gap) >= engine.scheme.config.n_mit
    assert len(acts_in_gap) == 3


def test_mini_domino_crosses_at_the_fourth_sweep():
    # Refresh-only PRAC with a 512-row bank: each row's counter gains one
    # per sweep, so the first alert lands exactly when the fourth sweep
    # touches row 0, at the end of that REF's blocking interval.
    engine = BankEngine(preset("PRAC", 4, 1), small_geometry())
    metrics = engine.run_trace([], 8 * 10**9)
    alerts = [t for t, kind, _, _ in engine.log if kind == "ALERT"]
    assert metrics.alerts_raised >= 1
    assert alerts[0] == 1536 * TREFI + TRFC
    assert audit_log(engine.log, engine.scheme.config,
                     engine.refresh) == []


def test_proactive_refresh_logs_before_the_alert_of_its_ref():
    # QPRAC at n_bo=4 counts REFs and runs its hook (counts >= 2) on every
    # REF; here one row is refreshed per REF.  The REF at tREFI takes row 1
    # from 3 to 4, the hook services row 1 and bumps its victim row 3 from
    # 3 to 4, and the parked crossing re-checks to an alert on row 3.
    engine = BankEngine(preset("QPRAC", 4), small_geometry())
    for row in (1, 1, 1, 3, 3, 3):
        engine.issue_act(row)
    assert engine.metrics.alerts_raised == 0
    engine.advance_to(TREFI + 1)
    log = list(engine.log)
    ref = log.index((TREFI, "REF", 1, 3))  # logged before counting
    assert [(t, kind, row) for t, kind, row, _ in log[ref:ref + 3]] \
        == [(TREFI, "REF", 1), (TREFI, "PROACT", 1),
            (TREFI + TRFC, "ALERT", 3)]
    assert engine.metrics.proactive_count == 1


def test_chronus_alert_clears_every_hot_counter():
    engine = BankEngine(preset("Chronus", 6), small_geometry())
    rows = RoundRobinSpec(n=24, stride=5, base_row=50)  # rows 50, 55, ...
    engine.run_trace(islice(gen_round_robin(rows), 200), us(5000))
    assert engine.metrics.alerts_raised >= 1
    assert engine.scheme.bank.core.max_count() < 6
    assert audit_log(engine.log, engine.scheme.config,
                     engine.refresh) == []


# -- metrics and windows -----------------------------------------------------

def test_idle_window_bandwidth_is_the_refresh_tax():
    geometry = small_geometry()
    refresh = RefreshConfig()
    engine = BankEngine(plain_pvac(10_000), geometry, refresh)
    metrics = engine.run_trace([], refresh.window_ps)
    assert len(metrics.windows) == 1
    w = metrics.windows[0]
    assert metrics.refs_issued == 8192
    assert w.blocked_ps == 8192 * TRFC
    assert w.bandwidth == pytest.approx(1 - 295 / 3900, abs=1e-12)
    assert w.rfm_count == 0 and w.alert_count == 0


def test_partial_last_window_is_reported_over_its_own_length():
    # 400 us is about an eightieth of the default 31.9 ms window.
    engine = BankEngine(plain_pvac(10_000), small_geometry(),
                        RefreshConfig())
    metrics = engine.run_trace([], us(400))
    (w,) = metrics.windows
    assert metrics.refs_issued == 103              # REFs due before 400 us
    assert w.blocked_ps == metrics.refs_issued * TRFC
    assert w.bandwidth == pytest.approx(1 - 103 * TRFC / us(400), abs=1e-12)
    assert w.rfm_count == 0 and w.alert_count == 0


def test_finalized_windows_are_snapshots():
    # d ends halfway through the second window, which the engine's
    # record of that window goes on filling after the first finalize.
    engine = BankEngine(plain_pvac(8, n_mit=4), small_geometry())
    d = engine.refresh.window_ps * 3 // 2
    first = engine.run_trace(hammer(10, 200), d).windows
    snapshot = [dataclasses.astuple(w) for w in first]
    assert engine.finalize(d).windows == first
    engine.advance_to(2 * d)
    assert len(engine.finalize(2 * d).windows) == len(first) + 1
    assert [dataclasses.astuple(w) for w in first] == snapshot


def test_window_bandwidth_stays_in_unit_range():
    engine = BankEngine(plain_pvac(8, n_mit=4), small_geometry())
    metrics = engine.run_trace(hammer(10, 2000),
                               RefreshConfig().window_ps)
    assert metrics.windows
    for w in metrics.windows:
        assert 0.0 <= w.bandwidth <= 1.0


def test_identical_runs_emit_identical_logs():
    def run():
        engine = BankEngine(plain_pvac(8, n_mit=2), small_geometry())
        engine.run_trace(three_rows(400), us(3000))
        return list(engine.log)
    first, second = run(), run()
    assert first == second
    assert list(log_to_csv_lines(first)) == list(log_to_csv_lines(second))


class CountingCore(_kernel_py.CounterCore):
    """The Python counter store, counting its `get` calls."""

    reads = 0

    def get(self, row: int) -> int:
        self.reads += 1
        return super().get(row)


def test_unlogged_run_does_no_log_work(monkeypatch):
    # The logged run reads one counter per event with a row, on top of
    # the scheme's own reads; the unlogged run makes only the latter.
    monkeypatch.setattr(counters, "CounterCore", CountingCore)

    def run(scheme, collect_log):
        engine = BankEngine(preset(scheme, 8, 2), small_geometry(),
                            collect_log=collect_log)
        metrics = engine.run_trace(three_rows(400), us(3000))
        return engine, metrics
    for scheme in SCHEMES:
        logged, logged_metrics = run(scheme, True)
        if scheme == "PVAC":
            assert {kind for _, kind, _, _ in logged.log} == {
                "ACT", "REF", "ALERT", "RFM", "PROACT"}
        log_reads = sum(1 for _t, _kind, row, _c in logged.log if row >= 0)
        assert log_reads >= 400
        unlogged, unlogged_metrics = run(scheme, False)
        assert list(unlogged.log) == []
        assert unlogged.scheme.bank.core.reads \
            == logged.scheme.bank.core.reads - log_reads
        assert unlogged_metrics == logged_metrics


LOG_EVENT = st.tuples(
    st.integers(0, 2**62),
    st.sampled_from(["ACT", "REF", "RFM", "ALERT", "PROACT"]),
    st.integers(-1, 511))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(LOG_EVENT, max_size=40),
       st.lists(st.integers(0, 2**16 - 1), min_size=8, max_size=8))
def test_event_log_reads_as_its_list_of_tuples(events, counts):
    # What `_log` appends iterates back as (t, kind, row, counter), the
    # counter read from the bank at the append (0 for row -1, no row).
    engine = BankEngine(plain_pvac(64), small_geometry())
    engine.scheme.bank.core.load(counts * 64)
    model = []
    for t, kind, row in events:
        engine._log(t, kind, row)
        model.append((t, kind, row, counts[row % 8] if row >= 0 else 0))
        assert len(engine.log) == len(model)
    assert list(engine.log) == model
    assert list(engine.log) == model  # iterates again


def test_event_log_holds_at_most_40_bytes_per_event():
    engine = BankEngine(plain_pvac(64), small_geometry())
    events = 100_000
    tracemalloc.start()
    try:
        for k in range(events):
            engine._log(k * ns(48), "RFM", k % 512)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(engine.log) == events
    assert held / events <= 40


def test_event_log_drain_hands_on_the_kept_events():
    engine = BankEngine(plain_pvac(64), small_geometry())
    engine.run_trace(hammer(10, 30), us(3.9))
    logged = list(engine.log)
    assert list(engine.log.drain()) == logged
    assert list(engine.log) == [] and len(engine.log) == len(logged)
    engine.issue_act(11)  # the engine's bound appends reach the columns
    assert [kind for _t, kind, _r, _c in engine.log] == ["ACT"]
    assert len(engine.log) == len(logged) + 1


def test_csv_lines_render_nanoseconds():
    log = [(295000, "ACT", 10, 3), (343500, "RFM", 11, 0)]
    lines = list(log_to_csv_lines(log))
    assert lines[0] == "time_ns,bank,event,row,counter_after"
    assert lines[1] == "295,0,ACT,10,3"
    assert lines[2] == "343.500,0,RFM,11,0"



# -- the independent auditor -------------------------------------------------

def ev(t_ns: float, kind: str, row: int = 0):
    """One hand-built log entry: (time_ps, kind, row, counter)."""
    return (ns(t_ns), kind, row, 0)


# (log, expected problems); tRC 48 ns, tRFC 295 ns, RFM 350 ns, and an
# alert window of 3 ACTs within 180 ns.
AUDIT_CASES = {
    "act_within_trc": (
        [ev(0, "ACT", 1), ev(40, "ACT", 2)],
        ["ACT at 40000 ps violates tRC after 0"]),
    "act_inside_ref": (
        [ev(0, "REF"), ev(100, "ACT")],
        ["ACT at 100000 ps inside REF block"]),
    "act_at_ref_end": (
        [ev(0, "REF"), ev(295, "ACT")], []),
    "act_inside_rfm": (
        [ev(0, "RFM", 5), ev(100, "ACT")],
        ["ACT at 100000 ps inside RFM block"]),
    "rfm_rows_at_one_time_are_one_block": (
        [ev(0, "RFM", 5), ev(0, "RFM", 6), ev(0, "RFM", 7), ev(0, "RFM", 8),
         ev(100, "ACT")],
        ["ACT at 100000 ps inside RFM block"]),
    # The RFM at 0 outlasts the REFs after it: an ACT at 330 ns is inside
    # it while it is the fourth-latest block, and an ACT at 340 ns is not
    # checked against it once it is the fifth-latest.
    "act_inside_fourth_latest_block": (
        [ev(0, "RFM"), ev(10, "REF"), ev(20, "REF"), ev(30, "REF"),
         ev(330, "ACT")],
        ["ACT at 330000 ps inside RFM block"]),
    "act_inside_only_fifth_latest_block": (
        [ev(0, "RFM"), ev(10, "REF"), ev(20, "REF"), ev(30, "REF"),
         ev(40, "REF"), ev(340, "ACT")], []),
    "fourth_act_in_alert_window": (
        [ev(0, "ALERT"), ev(10, "ACT"), ev(58, "ACT"), ev(106, "ACT"),
         ev(154, "ACT")],
        ["more than 3 ACTs in window of alert at 0 ps"]),
    "act_past_alert_window": (
        [ev(0, "ALERT"), ev(200, "ACT")],
        ["ACT at 200000 ps past the window of alert at 0 ps"]),
    "alerts_without_rfm_between": (
        [ev(0, "ALERT"), ev(1000, "ALERT")],
        ["alert at 1000000 ps follows alert at 0 ps with no RFM between"]),
    "alerts_with_rfm_between": (
        [ev(0, "ALERT"), ev(10, "RFM"), ev(1000, "ALERT")], []),
    "act_inside_two_blocks": (
        [ev(0, "REF"), ev(100, "RFM"), ev(200, "ACT")],
        ["ACT at 200000 ps inside REF block",
         "ACT at 200000 ps inside RFM block"]),
    "messages_keep_their_order": (
        [ev(0, "ALERT"), ev(10, "ACT"), ev(58, "ACT"), ev(106, "ACT"),
         ev(120, "REF"), ev(130, "ACT"), ev(200, "ACT")],
        ["ACT at 130000 ps violates tRC after 106000",
         "ACT at 130000 ps inside REF block",
         "more than 3 ACTs in window of alert at 0 ps",
         "ACT at 200000 ps inside REF block",
         "more than 3 ACTs in window of alert at 0 ps",
         "ACT at 200000 ps past the window of alert at 0 ps"]),
}


@pytest.mark.parametrize("log, expected", AUDIT_CASES.values(),
                         ids=AUDIT_CASES.keys())
def test_audit_flags_hand_built_violations(log, expected):
    assert audit_log(log, plain_pvac(64), RefreshConfig()) == expected


@pytest.mark.parametrize("name, expected", [
    ("PRAC", ["ACT at 50000 ps violates tRC after 0"]),
    ("QPRAC", ["ACT at 50000 ps violates tRC after 0"]),
    ("MOAT", ["ACT at 50000 ps violates tRC after 0"]),
    ("PVAC", []),
    ("Chronus", []),
])
def test_audit_spaces_acts_by_the_schemes_row_cycle(name, expected):
    # 50 ns clears the Default 48 ns row cycle but not PRAC's 52 ns.
    log = [ev(0, "ACT"), ev(50, "ACT", row=1)]
    scheme = SchemeConfig(scheme=name, n_bo=64)
    assert audit_log(log, scheme, RefreshConfig()) == expected


def test_refresh_only_victim_counts_stay_bounded():
    engine = BankEngine(plain_pvac(64), small_geometry())
    peak = 0
    for k in range(1, 2000):
        engine.advance_to(k * TREFI)
        peak = max(peak, engine.scheme.bank.core.max_count())
    assert peak == 4
