"""Scheme state machines: counting, alerts, RFM service, proactive hooks."""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hammersim import counters, schemes
from hammersim.counters import AGGRESSOR_COUNT, VICTIM_COUNT
from hammersim.dram import N_MITS, DeviceGeometry
from hammersim.engine import BankEngine, EngineMetrics
from hammersim.schemes import (DEFAULT_QUEUE_DEPTH, SCHEME_RULES, SCHEMES,
                               SchemeConfig, SchemeState, preset,
                               scheme_rules)
from hammersim.security import discipline_for_scheme
from test_kernel import kernels


def small_geometry(rows: int = 256, bits: int = 16) -> DeviceGeometry:
    return DeviceGeometry(rows_per_bank=rows, banks=1, rows_per_dsa=rows,
                          counter_bits=bits, blast_radius=2)


def make_state(scheme: str, n_bo: int, n_mit: int = 1, **kw) -> SchemeState:
    return SchemeState(preset(scheme, n_bo, n_mit, **kw), small_geometry())


def hot_rows(state: SchemeState):
    """The queued rows at or above n_bo, lowest first."""
    return sorted(row for row, count in state.queue.items()
                  if count >= state.config.n_bo)


def engine_fed(scheme: str, n_bo: int, rows, refs: int = 0) -> EngineMetrics:
    """Metrics of an engine on the same bank fed `rows` as ASAP demand
    ACTs, then run through `refs` more REFs.  Its first REF issues at
    t=0, before the first ACT; the ACTs here all fit in one tREFI."""
    engine = BankEngine(preset(scheme, n_bo), small_geometry())
    for row in rows:
        engine.issue_act(row)
    engine.advance_to(refs * engine.refresh.tREFI + 1)
    return engine.metrics


# -- configuration ---------------------------------------------------------

A, V = AGGRESSOR_COUNT, VICTIM_COUNT


# name, tRC (ns, also the analyzed act time), tRFC (ns), what an ACT /
# a refreshed row counts, the analyzed discipline, and the preset at
# n_bo=64 asked for n_mit=4: its n_mit, proactive threshold and period.
RULE_CASES = [
    ("PRAC", 52.0, 295.0, A, A, A, 4, None, None),
    ("PVAC", 48.0, 295.0, V, V, V, 4, 32, 1),
    ("Chronus", 48.0, 295.0, A, None, None, 4, None, 2),
    ("QPRAC", 52.0, 295.0, A, A, A, 4, 32, 1),
    ("MOAT", 52.0, 410.0, A, A, A, 1, 32, 4),
]


@pytest.mark.parametrize(
    "name, trc, trfc, act, ref, discipline, n_mit, pthr, pper",
    RULE_CASES, ids=[case[0] for case in RULE_CASES])
def test_scheme_name_fixes_its_rules(name, trc, trfc, act, ref,
                                     discipline, n_mit, pthr, pper):
    config = SchemeConfig(scheme=name, n_bo=8)  # the name alone is valid
    assert config.tRC_ns == trc
    assert config.tRFC_ns == trfc
    assert config.counter_semantics == act
    assert SCHEME_RULES[name].ref_count == ref
    assert discipline_for_scheme(name) == discipline
    assert scheme_rules(name).tRC_ns == trc
    stock = preset(name, 64, n_mit=4)
    assert (stock.n_mit, stock.proactive_threshold,
            stock.proactive_period) == (n_mit, pthr, pper)
    assert stock.tRC_ns == trc and stock.tRFC_ns == trfc


def test_five_names_and_five_settable_fields():
    assert SCHEMES == ("PRAC", "PVAC", "Chronus", "QPRAC", "MOAT")
    assert [f.name for f in dataclasses.fields(SchemeConfig)] == [
        "scheme", "n_bo", "n_mit", "queue_depth", "proactive"]


@pytest.mark.parametrize("name, n_mit", [
    (name, n_mit) for name in SCHEMES for n_mit in N_MITS
    if n_mit == 1 or not SCHEME_RULES[name].single_mitigation])
def test_a_bare_config_is_the_stock_scheme(name, n_mit):
    assert SchemeConfig(name, 64, n_mit) == preset(name, 64, n_mit)
    plain = SchemeConfig(name, 64, n_mit, proactive=False)
    assert (plain.proactive_period, plain.proactive_threshold) == (None, None)


def test_config_rejects_mismatched_semantics():
    with pytest.raises(ValueError):
        SchemeConfig(scheme="MOAT", n_bo=8, n_mit=2)
    with pytest.raises(ValueError):
        SchemeConfig(scheme="PRAC", n_bo=0)


def test_threshold_must_fit_counter_width():
    narrow = small_geometry(bits=4)  # counts saturate at 15
    with pytest.raises(ValueError):
        SchemeState(preset("PRAC", 20), narrow)
    SchemeState(preset("PRAC", 15), narrow)  # at the cap is fine


def test_with_queue_depth_round_trip():
    cfg = dataclasses.replace(preset("PVAC", 64), queue_depth=7)
    assert cfg.queue_depth == 7
    assert preset("PVAC", 64).queue_depth == DEFAULT_QUEUE_DEPTH


def test_unknown_row_rejected():
    # The Python build stores counters in an array, where a negative row
    # would silently wrap to the top of the bank; it must fail instead.
    for scheme in ("PRAC", "PVAC"):
        state = make_state(scheme, 64)
        for row in (0, 1, 254, 255):
            state.on_act(row)
        before = state.bank.core.snapshot()
        for row in (-1, -2, 256):
            with pytest.raises(ValueError):
                state.on_act(row)
        assert state.bank.core.snapshot() == before
        assert state.queue.items() == sorted(
            ((r, c) for r, c in enumerate(before) if c),
            key=lambda rc: (-rc[1], rc[0]))


# -- activation counting and alerts ----------------------------------------

def test_victim_counting_alerts_on_neighbours_not_self():
    state = make_state("PVAC", 3)
    actions = [state.on_act(10) for _ in range(3)]
    # The hammered row resets itself each time; its four victims cross
    # together on the third activation, which returns the only alert,
    # naming the lowest of them.
    assert actions == [None, None, 8]
    assert hot_rows(state) == [8, 9, 11, 12]
    assert state.bank.core.get(10) == 0


def test_aggressor_counting_alerts_on_self():
    state = make_state("PRAC", 3)
    assert state.on_act(10) is None
    assert state.on_act(10) is None
    assert state.on_act(10) == 10
    assert state.bank.core.get(10) == 3


def test_adjacent_ping_pong_keeps_hammered_rows_reset():
    # Two adjacent rows hammered alternately reset each other's counter on
    # every turn, so neither activated row ever accumulates.  Disturbance
    # still lands on the flanking rows, two counts per round trip.
    state = make_state("PVAC", 8)
    alerts = []
    for i in range(8):
        row = 10 if i % 2 == 0 else 11
        action = state.on_act(row)
        assert state.bank.core.get(10) <= 1
        assert state.bank.core.get(11) <= 1
        if action is not None:
            alerts.append((i, action))
    assert len(alerts) == 1
    step, action = alerts[0]
    assert step == 7  # fourth round trip pushes both flanks to the line
    assert action == 9
    assert state.bank.core.get(9) == 8 and state.bank.core.get(12) == 8


def test_unit_stride_sweep_bounds_interior_rows():
    # Rows inside a contiguous sweep are refreshed (reset) once per lap and
    # absorb at most one count from each in-range neighbour in between, so
    # they stay within 2*blast_radius no matter how long the sweep runs.
    state = make_state("PVAC", 10)
    lo, hi = 50, 80
    interior = range(lo + 2, hi - 1)
    for _ in range(3):
        for row in range(lo, hi + 1):
            assert state.on_act(row) is None
            assert max(state.bank.core.get(r) for r in interior) <= 4
    # The rows flanking the sweep are never activated and accumulate.
    assert state.bank.core.get(lo - 1) == 6   # two in-range neighbours per lap
    assert state.bank.core.get(lo - 2) == 3   # one in-range neighbour per lap


def test_multiple_victims_cross_together_single_alert():
    state = make_state("PVAC", 8)
    actions = [state.on_act(10) for _ in range(8)]
    assert all(a is None for a in actions[:7])
    assert actions[7] == 8
    assert hot_rows(state) == [8, 9, 11, 12]
    assert engine_fed("PVAC", 8, [10] * 8).alerts_raised == 1


# -- alert deferral ---------------------------------------------------------

def test_parked_alert_fires_after_hold():
    state = make_state("PRAC", 3)
    for _ in range(3):
        assert state.on_act(10, alert_allowed=False) is None
    assert state.pending_alert
    assert state.take_pending_alert() == 10


def test_parked_alert_deasserts_once_serviced():
    # The alert line is level-sensitive: if the hold-off window's own RFMs
    # already cleared every hot counter, nothing fires afterwards.
    state = make_state("PRAC", 3)
    for _ in range(3):
        state.on_act(10, alert_allowed=False)
    assert state.pending_alert
    assert state.on_rfm() == [10]
    assert state.take_pending_alert() is None
    assert state.bank.core.get(10) == 0


def spied_state(mod, scheme: str, n_bo: int):
    """A `scheme` state on `mod`'s kernel build, and the list that its
    queue's `items` calls append to."""
    reads = []

    class SpyQueue(mod.TopQueue):
        def items(self):
            reads.append(None)
            return super().items()

    with mock.patch.object(counters, "CounterCore", mod.CounterCore), \
            mock.patch.object(schemes, "TopQueue", SpyQueue):
        return make_state(scheme, n_bo), reads


@pytest.mark.parametrize("mod", kernels(), ids=lambda m: m.KERNEL_BUILD)
def test_parked_alert_names_the_lowest_hot_row(mod):
    state, reads = spied_state(mod, "PRAC", 3)
    for row, count in ((20, 5), (10, 3)):
        for _ in range(count):
            state.on_act(row, alert_allowed=False)
    assert state.take_pending_alert() == 10
    assert reads  # the spy sees the queue reads of a hot check


@pytest.mark.parametrize("mod", kernels(), ids=lambda m: m.KERNEL_BUILD)
@pytest.mark.parametrize("scheme", ["PRAC", "Chronus"])
def test_parked_alert_reads_no_queued_rows_when_nothing_is_hot(mod, scheme):
    # Once the top count is below n_bo, that one read settles the check.
    state, reads = spied_state(mod, scheme, 3)
    for _ in range(3):
        state.on_act(10, alert_allowed=False)
    assert state.on_rfm() == [10]
    assert state.pending_alert
    assert state.take_pending_alert() is None
    assert reads == []


# -- refresh counting --------------------------------------------------------

def test_refresh_passes_walk_aggressor_counters_to_threshold():
    state = make_state("PRAC", 64)
    group = list(range(8))
    for i in range(63):
        assert state.on_refresh(group) == ([], None)
    # Row 0 is the lowest of the eight rows crossing together.
    assert state.on_refresh(group) == ([], 0)
    assert all(state.bank.core.get(r) == 64 for r in group)


def test_refresh_only_victim_counts_peak_at_twice_blast_radius():
    state = make_state("PVAC", 64)
    rows = state.geometry.rows_per_bank
    peak = 0
    for _ in range(2):  # two full retention sweeps
        for start in range(0, rows, 8):
            assert state.on_refresh(range(start, start + 8)) == ([], None)
            peak = max(peak, state.bank.core.max_count())
    assert peak == 4  # flanks of the sweep front, just before their own turn


def test_chronus_refresh_leaves_counters_alone():
    state = make_state("Chronus", 64)
    state.on_act(100)
    assert state.on_refresh(range(8, 16)) == ([], None)
    assert state.bank.core.get(100) == 1
    assert all(state.bank.core.get(r) == 0 for r in range(8, 16))


@pytest.mark.parametrize("scheme,counted", [("Chronus", False),
                                            ("PRAC", True)])
def test_uncounted_refresh_makes_no_kernel_calls(scheme, counted):
    state = make_state(scheme, 64)
    calls = []
    act = state._act

    def spy(row, sem):
        calls.append(row)
        return act(row, sem)
    state._act = spy
    state.on_refresh(range(8, 16))
    assert calls == (list(range(8, 16)) if counted else [])


# -- on_refresh: the alert it raises, parks or re-checks ---------------------

@pytest.mark.parametrize("allowed,alert", [(True, 5), (False, None)])
def test_refresh_crossing_alerts_now_or_parks(allowed, alert):
    state = make_state("PRAC", 2)
    state.on_act(5)
    assert state.on_refresh(range(4, 8), alert_allowed=allowed) == ([], alert)
    assert state.pending_alert is not allowed
    assert state.take_pending_alert() == (None if allowed else 5)


@pytest.mark.parametrize("allowed,alert", [(True, 100), (False, None)])
def test_refresh_crossing_under_a_proactive_hook_is_rechecked(allowed,
                                                              alert):
    # QPRAC at n_bo=4 runs its hook on every REF at counts >= 2.  The REF
    # takes rows 50 and 100 to 4; the hook services 50 (lowest on the
    # tie), so the parked crossing re-checks to 100 once alerts may fire.
    state = make_state("QPRAC", 4)
    for row in (50, 100):
        for _ in range(3):
            state.on_act(row)
    rechecks = []
    take = state.take_pending_alert

    def spy():
        rechecks.append(take())
        return rechecks[-1]
    state.take_pending_alert = spy
    assert state.on_refresh([50, 100], alert_allowed=allowed) == ([50], alert)
    assert rechecks == ([100] if allowed else [])
    assert state.pending_alert is not allowed


# -- RFM service -------------------------------------------------------------

def test_aggressor_rfm_resets_and_disturbs_victims():
    state = make_state("PRAC", 100)
    for _ in range(3):
        state.on_act(10)
    assert state.on_rfm() == [10]
    assert state.bank.core.get(10) == 0
    assert all(state.bank.core.get(r) == 1 for r in (8, 9, 11, 12))


@pytest.mark.parametrize("scheme,mitigated", [
    # The REF's proactive hook (threshold 1) refreshes four rows, then
    # the RFM four more; a victim scheme activates each row it services.
    ("PVAC", [8, 9, 11, 10, 12, 7, 8, 9]),
    # The RFM resets row 10 and activates its victims.
    ("PRAC", [9, 11, 8, 12]),
    # Chronus's REF counts nothing, yet its rows are still activated.
    ("Chronus", [9, 11, 8, 12]),
])
def test_observer_sees_every_row_the_scheme_activates(scheme, mitigated):
    state = make_state(scheme, 2)
    activated = []
    state.activation_observer = activated.append
    state.on_act(10)
    state.on_act(10)
    state.on_refresh([20, 21])
    state.on_rfm()
    assert activated == [10, 10, 20, 21] + mitigated


@pytest.mark.parametrize("row,victims", [(10, [9, 11, 8, 12]),
                                         (64, [65, 66]), (63, [62, 61])])
def test_aggressor_rfm_walks_victims_nearest_first_inside_subarray(
        row, victims):
    geometry = DeviceGeometry(rows_per_bank=256, banks=1, rows_per_dsa=64,
                              counter_bits=16)
    state = SchemeState(preset("PRAC", 100), geometry)
    state.on_act(row)
    activated = []
    state.activation_observer = activated.append
    assert state.on_rfm() == [row]
    assert activated == victims


def test_victim_rfm_services_queue_top_then_cascades():
    # One RFM's worth of PVAC work pops the four hottest victims in turn.
    # Each service is itself a counted activation, so later picks shift as
    # earlier refreshes disturb their neighbours; the whole cascade is
    # deterministic (count-descending, lowest row on ties).
    state = make_state("PVAC", 100)
    state.on_act(9)
    state.on_act(13)  # row 11 is a victim of both, so it tops the queue
    assert state.on_rfm() == [11, 10, 12, 8]
    # Rows serviced late enough to dodge later bumps end the burst reset.
    assert state.bank.core.get(8) == 0
    assert state.bank.core.get(12) == 0
    # Earlier services absorbed bumps from the rest of the burst.
    assert state.bank.core.get(9) == 3
    assert state.bank.core.get(11) == 2


def test_victim_rfm_burst_services_four_rows():
    state = make_state("PVAC", 8)
    for _ in range(8):
        state.on_act(10, alert_allowed=False)
        state.on_act(30, alert_allowed=False)
    assert state.on_rfm() == [8, 9, 11, 12]
    assert state.bank.core.get(12) == 0  # the last serviced row ends reset


def test_rfm_with_empty_queue_is_noop():
    for scheme in ("PRAC", "PVAC", "Chronus"):
        state = make_state(scheme, 8)
        assert state.on_rfm() == []


def test_chronus_alert_services_until_no_counter_is_hot():
    state = make_state("Chronus", 3)
    hot = [10, 20, 30, 40, 50, 60, 70]
    for row in hot:
        for _ in range(3):
            state.on_act(row, alert_allowed=False)
    # One alert names the lowest hot row, and it fires only once.
    assert hot_rows(state) == hot
    assert state.take_pending_alert() == 10
    assert state.take_pending_alert() is None
    bursts = 0
    while True:
        assert state.on_rfm(), "adaptive service must find every hot row"
        bursts += 1
        if not state.burst_goes_on(1):
            break
    assert bursts == len(hot)
    assert state.bank.core.max_count() < 3
    assert all(state.bank.core.get(r) == 0 for r in hot)


def test_chronus_finds_hot_row_displaced_from_queue():
    # A hot row evicted from a tiny queue must still be serviced during an
    # adaptive alert; the state falls back to scanning the bank.
    state = SchemeState(dataclasses.replace(preset("Chronus", 3),
                                            queue_depth=1),
                        small_geometry())
    for _ in range(3):
        state.on_act(10, alert_allowed=False)
    for _ in range(4):
        state.on_act(40, alert_allowed=False)  # evicts row 10 from the queue
    serviced = []
    while True:
        applied = state.on_rfm()
        if not applied:
            break
        serviced.append(applied[0])
        if not state.burst_goes_on(1):
            break
    assert set(serviced) == {10, 40}
    assert state.bank.core.max_count() < 3


# A random mix of hook calls.  An ACT step activates one row 1-6 times,
# mostly rows 12-20 so that counts build up and neighbours run hot; a REF
# names one of the bank's 8-row groups.
CHRONUS_STEPS = st.lists(st.one_of(
    st.tuples(st.just("act"), st.integers(0, 63) | st.integers(12, 20),
              st.booleans(), st.integers(1, 6)),
    st.tuples(st.just("ref"), st.integers(0, 7)),
    st.just(("rfm",)), st.just(("take",))), max_size=80)


@pytest.mark.parametrize("mod", kernels(), ids=lambda m: m.KERNEL_BUILD)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(dsa=st.sampled_from([16, 32]), br=st.integers(1, 2),
       n_bo=st.integers(2, 6), depth=st.integers(1, 4), steps=CHRONUS_STEPS)
def test_chronus_hot_rows_answer_like_a_bank_scan(mod, dsa, br, n_bo, depth,
                                                  steps):
    # The adaptive checks read the rows counted hot; after every hook call
    # they must answer exactly what a scan of the whole bank answers.
    geometry = DeviceGeometry(rows_per_bank=64, banks=1, rows_per_dsa=dsa,
                              counter_bits=4, blast_radius=br)
    config = dataclasses.replace(preset("Chronus", n_bo), queue_depth=depth)
    with mock.patch.object(counters, "CounterCore", mod.CounterCore), \
            mock.patch.object(schemes, "TopQueue", mod.TopQueue):
        state = SchemeState(config, geometry)
    core = state.bank.core
    for step in steps:
        if step[0] == "act":
            for _ in range(step[3]):
                state.on_act(step[1], alert_allowed=step[2])
        elif step[0] == "ref":
            state.on_refresh(range(8 * step[1], 8 * step[1] + 8))
        elif step[0] == "rfm":
            state.on_rfm()
        else:
            state.take_pending_alert()
        top = core.argmax()
        assert state.burst_goes_on(1) == (core.max_count() >= n_bo)
        assert state._hottest_if_hot() == (top if core.get(top) >= n_bo
                                           else None)


# -- proactive mitigation ----------------------------------------------------

def test_proactive_fires_at_threshold_on_refresh_boundary():
    state = make_state("QPRAC", 64)
    for _ in range(32):
        state.on_act(10)
    assert state.on_refresh(range(200, 208)) == ([10], None)
    assert state.bank.core.get(10) == 0
    # Serviced as a real refresh, not an erase.
    assert state.bank.core.get(9) == 1
    assert engine_fed("QPRAC", 64, [10] * 32, refs=1).proactive_count == 1


def test_proactive_respects_threshold():
    state = make_state("QPRAC", 64)
    for _ in range(31):  # one short of n_bo // 2
        state.on_act(10)
    assert state.on_refresh(range(200, 208)) == ([], None)
    assert engine_fed("QPRAC", 64, [10] * 31, refs=1).proactive_count == 0
    assert state.bank.core.get(10) == 31


def test_proactive_respects_period():
    state = make_state("MOAT", 64)  # proactive every fourth refresh
    for _ in range(40):
        state.on_act(10)
    results = [state.on_refresh(range(200, 208)) for _ in range(4)]
    assert results == [([], None)] * 3 + [([10], None)]
    # In the engine the REF at t=0 is the first of the four.
    assert engine_fed("MOAT", 64, [10] * 40, refs=3).proactive_count == 1


def test_pvac_proactive_refreshes_victims():
    state = make_state("PVAC", 64)  # threshold 32, every refresh
    for _ in range(32):
        state.on_act(10, alert_allowed=True)
    assert state.on_refresh(range(200, 208)) == ([8, 9, 11, 12], None)
    assert state.bank.core.get(12) == 0


def test_fixed_count_bursts_issue_n_mit_rfms():
    for scheme, n_mit in (("PRAC", 4), ("PVAC", 2), ("QPRAC", 4),
                          ("MOAT", 1)):
        state = make_state(scheme, 64, n_mit=n_mit)
        assert [state.burst_goes_on(k) for k in range(1, n_mit + 1)] == \
            [True] * (n_mit - 1) + [False]


def test_adaptive_burst_goes_on_while_a_row_is_hot_up_to_its_cap():
    state = make_state("Chronus", 3)
    assert not state.burst_goes_on(1)  # nothing hot
    for _ in range(3):
        state.on_act(10)
    cap = 16 * state.config.queue_depth
    assert state.burst_goes_on(1) and state.burst_goes_on(cap - 1)
    assert not state.burst_goes_on(cap)
