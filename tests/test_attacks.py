"""Trace generators, the disturbance ledger, and the closed-loop wave attack."""

import pytest
from hypothesis import given, settings, strategies as st

from hammersim.attacks import (DamageObserver, RoundRobinSpec, gen_benign,
                               gen_round_robin, lines_to_trace, run_feinting,
                               wave_layout)
from hammersim.dram import DeviceGeometry, us
from hammersim.engine import BankEngine, TraceEvent, audit_log
from hammersim.schemes import SchemeConfig, preset


def small_geometry() -> DeviceGeometry:
    return DeviceGeometry(rows_per_bank=512, banks=1, rows_per_dsa=512,
                          counter_bits=16, blast_radius=2)


# -- open-loop generators ----------------------------------------------------

def test_round_robin_cycles_the_pool():
    spec = RoundRobinSpec(n=4, stride=1, base_row=20)
    gen = gen_round_robin(spec)
    rows = [next(gen).row for _ in range(9)]
    assert rows == [20, 21, 22, 23, 20, 21, 22, 23, 20]


def test_round_robin_rows_are_distinct_and_strided():
    spec = RoundRobinSpec(n=128, stride=3, base_row=5)
    rows = spec.rows()
    assert len(set(rows)) == 128
    assert all(b - a == 3 for a, b in zip(rows, rows[1:]))


def test_round_robin_spec_validation():
    with pytest.raises(ValueError):
        RoundRobinSpec(n=0)
    with pytest.raises(ValueError):
        RoundRobinSpec(n=4, stride=6)
    with pytest.raises(ValueError):
        RoundRobinSpec(n=4, base_row=-1)
    spec = RoundRobinSpec(n=128, stride=5)  # spans up to row 635
    with pytest.raises(ValueError):
        next(gen_round_robin(spec, small_geometry()))


def test_round_robin_checks_the_pool_when_called():
    with pytest.raises(ValueError, match="outside a 512-row bank"):
        gen_round_robin(RoundRobinSpec(n=600), small_geometry())


def test_round_robin_repeats_one_event_per_pool_row():
    gen = gen_round_robin(RoundRobinSpec(n=3, base_row=7), small_geometry())
    events = [next(gen) for _ in range(7)]
    assert events == [(7, 0), (8, 0), (9, 0)] * 2 + [(7, 0)]
    assert events[0] is events[3] is events[6]


def test_benign_stream_is_seeded_and_paced():
    geometry = small_geometry()
    first = list(gen_benign(geometry, seed=7, act_gap_ps=1000, count=50))
    second = list(gen_benign(geometry, seed=7, act_gap_ps=1000, count=50))
    other = list(gen_benign(geometry, seed=8, act_gap_ps=1000, count=50))
    assert first == second
    assert first != other
    assert [e.time_ps for e in first] == [1000 * (k + 1) for k in range(50)]
    assert all(0 <= e.row < 512 for e in first)
    with pytest.raises(ValueError):
        gen_benign(geometry, seed=1, act_gap_ps=0, count=5)


# -- ground-truth disturbance ledger ----------------------------------------

def test_observer_tracks_neighbour_damage():
    obs = DamageObserver(small_geometry())
    for _ in range(3):
        obs.on_activation(10)
    assert obs.damage[10] == 0
    assert [obs.damage[r] for r in (8, 9, 11, 12)] == [3, 3, 3, 3]
    obs.on_activation(12)
    assert obs.damage[12] == 0 and obs.peak[12] == 3  # high-water survives
    assert obs.damage[11] == 4 and obs.peak[11] == 4
    assert obs.max_peak() == 4
    assert obs.argmax_peak() == 11


def test_observer_respects_subarray_edges():
    geometry = DeviceGeometry(rows_per_bank=32, banks=1, rows_per_dsa=8,
                              counter_bits=16, blast_radius=2)
    obs = DamageObserver(geometry)
    obs.on_activation(8)  # first row of the second subarray
    assert obs.damage[6] == 0 and obs.damage[7] == 0
    assert obs.damage[9] == 1 and obs.damage[10] == 1


def eager_ledger(geometry: DeviceGeometry, rows):
    """Brute-force reference: the peak is raised on every bump.

    Yields (damage, peak) after each activation of `rows`."""
    n, dsa, br = (geometry.rows_per_bank, geometry.rows_per_dsa,
                  geometry.blast_radius)
    damage, peak = [0] * n, [0] * n
    for row in rows:
        damage[row] = 0
        for other in range(n):
            if (other != row and abs(other - row) <= br
                    and other // dsa == row // dsa):
                damage[other] += 1
                peak[other] = max(peak[other], damage[other])
        yield list(damage), list(peak)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([4, 8, 16]), st.integers(1, 3),
       st.lists(st.integers(0, 47), max_size=200))
def test_observer_matches_eager_ledger(dsa, br, rows):
    # 48 rows cut into subarrays of 4, 8 or 16, so neighbour ranges meet
    # subarray edges and the bank's ends; a few rows hit often make ties.
    geometry = DeviceGeometry(rows_per_bank=48, banks=1, rows_per_dsa=dsa,
                              counter_bits=16, blast_radius=br)
    obs = DamageObserver(geometry)
    for row, (damage, peak) in zip(rows, eager_ledger(geometry, rows)):
        obs.on_activation(row)
        assert obs.damage == damage
        assert obs.peak == peak
        assert obs.max_peak() == max(peak)
        assert obs.argmax_peak() == min(
            r for r in range(48) if peak[r] == max(peak))


# -- the wave attack ---------------------------------------------------------

def test_wave_setup_charges_each_prepared_aggressor():
    engine = BankEngine(SchemeConfig("PVAC", 8, proactive=False),
                        small_geometry())
    result = run_feinting(engine, 8)
    assert result.setup_acts == 2 * 7  # two groups, n_bo - 1 each
    acts = [row for _, kind, row, _ in engine.log if kind == "ACT"]
    assert acts[:14] == [8] * 7 + [13] * 7  # prepared five apart


def test_wave_layout_stride_by_discipline():
    geometry = small_geometry()
    groups, floor = wave_layout(preset("PVAC", 8), geometry, 6)
    assert groups == [(8, [6, 7, 9, 10]), (13, [11, 12])]
    assert floor == 1
    groups, floor = wave_layout(preset("PRAC", 8), geometry, 4)
    assert groups == [(8, [8]), (9, [9]), (10, [10]), (11, [11])]
    assert floor == 4  # the 2*br aggressors around the last victim


@pytest.mark.parametrize("br", [1, 2, 3])
def test_victim_wave_groups_tile_the_pool(br):
    # Aggressors 2*br+1 apart serve disjoint victim groups, so a pool of
    # r1 is r1 distinct rows at every radius.
    geometry = DeviceGeometry(rows_per_bank=256, banks=1, rows_per_dsa=256,
                              counter_bits=16, blast_radius=br)
    groups, _floor = wave_layout(preset("PVAC", 8, 4), geometry, 12)
    aggressors = [a for a, _victims in groups]
    assert aggressors == list(range(8, 8 + len(groups) * (2 * br + 1),
                                    2 * br + 1))
    pool = [row for _a, victims in groups for row in victims]
    assert len(pool) == len(set(pool)) == 12
    assert not set(pool) & set(aggressors)


def test_wave_rejects_a_bad_point_before_any_act():
    for scheme, n_bo, r1 in [
            ("PVAC", 8, 3),      # victim counting needs four victims
            ("PRAC", 8, 0),      # aggressor counting needs one aggressor
            ("PVAC", 1, 8),      # setup needs n_bo - 1 >= 1
            ("PRAC", 1, 8),
            ("PVAC", 8, 500),    # 500 victims need aggressors past row 511
            ("PRAC", 8, 505)]:   # rows 8..512 overrun the 512-row bank
        engine = BankEngine(preset(scheme, n_bo), small_geometry())
        with pytest.raises(ValueError):
            wave_layout(engine.scheme.config, engine.geometry, r1)
        with pytest.raises(ValueError):
            run_feinting(engine, r1)
        assert engine.metrics.acts_issued == 0 and list(engine.log) == []


def test_wave_refuses_an_engine_without_a_log():
    # The rounds drop the rows the log shows mitigated; with no log the
    # pool would never shrink and the observed HC would be wrong.
    engine = BankEngine(SchemeConfig("PVAC", 8, proactive=False),
                        small_geometry(), collect_log=False)
    with pytest.raises(ValueError, match="log"):
        run_feinting(engine, 8)
    assert engine.metrics.acts_issued == 0


def test_wave_reads_its_rounds_past_a_drained_log():
    # `len(log)` also counts drained events; the rounds read the kept
    # ones, so a log drained before the wave changes nothing.
    def wave(drained: int):
        engine = BankEngine(SchemeConfig("PVAC", 8, proactive=False),
                            small_geometry())
        for _ in range(drained):
            engine._log(0, "NOP", -1)
        engine.log.drain()
        return run_feinting(engine, 8)
    assert wave(40) == wave(0)


def test_wave_against_victim_counting_shrinks_the_pool():
    engine = BankEngine(SchemeConfig("PVAC", 8, proactive=False),
                        small_geometry())
    result = run_feinting(engine, 8)
    assert result.alerts >= 1
    assert result.pool_sizes[0] == 8
    assert result.pool_sizes == sorted(result.pool_sizes, reverse=True)
    assert result.observed_hc >= 8  # some victim reached the threshold
    assert audit_log(engine.log, engine.scheme.config,
                     engine.refresh) == []


def test_wave_against_aggressor_counting_reaches_blast_floor():
    engine = BankEngine(preset("PRAC", 6, 1), small_geometry())
    result = run_feinting(engine, 8)
    assert result.setup_acts == 8 * 5
    assert result.alerts >= 1
    # Rounds stop once only 2*BR aggressors (two per side) remain.
    assert result.pool_sizes[-1] > 4
    assert result.observed_hc > 6  # the squeeze beats the threshold
    assert audit_log(engine.log, engine.scheme.config,
                     engine.refresh) == []


def test_wave_only_drops_rows_the_defense_touched():
    engine = BankEngine(SchemeConfig("PVAC", 8, proactive=False),
                        small_geometry())
    result = run_feinting(engine, 12)
    mitigated = {row for _, kind, row, _ in engine.log
                 if kind in ("RFM", "PROACT") and row >= 0}
    victims = {6, 7, 9, 10, 11, 12, 14, 15, 16, 17, 19, 20}
    dropped = victims - {r for r in victims
                         if r not in mitigated}  # removed ⊆ serviced
    assert dropped <= mitigated
    assert result.rounds == len(result.pool_sizes)


# -- trace serialization ------------------------------------------------------

def test_trace_lines_round_trip():
    events = [TraceEvent(row=10),
              TraceEvent(row=44, time_ps=us(7)),
              TraceEvent(row=3)]
    lines = ["ASAP,0,ACT,10", "7000,0,ACT,44", "ASAP,0,ACT,3"]
    back = list(lines_to_trace(lines, 4096))
    assert [(e.row, e.time_ps) for e in back] == \
        [(e.row, e.time_ps) for e in events]


def test_trace_lines_skip_blanks_and_comments():
    text = ["# header", "", "ASAP,0,ACT,5"]
    events = list(lines_to_trace(text, 4096))
    assert len(events) == 1 and events[0].row == 5
    with pytest.raises(ValueError):
        list(lines_to_trace(["ASAP,0,REF,5"], 4096))


def test_trace_lines_are_read_one_at_a_time():
    def lines():
        yield "ASAP,0,ACT,5"
        pytest.fail("read a second line before the first event was used")
    assert next(lines_to_trace(lines(), 4096)) == TraceEvent(row=5)
