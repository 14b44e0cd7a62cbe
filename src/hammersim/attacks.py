"""Workload and adversarial trace generation.

Three families: a uniform-random benign stream, open-loop round-robin
hammering with a configurable stride, and the closed-loop multi-round
wave attack that evenly hammers a shrinking row pool, dropping every row
the defense has already refreshed.  An idle (refresh-only) run is an
empty trace.

The wave attack cannot be a static trace: which rows die each round
depends on the defense's queue state, so the driver reacts to the
engine's event log between activations.  It targets the engine's own
scheme: against victim counting it packs aggressors so each serves a
group of victims, against aggressor counting it hammers a contiguous
pool (`wave_layout`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, cycle, islice, repeat
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from .counters import VICTIM_COUNT, neighbour_offsets, victim_set
from .dram import ABO_ACT, DeviceGeometry
from .engine import BankEngine, TraceEvent
from .schemes import SchemeConfig

WAVE_BASE_ROW = 8  # the wave's first aggressor


@dataclass(frozen=True)
class RoundRobinSpec:
    n: int
    stride: int = 1
    base_row: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("pool size must be >= 1")
        if not 1 <= self.stride <= 5:
            raise ValueError("stride must be in 1..5")
        if self.base_row < 0:
            raise ValueError("base_row must be >= 0")

    def rows(self) -> List[int]:
        return [self.base_row + i * self.stride for i in range(self.n)]

    def check_fits(self, geometry: DeviceGeometry) -> None:
        top = self.base_row + (self.n - 1) * self.stride
        if top >= geometry.rows_per_bank:
            raise ValueError(
                f"pool spans rows up to {top}, outside a "
                f"{geometry.rows_per_bank}-row bank")


def gen_round_robin(spec: RoundRobinSpec,
                    geometry: Optional[DeviceGeometry] = None
                    ) -> Iterator[TraceEvent]:
    """Endless ASAP activations cycling the pool; the engine's duration
    cut-off terminates consumption.  The pool is checked against
    `geometry` here, and each row's event is built once and repeated."""
    if geometry is not None:
        spec.check_fits(geometry)
    return cycle([TraceEvent(row) for row in spec.rows()])


def gen_benign(geometry: DeviceGeometry, seed: int, act_gap_ps: int,
               count: int) -> Iterator[TraceEvent]:
    """Uniform-random row stream at a fixed request rate.  The arguments
    are checked here; each event is drawn as it is read."""
    if act_gap_ps < 1 or count < 0:
        raise ValueError("act_gap_ps must be >= 1 and count >= 0")
    rng, rows = random.Random(seed), geometry.rows_per_bank
    return (TraceEvent(rng.randrange(rows), k * act_gap_ps)
            for k in range(1, count + 1))


class DamageObserver:
    """Defense-independent disturbance ledger.

    Every physical activation of a row restores that row (damage back to
    zero) and disturbs its in-subarray neighbors within the blast radius.
    The per-row high-water mark is the ground-truth hammered count the
    analytical bounds are checked against.  Damage only grows between
    restores, so it is taken lazily: a row's damage is recorded as it is
    restored, and `peak`, `max_peak()` and `argmax_peak()` fold in the
    live `damage` when read.
    """

    def __init__(self, geometry: DeviceGeometry) -> None:
        self.geometry = geometry
        n = geometry.rows_per_bank
        self.damage = [0] * n
        self._reset_peak = [0] * n
        self._dsa = geometry.rows_per_dsa
        self._offsets = neighbour_offsets(geometry)

    def on_activation(self, row: int) -> None:
        damage = self.damage
        v = damage[row]
        if v > self._reset_peak[row]:
            self._reset_peak[row] = v
        damage[row] = 0
        for o in self._offsets[row % self._dsa]:
            damage[row + o] += 1

    @property
    def peak(self) -> List[int]:
        return list(map(max, self._reset_peak, self.damage))

    def max_peak(self) -> int:
        return max(map(max, self._reset_peak, self.damage))

    def argmax_peak(self) -> int:
        """Lowest row holding the highest peak."""
        peak = self.peak
        return peak.index(max(peak))


@dataclass
class FeintingResult:
    observed_hc: int
    hottest_row: int
    acts_issued: int
    alerts: int
    rounds: int
    setup_acts: int
    pool_sizes: List[int] = field(default_factory=list)


def wave_layout(config: SchemeConfig, geometry: DeviceGeometry, r1: int
                ) -> Tuple[List[Tuple[int, List[int]]], int]:
    """The wave's (aggressor, pool rows it serves) pairs for a pool of r1,
    and the pool size at which its rounds stop.

    Against victim counting each aggressor serves its victims, aggressors
    2*br+1 apart so that adjacent victim groups share no row, and rounds
    run down to one victim.
    Against aggressor counting each pool row serves itself, and rounds
    stop at the 2*br aggressors around the last victim.
    """
    if config.n_bo < 2:
        raise ValueError("n_bo must be >= 2")
    n_rows = geometry.rows_per_bank
    if config.counter_semantics == VICTIM_COUNT:
        if r1 < 4:
            raise ValueError("victim-based waves need a pool of >= 4")
        groups: List[Tuple[int, List[int]]] = []
        a, left = WAVE_BASE_ROW, r1
        while left > 0:
            if a >= n_rows:
                raise ValueError("victim pool does not fit in the bank")
            victims = victim_set(a, geometry)[:left]
            groups.append((a, victims))
            left -= len(victims)
            a += 2 * geometry.blast_radius + 1
        return groups, 1
    if r1 < 1:
        raise ValueError("aggressor-based waves need a pool of >= 1")
    if WAVE_BASE_ROW + r1 > n_rows:
        raise ValueError("aggressor pool does not fit in the bank")
    rows = range(WAVE_BASE_ROW, WAVE_BASE_ROW + r1)
    return [(row, [row]) for row in rows], 2 * geometry.blast_radius


def run_feinting(engine: BankEngine, r1: int, *,
                 stop_at_ps: Optional[int] = None) -> FeintingResult:
    """Drive the multi-round wave attack closed-loop against `engine`.

    The layout is `wave_layout` for the engine's scheme and a pool of r1.
    Setup charges n_bo - 1 activations per aggressor; online rounds
    activate every aggressor that still serves a pool row once, and rows
    the defense refreshed (read back from the event log) leave the pool.
    The survivors are squeezed with the ABO_ACT + n_mit extra activations
    the alert window and the post-mitigation hold still admit.  The setup,
    each round and the tail are each issued as one lazy stream of rows,
    one ACT at a time while the bank's clock (`engine.now`) is still
    before `stop_at_ps`.  The engine must keep its log (`collect_log`).
    """
    if not engine.collect_log:
        raise ValueError("the wave attack reads mitigated rows from the "
                         "event log; the engine keeps none")
    config = engine.scheme.config
    groups, floor = wave_layout(config, engine.geometry, r1)
    observer = DamageObserver(engine.geometry)
    engine.attach_observer(observer)
    if stop_at_ps is None:
        stop_at_ps = engine.refresh.window_ps

    log = engine.log
    log_cursor = len(log.kinds)
    mitigated: Set[int] = set()

    def harvest() -> None:
        nonlocal log_cursor
        for kind, row in zip(log.kinds[log_cursor:], log.rows[log_cursor:]):
            if (kind == "RFM" or kind == "PROACT") and row >= 0:
                mitigated.add(row)
        log_cursor = len(log.kinds)

    issue_act = engine.issue_act

    def issue(rows: Iterable[int]) -> None:
        for row in rows:
            if engine.now >= stop_at_ps:
                break
            issue_act(row)

    def live() -> List[int]:
        return [a for a, served in groups if not pool.isdisjoint(served)]

    metrics = engine.metrics
    acts_before = metrics.acts_issued
    result = FeintingResult(0, -1, 0, 0, 0, 0)
    # Setup: bring every pool row to n_bo - 1 without alerting.
    issue(chain.from_iterable(repeat(a, config.n_bo - 1)
                              for a, _served in groups))
    result.setup_acts = metrics.acts_issued - acts_before
    pool = {row for _a, served in groups for row in served}
    while len(pool) > floor and engine.now < stop_at_ps:
        result.rounds += 1
        result.pool_sizes.append(len(pool))
        issue(live())
        harvest()
        pool -= mitigated
    # Tail: the window and hold still let a few activations through.
    issue(islice(cycle(live()), ABO_ACT + config.n_mit))

    harvest()
    result.acts_issued = metrics.acts_issued - acts_before
    result.alerts = metrics.alerts_raised
    result.observed_hc = observer.max_peak()
    result.hottest_row = observer.argmax_peak()
    return result


class TraceError(ValueError):
    """A trace line that cannot be read; the message names the line."""


def lines_to_trace(lines: Iterable[str], rows: int) -> Iterator[TraceEvent]:
    """Parse trace lines one at a time, yielding each line's ACT as soon
    as it is read; blank and `#` lines are skipped.

    Line format: `<ns|ASAP>,0,ACT,<row>`.  The time must not be negative
    (ASAP is time 0), the bank field must be 0 (the engine models one
    bank) and the row must lie in [0, rows).  A broken line raises
    TraceError naming its 1-based line number."""
    new = tuple.__new__  # TraceEvent._make without its length check
    for number, ln in enumerate(lines, 1):
        ln = ln.strip()
        if not ln or ln[0] == "#":
            continue
        try:
            stamp, bank, kind, row = ln.split(",")
            if kind != "ACT":
                raise ValueError(f"unknown trace line kind {kind!r}")
            if bank != "0":
                raise ValueError(f"bank {bank!r} is not 0, the one bank "
                                 "the engine models")
            row = int(row)
            if not 0 <= row < rows:
                raise ValueError(f"row {row} is outside the {rows}-row bank")
            t = 0 if stamp == "ASAP" else int(stamp) * 1000
            if t < 0:
                raise ValueError(f"time {stamp} ns is negative")
        except ValueError as exc:
            raise TraceError(f"line {number}: {exc}") from None
        yield new(TraceEvent, (row, t))
