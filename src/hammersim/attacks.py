"""Workload and adversarial trace generation.

Three families: a uniform-random benign stream, open-loop round-robin
hammering with a configurable stride, and the closed-loop multi-round
wave attack that evenly hammers a shrinking row pool, dropping every row
the defense has already refreshed.  An idle (refresh-only) run is an
empty trace.

The wave attack cannot be a static trace: which rows die each round
depends on the defense's queue state, so the driver reacts to the
engine's event log between activations.  Its layout follows the counting
discipline it targets, given as a `counters` code: `VICTIM_COUNT` packs
aggressors so each serves a group of victims, `AGGRESSOR_COUNT` hammers a
contiguous pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, cycle, islice, repeat
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .counters import (AGGRESSOR_COUNT, VICTIM_COUNT, neighbour_offsets,
                       victim_set)
from .dram import DeviceGeometry
from .engine import BankEngine, TraceEvent

ROUND_ROBIN_POOLS = (8, 32, 128, 512, 1024, 4096, 8192)
VICTIM_LAYOUT_STRIDE = 5  # leaves one untouched row between victim groups


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
    return cycle([TraceEvent("act", row) for row in spec.rows()])


def gen_benign(geometry: DeviceGeometry, seed: int, act_gap_ps: int,
               count: int) -> List[TraceEvent]:
    """Uniform-random row stream at a fixed request rate (smoke tests)."""
    if act_gap_ps < 1 or count < 0:
        raise ValueError("act_gap_ps must be >= 1 and count >= 0")
    rng = random.Random(seed)
    events = []
    t = act_gap_ps
    for _ in range(count):
        events.append(TraceEvent(
            "act", row=rng.randrange(geometry.rows_per_bank), time_ps=t))
        t += act_gap_ps
    return events


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


@dataclass(frozen=True)
class FeintingSpec:
    discipline: int  # VICTIM_COUNT or AGGRESSOR_COUNT
    r1: int
    n_bo: int
    n_mit: int = 1
    base_row: int = 8

    def __post_init__(self) -> None:
        if self.discipline not in (VICTIM_COUNT, AGGRESSOR_COUNT):
            raise ValueError(f"unknown discipline {self.discipline!r}")
        if self.discipline == VICTIM_COUNT and self.r1 < 4:
            raise ValueError("victim-based waves need a pool of >= 4")
        if self.discipline == AGGRESSOR_COUNT and self.r1 < 1:
            raise ValueError("aggressor-based waves need a pool of >= 1")
        if self.n_bo < 2:
            raise ValueError("n_bo must be >= 2")
        if self.n_mit not in (1, 2, 4):
            raise ValueError("n_mit must be 1, 2, or 4")

    @property
    def layout_stride(self) -> int:
        return VICTIM_LAYOUT_STRIDE if self.discipline == VICTIM_COUNT else 1


@dataclass
class FeintingResult:
    observed_hc: int
    hottest_row: int
    acts_issued: int
    alerts: int
    rounds: int
    setup_acts: int
    pool_sizes: List[int] = field(default_factory=list)


def _victim_groups(spec: FeintingSpec, geometry: DeviceGeometry
                   ) -> List[Tuple[int, List[int]]]:
    """(aggressor, its victims) pairs for the prepared victim pool."""
    groups: List[Tuple[int, List[int]]] = []
    victims_needed = spec.r1
    a = spec.base_row
    while victims_needed > 0:
        if a >= geometry.rows_per_bank:
            raise ValueError("victim pool does not fit in the bank")
        vs = victim_set(a, geometry)
        take = vs[:victims_needed] if victims_needed < len(vs) else vs
        groups.append((a, take))
        victims_needed -= len(take)
        a += VICTIM_LAYOUT_STRIDE
    return groups


def run_feinting(engine: BankEngine, spec: FeintingSpec, *,
                 stop_at_ps: Optional[int] = None) -> FeintingResult:
    """Drive the multi-round wave attack closed-loop against `engine`.

    Setup charges n_bo - 1 activations per prepared aggressor; online
    rounds activate every surviving pool row once, and rows the defense
    refreshed (read back from the event log) leave the pool.  The final
    survivor is squeezed with the extra activations the alert window and
    the post-mitigation hold still admit.  The setup, each round and the
    tail are each issued as one lazy stream of rows, one ACT at a time
    while the bank's clock (`engine.now`) is still before `stop_at_ps`.
    """
    geometry = engine.geometry
    observer = DamageObserver(geometry)
    engine.attach_observer(observer)
    if stop_at_ps is None:
        stop_at_ps = engine.refresh.window_ps

    log_cursor = len(engine.log)
    mitigated: Set[int] = set()

    def harvest() -> None:
        nonlocal log_cursor
        for entry in engine.log[log_cursor:]:
            if entry[2] in ("RFM", "PROACT") and entry[3] >= 0:
                mitigated.add(entry[3])
        log_cursor = len(engine.log)

    result = FeintingResult(0, -1, 0, 0, 0, 0)
    issue_act = engine.issue_act

    def issue(rows: Iterable[int]) -> None:
        done = 0
        for done, row in enumerate(rows, 1):
            if engine.now >= stop_at_ps:
                done -= 1
                break
            issue_act(row)
        result.acts_issued += done

    tail = engine.abo.abo_act + engine.abo.resolved_delay(
        engine.scheme.config.n_mit)
    if spec.discipline == VICTIM_COUNT:
        groups = _victim_groups(spec, geometry)
        # Setup: bring every prepared victim to n_bo - 1 without alerting.
        issue(chain.from_iterable(repeat(a, spec.n_bo - 1)
                                  for a, _victims in groups))
        result.setup_acts = result.acts_issued
        pool = {v for _a, victims in groups for v in victims}
        while len(pool) > 1 and engine.now < stop_at_ps:
            result.rounds += 1
            result.pool_sizes.append(len(pool))
            issue([a for a, vs in groups if not pool.isdisjoint(vs)])
            harvest()
            pool -= mitigated
        # Tail: the window and hold still let a few activations through.
        survivors = [a for a, vs in groups if not pool.isdisjoint(vs)]
        issue(repeat(survivors[0], tail) if survivors else ())
    else:
        pool_rows = [spec.base_row + i for i in range(spec.r1)]
        if pool_rows[-1] >= geometry.rows_per_bank:
            raise ValueError("aggressor pool does not fit in the bank")
        issue(chain.from_iterable(repeat(row, spec.n_bo - 1)
                                  for row in pool_rows))
        result.setup_acts = result.acts_issued
        pool = set(pool_rows)
        floor = 2 * geometry.blast_radius
        while len(pool) > floor and engine.now < stop_at_ps:
            result.rounds += 1
            result.pool_sizes.append(len(pool))
            issue([row for row in pool_rows if row in pool])
            harvest()
            pool -= mitigated
        survivors = [r for r in pool_rows if r in pool]
        issue(islice(cycle(survivors), tail))

    harvest()
    result.alerts = engine.metrics.alerts_raised
    result.observed_hc = observer.max_peak()
    result.hottest_row = observer.argmax_peak()
    return result


def trace_to_lines(events: Sequence[TraceEvent], bank: int = 0) -> List[str]:
    """Line format: `<ns|ASAP>,<bank>,ACT,<row>`."""
    out = []
    for ev in events:
        if ev.kind != "act":
            continue
        stamp = "ASAP" if ev.time_ps is None else str(ev.time_ps // 1000)
        out.append(f"{stamp},{bank},ACT,{ev.row}")
    return out


def lines_to_trace(lines: Sequence[str]) -> List[TraceEvent]:
    events: List[TraceEvent] = []
    append, make = events.append, TraceEvent._make
    for ln in lines:
        ln = ln.strip()
        if not ln or ln[0] == "#":
            continue
        stamp, _bank, kind, row = ln.split(",")
        if kind != "ACT":
            raise ValueError(f"unknown trace line kind {kind!r}")
        t = None if stamp == "ASAP" else int(stamp) * 1000
        append(make(("act", int(row), t, 0)))
    return events
