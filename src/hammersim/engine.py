"""Single-bank command-level simulator on an integer-picosecond timeline.

The engine owns the memory-controller half of the alert protocol:

* demand ACTs are admitted no closer than the scheme's tRC;
* a REF is scheduled every tREFI on an absolute grid, blocks the bank for
  tRFC, refreshes a sequential group of rows, and runs the scheme hook;
* an alert opens a window in which up to ``dram.ABO_ACT`` more ACTs may
  issue within ``dram.TABO_ACT_NS``, then the RFM burst runs back-to-back,
  then the next alert is deferred until ``n_mit`` further ACT
  opportunities pass.

The engine keeps time; the scheme performs, and reports, each row
activation.  It answers each hook in rows (see `schemes`): an alert names
one hot row, which `schemes` says, logged on the ``ALERT`` line; the rows
an RFM or a proactive hook serviced are logged one ``RFM`` or ``PROACT``
line each.

"Opportunity" is the operative word for both the window and the hold: when
demand is waiting, they are consumed by real activations; when the
controller has nothing queued, they lapse at once (`BankEngine._lapse`).
That is the one idle-time rule: with no demand waiting, mitigation goes
before refresh — an open window runs its burst, a hold ends and a parked
alert surfaces before any REF due later in the gap.  Bandwidth accounting
charges REF and RFM blocks only — admitted ACTs are useful work.  Each
refresh window keeps one `WindowStats` record of them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from typing import (Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .dram import (ABO_ACT, RFM_NS, TABO_ACT_NS, DeviceGeometry,
                   RefreshConfig, rows_per_refresh)
from .schemes import SchemeConfig, SchemeState
from .units import ns

_IDLE = 0
_WINDOW = 1
_HOLD = 2

_TABO_ACT = ns(TABO_ACT_NS)
_TRFM = ns(RFM_NS)


class TraceEvent(NamedTuple):
    """One demand ACT: the arguments of one `BankEngine.issue_act` call.

    An immutable pair that generators may repeat."""

    row: int
    time_ps: int = 0  # 0 = as soon as possible


Event = Tuple[int, str, int, int]

# Events the log keeps before `BankEngine.stream_trace` drains it.
LOG_CHUNK = 1024


class EventLog:
    """The engine's event log, one `(time_ps, kind, row, counter)` entry
    per event, stored as four columns.

    Times, rows and counters are `array("q")` columns and kinds a list of
    the engine's interned kind strings: about 33 B per event, a quarter
    of what a list of tuples holds.  It iterates as that list of tuples
    over the events it keeps; `list(log)` builds the list.  `drain`
    hands the kept events on and forgets them, and `len(log)` counts
    every event logged, drained or kept.  The engine's `_log` appends to
    the columns."""

    __slots__ = ("times", "kinds", "rows", "counters", "drained")

    def __init__(self) -> None:
        self.times = array("q")
        self.kinds: List[str] = []
        self.rows = array("q")
        self.counters = array("q")
        self.drained = 0  # events handed on by `drain`

    def __len__(self) -> int:
        return self.drained + len(self.kinds)

    def __iter__(self) -> Iterator[Event]:
        return zip(self.times, self.kinds, self.rows, self.counters)

    def drain(self) -> "EventLog":
        """The kept events, moved to a new log.  This log's columns are
        emptied in place, so the engine's bound appends still reach
        them."""
        chunk = EventLog()
        chunk.times, chunk.kinds = self.times[:], self.kinds[:]
        chunk.rows, chunk.counters = self.rows[:], self.counters[:]
        self.drained += len(chunk)
        del self.times[:], self.kinds[:], self.rows[:], self.counters[:]
        return chunk


def _no_log(t: int, kind: str, row: int) -> None:
    """The event writer of an engine that keeps no log."""


@dataclass
class WindowStats:
    index: int
    bandwidth: float = 1.0
    rfm_count: int = 0
    alert_count: int = 0
    blocked_ps: int = 0


@dataclass
class EngineMetrics:
    acts_issued: int = 0
    refs_issued: int = 0
    rfms_issued: int = 0
    alerts_raised: int = 0
    proactive_count: int = 0
    act_blocked_ps: int = 0
    end_time_ps: int = 0
    windows: List[WindowStats] = field(default_factory=list)


class BankEngine:
    """Deterministic closed-loop engine for one bank.

    Every command goes through `_log`, the one event writer, bound once
    here.  With `collect_log` on it appends the event to `log`, an
    `EventLog`; with it off it is `_no_log`, so the log stays empty and
    no counter is read for it.  `run_trace` keeps the whole log;
    `stream_trace` drains it as it goes (`simulate` streams it into
    `events.csv` and the auditor that way), so its memory does not grow
    with the run's length.  Either way `len(log)` counts every event
    logged."""

    def __init__(self, scheme: SchemeConfig, geometry: DeviceGeometry,
                 refresh: Optional[RefreshConfig] = None, *,
                 collect_log: bool = True) -> None:
        self.geometry = geometry
        self.refresh = refresh or RefreshConfig(
            tRFC=ns(scheme.tRFC_ns))
        self.scheme = SchemeState(scheme, geometry)
        self.collect_log = collect_log
        self.log = log = EventLog()
        if collect_log:
            add_time, add_kind, add_row, add_counter = (
                log.times.append, log.kinds.append, log.rows.append,
                log.counters.append)
            get = self.scheme.bank.core.get

            def _log(t: int, kind: str, row: int) -> None:
                """Record one event with `row`'s current counter (0 for
                row -1, no row)."""
                add_time(t)
                add_kind(kind)
                add_row(row)
                add_counter(get(row) if row >= 0 else 0)
        else:
            _log = _no_log
        self._log = _log

        self._tRC = ns(scheme.tRC_ns)
        self._tRFC = self.refresh.tRFC
        self._rpr = rows_per_refresh(geometry, self.refresh)
        self._tREFI = self.refresh.tREFI
        self._rows = geometry.rows_per_bank
        self._on_act = self.scheme.on_act

        self.now = 0              # the instant the bank next becomes free
        self._ref_k = 0           # index of the next scheduled REF
        self._ref_due = 0         # its due time, _ref_k * tREFI
        self._state = _IDLE
        self._win_deadline = 0
        self._win_acts_left = 0
        self._hold_left = 0

        self.metrics = EngineMetrics()
        self._win_len = self.refresh.window_ps
        self._windows: List[WindowStats] = []  # one record per window

    def attach_observer(self, observer) -> None:
        """Register a ground-truth disturbance observer with the scheme.

        `observer.on_activation(row)` fires for every row the scheme
        activates — demand ACTs, each row of a REF group, and the rows
        mitigation work activates."""
        self.scheme.activation_observer = observer.on_activation

    # -- bookkeeping -------------------------------------------------------

    def _window(self, t: int) -> WindowStats:
        """The record of the refresh window holding `t`."""
        w = t // self._win_len
        windows = self._windows
        while len(windows) <= w:
            windows.append(WindowStats(len(windows)))
        return windows[w]

    def _charge_block(self, t: int, dur: int) -> None:
        self._window(t).blocked_ps += dur
        self.metrics.act_blocked_ps += dur

    # -- primitive command issue --------------------------------------------

    def _issue_ref(self) -> None:
        """Issue the next scheduled REF (due at `_ref_due`)."""
        t = max(self._ref_due, self.now)
        n, rpr = self._rows, self._rpr
        start_row = (self._ref_k * rpr) % n
        if start_row + rpr <= n:
            rows: Sequence[int] = range(start_row, start_row + rpr)
        else:  # the group wraps past the last row
            rows = [(start_row + i) % n for i in range(rpr)]
        self._ref_k += 1
        self._ref_due += self._tREFI
        self.now = t + self._tRFC
        self._charge_block(t, self._tRFC)
        self.metrics.refs_issued += 1
        self._log(t, "REF", rows[0])
        refreshed, alert = self.scheme.on_refresh(
            rows, alert_allowed=(self._state == _IDLE))
        if refreshed:
            # Runs inside the tRFC block; no extra time.
            self.metrics.proactive_count += 1
            for r in refreshed:
                self._log(t, "PROACT", r)
        if alert is not None:
            self._assert_alert(self.now, alert)

    def _assert_alert(self, t: int, row: int) -> None:
        self.metrics.alerts_raised += 1
        self._window(t).alert_count += 1
        self._log(t, "ALERT", row)
        self._state = _WINDOW
        self._win_deadline = t + _TABO_ACT
        self._win_acts_left = ABO_ACT

    def _surface_pending(self) -> bool:
        """Assert the parked alert now if its condition still holds.

        Returns whether it did.  Callers test `scheme.pending_alert`
        first, so an ACT with nothing parked makes no call here."""
        row = self.scheme.take_pending_alert()
        if row is None:
            return False
        self._assert_alert(self.now, row)
        return True

    def _run_burst(self) -> None:
        """Run the current alert's RFM burst from `now`, REFs interleaved."""
        issued = 0
        while True:
            while self._ref_due <= self.now:
                self._issue_ref()
            t = self.now
            serviced = self.scheme.on_rfm()
            self.now = t + _TRFM
            self._charge_block(t, _TRFM)
            self.metrics.rfms_issued += 1
            self._window(t).rfm_count += 1
            for row in serviced or (-1,):
                self._log(t, "RFM", row)
            issued += 1
            if not self.scheme.burst_goes_on(issued):
                break
        self._state = _HOLD
        self._hold_left = self.scheme.config.n_mit

    def _lapse(self) -> None:
        """Let the open opportunity state lapse with no demand waiting: a
        window runs its burst now, a hold ends."""
        if self._state == _WINDOW:
            self._run_burst()
        else:
            self._state = _IDLE

    # -- public API ----------------------------------------------------------

    def issue_act(self, row: int, not_before: int = 0) -> int:
        """Admit one demand ACT at `not_before` or later; returns its issue
        time (ps).

        Until the ACT is due the controller is idle: an open window or
        hold lapses, and a parked alert surfaces, before the REFs due by
        then.  A window the ACT finds spent runs its burst first."""
        if not 0 <= row < self._rows:
            raise ValueError(f"row {row} outside bank")
        while True:
            state = self._state
            if state == _IDLE:
                if self.scheme.pending_alert and self._surface_pending():
                    continue
            elif not_before > self.now or (
                    state == _WINDOW and self.now > self._win_deadline):
                self._lapse()
                continue
            t = self.now
            if not_before > t:
                t = not_before
            if self._ref_due <= t:
                self._issue_ref()
                continue
            break
        # Admit at t in `state`.
        self.metrics.acts_issued += 1
        self.now = t + self._tRC
        alert = self._on_act(row, state == _IDLE)
        self._log(t, "ACT", row)
        if state == _IDLE:
            if alert is not None:
                self._assert_alert(t, alert)
        elif state == _WINDOW:
            self._win_acts_left -= 1
            if self._win_acts_left == 0:
                self._run_burst()
        else:
            self._hold_left -= 1
            if self._hold_left == 0:
                self._state = _IDLE
                if self.scheme.pending_alert:
                    self._surface_pending()
        return t

    def advance_to(self, t: int) -> None:
        """Run all scheduled work up to `t` with no demand waiting: each
        open window or hold lapses and each parked alert surfaces before
        the next REF due before `t`."""
        while True:
            if self._state != _IDLE:
                self._lapse()
            elif self.scheme.pending_alert and self._surface_pending():
                continue
            elif self._ref_due < t:
                self._issue_ref()
            else:
                return

    def _run(self, events: Iterable[TraceEvent],
             duration_ps: int) -> Iterator[None]:
        """The one admission loop: issue each event's ACT at its time or
        at the bank's next free slot, whichever is later, until an ACT
        issues at or past `duration_ps`; then run the idle bank up to
        `duration_ps` one REF at a time.  A step is one admitted ACT or
        one idle REF; the loop yields after each step that leaves
        `LOG_CHUNK` or more events in the log.

        Stepping `advance_to` REF by REF does the work one call to
        `advance_to(duration_ps)` does, in the same order."""
        kept = self.log.kinds
        cursor = 0
        issue_act = self.issue_act
        for row, time_ps in events:
            if time_ps > cursor:
                cursor = time_ps
            issued = issue_act(row, cursor)
            if issued >= duration_ps:
                break
            cursor = issued
            if len(kept) >= LOG_CHUNK:
                yield
        advance_to = self.advance_to
        while self._ref_due < duration_ps:
            advance_to(self._ref_due + 1)
            if len(kept) >= LOG_CHUNK:
                yield
        advance_to(duration_ps)

    def run_trace(self, events: Iterable[TraceEvent],
                  duration_ps: int) -> EngineMetrics:
        """Run `events` up to `duration_ps`, keeping the whole log."""
        for _step in self._run(events, duration_ps):
            pass
        return self.finalize(duration_ps)

    def stream_trace(self, events: Iterable[TraceEvent],
                     duration_ps: int) -> Iterator[EventLog]:
        """Run `events` as `run_trace` does, handing the log on as it
        grows: each step that leaves `LOG_CHUNK` or more events kept
        drains them, yielded as one `EventLog`, and the rest follow at the
        end.  The log never keeps more than `LOG_CHUNK` events plus one
        step's, so memory does not grow with the run's length.  Once
        the stream is exhausted, `metrics` is finalized."""
        log = self.log
        for _step in self._run(events, duration_ps):
            yield log.drain()
        self.finalize(duration_ps)
        yield log.drain()

    def finalize(self, duration_ps: int) -> EngineMetrics:
        """Close the run at `duration_ps` and sum its windows.

        A trailing partial window is reported too, its bandwidth taken
        over its own length.  The windows are copies of the engine's
        records, so a later run leaves them as they are."""
        m = self.metrics
        m.end_time_ps = duration_ps
        m.windows = []
        for start in range(0, duration_ps, self._win_len):
            record = self._window(start)
            length = min(self._win_len, duration_ps - start)
            m.windows.append(replace(
                record, bandwidth=1.0 - record.blocked_ps / length))
        return m


def log_to_csv_lines(log: Iterable[Event]) -> Iterator[str]:
    """The event log as CSV lines, header first, one line at a time; the
    bank column is always 0, the one bank the engine models."""
    yield "time_ns,bank,event,row,counter_after"
    for t, kind, row, counter in log:
        if t % 1000 == 0:
            yield f"{t // 1000},0,{kind},{row},{counter}"
        else:
            yield f"{t / 1000:.3f},0,{kind},{row},{counter}"


def audit_log(log: Iterable[Event], scheme: SchemeConfig,
              refresh: RefreshConfig) -> List[str]:
    """Independent legality pass over an emitted event log.

    Checks tRC spacing between ACTs, non-overlap with REF/RFM blocking
    intervals, the per-alert ACT budget (`dram.ABO_ACT`) and window bound
    (`dram.TABO_ACT_NS`), and that every alert is followed by at least one
    RFM before the next alert.
    """
    problems: List[str] = []
    tRC = ns(scheme.tRC_ns)
    tRFC = refresh.tRFC

    last_act: Optional[int] = None
    # The last four REF/RFM blocks and the latest end among them: an ACT
    # at or past that end cannot sit inside any of them.
    blocks: List[Tuple[int, int, str]] = []
    blocks_end = 0
    alert_t: Optional[int] = None
    acts_in_window = 0
    rfms_since_alert = 0

    for t, kind, _row, _counter in log:
        if kind == "ACT":
            if last_act is not None and t - last_act < tRC:
                problems.append(f"ACT at {t} ps violates tRC after {last_act}")
            last_act = t
            if t < blocks_end:
                for s, e, what in blocks:
                    if s <= t < e:
                        problems.append(f"ACT at {t} ps inside {what} block")
            if alert_t is not None and rfms_since_alert == 0:
                acts_in_window += 1
                if acts_in_window > ABO_ACT:
                    problems.append(
                        f"more than {ABO_ACT} ACTs in window of alert "
                        f"at {alert_t} ps")
                if t > alert_t + _TABO_ACT:
                    problems.append(
                        f"ACT at {t} ps past the window of alert at "
                        f"{alert_t} ps")
        elif kind == "REF" or kind == "RFM":
            if kind == "REF":
                blocks.append((t, t + tRFC, "REF"))
            elif blocks and blocks[-1][2] == "RFM" and blocks[-1][0] == t:
                continue  # several rows logged for one RFM command
            else:
                blocks.append((t, t + _TRFM, "RFM"))
                if alert_t is not None:
                    rfms_since_alert += 1
            del blocks[:-4]
            blocks_end = max(e for _s, e, _what in blocks)
        elif kind == "ALERT":
            if alert_t is not None and rfms_since_alert == 0:
                problems.append(
                    f"alert at {t} ps follows alert at {alert_t} ps with "
                    "no RFM between")
            alert_t = t
            acts_in_window = 0
            rfms_since_alert = 0
    return problems
