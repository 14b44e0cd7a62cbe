"""The five mitigation schemes as event-driven state machines.

A scheme is its name: `SCHEME_RULES` holds what each name fixes (what an
ACT and a refreshed row count, tRC, tRFC, proactive hook, RFM
service), after the PRAC/Chronus analyses (Canpolat et al., DRAMSec 2024
/ HPCA 2025) and MOAT (Qureshi et al., 2024).  `SchemeConfig` adds the
knobs a run may set, and a bare one is the name's stock scheme;
`preset` pins a single-mitigation scheme's ``n_mit`` to 1, for a config
that shares one ``n_mit`` across schemes.

Each scheme owns a per-bank counter store and a fixed-depth priority queue
of the hottest rows.  The engine feeds it activations, refreshes, and RFM
grants.  The scheme performs each row activation they cause (the demand
ACT, every row of a REF group, every mitigation row), reports it to
`activation_observer`, then counts it; it answers in rows (``None``: no
alert).  An ACT, or a REF whose hook did not run, alerts on the lowest
row it just counted to ``n_bo`` or above.  A parked alert, and a REF
whose hook ran, alerts on the lowest queued row at or above ``n_bo``;
when no queued row is, an adaptive scheme alerts on the hottest row
counted hot.  `on_refresh` also returns the rows its proactive hook
refreshed, and `on_rfm` the rows one RFM serviced.

Alert deferral: while the controller is inside the post-mitigation hold
window it calls these hooks with ``alert_allowed=False``.  A threshold
crossing then parks in ``pending_alert`` instead of being dropped, and the
engine collects it once the hold expires — deferral, never suppression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .counters import (AGGRESSOR_COUNT, VICTIM_COUNT, CounterBank,
                       neighbour_offsets)
from .dram import (DEFAULT_TRC_NS, N_MITS, PRAC_TRC_NS, STANDARD_TRFC_NS,
                   DeviceGeometry)
from .kernel import TopQueue

RFM_ROWS_PER_PVAC_BURST = 4
DEFAULT_QUEUE_DEPTH = 20
CHRONUS_RFM_SAFETY_FACTOR = 16


class SchemeRules(NamedTuple):
    """What a scheme's name fixes."""

    act_count: int                   # what a demand ACT counts
    ref_count: Optional[int]         # what a refreshed row counts, if any
    tRC_ns: float                    # row cycle, a `dram` tRC
    tRFC_ns: float
    proactive_period: Optional[int]  # REFs per proactive hook; None: no hook
    proactive_at_half: bool          # hook threshold max(1, n_bo // 2)
    single_mitigation: bool = False  # one mitigation per alert
    adaptive: bool = False           # RFMs until no counter is hot


SCHEME_RULES: Dict[str, SchemeRules] = {
    "PRAC": SchemeRules(AGGRESSOR_COUNT, AGGRESSOR_COUNT, PRAC_TRC_NS,
                        STANDARD_TRFC_NS, None, False),
    "PVAC": SchemeRules(VICTIM_COUNT, VICTIM_COUNT, DEFAULT_TRC_NS,
                        STANDARD_TRFC_NS, 1, True),
    "Chronus": SchemeRules(AGGRESSOR_COUNT, None, DEFAULT_TRC_NS,
                           STANDARD_TRFC_NS, 2, False, adaptive=True),
    "QPRAC": SchemeRules(AGGRESSOR_COUNT, AGGRESSOR_COUNT, PRAC_TRC_NS,
                         STANDARD_TRFC_NS, 1, True),
    "MOAT": SchemeRules(AGGRESSOR_COUNT, AGGRESSOR_COUNT, PRAC_TRC_NS,
                        410.0, 4, True, single_mitigation=True),
}
SCHEMES = tuple(SCHEME_RULES)


def scheme_rules(scheme: str) -> SchemeRules:
    """The rules `scheme` names; ValueError for a name not in the table."""
    try:
        return SCHEME_RULES[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None


def check_n_mit(scheme: str, n_mit: int) -> None:
    """ValueError unless `scheme` runs `n_mit` mitigations per alert: a
    single-mitigation scheme runs only 1, whatever a run asks for."""
    if scheme_rules(scheme).single_mitigation and n_mit != 1:
        raise ValueError(f"{scheme} performs a single mitigation per "
                         f"alert, so n_mit={n_mit} is not a point it runs")


@dataclass(frozen=True)
class SchemeConfig:
    """A scheme at a threshold; its name fixes the rest (`SCHEME_RULES`).
    `proactive=False` drops the name's proactive hook, so that only the
    alert path mitigates."""

    scheme: str
    n_bo: int
    n_mit: int = 1
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    proactive: bool = True

    def __post_init__(self) -> None:
        check_n_mit(self.scheme, self.n_mit)
        if self.n_bo < 1:
            raise ValueError("n_bo must be >= 1")
        if self.n_mit not in N_MITS:
            raise ValueError("n_mit must be 1, 2, or 4")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")

    @property
    def tRC_ns(self) -> float:
        return SCHEME_RULES[self.scheme].tRC_ns

    @property
    def tRFC_ns(self) -> float:
        return SCHEME_RULES[self.scheme].tRFC_ns

    @property
    def counter_semantics(self) -> int:
        """What a demand ACT counts: a `counters` code."""
        return SCHEME_RULES[self.scheme].act_count

    @property
    def proactive_period(self) -> Optional[int]:
        """REFs per proactive hook; None: no hook."""
        return (SCHEME_RULES[self.scheme].proactive_period if self.proactive
                else None)

    @property
    def proactive_threshold(self) -> Optional[int]:
        """The top count the hook needs to run; None: any."""
        if self.proactive and SCHEME_RULES[self.scheme].proactive_at_half:
            return max(1, self.n_bo // 2)
        return None

    def check_fits(self, geometry: DeviceGeometry) -> None:
        """Raise ValueError unless n_bo fits the geometry's counters."""
        if self.n_bo > geometry.counter_cap:
            raise ValueError(
                f"n_bo={self.n_bo} exceeds the {geometry.counter_bits}-bit "
                f"counter range (cap {geometry.counter_cap}); widen "
                "counter_bits for this experiment")


def preset(scheme: str, n_bo: int, n_mit: int = 1, *,
           queue_depth: int = DEFAULT_QUEUE_DEPTH) -> SchemeConfig:
    """`scheme` at `n_bo`, with `n_mit` pinned to 1 for a scheme that
    performs a single mitigation per alert."""
    n_mit = 1 if scheme_rules(scheme).single_mitigation else n_mit
    return SchemeConfig(scheme, n_bo, n_mit, queue_depth)


class SchemeState:
    """One bank's worth of mitigation state for a single scheme.

    The scheme's counters change only through its own hooks, which keep
    the queue (and, for an adaptive scheme, `_hot`) in step with the
    kernel.  `CounterBank.apply_activation` bypasses both, so it must
    not be used on a bank a `SchemeState` owns.
    """

    def __init__(self, config: SchemeConfig,
                 geometry: DeviceGeometry) -> None:
        config.check_fits(geometry)
        self.config = config
        self.geometry = geometry
        # Called with every row the scheme activates (demand ACTs, REF
        # rows, mitigation work) before it is counted; the engine wires a
        # damage observer here for ground-truth disturbance accounting.
        self.activation_observer = None
        self.bank = CounterBank(geometry)
        self.queue = TopQueue(config.queue_depth)
        self.pending_alert = False
        # What a demand ACT and a refreshed row count, read once.
        rules = SCHEME_RULES[config.scheme]
        self._sem, self._ref_sem = rules.act_count, rules.ref_count
        self._adaptive = rules.adaptive
        # Adaptive schemes only: every row whose count is >= n_bo, and
        # maybe rows reset since, which `_prune_hot` drops.  A count
        # reaches n_bo only through a counted activation, and both
        # counting walks (`_activate`, `on_act`) add every such row.
        self._hot: Set[int] = set()
        self._refs_seen = 0
        self._neighbours = neighbour_offsets(geometry)
        # Bound once: each counted activation goes straight to the kernel.
        self._act = self.bank.core.act
        self._q_update = self.queue.update
        self._q_remove = self.queue.remove
        self._n_bo = config.n_bo
        self._proactive_period = config.proactive_period
        self._proactive_threshold = config.proactive_threshold

    # -- internal plumbing ------------------------------------------------

    def _activate(self, rows: Sequence[int], sem: Optional[int]
                  ) -> List[int]:
        """Activate each of `rows`: report it to `activation_observer`,
        count it as `sem` (None: not at all) and feed the counter changes
        to the queue; return the rows now >= n_bo.

        The one walk for REF groups and mitigation work; `on_act` keeps
        its own inline copy for one row."""
        observer = self.activation_observer
        if observer is not None:
            for row in rows:
                observer(row)
        if sem is None:
            return []  # Chronus's REF: no kernel call per row
        act, update, remove, n_bo = (self._act, self._q_update,
                                     self._q_remove, self._n_bo)
        hot: List[int] = []
        for row in rows:
            for r, count in act(row, sem):
                if count == 0:
                    remove(r)
                else:
                    update(r, count)
                    if count >= n_bo:
                        hot.append(r)
        if hot and self._adaptive:
            self._hot.update(hot)
        return hot

    def take_pending_alert(self) -> Optional[int]:
        """Fire a deferred alert — if its condition still holds.

        The alert line is level-sensitive: a crossing parked during the
        hold-off only matters if some counter still sits at or above n_bo
        once the hold expires.  Rows mitigated in the meantime de-assert.

        When nothing queued is hot the check costs one queue read, the
        top count; only a hot top makes it read the queued rows.
        """
        if not self.pending_alert:
            return None
        self.pending_alert = False
        n_bo = self._n_bo
        if self.queue.peek_max_count() >= n_bo:
            return min(row for row, count in self.queue.items()
                       if count >= n_bo)
        if self._adaptive:
            return self._hottest_if_hot()
        return None

    def _prune_hot(self) -> Set[int]:
        """Drop from `_hot` the rows now below n_bo; return what is left,
        every row of the bank at or above n_bo."""
        get, n_bo = self.bank.core.get, self._n_bo
        hot = self._hot = {row for row in self._hot if get(row) >= n_bo}
        return hot

    def _hottest_if_hot(self) -> Optional[int]:
        """The bank's hottest row (the lowest, among equals) if it holds
        a count >= n_bo, else None.

        Adaptive alert servicing asks this of the rows counted hot, not
        of the queue, so a hot row the queue displaced cannot be missed."""
        hot = self._prune_hot()
        if not hot:
            return None
        get = self.bank.core.get
        return min(hot, key=lambda row: (-get(row), row))

    def _one_mitigation_unit(self, require_hot: bool = False) -> List[int]:
        """One RFM's worth of work; returns the rows refreshed or reset.

        A victim scheme takes up to RFM_ROWS_PER_PVAC_BURST targets and
        activates each; an aggressor scheme takes 1, resets it and
        activates its victims, nearest first on each side (the order the
        refresh burst walks the blast radius in).  Each target is worked
        before the next pop sees the queue.

        With require_hot (adaptive alert servicing) the target must hold a
        count >= n_bo; if the queue's top does not, the hottest row
        counted hot is taken, so a displaced hot row cannot be missed.
        """
        victim = self._sem == VICTIM_COUNT
        applied: List[int] = []
        for _ in range(RFM_ROWS_PER_PVAC_BURST if victim else 1):
            if require_hot and self.queue.peek_max_count() < self._n_bo:
                target = self._hottest_if_hot()
                if target is None:
                    break
                self.queue.remove(target)
            else:
                top = self.queue.pop_max()
                if top is None:
                    break
                target = top[0]
            if victim:
                rows: Sequence[int] = (target,)
            else:
                self.bank.core.reset(target)
                rows = [target + offset for offset in
                        self._neighbours[target % self.geometry.rows_per_dsa]]
            if self._activate(rows, self._sem):
                self.pending_alert = True  # mitigation work never raises
            applied.append(target)
        return applied

    # -- engine-facing hooks ----------------------------------------------

    def on_act(self, row: int, alert_allowed: bool = True) -> Optional[int]:
        """Activate one demand row; returns the alert to raise now."""
        if not 0 <= row < self.geometry.rows_per_bank:
            raise ValueError(f"row {row} outside bank")
        if self.activation_observer is not None:
            self.activation_observer(row)
        # The _activate walk, inlined: it runs for every demand ACT.  A
        # call to `_activate((row,), ...)` here read slower on perfbench's
        # `trace_audited` in 4 of 4 paired runs (see CHANGES.md).
        hot = []
        for r, count in self._act(row, self._sem):
            if count == 0:
                self._q_remove(r)
            else:
                self._q_update(r, count)
                if count >= self._n_bo:
                    hot.append(r)
        if hot:
            if self._adaptive:
                self._hot.update(hot)
            if alert_allowed:
                return min(hot)
            self.pending_alert = True
        return None

    def on_refresh(self, rows: Sequence[int], *, alert_allowed: bool = True
                   ) -> Tuple[List[int], Optional[int]]:
        """Count a REF's row group, then run the proactive hook if due.

        Returns the rows the hook refreshed (empty: it did not run) and
        the alert to raise now.  A crossing in a REF whose hook ran is
        parked, then re-checked after the hook's refreshes."""
        self._refs_seen += 1
        hot = self._activate(rows, self._ref_sem)
        refreshed = self._proactive_if_due()
        if hot:
            if alert_allowed and not refreshed:
                return refreshed, min(hot)
            self.pending_alert = True
        if refreshed and alert_allowed:
            return refreshed, self.take_pending_alert()
        return refreshed, None

    def _proactive_if_due(self) -> List[int]:
        period = self._proactive_period
        if period is None or self._refs_seen % period != 0:
            return []
        threshold = self._proactive_threshold
        if threshold is not None and self.queue.peek_max_count() < threshold:
            return []
        return self._one_mitigation_unit()

    def on_rfm(self) -> List[int]:
        """Service one RFM command; returns the rows it serviced."""
        return self._one_mitigation_unit(require_hot=self._adaptive)

    def burst_goes_on(self, issued: int) -> bool:
        """Whether an alert's RFM burst goes on after `issued` RFMs: a
        fixed-count scheme issues n_mit; an adaptive one goes on while a
        counter is hot, up to CHRONUS_RFM_SAFETY_FACTOR * queue_depth."""
        if self._adaptive:
            return (issued < CHRONUS_RFM_SAFETY_FACTOR * self.config.queue_depth
                    and bool(self._prune_hot()))
        return issued < self.config.n_mit
