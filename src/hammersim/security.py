"""Closed-form worst-case analysis: the hammered-count formula, the
row-pool recurrence, the threshold solver, the bandwidth bound, and a
brute-force oracle that replays the wave attack on a small bank.

A scheme's counting discipline is a `counters` code, or None for an
adaptive scheme; `discipline_for_scheme` reads it from the scheme table.
After NR wave rounds at threshold n_bo the worst-case hammered count
is, in `hammered_count`:

  victim-based     HC = (n_bo - 1) + NR + n_mit + ABO_ACT + br
  aggressor-based  HC = 2*br*(n_bo - 1 + NR) + n_mit + ABO_ACT + br - 1
  adaptive         HC = 2*br*(n_bo - 1) + ABO_ACT + br

All three read the alert back-off protocol from `dram`: ABO_ACT ACTs
after an alert, then n_mit RFMs, then a hold of n_mit ACTs.  Victim
counting pays per victim; aggressor counting pays each term on the 2*br
aggressors around a victim; an adaptive scheme mitigates within one
round.  NR — the rounds the pool survives — comes from the pool
recurrence R' = R - n_mit * floor((R - sub)/(ABO_ACT + n_mit)) in
`pool_recurrence`.  The solvers read it as a short step list per key:
the smallest pool that survives at least k rounds, for each k.  HC is
affine in n_bo, so `solve_nbo` walks down from one ceiling for every
discipline.

The literal recurrence stalls once the floor term is zero, and its
alert count has two defensible readings; both are kept behind
RecurrenceConfig (variant/granularity), and a per-aggressor setup time
budget bounds the worst-case initial pool.  The defaults are the
calibrated setting; see the solver regression tests for which reference
points they do and do not reproduce.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from .attacks import run_feinting, wave_layout
from .counters import AGGRESSOR_COUNT, VICTIM_COUNT
from .dram import ABO_ACT, N_MITS, RFM_NS, DeviceGeometry
from .engine import BankEngine
from .schemes import SchemeConfig, check_n_mit, scheme_rules


def discipline_for_scheme(scheme: str) -> Optional[int]:
    """The counting code the pool recurrence analyzes `scheme` under;
    None for an adaptive scheme, which has a closed form instead."""
    rules = scheme_rules(scheme)
    return None if rules.adaptive else rules.act_count


@dataclass(frozen=True)
class RecurrenceConfig:
    """Calibration switches for the pool recurrence and the r1 bound.

    variant: 'literal' floors each round independently and freezes the
    round counter when progress stalls; 'carry' accumulates fractional
    alert credit across rounds.  granularity: 'body' divides activations
    by (ABO_ACT + n_mit); 'text' by 2*br*(ABO_ACT + n_mit).  The setup
    budget (ns) caps the initial pool via n_bo-1 activations per prepared
    aggressor at the scheme's row-cycle time; None lifts the cap.
    """

    variant: str = "literal"
    granularity: str = "body"
    setup_budget_ns: Optional[float] = 24.0e6

    def __post_init__(self) -> None:
        if self.variant not in ("literal", "carry"):
            raise ValueError(f"unknown recurrence variant {self.variant!r}")
        if self.granularity not in ("body", "text"):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.setup_budget_ns is not None and self.setup_budget_ns <= 0:
            raise ValueError("setup_budget_ns must be positive or None")


@dataclass(frozen=True)
class AnalysisParams:
    n_mit: int
    br: int = 2
    rows_per_bank: int = 65536
    recurrence: RecurrenceConfig = RecurrenceConfig()

    def __post_init__(self) -> None:
        if self.n_mit not in N_MITS:
            raise ValueError("n_mit must be 1, 2, or 4")
        if self.br < 1 or self.rows_per_bank < 8:
            raise ValueError("implausible analysis parameters")


@dataclass(frozen=True)
class SecurityCurvePoint:
    scheme: str
    n_mit: int
    max_hc: int
    n_bo: int          # 0 when infeasible
    worst_r1: int
    nr: int
    feasible: bool

    @property
    def label(self) -> str:
        return str(self.n_bo) if self.feasible else "inf"


def max_initial_pool(discipline: int, rows_per_bank: int, br: int) -> int:
    """Largest initial pool the bank geometry admits.

    Victim-based preparation packs aggressors at stride 2*br+1, each
    serving 2*br victims: floor(rows * 2br/(2br+1)), rows * 4/5 at
    br=2.  Aggressor-based pools are contiguous rows.
    """
    if discipline == VICTIM_COUNT:
        return rows_per_bank * 2 * br // (2 * br + 1)
    if discipline == AGGRESSOR_COUNT:
        return rows_per_bank - 1
    raise ValueError(f"unknown discipline {discipline!r}")


def _recurrence_knobs(discipline: int, params: AnalysisParams
                      ) -> Tuple[int, int, int, int]:
    """(subtrahend, terminal pool size, denominator, rows removed per
    alert) per discipline."""
    den = ABO_ACT + params.n_mit
    remu = params.n_mit
    if params.recurrence.granularity == "text":
        den *= 2 * params.br
        remu *= 2 * params.br
    if discipline == VICTIM_COUNT:
        return 0, 1, den, remu
    return params.br, 2 * params.br, den, remu


_TABLE_CACHE: Dict[Tuple, List[int]] = {}


def _nr_steps(discipline: int, params: AnalysisParams) -> List[int]:
    """NR as a step function of r1: entry k is the smallest pool whose
    running-max NR reaches k, so the worst NR of pools up to r1 is
    `bisect_right(steps, r1) - 1`.  The raw NR over r1 = 0..cap is built
    in one pass up the pool (a round leaves a smaller pool, so each entry
    reads entries already built) and dropped once its steps are read."""
    cap = max_initial_pool(discipline, params.rows_per_bank, params.br)
    sub, term, den, remu = _recurrence_knobs(discipline, params)
    rec = params.recurrence
    key = (discipline, params.n_mit, params.br, rec.variant,
           rec.granularity, cap)
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    if rec.variant == "carry":
        raw = _carry_nr(cap, sub, term, den, remu)
    else:
        # A pool at or below `term`, or one that stalls, is the last round.
        raw = [0] + [1] * cap
        for r in range(term + 1, cap + 1):
            alerts = (r - sub) // den
            if alerts:
                raw[r] += raw[r - remu * alerts]
    peak = list(accumulate(raw, max))
    steps = [bisect_left(peak, k) for k in range(peak[-1] + 1)]
    _TABLE_CACHE[key] = steps
    return steps


def _carry_nr(cap: int, sub: int, term: int, den: int, remu: int
              ) -> List[int]:
    """Raw NR over r1 = 0..cap under the carry variant.

    `cols[r][c]` is the NR of a wave that reaches pool r holding carry
    c in [0, den).  Pool r adds r - sub = q*den + k to the carry: from
    carry c it alerts q times and keeps c + k, or, once c + k reaches
    den, alerts q + 1 times and keeps c + k - den.  With q == 0 the pool
    stays at r with a larger carry, so the column fills from the top
    carry down.  A pool at or below `term` is the last round.
    """
    ones = (1,) * den
    cols = [ones] * (term + 1)
    for r in range(term + 1, cap + 1):
        q, k = divmod(r - sub, den)
        col = [0] * den
        stay = cols[r - remu * q] if q else col
        drop = cols[max(0, r - remu * (q + 1))]
        for c in range(den - 1, -1, -1):
            kept = c + k
            col[c] = 1 + (drop[kept - den] if kept >= den else stay[kept])
        cols.append(tuple(col))
    raw = [col[0] for col in cols[:cap + 1]]
    raw[0] = 0
    return raw


def pool_recurrence(discipline: int, r1: int, params: AnalysisParams) -> int:
    """Rounds a pool of r1 survives under `discipline`, one round at a
    time; the reference the NR steps are checked against."""
    if r1 < 0:
        raise ValueError("r1 must be >= 0")
    sub, term, den, remu = _recurrence_knobs(discipline, params)
    if r1 == 0:
        return 0
    pool = r1
    nr = 1
    carry = 0
    for _ in range(10000):
        if pool <= term:
            return nr
        num = max(pool - sub, 0)
        if params.recurrence.variant == "carry":
            carry += num
            alerts, carry = divmod(carry, den)
        else:
            alerts = num // den
            if alerts == 0:
                return nr  # stalled: the counter freezes here
        nr += 1
        pool -= remu * alerts
    raise RuntimeError("pool recurrence failed to terminate")


def hammered_count(discipline: Optional[int], n_bo: int, nr: int,
                   params: AnalysisParams) -> int:
    """Worst-case hammered count of `discipline` (None: adaptive, which
    has no rounds to count) after `nr` wave rounds at threshold n_bo."""
    br = params.br
    if discipline is None:
        return 2 * br * (n_bo - 1) + ABO_ACT + br
    base = params.n_mit + ABO_ACT + br
    if discipline == VICTIM_COUNT:
        return (n_bo - 1) + nr + base
    return 2 * br * (n_bo - 1 + nr) + base - 1


def _budget_r1_cap(scheme: str, discipline: int, q: int,
                   params: AnalysisParams) -> int:
    """Largest r1 whose setup (q acts per aggressor, at the scheme's
    row-cycle time) fits the budget; a victim-based aggressor prepares
    2*br victims."""
    cap = max_initial_pool(discipline, params.rows_per_bank, params.br)
    budget = params.recurrence.setup_budget_ns
    if budget is None or q == 0:
        return cap
    per_act = q * scheme_rules(scheme).tRC_ns
    # Most aggressors with per_act * units <= budget, tested as written.
    # The float quotient floors the exact one, which fits; the rounded
    # product may still admit one more.
    units = int(budget // per_act)
    if per_act * (units + 1) <= budget:
        units += 1
    return min(cap, units * (2 * params.br
                             if discipline == VICTIM_COUNT else 1))


def worst_case_hc(scheme: str, n_bo: int, params: AnalysisParams
                  ) -> Tuple[int, int, int]:
    """(hc, worst_r1, nr): max over all admissible initial pools.

    The pool range is capped by geometry and by the setup-time budget at
    this n_bo (deeper setup leaves room for fewer prepared rows).
    """
    discipline = discipline_for_scheme(scheme)
    nr = worst = 0
    if discipline is not None:
        steps = _nr_steps(discipline, params)
        nr = bisect_right(
            steps, _budget_r1_cap(scheme, discipline, n_bo - 1, params)) - 1
        worst = steps[nr]
    return hammered_count(discipline, n_bo, nr, params), worst, nr


def solve_nbo(scheme: str, max_hc: int, params: AnalysisParams
              ) -> SecurityCurvePoint:
    """Largest n_bo whose worst-case hammered count stays within max_hc."""
    if max_hc < 1:
        raise ValueError("max_hc must be >= 1")
    discipline = discipline_for_scheme(scheme)
    # HC is affine in n_bo at nr 0, and nr only adds: no n_bo - 1 past
    # this ceiling fits.
    low = hammered_count(discipline, 1, 0, params)
    step = hammered_count(discipline, 2, 0, params) - low
    for q in range((max_hc - low) // step, -1, -1):
        hc, worst, nr = worst_case_hc(scheme, q + 1, params)
        if hc <= max_hc:
            return SecurityCurvePoint(scheme, params.n_mit, max_hc,
                                      q + 1, worst, nr, True)
    return SecurityCurvePoint(scheme, params.n_mit, max_hc, 0, 0, 0, False)


def bw_bound(n_mit: int, n_bo: int, tRC_ns: float) -> float:
    """Largest fraction of bandwidth mitigation can consume under
    saturation: one alert (n_mit RFMs at 350 ns) per n_bo activations."""
    if n_mit < 1 or n_bo < 1 or tRC_ns <= 0:
        raise ValueError("all bw_bound arguments must be positive")
    cost = n_mit * RFM_NS
    return cost / (cost + n_bo * tRC_ns)


def security_table(max_hcs: List[int],
                   schemes: Tuple[str, ...] = ("PVAC", "PRAC", "Chronus"),
                   n_mits: Tuple[int, ...] = N_MITS,
                   recurrence: Optional[RecurrenceConfig] = None
                   ) -> List[SecurityCurvePoint]:
    """The threshold-vs-HC table across schemes and mitigation counts."""
    rec = recurrence or RecurrenceConfig()
    out: List[SecurityCurvePoint] = []
    for scheme in schemes:
        closed_form = discipline_for_scheme(scheme) is None
        mits = (1,) if closed_form else n_mits
        for m in mits:
            check_n_mit(scheme, m)
            params = AnalysisParams(n_mit=m, recurrence=rec)
            for hc in max_hcs:
                out.append(solve_nbo(scheme, hc, params))
    return out


@dataclass(frozen=True)
class OracleCheck:
    scheme: str
    n_mit: int
    n_bo: int
    r1: int
    observed_hc: int
    bound_hc: int

    @property
    def sound(self) -> bool:
        return self.observed_hc <= self.bound_hc


def small_oracle_geometry(rows: int = 256) -> DeviceGeometry:
    """Desk-scale bank with counters wide enough for any tested n_bo."""
    return DeviceGeometry(rows_per_bank=rows, banks=1, rows_per_dsa=rows,
                          counter_bits=16, blast_radius=2)


def run_bound(config: SchemeConfig, geometry: DeviceGeometry
              ) -> Tuple[int, int, int]:
    """`worst_case_hc` of `config` on `geometry` with no setup budget:
    (hc, worst_r1, nr), where hc bounds the hammered count of any run of
    `config` on that bank."""
    params = AnalysisParams(
        n_mit=config.n_mit, br=geometry.blast_radius,
        rows_per_bank=geometry.rows_per_bank,
        recurrence=RecurrenceConfig(setup_budget_ns=None))
    return worst_case_hc(config.scheme, config.n_bo, params)


def oracle_point(scheme: str, n_bo: int, n_mit: int,
                 geometry: DeviceGeometry
                 ) -> Tuple[SchemeConfig, int, int]:
    """The scheme, the wave's pool size r1 and the bound of one oracle run.

    The bound is the analyzer's worst case over every pool the small
    geometry admits (no setup budget — strictly looser, so the comparison
    stays one-sided).  A point the oracle cannot run, including a bank
    outside [16, 4096] rows or an `n_mit` other than 1 for a scheme
    that performs a single mitigation per alert, raises ValueError here,
    before any run.
    """
    if not 16 <= geometry.rows_per_bank <= 4096:
        raise ValueError("oracle runs need a bank of [16, 4096] rows")
    config = SchemeConfig(scheme, n_bo, n_mit)
    config.check_fits(geometry)
    cap = max_initial_pool(config.counter_semantics, geometry.rows_per_bank,
                           geometry.blast_radius)
    bound, worst, _nr = run_bound(config, geometry)
    # An adaptive scheme has no worst pool (worst_r1 0): its wave runs
    # 32 rows.
    r1 = max(4, min(worst or 32, cap))
    wave_layout(config, geometry, r1)  # raises if the wave cannot run
    return config, r1, bound


def brute_force_oracle(scheme: str, n_bo: int, n_mit: int,
                       geometry: Optional[DeviceGeometry] = None
                       ) -> OracleCheck:
    """Replay the wave attack of `oracle_point` on a small bank; report
    observed vs bound."""
    geometry = geometry or small_oracle_geometry()
    config, r1, bound = oracle_point(scheme, n_bo, n_mit, geometry)
    result = run_feinting(BankEngine(config, geometry), r1)
    return OracleCheck(scheme, n_mit, n_bo, r1, result.observed_hc, bound)
