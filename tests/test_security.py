"""Worst-case analysis: recurrences, closed forms, solver, oracle."""

from bisect import bisect_right
from itertools import accumulate, product

import pytest

from hammersim.security import (AnalysisParams, OracleCheck, RecurrenceConfig,
                                SecurityCurvePoint, brute_force_oracle,
                                bw_bound, discipline_for_scheme,
                                hammered_count, max_initial_pool,
                                oracle_point, pool_recurrence,
                                security_table, small_oracle_geometry,
                                solve_nbo, worst_case_hc)
from hammersim.counters import AGGRESSOR_COUNT, VICTIM_COUNT
from hammersim.dram import ABO_ACT
from hammersim.schemes import SCHEMES, scheme_rules
from hammersim import security
from hammersim.security import _budget_r1_cap, _nr_steps


def params(n_mit: int, **kw) -> AnalysisParams:
    return AnalysisParams(n_mit=n_mit, **kw)


# -- configuration -----------------------------------------------------------

def test_recurrence_config_validation():
    with pytest.raises(ValueError):
        RecurrenceConfig(variant="guess")
    with pytest.raises(ValueError):
        RecurrenceConfig(granularity="row")
    with pytest.raises(ValueError):
        RecurrenceConfig(setup_budget_ns=0)
    assert RecurrenceConfig(setup_budget_ns=None).setup_budget_ns is None


def test_analysis_params_delay_follows_n_mit():
    # The hold after each burst is n_mit ACTs, on top of ABO_ACT.
    for n_mit in (1, 2, 4):
        p = params(n_mit)
        nr = pool_recurrence(VICTIM_COUNT, 1, p)
        assert hammered_count(VICTIM_COUNT, 64, nr, p) == \
            63 + 1 + n_mit + ABO_ACT + 2
    with pytest.raises(ValueError):
        params(3)


def test_disciplines_and_act_times():
    # Each scheme's discipline and act time are checked against the scheme
    # table in test_schemes.test_scheme_name_fixes_its_rules.
    with pytest.raises(ValueError):
        discipline_for_scheme("TRR")
    with pytest.raises(ValueError):
        scheme_rules("TRR")


def test_initial_pool_extremes():
    assert max_initial_pool(VICTIM_COUNT, 65536, 2) == 52428
    assert max_initial_pool(AGGRESSOR_COUNT, 65536, 2) == 65535
    assert max_initial_pool(VICTIM_COUNT, 256, 2) == 204
    with pytest.raises(ValueError):
        max_initial_pool("bulk", 65536, 2)


@pytest.mark.parametrize("br, cap, nr", [(1, 43690, 36), (2, 52428, 37),
                                         (3, 56173, 37)])
def test_victim_pool_follows_the_blast_radius(br, cap, nr):
    # Aggressors 2*br+1 apart, each serving 2*br victims.  At br 1 the
    # radius-2 cap of 52,428 rows would admit pools that last 37 rounds.
    assert max_initial_pool(VICTIM_COUNT, 65536, br) == cap
    assert max_initial_pool(AGGRESSOR_COUNT, 65536, br) == 65535
    steps = _nr_steps(VICTIM_COUNT, params(1, br=br))
    assert len(steps) - 1 == nr
    assert steps[-1] <= cap


# -- the pool recurrence ------------------------------------------------------

def test_victim_pool_recurrence_hand_trace():
    p = params(4)  # den = ABO_ACT + n_mit = 7, removes 4 per alert
    assert pool_recurrence(VICTIM_COUNT, 0, p) == 0
    assert pool_recurrence(VICTIM_COUNT, 1, p) == 1
    # 22 -> 3 alerts (22//7), 10 -> 1 alert, 6 -> stall: three rounds.
    assert pool_recurrence(VICTIM_COUNT, 22, p) == 3


def test_aggressor_pool_recurrence_hand_trace():
    p = params(1)  # den = 4, subtract br = 2, terminate at 4
    # 10 -> 8//4 = 2 removed? no: alerts=2, removes 2 -> 8; then 6//4 = 1
    # per round: 8 -> 7 -> 6 -> 5, where 5 - 2 = 3 < 4 stalls.
    assert pool_recurrence(AGGRESSOR_COUNT, 10, p) == 5
    # Already at the terminal size.
    assert pool_recurrence(AGGRESSOR_COUNT, 4, p) == 1
    with pytest.raises(ValueError):
        pool_recurrence(AGGRESSOR_COUNT, -1, p)


def _running_max_nr(discipline, p):
    """The worst NR of any pool up to r1, for every r1 the bank admits,
    from the scalar recurrence."""
    cap = max_initial_pool(discipline, p.rows_per_bank, p.br)
    return list(accumulate((pool_recurrence(discipline, r1, p)
                            for r1 in range(cap + 1)), max))


def test_nr_steps_match_scalar_reference():
    # Every r1 of a 4096-row bank, in each variant and granularity, at
    # each n_mit and discipline.
    for variant, granularity, n_mit in product(
            ["literal", "carry"], ["body", "text"], [1, 2, 4]):
        rec = RecurrenceConfig(variant=variant, granularity=granularity)
        p = AnalysisParams(n_mit=n_mit, rows_per_bank=4096, recurrence=rec)
        for discipline in (VICTIM_COUNT, AGGRESSOR_COUNT):
            steps = _nr_steps(discipline, p)
            peak = _running_max_nr(discipline, p)
            assert [bisect_right(steps, r1) - 1
                    for r1 in range(len(peak))] == peak


def test_worst_pool_is_the_smallest_that_reaches_the_worst_nr():
    # A budget that caps the pool at many points of the step function.
    p = params(2, rows_per_bank=4096,
               recurrence=RecurrenceConfig(setup_budget_ns=2.0e5))
    peak = _running_max_nr(AGGRESSOR_COUNT, p)
    for n_bo in range(2, 80):
        r1_cap = _budget_r1_cap("PRAC", AGGRESSOR_COUNT, n_bo - 1, p)
        _hc, worst, nr = worst_case_hc("PRAC", n_bo, p)
        assert nr == peak[r1_cap], n_bo
        assert worst == peak.index(nr), n_bo


def test_table_cache_holds_only_short_step_lists(monkeypatch):
    # The cache lives as long as the process, so it keeps only steps: a
    # table per pool size of a default bank holds 65,537 entries.
    cache = {}
    monkeypatch.setattr(security, "_TABLE_CACHE", cache)
    security_table([32, 64, 128, 2048])
    oracle_point("PVAC", 16, 4, small_oracle_geometry(rows=2048))
    # PVAC and PRAC at each n_mit, and the oracle's 2048-row bank.
    assert len(cache) == 7
    for key, steps in cache.items():
        assert isinstance(steps, list) and len(steps) <= 64, key
        assert steps == sorted(steps), key


# -- hammered-count closed forms ----------------------------------------------

def test_hc_formulas_at_tiny_pools():
    p = params(4)
    for discipline, hc in ((VICTIM_COUNT, 63 + 1 + 4 + 3 + 2),
                           (AGGRESSOR_COUNT, 4 * 63 + 4 * 1 + 4 + 3 + 2 - 1)):
        nr = pool_recurrence(discipline, 1, p)
        assert hammered_count(discipline, 64, nr, p) == hc


def test_adaptive_hc_closed_form():
    p = params(1)
    assert hammered_count(None, 1, 0, p) == 5
    assert hammered_count(None, 31, 0, p) == 125
    assert hammered_count(None, 511, 0, p) == 2045


def test_worst_case_hc_frozen_point():
    hc, worst_r1, nr = worst_case_hc("PVAC", 11, params(4))
    assert (hc, worst_r1, nr) == (32, 29455, 13)


def test_worst_case_hc_monotone_in_n_bo():
    p = params(2)
    hcs = [worst_case_hc("PRAC", n_bo, p)[0] for n_bo in range(2, 40)]
    assert hcs == sorted(hcs)


def _bisect_r1_cap(trc, discipline, q, p):
    """The budget cap as a binary search over r1: the largest r1 whose
    ceil(r1 / aggressor group) setup aggressors, q ACTs each at a row
    cycle of `trc` ns, fit the budget."""
    cap = max_initial_pool(discipline, p.rows_per_bank, p.br)
    budget = p.recurrence.setup_budget_ns
    if budget is None or q == 0:
        return cap
    group = 2 * p.br if discipline == VICTIM_COUNT else 1
    per_act = q * trc
    lo, hi = 0, cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if per_act * -(-mid // group) <= budget:
            lo = mid
        else:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("budget", [24.0e6, 1.0e5, 333333.3, 1.0, None])
@pytest.mark.parametrize("scheme, trc", [("PVAC", 48.0), ("PRAC", 52.0),
                                         ("PVAC", 0.3)])
def test_budget_cap_closed_form_matches_the_search(scheme, trc, budget,
                                                   monkeypatch):
    # 24e6 is a multiple of q * 48 at many q, so the fit is tested at
    # equality; 1 ns admits no aggressor at all.  A row cycle of 0.3 ns
    # is no scheme's: it makes the float quotient round.
    rules = scheme_rules(scheme)._replace(tRC_ns=trc)
    monkeypatch.setattr(security, "scheme_rules", lambda name: rules)
    for discipline, br in product((VICTIM_COUNT, AGGRESSOR_COUNT), (1, 2)):
        p = params(1, br=br, recurrence=RecurrenceConfig(
            setup_budget_ns=budget))
        for q in range(3001):
            assert _budget_r1_cap(scheme, discipline, q, p) == \
                _bisect_r1_cap(trc, discipline, q, p), (discipline, q)


def test_setup_budget_only_tightens_the_bound():
    no_budget = params(1, recurrence=RecurrenceConfig(setup_budget_ns=None))
    budgeted = params(1)
    for scheme in ("PVAC", "PRAC"):
        loose, _, _ = worst_case_hc(scheme, 100, no_budget)
        tight, _, _ = worst_case_hc(scheme, 100, budgeted)
        assert tight <= loose


# -- the threshold solver ------------------------------------------------------

FROZEN_TABLE = {
    ("PVAC", 1, 32): "inf", ("PVAC", 1, 64): "22",
    ("PVAC", 1, 128): "89", ("PVAC", 1, 2048): "2020",
    ("PVAC", 2, 32): "5", ("PVAC", 2, 64): "37",
    ("PVAC", 2, 128): "103", ("PVAC", 2, 2048): "2028",
    ("PVAC", 4, 32): "11", ("PVAC", 4, 64): "43",
    ("PVAC", 4, 128): "108", ("PVAC", 4, 2048): "2032",
    ("PRAC", 1, 32): "inf", ("PRAC", 1, 64): "inf",
    ("PRAC", 1, 128): "inf", ("PRAC", 1, 2048): "488",
    ("PRAC", 2, 32): "inf", ("PRAC", 2, 64): "inf",
    ("PRAC", 2, 128): "10", ("PRAC", 2, 2048): "498",
    ("PRAC", 4, 32): "inf", ("PRAC", 4, 64): "2",
    ("PRAC", 4, 128): "19", ("PRAC", 4, 2048): "503",
    ("Chronus", 1, 32): "7", ("Chronus", 1, 64): "15",
    ("Chronus", 1, 128): "31", ("Chronus", 1, 2048): "511",
}


def test_threshold_table_regression():
    points = security_table([32, 64, 128, 2048])
    assert len(points) == 28
    got = {(p.scheme, p.n_mit, p.max_hc): p.label for p in points}
    assert got == FROZEN_TABLE


def test_solver_labels_and_feasibility():
    point = solve_nbo("PVAC", 32, params(1))
    assert not point.feasible and point.n_bo == 0 and point.label == "inf"
    point = solve_nbo("PVAC", 64, params(1))
    assert point.feasible and point.label == "22"
    assert worst_case_hc("PVAC", 22, params(1))[0] <= 64
    assert worst_case_hc("PVAC", 23, params(1))[0] > 64


def test_solver_chronus_closed_form():
    assert solve_nbo("Chronus", 5, params(1)).n_bo == 1
    assert not solve_nbo("Chronus", 4, params(1)).feasible
    with pytest.raises(ValueError):
        solve_nbo("Chronus", 0, params(1))


@pytest.mark.parametrize("budget", [24.0e6, None, 1.0e5])
def test_solver_returns_the_largest_fitting_n_bo(budget):
    # Against every n_bo the bound admits: HC >= n_bo - 1 + ABO_ACT, so
    # none past max_hc fits.
    rec = RecurrenceConfig(setup_budget_ns=budget)
    for scheme, n_mit, br in product(SCHEMES, (1, 2, 4), (1, 2, 3)):
        p = params(n_mit, br=br, rows_per_bank=4096, recurrence=rec)
        worst = [worst_case_hc(scheme, n_bo, p) for n_bo in range(1, 151)]
        for max_hc in range(1, 151):
            fits = [(n_bo, r1, nr) for n_bo, (hc, r1, nr)
                    in enumerate(worst, 1) if hc <= max_hc]
            n_bo, r1, nr = fits[-1] if fits else (0, 0, 0)
            assert solve_nbo(scheme, max_hc, p) == SecurityCurvePoint(
                scheme, n_mit, max_hc, n_bo, r1, nr, bool(fits))


def test_solver_monotone_in_max_hc():
    p = params(4)
    solved = [solve_nbo("PVAC", hc, p).n_bo for hc in range(16, 200, 8)]
    assert solved == sorted(solved)


def test_carry_variant_changes_the_table():
    alt = security_table([32, 64, 128, 2048],
                         recurrence=RecurrenceConfig(variant="carry"))
    got = {(p.scheme, p.n_mit, p.max_hc): p.label for p in alt}
    assert got != FROZEN_TABLE


# -- the bandwidth bound -------------------------------------------------------

def test_bw_bound_reference_points():
    assert bw_bound(4, 237, 48.0) == pytest.approx(0.1095804, abs=5e-7)
    assert bw_bound(4, 52, 52.0) == pytest.approx(0.3411306, abs=5e-7)
    assert bw_bound(1, 15, 48.0) == pytest.approx(0.3271028, abs=5e-7)
    assert bw_bound(4, 43, 48.0) == pytest.approx(0.4041570, abs=5e-7)


def test_bw_bound_validation_and_shape():
    with pytest.raises(ValueError):
        bw_bound(0, 64, 48.0)
    with pytest.raises(ValueError):
        bw_bound(1, 64, 0.0)
    # More frequent alerts (smaller n_bo) can only cost more bandwidth.
    series = [bw_bound(4, n_bo, 48.0) for n_bo in range(16, 256, 16)]
    assert series == sorted(series, reverse=True)
    assert all(0 < x < 1 for x in series)


# -- the brute-force oracle ----------------------------------------------------

def test_oracle_check_verdict():
    assert OracleCheck("PVAC", 1, 8, 4, observed_hc=10, bound_hc=10).sound
    assert not OracleCheck("PVAC", 1, 8, 4, observed_hc=11, bound_hc=10).sound


def test_oracle_rejects_big_banks():
    for rows in (8, 8192):
        with pytest.raises(ValueError, match=r"\[16, 4096\]"):
            brute_force_oracle("PVAC", 16, 1,
                               geometry=small_oracle_geometry(rows=rows))


def test_oracle_rejects_a_mitigation_count_the_scheme_cannot_run():
    # MOAT performs one mitigation per alert: an n_mit-4 point would run
    # at n_mit 1 yet be judged against the n_mit-4 bound.
    geometry = small_oracle_geometry(rows=256)
    with pytest.raises(ValueError, match="single mitigation"):
        oracle_point("MOAT", 8, 4, geometry)
    config, _r1, bound = oracle_point("MOAT", 8, 1, geometry)
    assert config.n_mit == 1
    assert bound == oracle_point("PRAC", 8, 1, geometry)[2]


def test_oracle_bounds_hold_on_small_banks():
    for scheme, n_mit in (("PVAC", 4), ("PRAC", 1)):
        check = brute_force_oracle(scheme, 16, n_mit)
        assert check.sound, (scheme, check)
        assert check.observed_hc >= 16  # the attack does beat the threshold
