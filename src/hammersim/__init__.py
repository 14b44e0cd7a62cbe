"""Command-level DRAM disturbance-mitigation simulator and analytical
security toolkit.

The package models per-row activation counting (aggressor- and
victim-based), the alert/back-off mitigation protocol, five mitigation
scheme presets, worst-case security analysis with threshold solvers, a
counter-subarray latency/energy model, and a deterministic single-bank
command engine — plus attack generators and a brute-force oracle that
cross-checks the analysis on small banks.
"""

from .attacks import (DamageObserver, FeintingResult, RoundRobinSpec,
                      gen_benign, gen_round_robin, lines_to_trace,
                      run_feinting, wave_layout)
from .counters import (AGGRESSOR_COUNT, NO_COUNT, VICTIM_COUNT, CounterBank,
                       CsaLayout, csa_scaled_latency,
                       dual_activation_rows, victim_set)
from .dram import (DeviceGeometry, RefreshConfig, idle_bandwidth,
                   rows_per_refresh)
from .energy import (EnergyModel, EnergyReport, default_energy_model,
                     energy_report)
from .engine import (BankEngine, EngineMetrics, TraceEvent, WindowStats,
                     audit_log, log_to_csv_lines)
from .kernel import KERNEL_BUILD, CounterCore, TopQueue
from .schemes import SCHEMES, SchemeConfig, SchemeState, preset
from .security import (AnalysisParams, OracleCheck, RecurrenceConfig,
                       SecurityCurvePoint, brute_force_oracle, bw_bound,
                       hammered_count, max_initial_pool, pool_recurrence,
                       security_table, small_oracle_geometry, solve_nbo,
                       worst_case_hc)
from .units import ms, ns, to_ns, us

__version__ = "0.1.0"

__all__ = [
    "AGGRESSOR_COUNT", "AnalysisParams",
    "BankEngine", "CounterBank", "CounterCore", "CsaLayout",
    "DamageObserver", "DeviceGeometry", "EngineMetrics", "EnergyModel",
    "EnergyReport", "FeintingResult", "KERNEL_BUILD",
    "NO_COUNT", "OracleCheck", "RecurrenceConfig",
    "RefreshConfig", "RoundRobinSpec", "SCHEMES", "SchemeConfig",
    "SchemeState", "SecurityCurvePoint", "TopQueue",
    "TraceEvent", "VICTIM_COUNT", "WindowStats",
    "audit_log", "brute_force_oracle", "bw_bound",
    "csa_scaled_latency", "default_energy_model", "dual_activation_rows",
    "energy_report", "gen_benign", "gen_round_robin", "hammered_count",
    "idle_bandwidth", "lines_to_trace", "log_to_csv_lines",
    "max_initial_pool", "ms", "ns", "pool_recurrence", "preset",
    "rows_per_refresh", "run_feinting", "security_table",
    "small_oracle_geometry", "solve_nbo", "to_ns", "us", "victim_set",
    "wave_layout", "worst_case_hc",
]
