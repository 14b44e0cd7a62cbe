"""The four benchmark workloads: CLI calls, their configs and inputs.

Each workload is a list of `hammersim` CLI calls that together make one
timed repetition.  Only `trace_audited` derives its input from the seed;
the other three are deterministic, so their CLI calls always get seed 0
and the benchmark records the seed as unused.  NOTES.md says why each
workload was chosen and which layers it loads or bypasses.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import List, Tuple

import yaml

# The seed whose outputs reference.json pins for trace_audited.  The
# other workloads ignore the seed, so their reference holds for any seed.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Call:
    """One `hammersim <command> --config <config> --out <out>` call."""

    command: str
    config: dict
    out: str


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Tuple[Call, ...]
    uses_seed: bool = False


# Idle bank, refresh only.  n_bo=8 lands PRAC's chained-alert collapse in
# window 7 (bandwidth 0.206410), the same shape as window 63 at n_bo=64;
# PVAC stays flat.  An 8192-row bank with a 4 ms tREFW keeps 8 counted
# rows per REF and the collapse's shape at an eighth of the default
# bank's cost, so a run holds several repetitions.
DOMINO = Workload("domino_refresh", (
    Call("domino", {"domino": {"windows": 8, "schemes": ["PRAC", "PVAC"],
                               "n_bo": 8, "n_mit": 4, "queue_depth": 20},
                    "geometry": {"rows_per_bank": 8192},
                    "refresh": {"tREFW_ns": 4.0e6}}, "domino"),
))

# One saturating stride-3 PVAC window at the threshold solved for a
# tolerated hammer count of 64 with n_mit=4 (n_bo=43).
HAMMER = Workload("hammer_stride", (
    Call("sweep-stride", {"sweep_stride": {
        "hc": [64], "strides": [3], "n": 128, "scheme": "PVAC", "n_mit": 4,
        "queue_depth": 20, "windows": 1}}, "sweep"),
))

TRACE_FILE = "trace.txt"
TRACE_ROWS = 8192
TRACE_N_BO = 32

TRACE = Workload("trace_audited", (
    Call("simulate", {
        "scheme": {"name": "Chronus", "n_bo": TRACE_N_BO, "n_mit": 1,
                   "queue_depth": 20},
        "geometry": {"rows_per_bank": TRACE_ROWS},
        "simulate": {"trace": TRACE_FILE, "duration_windows": 1,
                     "write_events": True}}, "simulate"),
), uses_seed=True)

# The 24-point grid on a 2048-row bank: eight times the default oracle
# bank, at about half the cost of the 4096-row limit.
ORACLE = Workload("oracle_grid", (
    Call("oracle-check", {"oracle_check": {
        "schemes": ["PVAC", "PRAC", "Chronus"], "n_bos": [8, 12, 16, 24],
        "n_mits": [1, 4], "rows": 2048}}, "oracle"),
    Call("security-table", {"security_table": {
        "max_hc": [32, 64, 128, 2048], "schemes": ["PVAC", "PRAC", "Chronus"],
        "n_mits": [1, 2, 4]}}, "table"),
))

WORKLOADS = {w.name: w for w in (DOMINO, HAMMER, TRACE, ORACLE)}

# Trace shape for trace_audited: timed, uniform background activations,
# with ASAP hammer bursts on a few nearby rows at seed-chosen positions.
BACKGROUND_ACTS = 48000
BACKGROUND_GAP_NS = 600
BURSTS = 120
BURST_ACTS = 240
BURST_ROWS = 4


def trace_lines(seed: int) -> List[str]:
    """The trace_audited input in `<ns|ASAP>,<bank>,ACT,<row>` lines."""
    rng = random.Random(seed)
    burst_after = set(rng.sample(range(BACKGROUND_ACTS), BURSTS))
    lines = []
    t = BACKGROUND_GAP_NS
    for i in range(BACKGROUND_ACTS):
        lines.append(f"{t},0,ACT,{rng.randrange(TRACE_ROWS)}")
        t += BACKGROUND_GAP_NS
        if i in burst_after:
            base = rng.randrange(TRACE_ROWS - 2 * BURST_ROWS)
            rows = [base + 2 * k for k in range(BURST_ROWS)]
            lines.extend(f"ASAP,0,ACT,{rows[k % BURST_ROWS]}"
                         for k in range(BURST_ACTS))
    return lines


def write_inputs(workload: Workload, seed: int, workdir: str) -> None:
    """Write each call's YAML config (and the trace) into `workdir`."""
    for call in workload.calls:
        with open(os.path.join(workdir, f"{call.out}.yaml"), "w",
                  encoding="utf-8") as fh:
            yaml.safe_dump(call.config, fh, sort_keys=True)
    if workload.uses_seed:
        with open(os.path.join(workdir, TRACE_FILE), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(trace_lines(seed)) + "\n")


def cli_args(workload: Workload, call: Call, seed: int) -> List[str]:
    """Arguments for `hammersim.cli.main`, relative to the work dir."""
    return [call.command, "--config", f"{call.out}.yaml",
            "--out", os.path.join("out", call.out),
            "--seed", str(seed if workload.uses_seed else 0),
            "--jobs", "1"]
