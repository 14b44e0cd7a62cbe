"""Golden behaviour: engine-level digests pinned in `golden.json`.

Each case runs one scheme on one workload over a small bank with a short
refresh window and hashes what the run emits: the CSV event log, the
`EngineMetrics` fields (windows included) and, for the feinting wave,
the `FeintingResult`.  A refactor or a speedup must leave every digest
unchanged; a change that moves one on purpose says why in CHANGES.md.

The matrix runs once per importable kernel build, so it also checks that
the compiled and pure-Python builds give the same engine behaviour.

Rewrite the JSON with:  python tests/test_golden.py --update
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from hammersim import _kernel_py, counters, schemes
from hammersim.attacks import (AGGRESSOR_BASED, VICTIM_BASED, FeintingSpec,
                               RoundRobinSpec, gen_benign, gen_round_robin,
                               run_feinting)
from hammersim.dram import DeviceGeometry, RefreshConfig
from hammersim.engine import BankEngine, log_to_csv_lines
from hammersim.schemes import SCHEMES, preset
from hammersim.units import ms, ns, us
from test_kernel import kernels

GOLDEN = Path(__file__).with_name("golden.json")

# Four 256-row subarrays, so victim updates meet subarray edges, and
# 8-bit counters.  A 1 ms tREFW gives 256 REFs of 4 rows per window, and
# each case runs two windows.
GEOMETRY = DeviceGeometry(rows_per_bank=1024, banks=1, rows_per_dsa=256,
                          counter_bits=8, blast_radius=2)
N_BO = 32
WORKLOADS = ("idle", "rr128_s1", "rr128_s3", "benign0", "feinting",
             "feinting_stop")
# A 64-row pool takes 31 setup ACTs per prepared aggressor (16 aggressors
# for the victim-based wave, 64 for the aggressor-based one), so a stop at
# 20 us lands in the middle of the setup batch for every scheme.
STOP_POOL = 64
STOP_AT_PS = us(20)


def _refresh(scheme: str) -> RefreshConfig:
    return RefreshConfig(tREFW=ms(1), tRFC=ns(preset(scheme, N_BO).tRFC_ns))


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(scheme: str, workload: str) -> dict:
    """Digests of one scheme × workload run on the live kernel classes."""
    refresh = _refresh(scheme)
    engine = BankEngine(preset(scheme, N_BO), GEOMETRY, refresh)
    duration = 2 * refresh.window_ps
    out = {}
    if workload.startswith("feinting"):
        discipline = VICTIM_BASED if scheme == "PVAC" else AGGRESSOR_BASED
        stop = workload == "feinting_stop"
        spec = FeintingSpec(discipline=discipline,
                            r1=STOP_POOL if stop else 16, n_bo=N_BO)
        result = run_feinting(engine, spec,
                              stop_at_ps=STOP_AT_PS if stop else duration)
        engine.advance_to(duration)
        engine.finalize(duration)
        out["feinting"] = _digest(dataclasses.asdict(result))
    else:
        if workload == "idle":
            events = []
        elif workload.startswith("rr128_s"):
            pool = RoundRobinSpec(n=128, stride=int(workload[-1]),
                                  base_row=64)
            events = gen_round_robin(pool, GEOMETRY)
        else:
            events = gen_benign(GEOMETRY, seed=0, act_gap_ps=ns(200),
                                count=duration // ns(200))
        engine.run_trace(events, duration)
    out["log"] = _digest(log_to_csv_lines(engine.log))
    out["metrics"] = _digest(dataclasses.asdict(engine.metrics))
    return out


def all_cases() -> dict:
    return {f"{s}/{w}": run_case(s, w) for s in SCHEMES for w in WORKLOADS}


@pytest.mark.parametrize("mod", kernels(), ids=lambda m: m.KERNEL_BUILD)
def test_golden_digests_unchanged(mod, monkeypatch):
    monkeypatch.setattr(counters, "CounterCore", mod.CounterCore)
    monkeypatch.setattr(schemes, "TopQueue", mod.TopQueue)
    expected = json.loads(GOLDEN.read_text())
    assert all_cases() == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    counters.CounterCore = _kernel_py.CounterCore
    schemes.TopQueue = _kernel_py.TopQueue
    GOLDEN.write_text(json.dumps(all_cases(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
