"""Golden behaviour: engine-level digests pinned in `golden.json`.

Each case runs one scheme on one workload over a small bank with a short
refresh window and hashes what the run emits: the CSV event log, the
`EngineMetrics` fields (windows included) and, for the feinting wave,
the `FeintingResult`.  Each case also pins its count of log lines per
event kind, checked before the digests, so that a moved digest also says
which counts moved.  The `cli/*` entries pin the bytes of each CSV and
`manifest.yaml` that a few small CLI runs write.  A refactor or a speedup
must leave every digest unchanged; a change that moves one on purpose
says why in CHANGES.md.

Every case is also held against the analyzer's bound: its observed
hammered count, read from a `DamageObserver` (the feinting wave's own),
must not exceed `security.run_bound` of its scheme on the bank.

Both matrices run once per kernel build, the pure-Python one and the
compiled one `test_kernel.kernels()` builds, so they also check that the
two builds give the same behaviour.  Each case but the feinting wave,
which needs the log, runs once more with `collect_log=False`: its
metrics must match the pinned digest and its log must stay empty.

Rewrite the JSON with:  python tests/test_golden.py --update
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Tuple

import pytest
from click.testing import CliRunner

from hammersim import _kernel_py, counters, schemes
from hammersim.cli import EXIT_OK, main
from hammersim.attacks import (DamageObserver, RoundRobinSpec, gen_benign,
                               gen_round_robin, run_feinting)
from hammersim.dram import DeviceGeometry, RefreshConfig
from hammersim.engine import BankEngine, log_to_csv_lines
from hammersim.schemes import SCHEMES, preset
from hammersim.security import run_bound
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
# The event kinds whose log lines each case counts.
KINDS = ("ACT", "REF", "RFM", "ALERT", "PROACT")

# CLI runs: three closed-form commands on their defaults, the security
# table under each non-default recurrence setting, a domino on a 512-row
# bank whose 8 ms window laps it four times (PRAC alerts in the second
# window, PVAC stays silent), an alerting stride-3 simulate that writes
# its event log, and a two-scheme oracle grid on a 64-row bank.  A key
# names its command, then after a slash the variant of that command.
CLI_CASES = {
    "bw-bound": None,
    "csa-latency": None,
    "security-table": None,
    "security-table/carry": "security_table: {variant: carry}\n",
    "security-table/text": "security_table: {granularity: text}\n",
    "security-table/no-budget": "security_table: {setup_budget_ns: null}\n",
    "domino": """\
domino: {windows: 2, schemes: [PRAC, PVAC], n_bo: 8, n_mit: 1}
geometry: {rows_per_bank: 512, rows_per_dsa: 512}
refresh: {tREFW_ns: 8000000}
""",
    "simulate": """\
scheme: {name: PVAC, n_bo: 32, n_mit: 4}
geometry: {rows_per_bank: 4096}
refresh: {tREFW_ns: 1000000}
simulate: {kind: round_robin, n: 128, stride: 3, base_row: 100,
           write_events: true}
""",
    "oracle-check": """\
oracle_check: {schemes: [PVAC, PRAC], n_bos: [8], n_mits: [4], rows: 64}
""",
}


def _refresh(scheme: str) -> RefreshConfig:
    return RefreshConfig(tREFW=ms(1), tRFC=ns(preset(scheme, N_BO).tRFC_ns))


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(scheme: str, workload: str,
             collect_log: bool = True) -> Tuple[dict, int]:
    """Digests and per-kind event counts of one scheme × workload run on
    the live kernel classes, and the run's observed hammered count; with
    `collect_log` off, the log entry is the log itself, as a list, and
    no count is taken."""
    refresh = _refresh(scheme)
    engine = BankEngine(preset(scheme, N_BO), GEOMETRY, refresh,
                        collect_log=collect_log)
    duration = 2 * refresh.window_ps
    out = {}
    if workload.startswith("feinting"):
        stop = workload == "feinting_stop"
        result = run_feinting(engine, STOP_POOL if stop else 16,
                              stop_at_ps=STOP_AT_PS if stop else duration)
        engine.advance_to(duration)
        engine.finalize(duration)
        out["feinting"] = _digest(dataclasses.asdict(result))
        observed_hc = result.observed_hc
    else:
        observer = DamageObserver(GEOMETRY)
        engine.attach_observer(observer)
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
        observed_hc = observer.max_peak()
    if collect_log:
        out["counts"] = {kind: engine.log.kinds.count(kind) for kind in KINDS}
    out["log"] = (_digest(list(log_to_csv_lines(engine.log))) if collect_log
                  else list(engine.log))
    out["metrics"] = _digest(dataclasses.asdict(engine.metrics))
    return out, observed_hc


def all_cases() -> Tuple[dict, dict]:
    """Each case's pinned entry, and its observed hammered count."""
    runs = {f"{s}/{w}": run_case(s, w) for s in SCHEMES for w in WORKLOADS}
    return ({name: out for name, (out, _hc) in runs.items()},
            {name: hc for name, (_out, hc) in runs.items()})


def unlogged_cases() -> dict:
    return {f"{s}/{w}": run_case(s, w, collect_log=False)[0]
            for s in SCHEMES for w in WORKLOADS
            if not w.startswith("feinting")}


def run_cli_case(name: str, workdir: Path) -> dict:
    """SHA-256 of each CSV and manifest.yaml one CLI run writes."""
    stem = name.replace("/", "-")
    outdir = workdir / stem
    argv = [name.split("/")[0], "--out", str(outdir)]
    if CLI_CASES[name] is not None:
        cfg = workdir / f"{stem}.yaml"
        cfg.write_text(CLI_CASES[name])
        argv += ["--config", str(cfg)]
    result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code == EXIT_OK, result.output
    return file_digests(outdir)


def file_digests(out: Path) -> dict:
    """SHA-256 of each CSV and manifest under `out`, keyed by relative
    path, as the benchmark worker keys them."""
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.suffix == ".csv" or path.name == "manifest.yaml"}


def all_cli_cases(workdir: Path) -> dict:
    return {f"cli/{name}": run_cli_case(name, workdir) for name in CLI_CASES}


def _expected(cli: bool) -> dict:
    golden = json.loads(GOLDEN.read_text())
    return {k: v for k, v in golden.items() if k.startswith("cli/") == cli}


@pytest.mark.parametrize("mod", kernels(), ids=lambda m: m.KERNEL_BUILD)
def test_golden_digests_unchanged(mod, monkeypatch):
    monkeypatch.setattr(counters, "CounterCore", mod.CounterCore)
    monkeypatch.setattr(schemes, "TopQueue", mod.TopQueue)
    expected = _expected(cli=False)
    cases, observed = all_cases()
    above = []
    for name, hc in observed.items():
        bound = run_bound(preset(name.split("/")[0], N_BO), GEOMETRY)[0]
        print(f"golden {name}: observed HC {hc}, bound {bound}, "
              f"ratio {hc / bound:.3f}")
        if hc > bound:
            above.append(name)
    assert not above, f"observed HC above the analyzer's bound: {above}"
    assert ({name: case["counts"] for name, case in cases.items()}
            == {name: case["counts"] for name, case in expected.items()})
    assert cases == expected
    assert unlogged_cases() == {
        name: {"log": [], "metrics": digests["metrics"]}
        for name, digests in expected.items() if "feinting" not in digests}


@pytest.mark.parametrize("mod", kernels(), ids=lambda m: m.KERNEL_BUILD)
def test_cli_bytes_unchanged(mod, monkeypatch, tmp_path):
    monkeypatch.setattr(counters, "CounterCore", mod.CounterCore)
    monkeypatch.setattr(schemes, "TopQueue", mod.TopQueue)
    assert all_cli_cases(tmp_path) == _expected(cli=True)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    counters.CounterCore = _kernel_py.CounterCore
    schemes.TopQueue = _kernel_py.TopQueue
    with tempfile.TemporaryDirectory() as workdir:
        cases = {**all_cases()[0], **all_cli_cases(Path(workdir))}
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
