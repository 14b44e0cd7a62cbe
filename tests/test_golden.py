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

Say where another tree's outputs move from this one's with
python tests/test_golden.py --diff <other src>: it runs every engine case
and CLI case under each tree, each tree in its own interpreter, and
prints, for each engine case that moved, its first differing event
(index and both lines) and the per-kind count deltas, and for each CLI
file that moved, its first differing line.  Lines starting `-` are this
tree's, `+` the other's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import pytest
from click.testing import CliRunner

import hammersim
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


def run_engine(scheme: str, workload: str, collect_log: bool = True
               ) -> Tuple[BankEngine, Optional[dict], int]:
    """One scheme × workload run on the live kernel classes: the engine
    after it, the feinting wave's result as a dict (None for a trace
    run) and the run's observed hammered count."""
    refresh = _refresh(scheme)
    engine = BankEngine(preset(scheme, N_BO), GEOMETRY, refresh,
                        collect_log=collect_log)
    duration = 2 * refresh.window_ps
    wave = None
    if workload.startswith("feinting"):
        stop = workload == "feinting_stop"
        result = run_feinting(engine, STOP_POOL if stop else 16,
                              stop_at_ps=STOP_AT_PS if stop else duration)
        engine.advance_to(duration)
        engine.finalize(duration)
        wave = dataclasses.asdict(result)
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
    return engine, wave, observed_hc


def run_case(scheme: str, workload: str,
             collect_log: bool = True) -> Tuple[dict, int]:
    """Digests and per-kind event counts of one scheme × workload run,
    and the run's observed hammered count; with `collect_log` off, the
    log entry is the log itself, as a list, and no count is taken."""
    engine, wave, observed_hc = run_engine(scheme, workload, collect_log)
    out = {}
    if wave is not None:
        out["feinting"] = _digest(wave)
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


# -- --diff: where a moved pin moved ------------------------------------

def use_python_kernel() -> None:
    """Run the cases on the pure-Python kernel build, as the pins are."""
    counters.CounterCore = _kernel_py.CounterCore
    schemes.TopQueue = _kernel_py.TopQueue


def first_difference(a: Sequence[str], b: Sequence[str]
                     ) -> Optional[Tuple[int, str, str]]:
    """The index of the first line where `a` and `b` differ and both
    lines, `<end>` past the last line of either; None if they agree."""
    for i, (x, y) in enumerate(zip_longest(a, b, fillvalue="<end>")):
        if x != y:
            return i, x, y
    return None


def log_report(name: str, a: Sequence[str], b: Sequence[str]) -> List[str]:
    """What moved between two CSV event logs of one engine case, header
    first in each: the first differing event, and per event kind how
    many more lines `b` holds than `a`."""
    moved = first_difference(a[1:], b[1:])
    if moved is None:
        return []
    index, line_a, line_b = moved
    count_a, count_b = (Counter(line.split(",")[2] for line in log[1:])
                        for log in (a, b))
    deltas = ", ".join(f"{kind} {count_b[kind] - count_a[kind]:+d}"
                       for kind in sorted(count_a | count_b)
                       if count_b[kind] != count_a[kind])
    return [f"{name}: event {index} differs", f"  - {line_a}",
            f"  + {line_b}", f"  counts: {deltas or 'unchanged'}"]


def file_report(name: str, a: Sequence[str], b: Sequence[str]) -> List[str]:
    """The first differing line, 1-based, of two versions of a file."""
    moved = first_difference(a, b)
    if moved is None:
        return []
    index, line_a, line_b = moved
    return [f"{name}: line {index + 1} differs", f"  - {line_a}",
            f"  + {line_b}"]


def dump(out: Path) -> None:
    """Run every case on the Python kernel and write what it emits under
    `out`: each engine case's event log as `<scheme>-<workload>.csv`,
    its metrics and wave digests in `cases.json` (with the path of the
    package that ran), and the CLI cases' outputs under `cli/`."""
    use_python_kernel()
    (out / "cli").mkdir(parents=True)
    cases = {}
    for s in SCHEMES:
        for w in WORKLOADS:
            engine, wave, _hc = run_engine(s, w)
            lines = log_to_csv_lines(engine.log)
            (out / f"{s}-{w}.csv").write_text("\n".join(lines) + "\n")
            cases[f"{s}/{w}"] = {
                "metrics": _digest(dataclasses.asdict(engine.metrics)),
                "feinting": wave and _digest(wave)}
    all_cli_cases(out / "cli")
    (out / "cases.json").write_text(json.dumps(
        {"package": hammersim.__file__, "cases": cases}))


def diff_dumps(a: Path, b: Path) -> List[str]:
    """The report on two `dump` directories, engine cases first."""
    cases_a, cases_b = (json.loads((out / "cases.json").read_text())["cases"]
                        for out in (a, b))
    report: List[str] = []
    for name in cases_a:
        stem = name.replace("/", "-")
        report += log_report(name,
                             *((out / f"{stem}.csv").read_text().splitlines()
                               for out in (a, b)))
        report += [f"{name}: {key} digest moved" for key in cases_a[name]
                   if cases_a[name][key] != cases_b[name][key]]
    files = sorted({path.relative_to(out / "cli").as_posix()
                    for out in (a, b) for path in (out / "cli").rglob("*")
                    if path.suffix == ".csv" or path.name == "manifest.yaml"})
    for name in files:
        report += file_report(f"cli/{name}", *(
            (out / "cli" / name).read_text().splitlines()
            if (out / "cli" / name).exists() else [] for out in (a, b)))
    return report


def diff_trees(other_src: Path) -> List[str]:
    """Dump the cases under this tree's `src` and under `other_src`, each
    in its own interpreter at once, and report what moved."""
    trees = (Path(__file__).resolve().parent.parent / "src",
             other_src.resolve())
    with tempfile.TemporaryDirectory() as workdir:
        outs = [Path(workdir) / side for side in ("this", "other")]
        runs = [subprocess.Popen(
            [sys.executable, __file__, "--dump", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src)))
            for out, src in zip(outs, trees)]
        if [run.wait() for run in runs] != [0, 0]:
            sys.exit("a tree's golden run failed")
        for out, src in zip(outs, trees):
            package = json.loads((out / "cases.json").read_text())["package"]
            if Path(package).resolve().parent != src / "hammersim":
                sys.exit(f"ran the hammersim in {package}, not in {src}")
        return diff_dumps(*outs)


def test_diff_report_gives_the_first_moved_event_and_count_deltas():
    header = "time_ns,bank,event,row,counter_after"
    before = [header, "0,0,REF,0,1", "48,0,ACT,5,1", "7800,0,REF,4,2"]
    after = [header, "0,0,REF,0,1", "48,0,ACT,5,1", "7800,0,PROACT,6,0",
             "7800,0,REF,4,3", "15600,0,REF,8,1"]
    assert log_report("PVAC/idle", before, after) == [
        "PVAC/idle: event 2 differs", "  - 7800,0,REF,4,2",
        "  + 7800,0,PROACT,6,0", "  counts: PROACT +1, REF +1"]
    assert log_report("PVAC/idle", before, before[:2]) == [
        "PVAC/idle: event 1 differs", "  - 48,0,ACT,5,1", "  + <end>",
        "  counts: ACT -1, REF -1"]
    assert log_report("PVAC/idle", after, list(after)) == []


def test_diff_of_two_dumps_reports_engine_cases_then_cli_lines(tmp_path):
    header = "time_ns,bank,event,row,counter_after"
    sides = {"a": ("0,0,REF,0,1", "m1", "seed: 0"),
             "b": ("0,0,REF,0,2", "m2", "seed: 1")}
    for side, (event, metrics, manifest) in sides.items():
        out = tmp_path / side
        (out / "cli" / "simulate").mkdir(parents=True)
        (out / "PVAC-idle.csv").write_text(f"{header}\n{event}\n")
        (out / "cases.json").write_text(json.dumps({"package": "", "cases": {
            "PVAC/idle": {"metrics": metrics, "feinting": None}}}))
        (out / "cli" / "simulate" / "manifest.yaml").write_text(
            f"scenario: simulate\n{manifest}\n")
    (tmp_path / "a" / "cli" / "simulate" / "summary.csv").write_text("w\n")
    assert diff_dumps(tmp_path / "a", tmp_path / "b") == [
        "PVAC/idle: event 0 differs", "  - 0,0,REF,0,1", "  + 0,0,REF,0,2",
        "  counts: unchanged", "PVAC/idle: metrics digest moved",
        "cli/simulate/manifest.yaml: line 2 differs", "  - seed: 0",
        "  + seed: 1", "cli/simulate/summary.csv: line 1 differs",
        "  - w", "  + <end>"]


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--diff"] and len(args) == 2:
        report = diff_trees(Path(args[1]))
        print("\n".join(report) if report else "no golden output moved")
    elif args[:1] == ["--dump"] and len(args) == 2:
        dump(Path(args[1]))
    elif args == ["--update"]:
        use_python_kernel()
        with tempfile.TemporaryDirectory() as workdir:
            cases = {**all_cases()[0], **all_cli_cases(Path(workdir))}
        GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        sys.exit("usage: python tests/test_golden.py --update | "
                 "--diff <other src>")
