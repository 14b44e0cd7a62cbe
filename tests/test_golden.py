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
must not exceed `security.run_bound` of its scheme on the bank.  Every
PVAC case also holds the counters against that observer: at the end of
the run each row's counter is its damage, capped.

Both matrices run once per kernel build, the pure-Python one and the
compiled one `test_kernel.compiled_kernel()` builds, so they also check
that the two builds give the same behaviour.  Each case runs once more
on the least log it needs: a trace case with `collect_log=False`, whose
log must stay empty and count nothing, and a feinting case with only the
`RFM` and `PROACT` lines the wave reads (`attacks.WAVE_LOG`), whose log
must keep just those lines, as many as the pinned counts give, and
count every event the pinned counts sum to.  Either way the metrics and
wave digests must match the pins.

Rewrite the JSON with:  python tests/test_golden.py --update

Say where another tree's outputs move from this one's with
python tests/test_golden.py --diff <other src>: it runs every engine case
and CLI case under each tree, each tree in its own interpreter, and
prints each case a tree cannot run (an older tree may lack a name a
case imports) with its error, then, for each engine case that moved,
its first differing event (index and both lines) and the per-kind count
deltas, and for each CLI file that moved, its first differing line.
Lines starting `-` are this tree's, `+` the other's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

import pytest
from click.testing import CliRunner

SRC = Path(__file__).resolve().parent.parent / "src"
if __name__ == "__main__" and importlib.util.find_spec("hammersim") is None:
    sys.path.append(str(SRC))  # run from a checkout with no install

# `--diff` runs this file under another tree's `hammersim`, so the names
# imported here are only those every tree has had since the first
# commit; each function imports the rest it needs, and `dump` reports a
# case whose names or run the other tree lacks instead of failing.
import hammersim
from hammersim.dram import DeviceGeometry
from hammersim.units import us

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


def _refresh(scheme: str):
    from hammersim.dram import RefreshConfig
    from hammersim.schemes import preset
    from hammersim.units import ms, ns
    return RefreshConfig(tREFW=ms(1), tRFC=ns(preset(scheme, N_BO).tRFC_ns))


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_engine(scheme: str, workload: str,
               collect_log: Union[bool, Iterable[str]] = True
               ) -> Tuple[Any, Optional[dict], int]:
    """One scheme × workload run on the live kernel classes: the engine
    after it, the feinting wave's result as a dict (None for a trace
    run) and the run's observed hammered count.  The run's
    `DamageObserver` stays attached to the engine's scheme."""
    from hammersim.attacks import (DamageObserver, RoundRobinSpec,
                                   gen_round_robin, run_feinting)
    from hammersim.engine import BankEngine
    from hammersim.schemes import preset
    from hammersim.units import ns
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
            from hammersim.attacks import gen_benign
            events = gen_benign(GEOMETRY, seed=0, act_gap_ps=ns(200),
                                count=duration // ns(200))
        engine.run_trace(events, duration)
        observed_hc = observer.max_peak()
    return engine, wave, observed_hc


def run_case(scheme: str, workload: str) -> Tuple[dict, int]:
    """Digests and per-kind event counts of one scheme × workload run,
    and the run's observed hammered count."""
    from hammersim.engine import log_to_csv_lines
    engine, wave, observed_hc = run_engine(scheme, workload)
    out = {}
    if wave is not None:
        out["feinting"] = _digest(wave)
    out["counts"] = {kind: engine.log.kinds.count(kind) for kind in KINDS}
    out["log"] = _digest(list(log_to_csv_lines(engine.log)))
    out["metrics"] = _digest(dataclasses.asdict(engine.metrics))
    return out, observed_hc


def all_cases() -> Tuple[dict, dict]:
    """Each case's pinned entry, and its observed hammered count."""
    from hammersim.schemes import SCHEMES
    runs = {f"{s}/{w}": run_case(s, w) for s in SCHEMES for w in WORKLOADS}
    return ({name: out for name, (out, _hc) in runs.items()},
            {name: hc for name, (_out, hc) in runs.items()})


def least_log_cases(expected: dict) -> Tuple[dict, dict]:
    """Each engine case rerun on the least log it needs, none for a trace
    run and `attacks.WAVE_LOG` for the feinting wave, and what the rerun
    must give by the case's pins: the metrics and wave digests, the
    events its log counted and the per-kind count of the lines it kept."""
    # Imported here: `--diff` runs this file on trees that lack it.
    from hammersim.attacks import WAVE_LOG
    got, want = {}, {}
    for name, pinned in expected.items():
        feinting = "feinting" in pinned
        engine, wave, _hc = run_engine(*name.split("/"),
                                       WAVE_LOG if feinting else False)
        got[name] = {"metrics": _digest(dataclasses.asdict(engine.metrics)),
                     "logged": len(engine.log),
                     "kept": Counter(engine.log.kinds)}
        want[name] = {"metrics": pinned["metrics"], "logged": 0,
                      "kept": Counter()}
        if feinting:
            counts = pinned["counts"]
            got[name]["feinting"] = _digest(wave)
            # `+` drops a kind the case logs no line of.
            want[name].update(
                feinting=pinned["feinting"], logged=sum(counts.values()),
                kept=+Counter({kind: counts[kind] for kind in WAVE_LOG}))
    return got, want


def run_cli_case(name: str, workdir: Path) -> dict:
    """SHA-256 of each CSV and manifest.yaml one CLI run writes."""
    from hammersim.cli import EXIT_OK, main
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


def use_kernel(build: str, set_attr=setattr) -> None:
    """Run the cases on kernel `build`: "python", as the pins are, or
    "compiled".  `test_kernel` is imported only for the compiled build:
    importing it compiles `_kernel.c`, which the script's own runs, all
    on the Python build, do not need."""
    from hammersim import _kernel_py, counters, schemes
    if build == "python":
        mod = _kernel_py
    else:
        from test_kernel import compiled_kernel
        mod = compiled_kernel()
    set_attr(counters, "CounterCore", mod.CounterCore)
    set_attr(schemes, "TopQueue", mod.TopQueue)


@pytest.mark.parametrize("build", ["python", "compiled"])
def test_golden_digests_unchanged(build, monkeypatch):
    from hammersim.schemes import preset
    from hammersim.security import run_bound
    use_kernel(build, monkeypatch.setattr)
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
    got, want = least_log_cases(expected)
    assert got == want


@pytest.mark.parametrize("build", ["python", "compiled"])
def test_cli_bytes_unchanged(build, monkeypatch, tmp_path):
    use_kernel(build, monkeypatch.setattr)
    assert all_cli_cases(tmp_path) == _expected(cli=True)


@pytest.mark.parametrize("build", ["python", "compiled"])
def test_pvac_counters_are_the_capped_damage(build, monkeypatch):
    # PVAC counts each row's disturbance since its last activation, as
    # the observer does: at the end of every PVAC case each row's counter
    # is its damage, saturated at the counter cap.
    use_kernel(build, monkeypatch.setattr)
    cap, off = GEOMETRY.counter_cap, {}
    for workload in WORKLOADS:
        engine, _wave, _hc = run_engine("PVAC", workload)
        # The feinting wave attaches its own observer.
        damage = engine.scheme.activation_observer.__self__.damage
        counts = engine.scheme.bank.core.snapshot()
        rows = [row for row, (count, d) in enumerate(zip(counts, damage))
                if count != min(d, cap)]
        if rows:
            off[workload] = (rows[0], counts[rows[0]], damage[rows[0]])
    assert not off, f"(first row, counter, damage) off: {off}"


# -- --diff: where a moved pin moved ------------------------------------

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
    """Run every pinned case on the Python kernel and write what it emits
    under `out`: each engine case's event log as
    `<scheme>-<workload>.csv`, its metrics and wave digests in
    `cases.json` (with the path of the package that ran), and the CLI
    cases' outputs under `cli/`.  A case this tree cannot run, for a
    name it lacks or an error in its run, goes into `cases.json`'s
    `failed` with its error, and the other cases still run."""
    use_kernel("python")
    (out / "cli").mkdir(parents=True)
    cases, failed = {}, {}
    for name in _expected(cli=False):
        try:
            from hammersim.engine import log_to_csv_lines
            engine, wave, _hc = run_engine(*name.split("/"))
            lines = list(log_to_csv_lines(engine.log))
        except Exception as exc:
            failed[name] = f"{type(exc).__name__}: {exc}"
            continue
        (out / f"{name.replace('/', '-')}.csv").write_text(
            "\n".join(lines) + "\n")
        cases[name] = {"metrics": _digest(dataclasses.asdict(engine.metrics)),
                       "feinting": wave and _digest(wave)}
    for name in CLI_CASES:
        try:
            run_cli_case(name, out / "cli")
        except Exception as exc:
            failed[f"cli/{name}"] = f"{type(exc).__name__}: {exc}"
    (out / "cases.json").write_text(json.dumps(
        {"package": hammersim.__file__, "cases": cases, "failed": failed}))


def diff_dumps(a: Path, b: Path) -> List[str]:
    """The report on two `dump` directories: the cases either tree could
    not run, then the engine cases that moved, then the CLI files."""
    dumps = [json.loads((out / "cases.json").read_text()) for out in (a, b)]
    report = [f"{name}: {side} tree cannot run it: {error}"
              for side, dumped in zip(("this", "the other"), dumps)
              for name, error in dumped["failed"].items()]
    failed = {name for dumped in dumps for name in dumped["failed"]}
    cases_a, cases_b = (dumped["cases"] for dumped in dumps)
    for name in cases_a:
        if name in failed:
            continue
        stem = name.replace("/", "-")
        report += log_report(name,
                             *((out / f"{stem}.csv").read_text().splitlines()
                               for out in (a, b)))
        report += [f"{name}: {key} digest moved" for key in cases_a[name]
                   if cases_a[name][key] != cases_b[name][key]]
    skipped = tuple(name[len("cli/"):].replace("/", "-") + "/"
                    for name in failed if name.startswith("cli/"))
    files = sorted({path.relative_to(out / "cli").as_posix()
                    for out in (a, b) for path in (out / "cli").rglob("*")
                    if path.suffix == ".csv" or path.name == "manifest.yaml"})
    for name in files:
        if name.startswith(skipped):
            continue
        report += file_report(f"cli/{name}", *(
            (out / "cli" / name).read_text().splitlines()
            if (out / "cli" / name).exists() else [] for out in (a, b)))
    return report


def diff_trees(other_src: Path) -> List[str]:
    """Dump the cases under this tree's `src` and under `other_src`, each
    in its own interpreter at once, and report what moved."""
    trees = (SRC, other_src.resolve())
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


def test_script_runs_from_a_checkout_with_no_install(tmp_path):
    # pytest puts `src` on the path; the bare script must find it too.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, __file__], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert run.stderr.startswith("usage: python tests/test_golden.py"), \
        run.stderr


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
    sides = {"a": ("0,0,REF,0,1", "seed: 0"),
             "b": ("0,0,REF,0,2", "seed: 1")}
    for side, (event, manifest) in sides.items():
        out = tmp_path / side
        (out / "cli" / "simulate").mkdir(parents=True)
        (out / "cli" / "domino").mkdir(parents=True)
        (out / "PVAC-idle.csv").write_text(f"{header}\n{event}\n")
        (out / "cli" / "simulate" / "manifest.yaml").write_text(
            f"scenario: simulate\n{manifest}\n")
    (tmp_path / "a" / "cli" / "simulate" / "summary.csv").write_text("w\n")
    # A case the other tree cannot run is named once, and neither its
    # engine log nor its CLI files are compared.
    (tmp_path / "a" / "PRAC-idle.csv").write_text(f"{header}\n")
    (tmp_path / "a" / "cli" / "domino" / "domino.csv").write_text("x\n")
    for side, failed in (("a", {}), ("b", {
            "PRAC/idle": "ImportError: no gen_benign",
            "cli/domino": "ImportError: no gen_benign"})):
        (tmp_path / side / "cases.json").write_text(json.dumps({
            "package": "", "failed": failed, "cases": {
                "PVAC/idle": {"metrics": f"m-{side}", "feinting": None},
                **({"PRAC/idle": {"metrics": "m", "feinting": None}}
                   if side == "a" else {})}}))
    assert diff_dumps(tmp_path / "a", tmp_path / "b") == [
        "PRAC/idle: the other tree cannot run it: ImportError: no gen_benign",
        "cli/domino: the other tree cannot run it: ImportError: no gen_benign",
        "PVAC/idle: event 0 differs", "  - 0,0,REF,0,1", "  + 0,0,REF,0,2",
        "  counts: unchanged", "PVAC/idle: metrics digest moved",
        "cli/simulate/manifest.yaml: line 2 differs", "  - seed: 0",
        "  + seed: 1", "cli/simulate/summary.csv: line 1 differs",
        "  - w", "  + <end>"]


def test_diff_reports_the_cases_an_older_tree_cannot_run(tmp_path):
    # A tree that lacks a name this file imports: here `gen_benign`,
    # which `hammersim.cli` imports too.  `--diff` names every case it
    # cannot run and compares the rest.
    from hammersim.schemes import SCHEMES
    other = tmp_path / "src"
    shutil.copytree(SRC, other, ignore=shutil.ignore_patterns(
        "__pycache__", "*.so", "*.pyd"))
    attacks = other / "hammersim" / "attacks.py"
    attacks.write_text(attacks.read_text().replace(
        "def gen_benign(", "def _gen_benign_not_yet("))
    run = subprocess.run([sys.executable, __file__, "--diff", str(other)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = run.stdout.splitlines()
    cannot = " the other tree cannot run it: ImportError: cannot import name "
    assert all(cannot in line for line in report), report
    engine_cases = {line.split(":")[0] for line in report
                    if not line.startswith("cli/")}
    assert engine_cases == {f"{scheme}/benign0" for scheme in SCHEMES}


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--diff"] and len(args) == 2:
        report = diff_trees(Path(args[1]))
        print("\n".join(report) if report else "no golden output moved")
    elif args[:1] == ["--dump"] and len(args) == 2:
        dump(Path(args[1]))
    elif args == ["--update"]:
        use_kernel("python")
        with tempfile.TemporaryDirectory() as workdir:
            cases = {**all_cases()[0], **all_cli_cases(Path(workdir))}
        GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        sys.exit("usage: python tests/test_golden.py --update | "
                 "--diff <other src>")
