"""Runs one workload's CLI calls in this process and prints one JSON record.

Started by run.py in a fresh interpreter whose working directory holds
the workload's inputs.  Usage:

    python3 worker.py '<json: src, workload, seed, seconds, trace>'

Untraced repetitions run until the next one would pass `seconds` (at
least one); host-speed calibrations run before and after each.  With
trace set, one untraced repetition is followed by one traced repetition
and a short pass that records the kernel op stream.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import hostspeed
import layers
from workloads import WORKLOADS, cli_args

REPLAY_OPS = 200_000


def _digests() -> dict:
    out = {}
    for dirpath, _dirs, files in os.walk("out"):
        for name in files:
            if name.endswith(".csv") or name == "manifest.yaml":
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    key = os.path.relpath(path, "out").replace(os.sep, "/")
                    out[key] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


class EngineCounts:
    """Sums each BankEngine's simulated counts when the engine is freed."""

    FIELDS = ("acts", "refs", "rfms", "alerts", "proactive", "blocked_ps",
              "sim_ps", "log_events")

    def __init__(self) -> None:
        from hammersim.engine import BankEngine

        self.totals = dict.fromkeys(self.FIELDS, 0)
        totals = self.totals

        def __del__(engine) -> None:
            m = engine.metrics
            totals["acts"] += m.acts_issued
            totals["refs"] += m.refs_issued
            totals["rfms"] += m.rfms_issued
            totals["alerts"] += m.alerts_raised
            totals["proactive"] += m.proactive_count
            totals["blocked_ps"] += m.act_blocked_ps
            totals["sim_ps"] += max(m.end_time_ps, engine.now)
            totals["log_events"] += len(engine.log)

        BankEngine.__del__ = __del__

    def take(self) -> dict:
        gc.collect()
        out = dict(self.totals)
        for key in self.FIELDS:
            self.totals[key] = 0
        return out


def _invoke(cli, args) -> int:
    try:
        cli.main.main(args=args, prog_name="hammersim",
                      standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def run_rep(cli, workload, seed, counts: EngineCounts) -> dict:
    shutil.rmtree("out", ignore_errors=True)
    code = 0
    t0 = time.perf_counter()
    for call in workload.calls:
        code = _invoke(cli, cli_args(workload, call, seed))
        if code != 0:
            break
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "code": code, "counts": counts.take(),
            "digests": _digests()}


def _traced_rep(cli, workload, seed, counts) -> tuple:
    spans = layers.Spans()
    restore = layers.install_spans(
        spans, sorted({c.command for c in workload.calls}))
    try:
        rep = run_rep(cli, workload, seed, counts)
    finally:
        restore()
    return rep, spans


def _replay(cli, workload, seed, counts) -> dict:
    """Record the first REPLAY_OPS kernel ops, then replay them alone."""
    from hammersim import kernel

    recorder = layers.Recorder(REPLAY_OPS)
    restore = recorder.install()
    try:
        for call in workload.calls:
            try:
                _invoke(cli, cli_args(workload, call, seed))
            except layers.StreamFull:
                break
    finally:
        restore()
        counts.take()
    return layers.replay(recorder.objects, {
        "CounterCore": kernel.CounterCore, "TopQueue": kernel.TopQueue})


def main() -> None:
    opts = json.loads(sys.argv[1])
    import hammersim.cli as cli
    from hammersim.kernel import KERNEL_BUILD

    package = os.path.join(os.path.realpath(opts["src"]), "hammersim")
    found = os.path.dirname(os.path.realpath(cli.__file__))
    if found != package:
        sys.exit(f"imported hammersim from {found}, expected {package}")

    workload = WORKLOADS[opts["workload"]]
    seed, seconds, trace = opts["seed"], opts["seconds"], opts["trace"]
    counts = EngineCounts()
    reps = []
    start = time.perf_counter()
    before = hostspeed.calibrate()
    while True:
        rep = run_rep(cli, workload, seed, counts)
        after = hostspeed.calibrate()
        rep["calibration_s"] = (before + after) / 2
        before = after
        reps.append(rep)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if trace or elapsed + typical > seconds:
            break
    record = {"build": KERNEL_BUILD, "reps": reps,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        traced, spans = _traced_rep(cli, workload, seed, counts)
        record["traced"] = traced
        record["spans"] = spans.stats
        record["replay"] = _replay(cli, workload, seed, counts)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
