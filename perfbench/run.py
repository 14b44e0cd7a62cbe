"""Host-time benchmark of the hammersim CLI scenarios.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--build package|compiled]

Run from the repository root.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones (wall_s, cmds_per_s,
setup_s, peak_rss_mb); with `--trace 1` they are the per-layer ones from
a traced repetition.  Times are scaled to a reference host speed (see
hostspeed.py).  The line before it labels the kernel build and prints
the output digests and the raw times, so two commits can be compared.

`--build compiled` is a side report: it compiles `src/hammersim/_kernel.c`
into `perfbench/.build/` and runs the same workload on that build, or
prints `"unavailable"` when it cannot.  `--update-reference` rewrites
reference.json from one repetition per workload at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import sysconfig

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from hostspeed import scaled  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 7
SETUP_PROBE = ("import time; t0 = time.perf_counter(); import hammersim.cli; "
               "t = time.perf_counter() - t0; import hostspeed; "
               "print(t, hostspeed.calibrate())")
COUNT_KEYS = ("acts", "refs", "rfms", "alerts", "proactive")


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=src)


def measure_setup(src: str, workdir: str) -> list:
    """Import time of hammersim.cli in fresh interpreters, each scaled by
    a calibration taken right after it; the first, which may compile
    bytecode, is not kept."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=workdir,
                             env=_env(src + os.pathsep + HERE),
                             capture_output=True, text=True, timeout=60,
                             check=True)
        seconds, calibration = out.stdout.split()[-2:]
        samples.append(scaled(float(seconds), float(calibration)))
    return samples[1:]


def run_worker(src: str, workdir: str, name: str, seed: int, seconds: int,
               trace: bool) -> dict:
    opts = {"src": src, "workload": name, "seed": seed, "seconds": seconds,
            "trace": trace}
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(opts)],
        cwd=workdir, env=_env(src), stdout=subprocess.PIPE, text=True,
        timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def build_compiled(root: str) -> str:
    """Copy the package into perfbench/.build and compile _kernel.c there.

    Returns the directory to put on PYTHONPATH; raises RuntimeError when
    the build is not possible."""
    source = os.path.join(root, "src", "hammersim")
    kernel_c = os.path.join(source, "_kernel.c")
    if not os.path.exists(kernel_c):
        raise RuntimeError("src/hammersim/_kernel.c is missing")
    build = os.path.join(HERE, ".build", "compiled")
    package = os.path.join(build, "hammersim")
    shutil.rmtree(build, ignore_errors=True)
    shutil.copytree(source, package,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    target = os.path.join(package,
                          "_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = ["gcc", "-O2", "-shared", "-fPIC",
           "-I" + sysconfig.get_paths()["include"], kernel_c, "-o", target]
    env = dict(os.environ, TMPDIR=build)
    try:
        subprocess.run(cmd, env=env, capture_output=True, check=True,
                       timeout=300)
    except (OSError, subprocess.SubprocessError) as exc:
        raise RuntimeError(f"gcc failed: {exc}") from exc
    return build


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(reference: dict, workload, seed: int):
    key = str(seed) if workload.uses_seed else "any"
    return reference.get(workload.name, {}).get(key)


def rep_failed(rep: dict, ref, first: dict) -> bool:
    """A repetition fails on a nonzero exit, on digests that differ from
    the reference, or on simulated counts that differ from the reference
    or from the first repetition."""
    if rep["code"] != 0:
        return True
    if ref is None:
        return rep["counts"] != first["counts"]
    return rep["counts"] != ref["counts"] or rep["digests"] != ref["digests"]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(record: dict, setup: list) -> dict:
    wall = statistics.median(scaled(r["wall_s"], r["calibration_s"])
                             for r in record["reps"])
    counts = record["reps"][0]["counts"]
    cmds = counts["acts"] + counts["refs"] + counts["rfms"]
    return {
        "wall_s": _metric(wall, "s"),
        "cmds_per_s": _metric(cmds / wall, "1/s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(record["peak_rss_mb"], "MB"),
    }


def per_layer(record: dict, failed: int, attempted: int) -> dict:
    import layers

    stats = record["spans"]
    metrics = {}
    for name in layers.SPANS:
        calls, _hits, self_s = stats[name]
        metrics[f"{name}.self_s"] = _metric(self_s, "s")
        metrics[f"{name}.calls"] = _metric(calls, "count")
    for name, key in (("kernel.TopQueue.update", "accept_ratio"),
                      ("schemes.SchemeState.take_pending_alert",
                       "fire_ratio")):
        calls, hits, _ = stats[name]
        metrics[f"{name}.{key}"] = _metric(hits / calls if calls else 0.0,
                                           "ratio")
    traced = record["traced"]
    counts = traced["counts"]
    for key in COUNT_KEYS:
        metrics[f"engine.sim.{key}"] = _metric(counts[key], "count")
    metrics["engine.sim.blocked_frac"] = _metric(
        counts["blocked_ps"] / counts["sim_ps"] if counts["sim_ps"] else 0.0,
        "ratio")
    metrics["engine.log_events"] = _metric(counts["log_events"], "count")
    untraced = statistics.median(r["wall_s"] for r in record["reps"])
    metrics["trace.overhead_frac"] = _metric(
        (traced["wall_s"] - untraced) / untraced, "ratio")
    metrics["unattributed_s"] = _metric(
        traced["wall_s"] - sum(s[2] for s in stats.values()), "s")
    for cls, (ops, secs, _same) in record["replay"].items():
        metrics[f"kernel.{cls}.replay_ops_per_s"] = _metric(
            ops / secs if secs else 0.0, "1/s")
    metrics["failed_frac"] = _metric(failed / attempted, "ratio")
    return metrics


def update_reference(src: str, root_work: str) -> None:
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        seed = workloads.DEFAULT_SEED
        workdir = os.path.join(root_work, name)
        os.makedirs(workdir)
        workloads.write_inputs(workload, seed, workdir)
        rep = run_worker(src, workdir, name, seed, 0, False)["reps"][0]
        if rep["code"] != 0:
            sys.exit(f"{name}: exit code {rep['code']}")
        key = str(seed) if workload.uses_seed else "any"
        reference[name] = {key: {"counts": rep["counts"],
                                 "digests": rep["digests"]}}
        print(f"{name}: {rep['wall_s']:.3f} s", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build", choices=("package", "compiled"),
                        default="package")
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hammersim", "cli.py")):
        print(f"no hammersim sources under {src}", file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work)
    try:
        if args.update_reference:
            update_reference(src, work)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.build == "compiled":
            try:
                src = build_compiled(root)
            except RuntimeError as exc:
                print(json.dumps({"kernel_build": "unavailable",
                                  "reason": str(exc)}))
                return 0
        return bench(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, src: str, work: str) -> int:
    workload = workloads.WORKLOADS[args.workload]
    workloads.write_inputs(workload, args.seed, work)
    setup = [] if args.trace else measure_setup(src, work)
    record = run_worker(src, work, workload.name, args.seed, args.seconds,
                        bool(args.trace))
    reps = record["reps"]
    ref = reference_for(load_reference(), workload, args.seed)
    failed = sum(rep_failed(rep, ref, reps[0]) for rep in reps)
    attempted = len(reps)
    if args.trace:
        # The traced repetition also fails if the replayed kernel ops do
        # not return what the program saw.
        replay_ok = all(same for _o, _s, same in record["replay"].values())
        failed += rep_failed(record["traced"], ref, reps[0]) or not replay_ok
        attempted += 1
    print(json.dumps({
        "kernel_build": record["build"], "workload": workload.name,
        "seed": args.seed, "seed_used": workload.uses_seed,
        "reference": ref is not None, "digests": reps[0]["digests"],
        "raw_wall_s": [rep["wall_s"] for rep in reps],
        "calibration_s": [rep["calibration_s"] for rep in reps]}))
    metrics = (per_layer(record, failed, attempted) if args.trace
               else end_to_end(record, setup))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
