"""The benchmark's gated workloads reproduce their reference outputs,
and its kernel op-stream replay still follows the program.

`perfbench/reference.json` pins the SHA-256 of every CSV and manifest
that the `domino_refresh`, `trace_audited` and `oracle_grid` workloads
write.  Each case writes one workload's inputs with
`perfbench/workloads.py`, runs its CLI calls in-process in a temporary
directory and compares the digests, so a change to the CLI bytes fails
here and not only in the benchmark.  The replay case records the kernel
ops of small CLI runs with `perfbench/layers.py` and replays them, on
each kernel build, so a kernel call the recorder does not know fails
here and not only under `--trace 1`.  The spans case installs
`perfbench/layers.py`'s tracing on small CLI runs, so a runner the
tracer cannot reach by the names it wraps (the closure variable
`runner`, `cli`'s module globals) fails here too.  Nothing is written
under `perfbench/`, not even bytecode.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from hammersim import counters, schemes
from hammersim.cli import EXIT_OK, main
from test_golden import file_digests
from test_kernel import kernels

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GATED = ("domino_refresh", "trace_audited", "oracle_grid")


def load_perfbench(stem: str):
    """`perfbench/<stem>.py` as a module, imported once."""
    name = f"perfbench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, PERFBENCH / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        # Registered first: dataclasses look their module up by name.
        sys.modules[name] = module
        saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            spec.loader.exec_module(module)
        finally:
            sys.dont_write_bytecode = saved
    return sys.modules[name]


@pytest.mark.parametrize("name", GATED)
def test_gated_workload_matches_reference(name, tmp_path, monkeypatch):
    workloads = load_perfbench("workloads")
    workload = workloads.WORKLOADS[name]
    seed = workloads.DEFAULT_SEED
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    expected = reference[name][str(seed) if workload.uses_seed
                               else "any"]["digests"]
    workloads.write_inputs(workload, seed, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    for call in workload.calls:
        result = CliRunner().invoke(
            main, workloads.cli_args(workload, call, seed),
            catch_exceptions=False)
        assert result.exit_code == EXIT_OK, result.output
    assert file_digests(tmp_path / "out") == expected


# A 128-row domino that PRAC crosses in its last window and PVAC from
# the second on, so REF groups, RFM bursts and alerts all reach the
# kernel; and one oracle point, the closed-loop wave.
REPLAY_CALLS = (
    ("domino", "domino:\n  windows: 4\n  schemes: [PRAC, PVAC]\n"
     "  n_bo: 4\n  n_mit: 4\ngeometry:\n  rows_per_bank: 128\n"
     "  rows_per_dsa: 128\nrefresh:\n  tREFW_ns: 125000\n"),
    ("oracle-check", "oracle_check:\n  schemes: [PVAC]\n  n_bos: [8]\n"
     "  n_mits: [4]\n  rows: 64\n"),
)


@pytest.mark.parametrize("mod", kernels(), ids=lambda m: m.KERNEL_BUILD)
def test_kernel_op_stream_replays(mod, tmp_path, monkeypatch):
    # The recorder subclasses the build under test, so the compiled types
    # must take a Python `__init__` and empty `__slots__` as well.
    layers = load_perfbench("layers")
    monkeypatch.setattr(counters, "CounterCore", mod.CounterCore)
    monkeypatch.setattr(schemes, "TopQueue", mod.TopQueue)
    recorder = layers.Recorder(10_000_000)
    monkeypatch.chdir(tmp_path)
    restore = recorder.install()
    try:
        for command, yaml_text in REPLAY_CALLS:
            (tmp_path / "cfg.yaml").write_text(yaml_text)
            result = CliRunner().invoke(
                main, [command, "--config", "cfg.yaml", "--out", command],
                catch_exceptions=False)
            assert result.exit_code == EXIT_OK, result.output
    finally:
        restore()
    replayed = layers.replay(recorder.objects, {
        "CounterCore": mod.CounterCore, "TopQueue": mod.TopQueue})
    assert sum(ops for ops, _s, _ok in replayed.values()) == recorder.count
    for name, (ops, _seconds, matches) in replayed.items():
        assert ops > 0, name
        assert matches, name


# The replay runs, plus a simulate that reads a two-line trace file,
# writes its event log and audits it, and a one-cell security table: the
# runners' calls through `cli`'s module globals must reach the tracer.
SPAN_CALLS = REPLAY_CALLS + (
    ("simulate", "scheme: {name: PVAC, n_bo: 32, n_mit: 4}\n"
     "geometry: {rows_per_bank: 4096}\nrefresh: {tREFW_ns: 1000000}\n"
     "simulate: {trace: two.trace, write_events: true}\n"),
    ("security-table", "security_table: {max_hc: [32], schemes: [PVAC], "
     "n_mits: [4]}\n"),
)


def _bindings(layers, modules, classes) -> dict:
    """Every module global, class attribute and command runner that
    `install_spans` may rebind, keyed by where it lives."""
    from hammersim import cli

    found = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    found.update({(c.__qualname__, k): v for c in classes
                  for k, v in vars(c).items()})
    found.update({("runner", name): layers._runner_cell(cli, name)
                  .cell_contents for name in cli.main.commands})
    return found


def test_spans_wrap_every_command_and_restore(tmp_path, monkeypatch):
    layers = load_perfbench("layers")
    from hammersim import attacks, cli, counters, engine, schemes, security

    modules = (attacks, cli, counters, engine, schemes, security)
    classes = (counters.CounterBank, schemes.SchemeState, engine.BankEngine,
               attacks.DamageObserver)
    before = _bindings(layers, modules, classes)
    spans = layers.Spans()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.trace").write_text("ASAP,0,ACT,10\n7000,0,ACT,44\n")
    restore = layers.install_spans(spans, main.commands)
    try:
        for command, yaml_text in SPAN_CALLS:
            (tmp_path / "cfg.yaml").write_text(yaml_text)
            result = CliRunner().invoke(
                main, [command, "--config", "cfg.yaml", "--out", command],
                catch_exceptions=False)
            assert result.exit_code == EXIT_OK, result.output
    finally:
        restore()
    calls = {name: stat[0] for name, stat in spans.stats.items()}
    assert calls["cli"] == len(SPAN_CALLS)
    for name in ("engine.audit_log", "engine.log_to_csv_lines",
                 "attacks.lines_to_trace", "attacks.run_feinting",
                 "security.brute_force_oracle", "security.security_table"):
        assert calls[name] == 1, name
    after = _bindings(layers, modules, classes)
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert not moved
