"""The benchmark's gated workloads reproduce their reference outputs.

`perfbench/reference.json` pins the SHA-256 of every CSV and manifest
that the `domino_refresh`, `trace_audited` and `oracle_grid` workloads
write.  Each case writes one workload's inputs with
`perfbench/workloads.py`, runs its CLI calls in-process in a temporary
directory and compares the digests, so a change to the CLI bytes fails
here and not only in the benchmark.  Nothing is written under
`perfbench/`, not even bytecode.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from hammersim.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GATED = ("domino_refresh", "trace_audited", "oracle_grid")


def load_workloads():
    """`perfbench/workloads.py` as a module, imported once."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # Registered first: dataclasses look their module up by name.
        sys.modules[name] = module
        saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            spec.loader.exec_module(module)
        finally:
            sys.dont_write_bytecode = saved
    return sys.modules[name]


def output_digests(out: Path) -> dict:
    """SHA-256 of each CSV and manifest under `out`, as the worker keys
    them."""
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.suffix == ".csv" or path.name == "manifest.yaml"}


@pytest.mark.parametrize("name", GATED)
def test_gated_workload_matches_reference(name, tmp_path, monkeypatch):
    workloads = load_workloads()
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
    assert output_digests(tmp_path / "out") == expected
