"""Every import in the package is used, every module constant is read,
every exported name exists, and the CLI loads numpy and the process pool
only when a command needs them.

No linter ships with the package, so the stdlib `ast` stands in for one.
`__init__.py` and `kernel.py` exist to re-export names, and so does an
`import X as Y` alias; they are exempt from the unused-import check.
"""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import hammersim
from test_golden import CLI_CASES, GEOMETRY, GOLDEN, N_BO, _digest, \
    file_digests

SRC = Path(hammersim.__file__).parent
REEXPORTERS = {"__init__.py", "kernel.py"}
MODULES = sorted(p for p in SRC.glob("*.py") if p.name not in REEXPORTERS)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname is None:
                    imported[alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_flags_an_unused_import():
    assert unused_imports("from typing import List, Tuple\nx: List\n") == \
        [(1, "Tuple")]


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")
# Every source a constant may be read from: the package and its tests.
READERS = sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")])


def module_constants(source: str):
    """The UPPER_CASE names a module assigns at its top level."""
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        yield from (t.id for t in targets
                    if isinstance(t, ast.Name) and CONSTANT.match(t.id))


def names_read(source: str):
    """Every name a source loads, reads as an attribute, or renames with
    `import X as Y` (as `counters` renames the kernel's codes)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias) and node.asname is not None:
            read.add(node.name)
    return read


def dead_constants(defining, reading):
    """The constants of the sources `defining` that no source of
    `reading` reads, sorted."""
    read = set().union(*map(names_read, reading))
    return sorted(name for source in defining
                  for name in module_constants(source) if name not in read)


def test_every_module_constant_is_read():
    defining = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert dead_constants(defining, [p.read_text() for p in READERS]) == []


def test_the_check_flags_a_dead_constant():
    source = ("from k import CODE as KIND\nLIVE = 1\nDEAD = 2\n"
              "_HIDDEN: int = 3\nlower = 4\nx = LIVE + _HIDDEN + m.ATTR\n")
    assert dead_constants([source, "ATTR = 5\nCODE = 6\n"], [source]) == \
        ["DEAD"]


def test_every_exported_name_resolves():
    missing = [name for name in hammersim.__all__
               if not hasattr(hammersim, name)]
    assert missing == []


# Runs in a fresh interpreter: imports the CLI, then runs each
# (name, argv) of argv[1] and reports the exit code and which of HEAVY
# each left loaded.
PROBE = """
import json, sys
HEAVY = ("numpy", "multiprocessing", "concurrent.futures.process")
def loaded():
    return [m for m in HEAVY if m in sys.modules]
import hammersim.cli
report = {"import": loaded()}
from click.testing import CliRunner
for name, argv in json.loads(sys.argv[1]):
    code = CliRunner().invoke(hammersim.cli.main, argv).exit_code
    report[name] = [code, loaded()]
print(json.dumps(report))
"""


def test_cli_loads_numpy_and_the_pool_only_where_a_command_needs_them(
        tmp_path):
    # numpy now serves only the security tables (not a Chronus run); the
    # process pool only `sweep-stride --jobs >1`.
    domino = tmp_path / "domino.yaml"
    domino.write_text(CLI_CASES["domino"])
    chronus = tmp_path / "chronus.yaml"
    # The golden Chronus/rr128_s3 case, as a simulate config.
    chronus.write_text(yaml.safe_dump({
        "scheme": {"name": "Chronus", "n_bo": N_BO},
        "geometry": dataclasses.asdict(GEOMETRY),
        "refresh": {"tREFW_ns": 1_000_000},
        "simulate": {"kind": "round_robin", "n": 128, "stride": 3,
                     "base_row": 64, "duration_windows": 2,
                     "write_events": True}}))
    runs = [(name, [command, "--config", str(cfg), "--out",
                    str(tmp_path / name)])
            for name, command, cfg in (("domino", "domino", domino),
                                       ("chronus", "simulate", chronus))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(runs)],
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["import"] == []
    assert report["domino"] == [0, []]
    assert report["chronus"] == [0, []]
    golden = json.loads(GOLDEN.read_text())
    assert file_digests(tmp_path / "domino") == golden["cli/domino"]
    events = (tmp_path / "chronus" / "events.csv").read_text().splitlines()
    assert _digest(events) == golden["Chronus/rr128_s3"]["log"]
