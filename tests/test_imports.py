"""Every import in the package is used, every module constant is read,
every function is named outside its own def, the package imports
nothing outside the stdlib, click and PyYAML, no CLI command loads a
package beyond those its import loaded, and the CLI loads the process
pool only when a command needs it.

No linter ships with the package, so the stdlib `ast` stands in for one.
`kernel.py` exists to re-export names, and so does an `import X as Y`
alias; they are exempt from the unused-import check.
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
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "kernel.py")


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


# What the package may import besides the stdlib: itself and the two
# dependencies pyproject.toml declares.
ALLOWED = {"hammersim", "click", "yaml"}


def outside_imports(source: str):
    """The top-level names of the absolute imports anywhere in `source`,
    function-local ones included, that are neither stdlib nor ALLOWED."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - ALLOWED - sys.stdlib_module_names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_stdlib_or_a_declared_dependency(path):
    assert outside_imports(path.read_text()) == []


def test_the_check_flags_a_third_party_import():
    source = ("import os.path\nimport pandas as pd\nfrom . import engine\n"
              "from yaml import safe_load\ndef f():\n"
              "    from scipy.linalg import eig\n")
    assert outside_imports(source) == ["pandas", "scipy"]


def test_pyproject_declares_exactly_click_and_pyyaml():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps]
    assert sorted(names) == ["PyYAML", "click"]


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
    `import X as Y` (as `counters` renames the kernel's codes), outside
    any def of that name: a function that calls itself does not count."""
    read = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias) and node.asname is not None:
            name = node.name
        if name is not None and name not in enclosing:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
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


def functions(tree, prefix=""):
    """(qualified name, name) of each undecorated, non-dunder function or
    method under `tree`, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.decorator_list and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from functions(node, f"{prefix}{node.name}.")


def uncalled_functions(defining, reading):
    """The functions of the (module, source) pairs `defining` that no
    source of `reading` names outside their own def, as
    `module.qualified.name`, sorted."""
    read = set().union(*map(names_read, reading))
    return sorted(f"{module}.{qualified}" for module, source in defining
                  for qualified, name in functions(ast.parse(source))
                  if name not in read)


# perfbench/layers.py wraps or replays these by name, so they stay until
# a benchmark change drops them.
PERFBENCH_NAMES = "named by perfbench/layers.py"
# The kernel methods no module under src/ calls, each with the reason it
# stays.  Both builds keep one surface (`test_kernel`), so a name dropped
# here is dropped from `_kernel.c` too.
DEAD_KERNEL_API = {
    "_kernel_py.CounterCore.argmax": PERFBENCH_NAMES,
    "_kernel_py.CounterCore.load": "test fixture: sets each counter",
    "_kernel_py.CounterCore.max_count": PERFBENCH_NAMES,
    "_kernel_py.TopQueue.min_count": PERFBENCH_NAMES,
}


def test_every_function_is_called():
    defining = [(p.stem, p.read_text()) for p in sorted(SRC.glob("*.py"))]
    uncalled = uncalled_functions(defining,
                                  [p.read_text() for p in READERS])
    assert [name for name in uncalled if name not in DEAD_KERNEL_API] == []


def test_dead_kernel_api_is_exactly_the_uncalled_methods():
    kernel = SRC / "_kernel_py.py"
    package = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert uncalled_functions([("_kernel_py", kernel.read_text())],
                              package) == sorted(DEAD_KERNEL_API)


def test_the_check_flags_an_uncalled_function():
    source = ("def used():\n    return 1\n"
              "def orphan():\n    return orphan()\n"
              "@register\ndef hook():\n    pass\n"
              "class K:\n    def __len__(self):\n        return 0\n"
              "    def method(self):\n        return used()\n"
              "K().method()\n")
    assert uncalled_functions([("m", source)], [source]) == ["m.orphan"]


# Runs in a fresh interpreter: imports the CLI, then runs each
# (name, argv) of argv[1] and reports the exit code, which POOL modules
# are loaded, and the top-level names of the non-stdlib modules loaded
# since the import.
PROBE = """
import json, sys
POOL = ("multiprocessing", "concurrent.futures.process")
import hammersim.cli
from click.testing import CliRunner
base = set(sys.modules)
def loaded():
    new = {m.split(".")[0] for m in set(sys.modules) - base}
    return ([m for m in POOL if m in sys.modules] +
            sorted(new - sys.stdlib_module_names))
report = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    code = CliRunner().invoke(hammersim.cli.main, argv).exit_code
    report[name] = [code, loaded()]
print(json.dumps(report))
"""


def test_cli_loads_no_new_package_and_the_pool_only_where_needed(tmp_path):
    # No command loads a package the CLI import did not, the security
    # tables included; the process pool only `sweep-stride --jobs >1`.
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
    table = tmp_path / "table.yaml"
    table.write_text("security_table: {max_hc: [64], n_mits: [1]}\n")
    oracle = tmp_path / "oracle.yaml"
    oracle.write_text(CLI_CASES["oracle-check"])
    sweep = tmp_path / "sweep.yaml"
    # PRAC cannot meet hc 32 at n_mit 1, so the sweep solves the
    # threshold from the tables and runs no cell.
    sweep.write_text("sweep_stride: {hc: [32], strides: [1], n: 8, "
                     "scheme: PRAC, n_mit: 1}\n")
    runs = [(name, [command, "--config", str(cfg), "--out",
                    str(tmp_path / name)])
            for name, command, cfg in (
                ("domino", "domino", domino),
                ("chronus", "simulate", chronus),
                ("security-table", "security-table", table),
                ("oracle-check", "oracle-check", oracle),
                ("sweep-stride", "sweep-stride", sweep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(runs)],
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["import"] == []
    assert report["domino"] == [0, []]
    assert report["chronus"] == [0, []]
    for name in ("security-table", "oracle-check", "sweep-stride"):
        assert report[name] == [0, []], name
    assert "inf" in (tmp_path / "sweep-stride" /
                     "sweep_stride.csv").read_text()
    golden = json.loads(GOLDEN.read_text())
    assert file_digests(tmp_path / "domino") == golden["cli/domino"]
    events = (tmp_path / "chronus" / "events.csv").read_text().splitlines()
    assert _digest(events) == golden["Chronus/rr128_s3"]["log"]
