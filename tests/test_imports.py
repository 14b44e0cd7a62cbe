"""Every import in the package is used, and every exported name exists.

No linter ships with the package, so the stdlib `ast` stands in for one.
`__init__.py` and `kernel.py` exist to re-export names, and so does an
`import X as Y` alias; they are exempt from the unused-import check.
"""

import ast
from pathlib import Path

import pytest

import hammersim

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


def test_every_exported_name_resolves():
    missing = [name for name in hammersim.__all__
               if not hasattr(hammersim, name)]
    assert missing == []
