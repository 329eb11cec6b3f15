"""Every module of the package and of the tests uses each name it imports,
no module of the package imports an underscore name from another, and every
library function the benchmark traces exists."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from perfbench.spans import TRACED

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "suploc"
# __init__ imports names only to re-export them
IMPORTING = (
    [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    + [pytest.param(p, id=f"tests/{p.name}") for p in sorted(TESTS.glob("*.py"))])


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_leftovers():
    source = "import random\nfrom collections import deque, Counter\nCounter()\n"
    assert unused_imports(source) == ["deque", "random"]


@pytest.mark.parametrize("path", IMPORTING)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Underscore names that `source` imports from a suploc module, by a
    relative import or by one that names the package."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "suploc"):
            out.extend(a.name for a in node.names if a.name.startswith("_"))
    return sorted(out)


def test_checker_finds_private_imports():
    source = ("from .omegasynth import OmegaSupervisor, _patterns\n"
              "from suploc.automata import _helper\n"
              "from collections import _chain\n"
              "from __future__ import annotations\n")
    assert private_imports(source) == ["_helper", "_patterns"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_private_imports_across_modules(module):
    assert private_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_benchmark_traced_functions_exist():
    # `perfbench.spans.install` looks each traced name up with getattr, so a
    # renamed or deleted function would only fail a traced benchmark run
    importlib.import_module("perfbench.pipeline")
    missing = [f"{layer}.{name}" for layer, names in TRACED.items() for name in names
               if not callable(getattr(sys.modules[f"suploc.{layer}"], name, None))]
    assert missing == []
