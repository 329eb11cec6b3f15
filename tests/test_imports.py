"""Every module of the package uses each name it imports, and none imports
an underscore name from another module of the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "suploc"
# __init__ imports names only to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


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
