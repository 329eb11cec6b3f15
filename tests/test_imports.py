"""Every module of the package and of the tests uses each name it imports,
no module of the package imports an underscore name from another, every
library function the benchmark traces exists, and the CLI builds each
supervisor in one stage function and exits 3 from one place."""

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


def callers(source: str) -> dict[str, set[str]]:
    """{name: the top-level functions of `source` that call it or return it}."""
    out: dict[str, set[str]] = {}
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    out.setdefault(node.func.id, set()).add(fn.name)
                elif isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
                    out.setdefault(node.value.id, set()).add(fn.name)
    return out


def test_checker_finds_callers():
    source = ("def a():\n    return f(g())\n"
              "def b():\n    def inner():\n        return X\n    f()\n")
    assert callers(source) == {"f": {"a", "b"}, "g": {"a"}, "X": {"b"}}


def test_cli_has_one_stage_per_supervisor():
    # `synth-safety`, `synth-omega` and `pipeline` share the stage functions,
    # and "no supervisor" travels as an exception to `main`
    found = callers((SRC / "cli.py").read_text(encoding="utf-8"))
    assert found["sup_con_star"] == {"_synth_safety"}
    for name in ("controllability_subset", "existence_check", "assemble_fomega"):
        assert found[name] == {"_synth_omega"}, name
    assert found["EXIT_EXISTENCE"] == {"main"}
