"""Every module of the package and of the tests uses each name it imports,
no module of the package imports an underscore name from another, only
`automata` reads an automaton's `transitions`, every library function the
benchmark traces exists, every function of the package has a use, the
CLI builds each supervisor in one stage function and exits 3 from one
place, only `safety.controlled_plant` calls `buchi_lift`, and only
`textio` opens a file for writing."""

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


def transitions_reads(source: str) -> list[int]:
    """Lines of `source` that read an attribute named `transitions`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "transitions"
                  and isinstance(node.ctx, ast.Load))


def test_checker_finds_transitions_reads():
    source = ("t = a.transitions.get((q, e))\n"
              "a.transitions = {}\n"
              "row = a.rows[q]\n"
              "n = len(b.core.transitions)\n")
    assert transitions_reads(source) == [1, 4]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "automata.py"))
def test_only_automata_reads_transitions(module):
    # every other module walks an automaton through its per-state rows
    assert transitions_reads((SRC / module).read_text(encoding="utf-8")) == []


def test_benchmark_traced_functions_exist():
    # `perfbench.spans.install` looks each traced name up with getattr, so a
    # renamed or deleted function would only fail a traced benchmark run
    importlib.import_module("perfbench.pipeline")
    missing = [f"{layer}.{name}" for layer, names in TRACED.items() for name in names
               if not callable(getattr(sys.modules[f"suploc.{layer}"], name, None))]
    assert missing == []


def dead_functions(sources: dict[str, str], kept) -> list[str]:
    """``module.name`` of each module-level function of `sources` ({module:
    source}) that is not in `kept` and that no code of `sources` names,
    outside the function's own body."""
    defined, named = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own:
                defined.append((module, own))
            named.update(n.id for n in ast.walk(top) if isinstance(n, ast.Name) and n.id != own)
    return sorted(f"{m}.{f}" for m, f in defined if f not in named and f not in kept)


def test_checker_finds_dead_functions():
    sources = {"a": "def used():\n    return 1\n"
                    "def dead():\n    return dead()\n"
                    "def kept():\n    pass\n",
               "b": "from .a import used\nx = used()\n"}
    assert dead_functions(sources, {"kept"}) == ["a.dead"]


def test_every_function_has_a_use():
    # a module-level function of the package is named by the package,
    # re-exported by `__init__` or traced by the benchmark
    exported = {a.asname or a.name
                for node in ast.walk(ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    traced = {name for names in TRACED.values() for name in names}
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    assert dead_functions(sources, exported | traced) == []


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


def test_one_caller_of_buchi_lift():
    # the lifted marking over-approximates the closed loop; it is made in
    # one place, so replacing it by the exact closed loop touches one site
    found = {(p.stem, fn) for p in sorted(SRC.glob("*.py"))
             for fn in callers(p.read_text(encoding="utf-8")).get("buchi_lift", ())}
    assert found == {("safety", "controlled_plant")}


def write_opens(source: str) -> list[int]:
    """Lines of `source` that call ``open`` (a name or an attribute, such as
    ``os.open`` or ``path.open``) with a mode that may write: one holding
    ``w``, ``a``, ``x`` or ``+``, or one that is not a string literal, as
    ``os.open``'s flags are not."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) \
                or getattr(node.func, "id", getattr(node.func, "attr", None)) != "open":
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg in ("mode", "flags")]
        for mode in modes:
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                    or set(mode.value) & set("wax+"):
                out.append(node.lineno)
    return sorted(out)


def test_checker_finds_write_opens():
    source = ("open(p)\n"
              "open(p, 'w')\n"
              "open(p, mode='a', encoding='utf-8')\n"
              "open(p, 'r', encoding='utf-8')\n"
              "fd = os.open(p, os.O_WRONLY)\n"
              "path.open('rb')\n"
              "path.open(mode='r+')\n"
              "open(p, m)\n")
    assert write_opens(source) == [2, 3, 5, 7, 8]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "textio.py"))
def test_only_textio_writes_files(module):
    # every file the package writes goes through `textio.write_text`
    assert write_opens((SRC / module).read_text(encoding="utf-8")) == []
