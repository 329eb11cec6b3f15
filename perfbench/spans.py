"""Span recording around the library's public functions, for the traced run.

`install` replaces chosen public functions of the ``suploc`` modules with
wrappers that record a span per call: name, start, end and the index of the
enclosing span.  Every module attribute bound to the original function is
replaced, so calls between modules nest too (``localize_all`` ->
``build_congruence``, ``inf_closure`` -> ``buchi_intersection``).  Spans
are only recorded inside a root span the benchmark opens around one
pipeline run; calls made by the benchmark's own checks are not traced.

Spans stay in memory; `write` saves them when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from functools import wraps

# The functions that get a span, by layer (= ``suploc`` module).  Small
# helpers that run millions of times (``localization.consistent``,
# ``automata.run_star``) are left out: a span on them would cost more than
# the work they do.  ``suploc.omega`` is no layer of its own; its time counts
# to the layer that calls it.
TRACED = {
    "automata": ("sync_product", "all_accepting", "buchi_intersection",
                 "buchi_lift", "minimize_prefix_closed"),
    "safety": ("sup_con_star", "controlled_plant"),
    "omegasynth": ("build_rabin_buchi", "controllability_subset", "restrict_sup",
                   "inf_closure", "existence_check", "assemble_fomega"),
    "localization": ("localize_all", "profile_safety", "profile_liveness",
                     "build_congruence", "build_local_controller"),
    "verify": ("check_infinite_equivalence", "check_finite_equivalence"),
    "textio": ("load_automaton", "parse_automaton", "save_automaton",
               "serialize_automaton"),
}

ROOT = "pipeline"


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 for a root."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def root(self, name: str = ROOT):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every function in TRACED; returns what `uninstall` restores."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "suploc" or name.startswith("suploc."))]
    patches = []
    for layer, names in TRACED.items():
        home = sys.modules[f"suploc.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        patches.append((m, attr, original))
    return patches


def uninstall(patches) -> None:
    for m, attr, original in patches:
        setattr(m, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
