"""The library surface `perfbench` uses, checked in tier 1.

The benchmark builds automata with the mapping constructor, reads
`.transitions` and runs its own pipeline and checks; a change to any of
these would otherwise show only as a benchmark run with incorrect outputs.
One short traced run checks the path that wraps every traced function in
a span.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import CORPUS

from perfbench import checks, pipeline

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


# r0480 is the one case whose tier 2 runs lassos on the controllers (197 of
# 500 lie in its plant): the corpus has none, and r0000 stops before verify
@pytest.mark.parametrize("case,verdict", [("small-factory", pipeline.ADMITTED),
                                          ("r0000", pipeline.INITIAL_LOST),
                                          ("r0480", pipeline.ADMITTED)])
def test_benchmark_pipeline_passes_its_checks(tmp_path, case, verdict):
    data = tmp_path / case
    shutil.copytree(CORPUS if case == "small-factory" else DATA / case, data,
                    ignore=shutil.ignore_patterns("out"))
    out_dir = tmp_path / "bench-out"
    out = pipeline.run_pipeline(str(data / "pipeline.cfg"), str(out_dir))
    assert out.verdict == verdict and out.artifacts
    expect_admitted = verdict == pipeline.ADMITTED
    assert checks.check_outcome(out, str(out_dir), expect_admitted=expect_admitted) is None


def test_benchmark_pipeline_matches_cli(tmp_path):
    assert checks.corpus_identity(str(ROOT)) is None
    assert checks.cli_identity(str(ROOT), str(tmp_path)) is None


def test_traced_benchmark_run_is_correct():
    # `--trace 1` wraps every function `perfbench.spans.TRACED` names and
    # checks the outputs with `perfbench.checks`, which tells the automaton
    # classes apart; the run removes its own work directory
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factory-n4", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
