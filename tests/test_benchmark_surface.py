"""The library surface `perfbench` uses, checked in tier 1.

The benchmark builds automata with the mapping constructor, reads
`.transitions` and runs its own pipeline and checks; a change to any of
these would otherwise show only as a benchmark run with incorrect outputs.
"""

import shutil
from pathlib import Path

import pytest

from harness import CORPUS

from perfbench import checks, pipeline

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("case,verdict", [("small-factory", pipeline.ADMITTED),
                                          ("r0000", pipeline.INITIAL_LOST)])
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
