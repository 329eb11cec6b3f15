"""Seeded line-level mutations of well-formed inputs, run through the CLI in
process: whatever the input, `main` returns one of the documented exit
codes and no exception escapes it.

Each run mutates one file of a fresh copy: it deletes, duplicates,
truncates or swaps a line, or replaces or appends a token drawn from the
same file.  `pipeline` runs on mutated copies of the corpus (its ``.aut``
files and config); `verify` runs on mutated copies of the corpus
pipeline's artifacts and controllers, and each of its exits 0 is checked
again with `perfbench.checks.lockstep` on the mutated files, each controller
re-declared over the plant's events as `verify` reads it.
"""

import random
import shutil

from harness import corpus_texts
from perfbench.checks import lockstep

from suploc.automata import extend_alphabet
from suploc.cli import _load_controllers, main
from suploc.textio import load_automaton

EXIT_CODES = {0, 2, 3, 4}  # success, input error, no supervisor, verification failed
RUNS = 200
LASSOS = "20"


def mutate(text: str, rng: random.Random) -> str:
    """`text` with one seeded line-level change."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    kind = rng.choice(("delete", "duplicate", "truncate", "swap", "replace", "append"))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "truncate":
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        fields = lines[i].split()
        token = rng.choice(text.split())
        if kind == "replace" and fields:
            fields[rng.randrange(len(fields))] = token
        else:
            fields.append(token)
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def probe(files: dict[str, str], where, argv, capsys, on_success=None) -> list[int]:
    """The exit code of `argv` on each of `RUNS` seeded mutations of
    `files` ({path relative to `where`: text}), each written afresh into
    the directory `where`.  After each exit 0, `on_success()` (when given)
    must return None, not a reason why the run should have failed."""
    codes = []
    for seed in range(RUNS):
        rng = random.Random(seed)
        mutated = rng.choice(sorted(files))
        shutil.rmtree(where, ignore_errors=True)
        for name, text in files.items():
            path = where / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(mutate(text, rng) if name == mutated else text, encoding="utf-8")
        try:
            code = main([str(a) for a in argv])
        except Exception as exc:
            raise AssertionError(f"seed {seed}, {mutated}: {exc!r} escaped main") from exc
        assert code in EXIT_CODES, (seed, mutated, code)
        if code == 0 and on_success is not None:
            assert on_success() is None, (seed, mutated)
        codes.append(code)
        capsys.readouterr()
    return codes


def test_mutated_corpus_through_pipeline(tmp_path, capsys):
    work = tmp_path / "corpus"
    codes = probe(corpus_texts(), work,
                  ["--quiet", "pipeline", "--lassos", LASSOS, work / "pipeline.cfg"], capsys)
    # the mutations reach every verdict, so the probe is no run of parse errors
    assert {0, 2, 3} <= set(codes)


def test_mutated_artifacts_through_verify(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in corpus_texts().items():
        (corpus / name).write_text(text, encoding="utf-8")
    assert main(["--quiet", "pipeline", str(corpus / "pipeline.cfg")]) == 0
    out = corpus / "out"
    # the supervisors and the controller set that `verify` reads
    read = [out / "plant.aut", out / "sup_star.aut", out / "sup_omega.aut",
            *sorted((out / "controllers").iterdir())]
    files = {str(p.relative_to(out)): p.read_text(encoding="utf-8") for p in read}
    work = tmp_path / "artifacts"

    def controllers_act_like_supervisors():
        # an exit 0, checked on the files as mutated by the benchmark's own
        # walk: the plant under every controller named in the manifest has
        # the language of the plant under SUP* and SUPw; an event a controller
        # does not declare leaves it in place, where this walk would block it
        plant, sup_star, sup_omega = (load_automaton(work / f)[1].core
                                      for f in ("plant.aut", "sup_star.aut", "sup_omega.aut"))
        controllers = [extend_alphabet(c.automaton, plant.alphabet)
                       for c in _load_controllers(work / "controllers", plant.alphabet)]
        return lockstep([plant, *controllers], [plant, sup_star, sup_omega],
                        plant.alphabet.events)

    codes = probe(files, work,
                  ["--quiet", "verify", "--plant", work / "plant.aut",
                   "--sup-star", work / "sup_star.aut", "--sup-omega", work / "sup_omega.aut",
                   "--minimal", corpus / "minspec.aut", "--controllers", work / "controllers",
                   "--lassos", LASSOS], capsys, controllers_act_like_supervisors)
    assert {0, 2, 4} <= set(codes)
