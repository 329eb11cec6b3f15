import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from harness import CORPUS

from suploc.automata import Alphabet, compose_plant
from suploc.cli import main
from suploc.textio import load_automaton, serialize_automaton

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture()
def corpus(tmp_path):
    dst = tmp_path / "small-factory"
    shutil.copytree(CORPUS, dst)
    return dst


def run_cli(*args):
    return main([str(a) for a in args])


def test_info(corpus, capsys):
    assert run_cli("info", corpus / "minspec.aut") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["type"] == "buchi"
    assert out["states"] == 6
    assert out["buchi"] == 1


def test_info_star_has_no_acceptance(corpus, capsys):
    assert run_cli("info", corpus / "m1.aut") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["type"] == "star"
    assert "buchi" not in out


def test_info_rabin(tmp_path, capsys, sf):
    from suploc.textio import save_automaton
    path = tmp_path / "prod.aut"
    save_automaton(path, "prod", sf["prod"])
    assert run_cli("info", path) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["type"] == "rabin-buchi"
    assert out["rabin_pairs"] == [[4, 27]]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text("automaton x\ntype star\nevents a:u\ninitial 0\nwhat 1\n")
    assert run_cli("info", bad) == 2
    assert "line 5" in capsys.readouterr().err


def test_pipeline_factory(corpus, capsys):
    cfg = corpus / "pipeline.cfg"
    assert run_cli("pipeline", cfg) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["finite_ok"] and out["infinite_ok"]
    assert out["sup_star"] == {"states": 8, "transitions": 14, "buchi": 5}
    assert out["legal_product"]["states"] == 27
    assert out["legal_product"]["controllability_subset"] == 27
    assert len(out["controllers"]) == 6
    report = json.loads((corpus / "out" / "report.json").read_text())
    assert report["finite_ok"]
    for artifact in ("plant.aut", "sup_star.aut", "sup_omega.aut",
                     "legal_product.aut", "controllers/manifest.json"):
        assert (corpus / "out" / artifact).exists()


def test_pipeline_deterministic(corpus):
    cfg_text = (corpus / "pipeline.cfg").read_text()
    for name in ("run1", "run2"):
        cfg = json.loads(cfg_text)
        cfg["output_dir"] = name
        p = corpus / f"{name}.cfg"
        p.write_text(json.dumps(cfg))
        assert run_cli("--quiet", "pipeline", p, "--seed", 9) == 0
    files1 = sorted((corpus / "run1").rglob("*"))
    files2 = sorted((corpus / "run2").rglob("*"))
    assert [f.name for f in files1] == [f.name for f in files2]
    for f1, f2 in zip(files1, files2):
        if f1.is_file():
            assert f1.read_bytes() == f2.read_bytes(), f1.name


def test_pipeline_existence_failure(corpus, capsys):
    # demand an infinite behavior the legal condition cannot contain:
    # swap the minimal spec for a run that starves machine 2
    bad = corpus / "badmin.aut"
    bad.write_text(
        "automaton badmin\ntype buchi\n"
        "events a1:c b1:u g1:u a2:c b2:u g2:u\n"
        "initial 0\n"
        "trans 0 a1 1\ntrans 1 b1 2\ntrans 2 g1 0\n"
        "buchi 0\n")
    cfg = json.loads((corpus / "pipeline.cfg").read_text())
    cfg["minimal_spec"] = "badmin.aut"
    p = corpus / "bad.cfg"
    p.write_text(json.dumps(cfg))
    assert run_cli("pipeline", p) == 3
    assert "witness" in capsys.readouterr().err


def test_synth_safety_and_omega_roundtrip(corpus, tmp_path, capsys):
    plant_path = tmp_path / "plant.aut"
    cfg = corpus / "pipeline.cfg"
    assert run_cli("--quiet", "pipeline", cfg) == 0
    out_dir = corpus / "out"

    assert run_cli("synth-safety", "--plant", out_dir / "plant.aut",
                   "--spec", corpus / "bufspec1.aut", corpus / "bufspec2.aut",
                   corpus / "muxspec.aut",
                   "--out", tmp_path / "sup.aut") == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["states"], out["transitions"], out["buchi"]) == (8, 14, 5)

    assert run_cli("synth-omega", "--plant", tmp_path / "sup.aut",
                   "--legal", corpus / "maxspec.aut",
                   "--minimal", corpus / "minspec.aut",
                   "--out", tmp_path / "supw.aut",
                   "--psi-table", tmp_path / "psi.csv") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["product_states"] == 27
    assert out["controllability_subset"] == 27
    table = (tmp_path / "psi.csv").read_text().splitlines()
    assert table[0] == "product_state,z_state,enabled_events"
    assert len(table) == 1 + out["states"]

    loc_dir = tmp_path / "locs"
    assert run_cli("localize", "--plant", out_dir / "plant.aut",
                   "--sup-star", tmp_path / "sup.aut",
                   "--sup-omega", tmp_path / "supw.aut",
                   "--minimal", corpus / "minspec.aut",
                   "--out-dir", loc_dir) == 0
    manifest = json.loads((loc_dir / "manifest.json").read_text())
    assert len(manifest) == 6

    assert run_cli("verify", "--plant", out_dir / "plant.aut",
                   "--sup-star", tmp_path / "sup.aut",
                   "--sup-omega", tmp_path / "supw.aut",
                   "--minimal", corpus / "minspec.aut",
                   "--controllers", loc_dir,
                   "--lassos", "200", "--report", tmp_path / "rep.json") == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["finite_ok"] and rep["infinite_ok"]

    # a controller that disables a1 where SUP* enables it fails the finite
    # check, and the report says which factor and which string
    loc = loc_dir / "loc_a1_safety.aut"
    loc.write_text(loc.read_text().replace("trans 0 a1 0\n", ""))
    assert run_cli("verify", "--plant", out_dir / "plant.aut",
                   "--sup-star", tmp_path / "sup.aut",
                   "--sup-omega", tmp_path / "supw.aut",
                   "--minimal", corpus / "minspec.aut",
                   "--controllers", loc_dir,
                   "--lassos", "200", "--report", tmp_path / "rep.json") == 4
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["finite_ok"] is False and rep["counterexample"] == ["a1"]
    assert {k: rep["sub_results"][k] for k in ("safety_factor", "collective", "liveness_factor")} \
        == {"safety_factor": False, "collective": False, "liveness_factor": True}

    # SUP* without its a1 move from state 0: the collective walk still
    # agrees with SUPw, but both factor equalities fail, and so does verify
    sup_star = tmp_path / "sup_star.aut"
    text = (out_dir / "sup_star.aut").read_text()
    assert "trans 0 a1 1\n" in text
    sup_star.write_text(text.replace("trans 0 a1 1\n", ""))
    assert run_cli("verify", "--plant", out_dir / "plant.aut",
                   "--sup-star", sup_star,
                   "--sup-omega", out_dir / "sup_omega.aut",
                   "--minimal", corpus / "minspec.aut",
                   "--controllers", out_dir / "controllers",
                   "--lassos", "200", "--report", tmp_path / "rep.json") == 4
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["finite_ok"] is False and rep["counterexample"] == ["a1"]
    assert {k: rep["sub_results"][k] for k in ("safety_factor", "collective", "liveness_factor")} \
        == {"safety_factor": False, "collective": True, "liveness_factor": False}


@pytest.mark.parametrize("count", ["-3", "many"])
def test_lasso_count_must_be_non_negative(corpus, capsys, count):
    # rejected while the arguments are parsed, before any file is read or written
    out_dir = corpus / "out"
    commands = [
        ("pipeline", corpus / "pipeline.cfg"),
        ("verify", "--plant", out_dir / "plant.aut", "--sup-star", out_dir / "sup_star.aut",
         "--sup-omega", out_dir / "sup_omega.aut", "--minimal", corpus / "minspec.aut",
         "--controllers", out_dir / "controllers"),
    ]
    for command in commands:
        with pytest.raises(SystemExit) as stop:
            run_cli(*command, "--lassos", count)
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --lassos: expected a non-negative integer, got '{count}'" in err
    assert not out_dir.exists()


def test_product_command(corpus, tmp_path, capsys):
    assert run_cli("product", corpus / "minspec.aut", corpus / "maxspec.aut",
                   "--out", tmp_path / "p.aut") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["states"] >= 6


def test_pipeline_initial_state_lost(tmp_path, capsys):
    # instance r0002 of the random-small benchmark, seed 1: the existence
    # check passes, but the control game loses the initial state
    data = tmp_path / "r0002"
    shutil.copytree(DATA / "r0002", data)
    assert run_cli("--quiet", "pipeline", data / "pipeline.cfg") == 3
    assert "controllability game loses the initial state" in capsys.readouterr().err
    assert run_cli("synth-omega", "--plant", data / "out" / "sup_star.aut",
                   "--legal", data / "legal.aut", "--minimal", data / "minimal.aut",
                   "--out", tmp_path / "supw.aut") == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"existence": False, "initial_lost": True}
    assert "controllability game loses the initial state" in captured.err
    assert not (tmp_path / "supw.aut").exists()


def test_pipeline_minimal_behaviour_leaves_controllability_subset(tmp_path, capsys):
    # instance r0067 of the random-small benchmark, seed 0: the minimal
    # behaviour's lasso steps from the initial state of the legal product to
    # a state outside the controllability subset, so no supervisor can
    # admit it; masking only the Rabin pair let the existence check pass
    data = tmp_path / "r0067"
    shutil.copytree(DATA / "r0067", data)
    assert run_cli("--quiet", "pipeline", data / "pipeline.cfg") == 3
    assert ("existence check failed; witness lasso ['e0', 'e2', 'e0', 'e0', 'e1'] ; ['e2']"
            in capsys.readouterr().err)
    assert (data / "out" / "legal_product.aut").exists()
    assert not (data / "out" / "sup_omega.aut").exists()


def test_product_of_components_with_different_alphabets(corpus, tmp_path, capsys):
    assert run_cli("--quiet", "product", corpus / "m1.aut", corpus / "m2.aut",
                   "--out", tmp_path / "p.aut") == 0
    m1, m2 = load_automaton(corpus / "m1.aut")[1], load_automaton(corpus / "m2.aut")[1]
    both = Alphabet.make(("a1", "b1", "a2", "b2"), ("a1", "a2"))
    expected = serialize_automaton("product", compose_plant([m1, m2], both))
    assert (tmp_path / "p.aut").read_text() == expected


def test_rabin_plant_component_rejected(corpus, tmp_path, capsys):
    # a plant component carries no Rabin pair; dropping it would lose
    # buffer 1's removal fairness
    f1 = corpus / "f1.aut"
    f1.write_text(f1.read_text().replace("type buchi", "type rabin-buchi") + "rabin R ; I 0\n")
    assert run_cli("pipeline", corpus / "pipeline.cfg") == 2
    assert "got RabinBuchiAutomaton" in capsys.readouterr().err
    assert run_cli("product", corpus / "m1.aut", f1, "--out", tmp_path / "p.aut") == 2
    assert "got RabinBuchiAutomaton" in capsys.readouterr().err
    assert not (tmp_path / "p.aut").exists()


def test_product_rejects_conflicting_controllability(corpus, tmp_path, capsys):
    flipped = tmp_path / "m1u.aut"
    flipped.write_text((corpus / "m1.aut").read_text().replace("a1:c", "a1:u"))
    assert run_cli("product", corpus / "m1.aut", flipped, "--out", tmp_path / "p.aut") == 2
    assert "'a1'" in capsys.readouterr().err


@pytest.fixture()
def corpus_run(corpus):
    """The corpus with its pipeline artifacts under out/."""
    assert run_cli("--quiet", "pipeline", corpus / "pipeline.cfg") == 0
    return corpus


def test_star_legal_spec_rejected(corpus_run, tmp_path, capsys):
    # a star automaton carries no liveness, so it cannot be a legal spec
    out_dir = corpus_run / "out"
    assert run_cli("synth-omega", "--plant", out_dir / "sup_star.aut",
                   "--legal", corpus_run / "m1.aut", "--minimal", corpus_run / "minspec.aut",
                   "--out", tmp_path / "supw.aut") == 2
    assert "m1.aut: expected BuchiAutomaton or RabinBuchiAutomaton" in capsys.readouterr().err
    cfg = json.loads((corpus_run / "pipeline.cfg").read_text())
    cfg["legal_spec"] = "m1.aut"
    (corpus_run / "star.cfg").write_text(json.dumps(cfg))
    assert run_cli("pipeline", corpus_run / "star.cfg") == 2
    assert "m1.aut: expected BuchiAutomaton or RabinBuchiAutomaton" in capsys.readouterr().err


# a model without a safety supervisor: the uncontrollable u leaves the
# initial state and the spec forbids it
NO_SUP_STAR = {
    "plant.aut": "automaton plant\ntype star\nevents c:c u:u\ninitial 0\n"
                 "trans 0 c 0\ntrans 0 u 1\n",
    "spec.aut": "automaton spec\ntype star\nevents c:c u:u\ninitial 0\ntrans 0 c 0\n",
    "live.aut": "automaton live\ntype buchi\nevents c:c u:u\ninitial 0\ntrans 0 c 0\nbuchi 0\n",
    "pipeline.cfg": json.dumps({
        "plant_components": ["plant.aut"], "safety_specs": ["spec.aut"],
        "legal_spec": "live.aut", "minimal_spec": "live.aut", "output_dir": "out"}),
}


def test_empty_safety_supervisor_is_negative_verdict(tmp_path, capsys):
    for fname, text in NO_SUP_STAR.items():
        (tmp_path / fname).write_text(text)
    assert run_cli("pipeline", tmp_path / "pipeline.cfg") == 3
    assert "no safety supervisor" in capsys.readouterr().err
    assert run_cli("synth-safety", "--plant", tmp_path / "out" / "plant.aut",
                   "--spec", tmp_path / "spec.aut", "--out", tmp_path / "sup.aut") == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"empty": True}
    assert "no safety supervisor" in captured.err
    assert not (tmp_path / "sup.aut").exists()


def files_under(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in directory.rglob("*") if p.is_file()}


@pytest.mark.parametrize("second", ["r0002", "no-sup-star"])
def test_negative_verdict_leaves_no_stale_artifacts(corpus, tmp_path, second):
    # a reused output directory: the corpus run fills it; the second run
    # stops at the game (r0002) or at SUP* (exit 3) and must leave its own
    # files and nothing of the corpus run's, apart from files the pipeline
    # does not write
    data = tmp_path / second
    if second == "r0002":
        shutil.copytree(DATA / second, data)
    else:
        data.mkdir()
        for fname, text in NO_SUP_STAR.items():
            (data / fname).write_text(text)
    assert run_cli("--quiet", "pipeline", data / "pipeline.cfg") == 3
    alone = files_under(data / "out")
    assert set(alone) == ({"plant.aut", "sup_star.aut", "legal_product.aut"}
                          if second == "r0002" else {"plant.aut"})

    out = tmp_path / "out"
    for cfg in (corpus / "pipeline.cfg", data / "pipeline.cfg"):
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "output_dir": str(out)}))
    assert run_cli("--quiet", "pipeline", "--dot", corpus / "pipeline.cfg") == 0
    (out / "notes.txt").write_text("not the pipeline's")
    (out / "controllers" / "mine.aut").write_text("not the pipeline's")
    manifest = out / "controllers" / "manifest.json"
    entries = json.loads(manifest.read_text())
    assert len(entries) == 6 and len(files_under(out / "controllers")) == 14
    manifest.write_text(json.dumps(entries + [{"name": "mine"}, {"name": "../notes"}]))
    assert run_cli("--quiet", "pipeline", data / "pipeline.cfg") == 3
    assert files_under(out) == {**alone, "notes.txt": b"not the pipeline's",
                                "controllers/mine.aut": b"not the pipeline's"}


def test_input_error_part_way_leaves_no_stale_artifacts(corpus, tmp_path, capsys):
    # a reused output directory: the corpus run fills it; a copy whose legal
    # specification accepts nothing (its one Buchi state is unreachable)
    # stops with exit 2 after writing the plant and SUP*, and must leave its
    # own files and nothing of the corpus run's
    bad = tmp_path / "empty-legal"
    shutil.copytree(corpus, bad, ignore=shutil.ignore_patterns("out"))
    maxspec = bad / "maxspec.aut"
    maxspec.write_text(maxspec.read_text().replace("buchi 3 4", "buchi 99"))
    assert run_cli("--quiet", "pipeline", bad / "pipeline.cfg") == 2
    alone = files_under(bad / "out")
    assert set(alone) == {"plant.aut", "sup_star.aut"}

    out = tmp_path / "out"
    for cfg in (corpus / "pipeline.cfg", bad / "pipeline.cfg"):
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "output_dir": str(out)}))
    assert run_cli("--quiet", "pipeline", "--dot", corpus / "pipeline.cfg") == 0
    assert len(files_under(out)) == 18
    (out / "notes.txt").write_text("not the pipeline's")
    capsys.readouterr()
    assert run_cli("--quiet", "pipeline", bad / "pipeline.cfg") == 2
    assert "legal specification has empty omega-language" in capsys.readouterr().err
    assert files_under(out) == {**alone, "notes.txt": b"not the pipeline's"}


def rename_event(directory: Path, old: str, new: str) -> None:
    """Rename event `old` to `new` in every automaton file of `directory`."""
    for f in directory.glob("*.aut"):
        f.write_text(re.sub(rf"\b{old}\b", new, f.read_text()))


@pytest.mark.parametrize("label,shown", [("a/1", "'/'"), ("a\x001", "'\\x00'")])
def test_pipeline_rejects_labels_that_cannot_name_a_file(corpus, capsys, label, shown):
    # a controller's file is named after its event, so a label that cannot
    # be part of a file name is refused as its file is read: nothing is
    # written, not even the output directory
    rename_event(corpus, "a1", label)
    assert run_cli("--quiet", "pipeline", corpus / "pipeline.cfg") == 2
    assert capsys.readouterr().err == (f"parse error: {corpus / 'm1.aut'}: line 4: "
                                       f"event label {label!r} may not contain {shown}\n")
    assert not (corpus / "out").exists()


@pytest.mark.parametrize("event", ["a1", "a2"])
def test_failed_controller_write_leaves_no_stale_artifacts(corpus, tmp_path, capsys, event):
    # a copy where `event` has a label too long for a controller's file
    # name gets through SUPw and fails to write that event's first
    # controller (a2's comes after one of a1's); alone, it must leave only
    # the files of the stages it finished, and after the corpus run into
    # the same output directory, also nothing of the corpus run's
    long = tmp_path / "long-label"
    shutil.copytree(corpus, long)
    rename_event(long, event, "a" * 250)
    assert run_cli("--quiet", "pipeline", long / "pipeline.cfg") == 2
    assert capsys.readouterr().err.startswith("input error: ")
    alone = files_under(long / "out")
    assert set(alone) == {"plant.aut", "sup_star.aut", "legal_product.aut", "sup_omega.aut"}

    out = tmp_path / "out"
    for cfg in (corpus / "pipeline.cfg", long / "pipeline.cfg"):
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "output_dir": str(out)}))
    assert run_cli("--quiet", "pipeline", "--dot", corpus / "pipeline.cfg") == 0
    (out / "notes.txt").write_text("not the pipeline's")
    assert run_cli("--quiet", "pipeline", long / "pipeline.cfg") == 2
    assert files_under(out) == {**alone, "notes.txt": b"not the pipeline's"}


NOT_OURS = b"not the pipeline's"


def add_files_not_ours(top: Path, controllers: Path) -> dict[str, bytes]:
    """Add files the CLI does not write to an output directory that a corpus
    run with `--dot` filled: ``notes.txt`` in `top`, ``mine.aut`` beside
    the controllers, and manifest entries naming them; returns them by
    their paths under `top`."""
    (top / "notes.txt").write_bytes(NOT_OURS)
    (controllers / "mine.aut").write_bytes(NOT_OURS)
    manifest = controllers / "manifest.json"
    entries = json.loads(manifest.read_text())
    assert len(entries) == 6 and len(list(controllers.glob("*.dot"))) == 6
    manifest.write_text(json.dumps(entries + [{"name": "mine"}, {"name": "../notes"}]))
    return {f.relative_to(top).as_posix(): NOT_OURS
            for f in (top / "notes.txt", controllers / "mine.aut")}


def r0475_alone(tmp_path, code):
    """A copy of tests/data/r0475 and the files its pipeline run, ending in
    exit `code`, leaves in a fresh output directory."""
    data = tmp_path / "r0475"
    shutil.copytree(DATA / "r0475", data)
    assert run_cli("--quiet", "pipeline", data / "pipeline.cfg") == code
    return data, files_under(data / "out")


def point_at(out: Path, *models: Path) -> None:
    """Make the pipeline configuration of each of `models` write into `out`."""
    for cfg in (m / "pipeline.cfg" for m in models):
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "output_dir": str(out)}))


def test_pipeline_rerun_replaces_every_artifact(corpus, tmp_path):
    # a reused output directory: after the corpus run, r0475 (exit 0, no
    # --dot) must leave exactly what it writes alone, plus the files the
    # pipeline does not write; none of the corpus's controllers or DOT files
    data, alone = r0475_alone(tmp_path, 0)
    assert "report.json" in alone and len(alone) == 12
    out = tmp_path / "out"
    point_at(out, corpus, data)
    assert run_cli("--quiet", "pipeline", "--dot", corpus / "pipeline.cfg") == 0
    extra = add_files_not_ours(out, out / "controllers")
    assert run_cli("--quiet", "pipeline", data / "pipeline.cfg") == 0
    assert files_under(out) == {**alone, **extra}


def test_verification_error_leaves_no_stale_report(corpus, tmp_path, monkeypatch, capsys):
    # exit 4 from a VerificationError writes no report.json, so the corpus
    # run's report, which vouches for its controllers, must go too
    import suploc.cli as cli
    from suploc.verify import VerificationError

    def contradiction(*args, **kwargs):
        raise VerificationError("tier-2 sampling contradicts tier 1")
    out = tmp_path / "out"
    point_at(out, corpus)
    assert run_cli("--quiet", "pipeline", "--dot", corpus / "pipeline.cfg") == 0
    extra = add_files_not_ours(out, out / "controllers")
    monkeypatch.setattr(cli, "check_infinite_equivalence", contradiction)
    data, alone = r0475_alone(tmp_path, 4)
    assert "report.json" not in alone and len(alone) == 11
    point_at(out, data)
    capsys.readouterr()
    assert run_cli("--quiet", "pipeline", data / "pipeline.cfg") == 4
    assert "verification error" in capsys.readouterr().err
    assert files_under(out) == {**alone, **extra}


def test_manifest_entry_not_an_object_hides_no_controller(corpus, tmp_path):
    # the entries the CLI would not write are skipped one by one, so the
    # corpus's controllers still go
    data, alone = r0475_alone(tmp_path, 0)
    out = tmp_path / "out"
    point_at(out, corpus, data)
    assert run_cli("--quiet", "pipeline", corpus / "pipeline.cfg") == 0
    manifest = out / "controllers" / "manifest.json"
    manifest.write_text(json.dumps(json.loads(manifest.read_text()) + ["junk", 7, None, []]))
    assert run_cli("--quiet", "pipeline", data / "pipeline.cfg") == 0
    assert files_under(out) == alone


def test_rerun_without_dot_removes_dot_files(corpus):
    # the same controllers again, without --dot: their renderings go
    out = corpus / "out"
    assert run_cli("--quiet", "pipeline", "--dot", corpus / "pipeline.cfg") == 0
    assert len(list(out.rglob("*.dot"))) == 6
    assert run_cli("--quiet", "pipeline", corpus / "pipeline.cfg") == 0
    assert not list(out.rglob("*.dot")) and len(files_under(out)) == 12


def localize(model: Path, minimal: str, out_dir: Path, *flags) -> int:
    """`suploc localize` on the pipeline artifacts of `model`."""
    out = model / "out"
    return run_cli("--quiet", "localize", "--plant", out / "plant.aut",
                   "--sup-star", out / "sup_star.aut", "--sup-omega", out / "sup_omega.aut",
                   "--minimal", model / minimal, "--out-dir", out_dir, *flags)


def test_localize_rerun_replaces_the_controller_set(corpus_run, tmp_path):
    # one --out-dir for the corpus's controllers (with --dot) and then
    # r0475's: it must hold r0475's alone, plus the files the CLI does not
    # write there
    data, _ = r0475_alone(tmp_path, 0)
    assert localize(data, "minimal.aut", tmp_path / "alone") == 0
    alone = files_under(tmp_path / "alone")
    assert len(alone) == 7 and "manifest.json" in alone
    locs = tmp_path / "locs"
    assert localize(corpus_run, "minspec.aut", locs, "--dot") == 0
    extra = add_files_not_ours(locs, locs)
    assert localize(data, "minimal.aut", locs) == 0
    assert files_under(locs) == {**alone, **extra}


def test_spec_over_foreign_events_is_input_error(corpus_run, tmp_path, capsys):
    spec = tmp_path / "zz.aut"
    spec.write_text("automaton zz\ntype star\nevents a1:c zz:u\ninitial 0\ntrans 0 a1 0\n")
    assert run_cli("synth-safety", "--plant", corpus_run / "out" / "plant.aut",
                   "--spec", spec, "--out", tmp_path / "sup.aut") == 2
    assert "['zz'] not in global alphabet" in capsys.readouterr().err


@pytest.mark.parametrize("fname, flag, event", [
    ("m1.aut", "a1:u", "a1"),  # plant component
    ("f1.aut", "b1:c", "b1"),  # fairness assumption
    ("bufspec1.aut", "b1:c", "b1"),  # safety specification
    ("maxspec.aut", "a1:u", "a1"),  # legal specification
    ("minspec.aut", "a1:u", "a1"),  # minimal acceptable behaviour
])
def test_inputs_disagreeing_on_controllability_rejected(corpus, capsys, fname, flag, event):
    # every input declares an event controllable exactly when the global
    # alphabet does; the minimal behaviour is checked in its own role, so
    # there the global alphabet comes from the legal specification
    path = corpus / fname
    text = path.read_text()
    other = flag[:-1] + ("c" if flag.endswith("u") else "u")
    assert other in text
    path.write_text(text.replace(other, flag))
    if fname == "minspec.aut":
        without_alphabet_from(corpus)
    assert run_cli("--quiet", "pipeline", corpus / "pipeline.cfg") == 2
    assert capsys.readouterr().err == (f"input error: {path}: event {event!r} is controllable "
                                       "in one alphabet only\n")


def without_alphabet_from(model: Path) -> Path:
    """`model`'s pipeline configuration, rewritten without alphabet_from."""
    cfg = json.loads((model / "pipeline.cfg").read_text())
    del cfg["alphabet_from"]
    (model / "pipeline.cfg").write_text(json.dumps(cfg))
    return model / "pipeline.cfg"


def test_safety_spec_over_foreign_events_rejected_before_writing(corpus, capsys):
    spec = corpus / "bufspec2.aut"
    spec.write_text(re.sub(r"^events .*", r"\g<0> zz:u", spec.read_text(), flags=re.M))
    assert run_cli("--quiet", "pipeline", corpus / "pipeline.cfg") == 2
    assert capsys.readouterr().err == (
        f"input error: {spec}: component event(s) ['zz'] not in global alphabet\n")
    assert not (corpus / "out").exists()


@pytest.mark.parametrize("model, minimal", [("r0000", "minimal.aut"), ("corpus", "minspec.aut")])
@pytest.mark.parametrize("change", ["reorder", "extra", "flip"])
def test_minimal_spec_over_another_alphabet_rejected_before_writing(
        corpus, tmp_path, capsys, model, minimal, change):
    # without alphabet_from the legal specification gives the global
    # alphabet, and the minimal behaviour must be over exactly that one
    data = corpus if model == "corpus" else tmp_path / model
    if model != "corpus":
        shutil.copytree(DATA / model, data)
    cfg, path = without_alphabet_from(data), data / minimal
    text = path.read_text()
    events = re.search(r"^events (.*)$", text, flags=re.M).group(1).split()
    legal = "legal.aut" if model == "r0000" else "maxspec.aut"
    if change == "flip":
        first = events[0][:-1] + ("c" if events[0].endswith("u") else "u")
        path.write_text(text.replace(events[0], first, 1))
        message = f"{path}: event {events[0][:-2]!r} is controllable in one alphabet only"
    else:
        # the new events line: reversed, or with an event no transition uses added
        new = events[::-1] if change == "reorder" else events + ["unused:c"]
        path.write_text(text.replace(" ".join(events), " ".join(new), 1))
        message = (f"alphabet mismatch: {data / legal} and {path} list other events "
                   "or another order")
    assert run_cli("--quiet", "pipeline", cfg) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not (data / "out").exists()


def test_minimal_spec_disagreeing_on_controllability_named_by_every_stage(corpus_run, tmp_path,
                                                                          capsys):
    # `synth-omega`, `localize` and `verify` read the minimal behaviour too
    out, spec = corpus_run / "out", tmp_path / "minspec.aut"
    spec.write_text((corpus_run / "minspec.aut").read_text().replace("a1:c", "a1:u"))
    supervisors = ["--plant", out / "plant.aut", "--sup-star", out / "sup_star.aut",
                   "--sup-omega", out / "sup_omega.aut", "--minimal", spec]
    runs = [["synth-omega", "--plant", out / "sup_star.aut", "--legal", corpus_run / "maxspec.aut",
             "--minimal", spec, "--out", tmp_path / "supw.aut"],
            ["localize", *supervisors, "--out-dir", tmp_path / "locs"],
            ["verify", *supervisors, "--controllers", out / "controllers"]]
    for argv in runs:
        assert run_cli("--quiet", *argv) == 2, argv[0]
        assert capsys.readouterr().err == (
            f"input error: {spec}: event 'a1' is controllable in one alphabet only\n")
    assert not (tmp_path / "supw.aut").exists() and not (tmp_path / "locs").exists()


def test_verify_accepts_a_controller_over_its_own_events(tmp_path, capsys):
    # the one-state controller that never disables e2, declared over e2
    # alone: tier 1 and tier 2 both leave it in place on the other events
    data = tmp_path / "r0475"
    shutil.copytree(DATA / "r0475", data)
    assert run_cli("--quiet", "pipeline", data / "pipeline.cfg") == 0
    out = data / "out"
    loc = out / "controllers" / "loc_e2_safety.aut"
    assert "initial 0\ntrans 0 e0 0\ntrans 0 e1 0\ntrans 0 e2 0\ntrans 0 e3 0\n" in loc.read_text()
    loc.write_text("automaton loc_e2_safety\ntype star\nevents e2:c\ninitial 0\ntrans 0 e2 0\n")
    assert run_cli("verify", "--plant", out / "plant.aut", "--sup-star", out / "sup_star.aut",
                   "--sup-omega", out / "sup_omega.aut", "--minimal", data / "minimal.aut",
                   "--controllers", out / "controllers") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["finite_ok"] and report["infinite_ok"]
    assert report["sub_results"]["tier2_disagreements"] == 0


def test_swapped_supervisors_are_input_error(corpus_run, tmp_path, capsys):
    out_dir = corpus_run / "out"
    assert run_cli("localize", "--plant", out_dir / "plant.aut",
                   "--sup-star", out_dir / "sup_omega.aut",
                   "--sup-omega", out_dir / "sup_star.aut",
                   "--minimal", corpus_run / "minspec.aut",
                   "--out-dir", tmp_path / "locs") == 2
    assert "following automaton is undefined" in capsys.readouterr().err


def test_verification_error_keeps_exit_4(corpus_run, tmp_path, monkeypatch, capsys):
    # an internal contradiction is not an input error
    import suploc.cli as cli
    from suploc.verify import VerificationError

    def contradiction(*args, **kwargs):
        raise VerificationError("tier-2 sampling contradicts tier 1")
    monkeypatch.setattr(cli, "check_infinite_equivalence", contradiction)
    assert run_cli("pipeline", corpus_run / "pipeline.cfg") == 4
    assert "verification error" in capsys.readouterr().err


def test_pipeline_without_alphabet_from(corpus_run):
    # the legal specification's alphabet is the global one by default
    cfg = json.loads((corpus_run / "pipeline.cfg").read_text())
    del cfg["alphabet_from"]
    cfg["output_dir"] = "noalpha"
    (corpus_run / "noalpha.cfg").write_text(json.dumps(cfg))
    assert run_cli("--quiet", "pipeline", corpus_run / "noalpha.cfg") == 0
    ref, got = corpus_run / "out", corpus_run / "noalpha"
    files = sorted(f.relative_to(ref) for f in ref.rglob("*") if f.is_file())
    assert files == sorted(f.relative_to(got) for f in got.rglob("*") if f.is_file())
    for f in files:
        assert (ref / f).read_bytes() == (got / f).read_bytes(), f


def test_alphabet_from_out_of_order_rejected_before_writing(corpus, capsys):
    # alphabet_from must give the legal specification's events in its
    # order: the other order is rejected before plant.aut, naming both files
    minspec = corpus / "minspec.aut"
    events = next(line for line in minspec.read_text().splitlines()
                  if line.startswith("events "))
    swapped = "events " + " ".join(reversed(events.split()[1:]))
    minspec.write_text(minspec.read_text().replace(events, swapped))
    assert run_cli("--quiet", "pipeline", corpus / "pipeline.cfg") == 2
    assert capsys.readouterr().err == (
        f"input error: alphabet mismatch: {minspec} and the legal specification "
        f"{corpus / 'maxspec.aut'} list other events or another order\n")
    assert not (corpus / "out").exists()


def test_minimal_spec_with_states_named_sink(corpus_run):
    # the liveness tracker totalizes the minimal spec; its sink gets a name
    # no state has, so states named `sink` and `sink0` change no artifact
    spec = re.sub(r"(?<= )[01]\b", lambda m: ("sink", "sink0")[int(m.group())],
                  (corpus_run / "minspec.aut").read_text())
    assert "initial sink\ntrans sink a1 sink0\n" in spec
    (corpus_run / "sinkspec.aut").write_text(spec)
    cfg = json.loads((corpus_run / "pipeline.cfg").read_text())
    cfg.update(minimal_spec="sinkspec.aut", alphabet_from="sinkspec.aut", output_dir="sinks")
    (corpus_run / "sinks.cfg").write_text(json.dumps(cfg))
    assert run_cli("--quiet", "pipeline", corpus_run / "sinks.cfg") == 0
    assert files_under(corpus_run / "sinks") == files_under(corpus_run / "out")


def test_input_errors_name_no_line(corpus, tmp_path, capsys):
    # a missing file or a wrong automaton type is no error of a parsed line
    assert run_cli("info", tmp_path / "nofile.aut") == 2
    err = capsys.readouterr().err
    assert "no such file" in err and "line 0" not in err
    assert run_cli("synth-omega", "--plant", corpus / "minspec.aut",
                   "--legal", corpus / "m1.aut", "--minimal", corpus / "minspec.aut",
                   "--out", tmp_path / "supw.aut") == 2
    err = capsys.readouterr().err
    assert "m1.aut: expected BuchiAutomaton or RabinBuchiAutomaton" in err
    assert "line 0" not in err
    # nor is a line the file lacks
    noinit = tmp_path / "noinit.aut"
    noinit.write_text("automaton x\ntype star\nevents a:u\n")
    nobuchi = tmp_path / "nobuchi.aut"
    nobuchi.write_text("automaton x\ntype buchi\nevents a:u\ninitial 0\n")
    rabin = tmp_path / "rabin.aut"
    rabin.write_text("automaton x\ntype buchi\nevents a:u\ninitial 0\nbuchi 0\nrabin R 0 ; I 0\n")
    for path, message in [(noinit, "missing 'initial' line"),
                          (nobuchi, "buchi automata need a 'buchi' line"),
                          (rabin, "buchi automata carry no 'rabin' line")]:
        assert run_cli("info", path) == 2
        assert capsys.readouterr().err == f"parse error: {path}: {message}\n"


def test_readme_stage_chain_matches_pipeline(corpus_run, tmp_path):
    # the README's per-stage commands, from `product` to `verify`, write
    # what `pipeline` writes
    c, t, out = corpus_run, tmp_path, corpus_run / "out"
    supervisors = ("--plant", t / "plant.aut", "--sup-star", t / "sup_star.aut",
                   "--sup-omega", t / "sup_omega.aut", "--minimal", c / "minspec.aut")
    steps = [
        ("product", *(c / f"{n}.aut" for n in ("m1", "b1", "m2", "b2", "f1", "f2")),
         "--out", t / "plant.aut"),
        ("synth-safety", "--plant", t / "plant.aut",
         "--spec", c / "bufspec1.aut", c / "bufspec2.aut", c / "muxspec.aut",
         "--out", t / "sup_star.aut"),
        ("synth-omega", "--plant", t / "sup_star.aut", "--legal", c / "maxspec.aut",
         "--minimal", c / "minspec.aut", "--out", t / "sup_omega.aut"),
        ("localize", *supervisors, "--out-dir", t / "controllers"),
        ("verify", *supervisors, "--controllers", t / "controllers", "--report", t / "report.json"),
    ]
    for step in steps:
        assert run_cli("--quiet", *step) == 0, step[0]
    plant = (out / "plant.aut").read_text().replace("automaton plant", "automaton product")
    assert (t / "plant.aut").read_text() == plant
    written = sorted(p.relative_to(t) for p in (t / "controllers").iterdir())
    assert written == sorted(p.relative_to(out) for p in (out / "controllers").iterdir())
    for f in [Path("sup_star.aut"), Path("sup_omega.aut")] + written:
        assert (t / f).read_bytes() == (out / f).read_bytes(), f


def _config(text):
    def case(corpus, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        return ("pipeline", cfg), cfg
    return case


def _not_utf8(corpus, tmp_path):
    aut = tmp_path / "latin1.aut"
    aut.write_bytes("# d\xe9p\xf4t\n".encode("latin-1"))
    return ("info", aut), aut


def _verify_without_manifest(corpus, tmp_path):
    out = corpus / "out"
    return ("verify", "--plant", out / "plant.aut", "--sup-star", out / "sup_star.aut",
            "--sup-omega", out / "sup_omega.aut", "--minimal", corpus / "minspec.aut",
            "--controllers", tmp_path), tmp_path / "manifest.json"


def _verify_bad_manifest(corpus, tmp_path):
    (tmp_path / "manifest.json").write_text(
        '[{"name": "loc_a1_safety", "event": "a1", "kind": "bogus", "part": "none"}]')
    return _verify_without_manifest(corpus, tmp_path)


def _localize_into_file(corpus, tmp_path):
    out = corpus / "out"
    return ("localize", "--plant", out / "plant.aut", "--sup-star", out / "sup_star.aut",
            "--sup-omega", out / "sup_omega.aut", "--minimal", corpus / "minspec.aut",
            "--out-dir", out / "plant.aut"), out / "plant.aut"


def _synth_safety_into_missing_dir(corpus, tmp_path):
    sup = tmp_path / "no" / "sup.aut"
    return ("synth-safety", "--plant", corpus / "out" / "plant.aut",
            "--spec", corpus / "bufspec1.aut", "--out", sup), sup


@pytest.mark.parametrize("case,named", [
    (_config("{not json"), ()),
    (_config("{}"), ("plant_components", "safety_specs", "legal_spec", "minimal_spec",
                     "output_dir")),
    (_config("[1, 2]"), ("list",)),
    (_config('{"plant_components": "m1.aut", "safety_specs": [], "legal_spec": "",'
             ' "minimal_spec": "", "output_dir": ""}'), ("plant_components",)),
    (lambda corpus, tmp_path: (("pipeline", tmp_path / "none.cfg"), tmp_path / "none.cfg"),
     ("no such file",)),
    (lambda corpus, tmp_path: (("info", tmp_path), tmp_path), ()),
    (_not_utf8, ()),
    (_verify_without_manifest, ()),
    (_verify_bad_manifest, ("bogus",)),
    (_localize_into_file, ()),
    (_synth_safety_into_missing_dir, ()),
], ids=["malformed-json", "no-keys", "not-an-object", "path-not-a-list", "missing-config",
        "info-directory", "info-not-utf8", "verify-no-manifest", "verify-bad-manifest",
        "localize-into-file", "out-in-missing-dir"])
def test_unusable_inputs_are_input_errors(corpus_run, tmp_path, capsys, case, named):
    args, path = case(corpus_run, tmp_path)
    assert run_cli("--quiet", *args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("input error: ")
    for fragment in (str(path),) + named:
        assert fragment in err


def test_game_verdict_comes_before_existence_check(tmp_path, capsys):
    # instance r0000 of the random-small benchmark, seed 0: the game loses
    # the initial state, and the existence check, asked first, failed with
    # the witness ['e2', 'e3', 'e2', 'e1', 'e3'] ; ['e0']
    data = tmp_path / "r0000"
    shutil.copytree(DATA / "r0000", data)
    out = data / "out"
    runs = [("pipeline", data / "pipeline.cfg"),
            ("synth-omega", "--plant", out / "sup_star.aut", "--legal", data / "legal.aut",
             "--minimal", data / "minimal.aut", "--out", tmp_path / "supw.aut")]
    for run in runs:
        assert run_cli(*run) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"existence": False, "initial_lost": True}
        assert captured.err == ("no liveness supervisor: the controllability game loses "
                                "the initial state\n")
    assert (out / "legal_product.aut").exists()
    assert not (out / "sup_omega.aut").exists()
    assert not (tmp_path / "supw.aut").exists()


def test_safety_spec_with_liveness_rejected(corpus_run, tmp_path, capsys):
    # f1's fairness and the legal product's Rabin pair are no safety
    # properties, and cutting them to their star core would drop them
    c = corpus_run
    specs = (c / "bufspec1.aut", c / "muxspec.aut")
    for spec, kind in [(c / "f1.aut", "got BuchiAutomaton with unmarked state(s) 1"),
                       (c / "out" / "legal_product.aut", "got RabinBuchiAutomaton")]:
        assert run_cli("synth-safety", "--plant", c / "out" / "plant.aut",
                       "--spec", *specs, spec, "--out", tmp_path / "sup.aut") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {spec}: ") and kind in err
    assert not (tmp_path / "sup.aut").exists()
    cfg = json.loads((c / "pipeline.cfg").read_text())
    cfg["safety_specs"].append("f1.aut")
    (c / "fair.cfg").write_text(json.dumps(cfg))
    assert run_cli("pipeline", c / "fair.cfg") == 2
    assert capsys.readouterr().err.startswith(f"input error: {c / 'f1.aut'}: ")


def test_fully_marked_buchi_safety_spec(corpus_run, tmp_path, capsys):
    # `product` of star components marks every state; as a safety
    # specification that means exactly its finite behaviour
    c, spec = corpus_run, tmp_path / "spec.aut"
    assert run_cli("--quiet", "product", c / "bufspec1.aut", c / "bufspec2.aut",
                   c / "muxspec.aut", "--out", spec) == 0
    assert run_cli("info", spec) == 0
    info = json.loads(capsys.readouterr().out)
    assert (info["type"], info["states"], info["buchi"]) == ("buchi", 12, 12)
    assert run_cli("--quiet", "synth-safety", "--plant", c / "out" / "plant.aut",
                   "--spec", spec, "--out", tmp_path / "sup_star.aut") == 0
    assert (tmp_path / "sup_star.aut").read_bytes() == (c / "out" / "sup_star.aut").read_bytes()


def test_parse_error_names_file(corpus, capsys):
    f1 = corpus / "f1.aut"
    f1.write_text(f1.read_text() + "bogus 1\n")
    assert run_cli("pipeline", corpus / "pipeline.cfg") == 2
    assert capsys.readouterr().err == f"parse error: {f1}: line 11: unknown key 'bogus'\n"


@pytest.mark.parametrize("case", ["r0000", "r0002", "r0067", "r0932"])
def test_stage_chain_gives_pipeline_verdict(tmp_path, capsys, case):
    # `pipeline` and `synth-safety` -> `synth-omega` build each supervisor
    # with the same stage function, so they agree on the verdict
    data, t = tmp_path / case, tmp_path
    shutil.copytree(DATA / case, data)
    out = data / "out"
    code = run_cli("pipeline", data / "pipeline.cfg")
    piped = capsys.readouterr()
    steps = [("synth-safety", "--plant", out / "plant.aut", "--spec", data / "spec.aut",
              "--out", t / "sup_star.aut"),
             ("synth-omega", "--plant", t / "sup_star.aut", "--legal", data / "legal.aut",
              "--minimal", data / "minimal.aut", "--out", t / "sup_omega.aut")]
    for step in steps:
        step_code = run_cli(*step)
        staged = capsys.readouterr()
        if step_code:
            break
    assert step_code == code and staged.err == piped.err
    if code:
        assert json.loads(staged.out) == json.loads(piped.out)
        return
    report = json.loads(piped.out)
    sizes = json.loads(staged.out)
    assert report["sup_omega"] == {k: sizes[k] for k in ("states", "transitions", "buchi")}
    for f in ("sup_star.aut", "sup_omega.aut"):
        assert (t / f).read_bytes() == (out / f).read_bytes(), f


@pytest.mark.parametrize("case", ["r0475", "r0480", "r0647", "r0742", "r0932", "r1158",
                                  "small-factory", "f4"])
def test_pipeline_outputs_match_recorded_digests(tmp_path, case):
    # r0647, r0742 and r1158 are instances of the random-small benchmark,
    # seed 0, and r0475, r0480 and r0932 of seed 1; on the first five
    # another tie-break in the game's base pattern map changes phi.  The
    # digests were recorded while the game still had one node per control
    # pattern.  f4 is the benchmark's 4-machine factory (a 1,888-state
    # plant), written by perfbench.factory; its digests were recorded
    # before automata kept per-state successor rows.
    data = tmp_path / case
    shutil.copytree(CORPUS if case == "small-factory" else DATA / case, data,
                    ignore=shutil.ignore_patterns("out"))
    assert run_cli("--quiet", "pipeline", data / "pipeline.cfg") == 0
    out = data / "out"
    digests = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.is_file()}
    assert digests == json.loads((DATA / "pipeline_sha256.json").read_text())[case]
