import json
import shutil
from pathlib import Path

import pytest

from suploc.automata import Alphabet, sync_product
from suploc.cli import main
from suploc.textio import load_automaton, serialize_automaton

CORPUS = Path(__file__).resolve().parents[1] / "corpus" / "small-factory"
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


def test_product_of_components_with_different_alphabets(corpus, tmp_path, capsys):
    assert run_cli("--quiet", "product", corpus / "m1.aut", corpus / "m2.aut",
                   "--out", tmp_path / "p.aut") == 0
    m1, m2 = load_automaton(corpus / "m1.aut")[1], load_automaton(corpus / "m2.aut")[1]
    both = Alphabet.make(("a1", "b1", "a2", "b2"), ("a1", "a2"))
    expected = serialize_automaton("product", sync_product([m1, m2], both))
    assert (tmp_path / "p.aut").read_text() == expected


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


def test_empty_safety_supervisor_is_negative_verdict(tmp_path, capsys):
    # the uncontrollable u leaves the initial state and the spec forbids it
    (tmp_path / "plant.aut").write_text(
        "automaton plant\ntype star\nevents c:c u:u\ninitial 0\n"
        "trans 0 c 0\ntrans 0 u 1\n")
    (tmp_path / "spec.aut").write_text(
        "automaton spec\ntype star\nevents c:c u:u\ninitial 0\ntrans 0 c 0\n")
    (tmp_path / "live.aut").write_text(
        "automaton live\ntype buchi\nevents c:c u:u\ninitial 0\ntrans 0 c 0\nbuchi 0\n")
    (tmp_path / "p.cfg").write_text(json.dumps({
        "plant_components": ["plant.aut"], "safety_specs": ["spec.aut"],
        "legal_spec": "live.aut", "minimal_spec": "live.aut", "output_dir": "out"}))
    assert run_cli("pipeline", tmp_path / "p.cfg") == 3
    assert "no safety supervisor" in capsys.readouterr().err
    assert run_cli("synth-safety", "--plant", tmp_path / "out" / "plant.aut",
                   "--spec", tmp_path / "spec.aut", "--out", tmp_path / "sup.aut") == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"empty": True}
    assert "no safety supervisor" in captured.err
    assert not (tmp_path / "sup.aut").exists()


def test_spec_over_foreign_events_is_input_error(corpus_run, tmp_path, capsys):
    spec = tmp_path / "zz.aut"
    spec.write_text("automaton zz\ntype star\nevents a1:c zz:u\ninitial 0\ntrans 0 a1 0\n")
    assert run_cli("synth-safety", "--plant", corpus_run / "out" / "plant.aut",
                   "--spec", spec, "--out", tmp_path / "sup.aut") == 2
    assert "['zz'] not in global alphabet" in capsys.readouterr().err


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
