import builtins
import os
import random
import re
import shutil
import stat

import pytest

from harness import (
    CORPUS,
    corpus_texts,
    random_alphabet,
    random_buchi,
    random_single_pair,
    random_star_automaton,
)
from oracles import dot_by_lines, serialize_by_lines

from suploc import textio
from suploc.automata import (
    Alphabet,
    BuchiAutomaton,
    OmegaAutomaton,
    RabinBuchiAutomaton,
    StarAutomaton,
)
from suploc.cli import main
from suploc.localization import localize_all
from suploc.textio import ParseError, parse_automaton, serialize_automaton, to_dot, write_text

SAMPLE = """\
# a tiny machine
automaton m1
type star
events a1:c b1:u

initial 0
trans 0 a1 1
trans 1 b1 0
"""


def test_parse_star():
    name, aut = parse_automaton(SAMPLE)
    assert name == "m1"
    assert isinstance(aut, StarAutomaton)
    assert aut.alphabet.controllable == {"a1"}
    assert aut.transitions == {("0", "a1"): "1", ("1", "b1"): "0"}


def test_parse_buchi_and_rabin():
    text = SAMPLE.replace("type star", "type buchi") + "buchi 0\n"
    name, aut = parse_automaton(text)
    assert isinstance(aut, BuchiAutomaton)
    assert aut.accepting == {"0"}

    text = (SAMPLE.replace("type star", "type rabin-buchi")
            + "buchi 0 1\nrabin R 0 ; I 0 1\n")
    _, aut = parse_automaton(text)
    assert isinstance(aut, RabinBuchiAutomaton)
    assert aut.rabin_pairs == ((frozenset({"0"}), frozenset({"0", "1"})),)


@pytest.mark.parametrize("line,fragment", [
    ("frobnicate 1 2", "unknown key"),
    ("trans 0 zz 1", "unknown event"),
    ("trans 0 a1 2\ntrans 0 a1 3", "nondeterministic"),
    ("events a1", "needs :c or :u"),
    ("trans 0 a1", "trans takes: src event dst"),
    ("automaton y z", "automaton takes exactly one name"),
    ("type omega", "unknown type 'omega'"),
    ("events a1:x", "bad event spec 'a1:x'"),
    ("rabin R 0 I 0", "rabin line must read: R <states> ; I <states>"),
    ("rabin R 0 ; J 0", "rabin line must read: R <states> ; I <states>"),
])
def test_parse_strictness(line, fragment):
    text = SAMPLE + line + "\n"
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("line,line_no,key", [
    ("automaton y", 9, "automaton"),
    ("type buchi", 9, "type"),
    ("events b1:u a1:c", 9, "events"),
    ("events a1:c", 9, "events"),
    ("initial 1", 9, "initial"),
    ("initial 0", 9, "initial"),
])
def test_parse_rejects_repeated_header_lines(line, line_no, key):
    # a second header line used to replace the first: a star text would
    # parse as Buchi automaton y, or with its alphabet reordered
    first = {"automaton": 2, "type": 3, "events": 4, "initial": 6}[key]
    with pytest.raises(ParseError) as err:
        parse_automaton(SAMPLE + line + "\nbuchi 1\n")
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: repeated {key!r} line (first on line {first})"


def test_parse_repeat_check_follows_line_checks():
    # a malformed second line is reported as malformed; a dropped event
    # used by a trans line is caught at the repeated line, with its number
    for line, message in [("events a1", "line 9: event 'a1' needs :c or :u"),
                          ("events a1:c a1:u", "line 9: duplicate event labels"),
                          ("initial", "line 9: initial takes exactly one state"),
                          ("events a1:c", "line 9: repeated 'events' line (first on line 4)")]:
        with pytest.raises(ParseError) as err:
            parse_automaton(SAMPLE + line + "\n")
        assert str(err.value) == message


def test_parse_trans_before_events():
    # the transition's event is declared, but on a later line
    text = "automaton m\ntype star\ninitial 0\ntrans 0 a 1\nevents a:c\n"
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    assert str(err.value) == "line 4: 'trans' line before the 'events' line"


def test_parse_allows_repeated_acceptance_lines():
    # `buchi` lines may repeat; a second `rabin` line would be a second
    # pair, which a Rabin-Buchi automaton does not hold
    text = (SAMPLE.replace("type star", "type rabin-buchi")
            + "buchi 0\nbuchi 1\nrabin R 0 ; I 0 1\n")
    _, aut = parse_automaton(text)
    assert aut.buchi == {"0", "1"} and len(aut.rabin_pairs) == 1
    with pytest.raises(ParseError) as err:
        parse_automaton(text + "rabin R 1 ; I 1\n")
    assert str(err.value) == "line 12: repeated 'rabin' line (first on line 11)"


def test_parse_error_carries_line_number():
    text = SAMPLE + "bogus\n"
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    assert err.value.line_no == 9


def test_missing_sections():
    # an error of the whole text names no line
    for text, message in [
            ("automaton x\ntype buchi\nevents a:u\ninitial 0\n",
             "buchi automata need a 'buchi' line"),
            ("automaton x\ntype star\nevents a:u\n", "missing 'initial' line"),
            ("automaton x\ntype star\nevents a:u\ninitial 0\nbuchi 0\n",
             "star automata carry no acceptance lines"),
            # the pair was dropped and its states became unreachable core states
            ("automaton x\ntype buchi\nevents a:c\ninitial 0\ntrans 0 a 0\nbuchi 0\n"
             "rabin R 7 ; I 7 8\n", "buchi automata carry no 'rabin' line"),
            ("automaton x\ntype rabin-buchi\nevents a:u\ninitial 0\nbuchi 0\n",
             "rabin-buchi automata need 'buchi' and 'rabin' lines")]:
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert str(err.value) == message
        assert err.value.line_no is None


def test_round_trip_corpus():
    for file_name, source in corpus_texts().items():
        if not file_name.endswith(".aut"):
            continue
        name, aut = parse_automaton(source)
        text = serialize_automaton(name, aut)
        name2, parsed = parse_automaton(text)
        assert name2 == name
        assert serialize_automaton(name2, parsed) == text


def test_round_trip_pipeline_artifacts(sf):
    for name, aut in (("plant", sf["plant"]), ("prod", sf["prod"]),
                      ("supw", BuchiAutomaton(sf["supw"].automaton, sf["supw"].buchi_lift))):
        text = serialize_automaton(name, aut)
        _, parsed = parse_automaton(text)
        assert serialize_automaton(name, parsed) == text


def test_dot_export(sf):
    dot = to_dot("plant", sf["plant"])
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    dot2 = to_dot("prod", sf["prod"])
    assert "R1" in dot2


def test_dot_escapes_quotes_and_backslashes():
    # the parser accepts `"` and `\` in event labels, so the name of a
    # controller may hold them too; in DOT's quoted strings each gets a backslash
    _, aut = parse_automaton('automaton x\ntype star\nevents a"1:c b\\2:u\ninitial 0\n'
                             'trans 0 a"1 0\ntrans 0 b\\2 0\n')
    dot = to_dot('loc_a"1_live_c1', aut)
    assert dot.startswith('digraph "loc_a\\"1_live_c1" {\n')
    assert '[label="a\\"1"]' in dot and '[label="b\\\\2"]' in dot
    # outside the escapes, every line holds whole quoted strings
    assert all(re.sub(r"\\.", "", line).count('"') % 2 == 0 for line in dot.splitlines())
    assert dot == dot_by_lines('loc_a"1_live_c1', aut)


def relabelled(aut, name_of, order):
    """A copy of `aut` built by the constructor, state q renamed to
    name_of(q), with the states listed in the order `order` gives them."""
    core = aut if isinstance(aut, StarAutomaton) else aut.core
    m = {q: name_of(q) for q in core.states}
    copy = StarAutomaton(core.alphabet, tuple(m[q] for q in order(core.states)), m[core.initial],
                         {(m[q], e): m[t] for q in core.states for e, t in core.moves(q)})
    if isinstance(aut, StarAutomaton):
        return copy
    if isinstance(aut, BuchiAutomaton):
        return BuchiAutomaton(copy, frozenset(m[q] for q in aut.accepting))
    return RabinBuchiAutomaton(copy, frozenset(m[q] for q in aut.buchi),
                               tuple((frozenset(m[q] for q in r), frozenset(m[q] for q in i))
                                     for r, i in aut.rabin_pairs))


def test_serialization_ignores_numbering():
    # the canonical form is the same whether the states already carry the
    # BFS numbering (the shortcut) or must be renumbered
    rng = random.Random(4242)
    for k in range(90):
        al = random_alphabet(rng, rng.randint(1, 5))
        n = rng.randint(1, 9)
        make = (random_star_automaton, random_buchi, random_single_pair)[k % 3]
        aut = make(rng, al, n, density=rng.random())
        text = serialize_automaton("x", aut)
        ids = list(range(3 * n))
        rng.shuffle(ids)

        def shuffled(states):
            return rng.sample(states, len(states))
        for name_of, order in ((lambda q: ids[q], shuffled), (lambda q: f"s{q}", shuffled),
                               (lambda q: q, shuffled)):
            assert serialize_automaton("x", relabelled(aut, name_of, order)) == text
        _, parsed = parse_automaton(text)
        assert serialize_automaton("x", parsed) == text
        # the canonical form itself is BFS-numbered: the shortcut serializes it
        core, buchi, pairs = textio._canonical(aut)
        canonical = (core if buchi is None else BuchiAutomaton(core, buchi) if not pairs
                     else RabinBuchiAutomaton(core, buchi, pairs))
        assert textio._canonical(canonical)[0] is core
        assert serialize_automaton("x", canonical) == text


def test_bare_record_is_written_by_its_shape():
    # an `OmegaAutomaton` built directly, neither subclass, is written as
    # the subclass instance with the same fields: ``buchi`` with no pair,
    # ``rabin-buchi`` with one
    rng = random.Random(1357)
    for make in (random_buchi, random_single_pair) * 20:
        aut = make(rng, random_alphabet(rng, 3), rng.randint(1, 6))
        bare = OmegaAutomaton(aut.core, aut.buchi, aut.rabin_pairs)
        assert type(bare) is OmegaAutomaton
        assert serialize_automaton("x", bare) == serialize_automaton("x", aut)
    core = StarAutomaton(Alphabet.make(("a",)), (0,), 0, {(0, "a"): 0})
    assert "\ntype buchi\n" in serialize_automaton("x", OmegaAutomaton(core, frozenset({0}), ()))


def test_canonical_shortcut_fires_on_bfs_numbering(sf):
    for aut in (sf["plant"], sf["prod"], sf["sup"].automaton, sf["supw"].automaton):
        core = aut if isinstance(aut, StarAutomaton) else aut.core
        assert textio._canonical(aut)[0] is core


def test_canonical_shortcut_skips_other_numberings():
    al = Alphabet.make(("a", "b"), ("a",))
    # states 0..2, but the BFS from 0 meets 2 (on a) before 1 (on b)
    swapped = BuchiAutomaton(StarAutomaton(al, (0, 1, 2), 0, {(0, "a"): 2, (0, "b"): 1}),
                             frozenset({2}))
    # state 2 is unreachable, and it is accepting
    stray = BuchiAutomaton(StarAutomaton(al, (0, 1, 2), 0, {(0, "a"): 1, (2, "b"): 0}),
                           frozenset({1, 2}))
    assert serialize_automaton("x", swapped).splitlines()[4:] == [
        "trans 0 a 1", "trans 0 b 2", "buchi 1"]
    assert serialize_automaton("x", stray).splitlines()[4:] == ["trans 0 a 1", "buchi 1"]
    for aut in (swapped, stray):
        assert textio._canonical(aut)[0] is not aut.core


def pipeline_artifacts(f) -> dict:
    """{name: automaton} of every automaton the pipeline writes, on the
    fixture pipeline `f`."""
    arts = {"plant": f["plant"], "sup-star": f["closed"], "legal-product": f["prod"],
            "sup-omega": BuchiAutomaton(f["supw"].automaton, f["supw"].buchi_lift)}
    for k, c in enumerate(localize_all(f["plant"], f["sup"], f["closed"], f["supw"])):
        arts[f"loc{k}"] = c.automaton
    return arts


@pytest.mark.parametrize("n", [2, 3, 4])
def test_serializers_match_line_oracle_on_factory(factory, n):
    for name, aut in pipeline_artifacts(factory(n)).items():
        assert serialize_automaton(name, aut) == serialize_by_lines(name, aut), name
        assert to_dot(name, aut) == dot_by_lines(name, aut), name


def test_serializers_match_line_oracle_on_random():
    # 60 automata of each type; every other one has its states renamed to
    # strings and listed out of order, so the canonical numbering explores
    rng = random.Random(1515)
    for make in (random_star_automaton, random_buchi, random_single_pair):
        for k in range(60):
            al = random_alphabet(rng, rng.randint(1, 5))
            aut = make(rng, al, rng.randint(1, 9), density=rng.random())
            if k % 2:
                aut = relabelled(aut, lambda q: f"s{q}",
                                 lambda states: rng.sample(states, len(states)))
            assert serialize_automaton("x", aut) == serialize_by_lines("x", aut)
            assert to_dot("x", aut) == dot_by_lines("x", aut)


@pytest.mark.parametrize("old", [None, "short\n", "a much longer old text\n" * 3,
                                 "sixteen bytes..\n"],
                         ids=["new-file", "longer-text", "shorter-text", "equal-length"])
def test_write_text_rewrites_in_place(tmp_path, old):
    path = tmp_path / "f.txt"
    if old is not None:
        path.write_text(old, encoding="utf-8")
    new = "new text: \u00e9t\u00e9\n"  # 16 bytes in UTF-8
    write_text(path, new)
    assert path.read_bytes() == new.encode("utf-8")


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_write_text_permissions_follow_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "by_open", "w", encoding="utf-8"):
            pass
        write_text(tmp_path / "by_write_text", "x")
    finally:
        os.umask(old)
    assert (stat.S_IMODE((tmp_path / "by_write_text").stat().st_mode)
            == stat.S_IMODE((tmp_path / "by_open").stat().st_mode))


def test_write_text_keeps_mode_and_inode(tmp_path):
    # a rewrite changes the file, not the directory entry: a hard link sees
    # the new text, as with a truncating write
    path, link = tmp_path / "f.txt", tmp_path / "link.txt"
    write_text(path, "old old old\n")
    path.chmod(0o600)
    os.link(path, link)
    inode = path.stat().st_ino
    write_text(path, "new\n")
    assert link.read_text(encoding="utf-8") == "new\n"
    assert path.stat().st_ino == inode
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_write_text_to_directory(tmp_path):
    with pytest.raises(IsADirectoryError) as err:
        write_text(tmp_path, "x")
    assert str(tmp_path) in str(err.value)


def test_pipeline_output_blocked_by_directory(tmp_path, capsys):
    data = tmp_path / "small-factory"
    shutil.copytree(CORPUS, data, ignore=shutil.ignore_patterns("out"))
    (data / "out" / "plant.aut").mkdir(parents=True)
    assert main(["--quiet", "pipeline", str(data / "pipeline.cfg")]) == 2
    assert capsys.readouterr().err == f"input error: {data / 'out' / 'plant.aut'}: Is a directory\n"


@pytest.mark.parametrize("flushed", [False, True])
def test_failed_write_leaves_the_bytes_written(tmp_path, monkeypatch, flushed):
    # the write gets 7 characters to the file object (and, with `flushed`,
    # to the file) and then fails: the file holds exactly those, not the
    # tail of the longer old text
    path = tmp_path / "f.txt"
    path.write_text("old " * 40, encoding="utf-8")
    real_open = builtins.open

    class Failing:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def write(self, text):
            self.fh.write(text[:7])
            if flushed:
                self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(textio, "open", lambda *a, **k: Failing(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        write_text(path, "new text that is cut\n")
    assert path.read_bytes() == b"new tex"


def test_pipeline_rerun_truncates_no_artifact(tmp_path, monkeypatch):
    # counted work: record every `os.open` and `open` of two pipeline runs
    # into one output directory; the second run rewrites every artifact
    # through `os.open` without O_TRUNC, and opens none with mode "w" by
    # path (`write_text` wraps the descriptor, which does not truncate)
    data = tmp_path / "small-factory"
    shutil.copytree(CORPUS, data, ignore=shutil.ignore_patterns("out"))
    real_os_open, real_open = os.open, builtins.open
    calls = []

    def os_open(path, flags, *args, **kwargs):
        calls.append((os.fsdecode(path), flags))
        return real_os_open(path, flags, *args, **kwargs)

    def open_(file, mode="r", *args, **kwargs):
        calls.append((file if isinstance(file, int) else os.fsdecode(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(builtins, "open", open_)
    argv = ["--quiet", "pipeline", str(data / "pipeline.cfg"), "--dot"]
    assert main(argv) == 0
    artifacts = {str(p) for p in (data / "out").rglob("*") if p.is_file()}
    first = calls[:]
    calls.clear()
    assert main(argv) == 0
    monkeypatch.undo()
    assert len(artifacts) == 18
    for run in (first, calls):
        written = {path for path, flags in run
                   if isinstance(flags, int) and path in artifacts}
        assert written == artifacts
    truncating = [(path, how) for path, how in calls if path in artifacts
                  and (how & os.O_TRUNC if isinstance(how, int) else "w" in how)]
    assert truncating == []
