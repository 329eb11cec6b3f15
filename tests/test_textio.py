import random

import pytest

from harness import (
    corpus_texts,
    random_alphabet,
    random_buchi,
    random_single_pair,
    random_star_automaton,
)

from suploc import textio
from suploc.automata import Alphabet, BuchiAutomaton, RabinBuchiAutomaton, StarAutomaton
from suploc.textio import ParseError, parse_automaton, serialize_automaton, to_dot

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
])
def test_parse_strictness(line, fragment):
    text = SAMPLE + line + "\n"
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    text = SAMPLE + "bogus\n"
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    assert err.value.line_no == 9


def test_missing_sections():
    with pytest.raises(ParseError):
        parse_automaton("automaton x\ntype buchi\nevents a:u\ninitial 0\n")


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
        canonical = (core if buchi is None else BuchiAutomaton(core, buchi) if pairs is None
                     else RabinBuchiAutomaton(core, buchi, pairs))
        assert textio._canonical(canonical)[0] is core
        assert serialize_automaton("x", canonical) == text


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
