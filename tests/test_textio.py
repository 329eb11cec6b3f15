import pytest

from harness import corpus_texts

from suploc.automata import BuchiAutomaton, RabinBuchiAutomaton, StarAutomaton
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
