import random

import pytest

from harness import random_alphabet, random_buchi, random_lasso, random_star_automaton
from oracles import (
    enumerate_language,
    run_star,
    star_compare_by_explore,
    supremal_controllable_finite,
)
from perfbench.checks import controllable_inside

from suploc.automata import (
    Alphabet,
    AutomatonError,
    StarAutomaton,
    all_accepting,
    lasso_in_star,
    run_lasso,
)
from suploc.omega import StarLanguageHandle
from suploc.safety import controlled_plant, sup_con_star


def test_factory_supervisor_counts(sf):
    sup = sf["sup"]
    assert len(sup.automaton.states) == 8
    assert sup.automaton.n_transitions() == 14
    assert len(sf["closed"].accepting) == 5


def test_no_constraint_keeps_plant(sf):
    plant = sf["plant"]
    spec = StarLanguageHandle(plant.core)
    sup = sup_con_star(plant, spec)
    assert star_compare_by_explore(sup.automaton, plant.core) == (True, None)


def _toy_instance():
    """Acyclic plant where an uncontrollable event must be pre-empted by
    disabling the controllable step before it."""
    al = Alphabet.make(("c", "u", "d"), ("c",))
    plant_core = StarAutomaton(al, (0, 1, 2, 3), 0,
                               {(0, "c"): 1, (1, "u"): 2, (0, "d"): 3})
    plant = all_accepting(plant_core)
    # the specification forbids u entirely
    spec_core = StarAutomaton(al, (0, 1), 0, {(0, "c"): 1, (0, "d"): 1})
    return al, plant, StarLanguageHandle(spec_core)


def test_supremal_matches_bruteforce_on_toy():
    al, plant, spec = _toy_instance()
    sup = sup_con_star(plant, spec)
    plant_lang = enumerate_language(plant.core, 8)
    legal = enumerate_language(spec.automaton, 8)
    expected = supremal_controllable_finite(plant_lang | legal, legal,
                                            al.uncontrollable, plant_lang)
    assert enumerate_language(sup.automaton, 8) == expected
    # the c-step had to go: its uncontrollable continuation was illegal
    assert run_star(sup.automaton, ("c",)) is None
    assert run_star(sup.automaton, ("d",)) is not None


def test_supremal_fixpoint(sf):
    plant = sf["plant"]
    again = sup_con_star(plant, sf["sup"])
    assert star_compare_by_explore(again.automaton, sf["sup"].automaton) == (True, None)


def test_supremal_maximality_bruteforce_random():
    rng = random.Random(9)
    done = 0
    while done < 8:
        al = random_alphabet(rng, 3)
        plant_core = random_star_automaton(rng, al, 4)
        # acyclic-ify by keeping only forward edges, so languages are finite
        trans = {k: v for k, v in plant_core.transitions.items() if v > k[0]}
        plant_core = StarAutomaton(al, plant_core.states, plant_core.initial, trans)
        spec_core = random_star_automaton(rng, al, 3)
        plant = all_accepting(plant_core)
        sup = sup_con_star(plant, StarLanguageHandle(spec_core))
        plant_lang = enumerate_language(plant_core, 8)
        legal = {w for w in enumerate_language(spec_core, 8) if w in plant_lang}
        expected = supremal_controllable_finite(plant_lang, legal,
                                                al.uncontrollable, plant_lang)
        got = enumerate_language(sup.automaton, 8) if not sup.is_empty else set()
        if not expected:
            assert got == set() or got == {()} and () in expected
        else:
            assert got == expected
        done += 1


def test_supervisor_contained_in_plant_and_spec(sf):
    sup = sf["sup"].automaton
    for outer in (sf["plant"].core, sf["spec"].automaton):
        assert star_compare_by_explore(sup, outer, True) == (True, None)


def test_empty_supremal_is_value_not_error():
    al = Alphabet.make(("u",))
    plant = all_accepting(StarAutomaton(al, (0, 1), 0, {(0, "u"): 1}))
    spec = StarLanguageHandle(StarAutomaton(al, (0,), 0, {}))
    sup = sup_con_star(plant, spec)
    assert sup.is_empty
    with pytest.raises(AutomatonError):
        controlled_plant(plant, sup)


def test_controlled_plant_factory_marking(sf):
    closed = sf["closed"]
    assert len(closed.accepting) == 5
    assert closed.core is sf["sup"].automaton


def test_controlled_plant_identity_spec(sf):
    plant = sf["plant"]
    sup = sup_con_star(plant, StarLanguageHandle(plant.core))
    closed = controlled_plant(plant, sup)
    rng = random.Random(15)
    for _ in range(100):
        w = random_lasso(rng, plant.alphabet)
        assert run_lasso(closed, w) == run_lasso(plant, w)


def test_controlled_plant_omega_language_random_toys():
    rng = random.Random(21)
    done = 0
    while done < 8:
        al = random_alphabet(rng, 3)
        plant = random_buchi(rng, al, rng.randint(2, 5))
        spec = StarLanguageHandle(random_star_automaton(rng, al, rng.randint(2, 4)))
        sup = sup_con_star(plant, spec)
        if sup.is_empty:
            continue
        closed = controlled_plant(plant, sup)
        for _ in range(200):
            w = random_lasso(rng, al)
            want = run_lasso(plant, w) and lasso_in_star(sup.automaton, w)
            assert run_lasso(closed, w) == want
        done += 1


# `controllable_inside`, the benchmark's walk, is the tests' controllability check
def test_check_controllability_of_synthesis_output(sf):
    al = sf["plant"].alphabet
    assert controllable_inside([sf["plant"].core], sf["sup"].automaton, al.uncontrollable,
                               al.events) is None


def test_check_controllability_witness():
    al = Alphabet.make(("c", "u"), ("c",))
    plant = StarAutomaton(al, (0, 1), 0, {(0, "u"): 1})
    k = StarAutomaton(al, (0,), 0, {})
    assert controllable_inside([plant], k, al.uncontrollable, al.events) == (
        "after (empty string): disables uncontrollable ['u']")
