import random

import pytest

from oracles import enumerate_language

from suploc.automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    LassoWord,
    StarAutomaton,
    extend_alphabet,
    lasso_in_star,
    run_lasso,
)
from suploc import models
from suploc.omega import (
    StarLanguageHandle,
    clo_automaton,
    is_deadlock_free,
    omega_contained_single_pair,
    pre_automaton,
    star_contained,
    star_equal,
)
from suploc.verify import random_alphabet, random_buchi, random_lasso, random_star_automaton


def test_pre_deadlock_free_buchi_keeps_structure():
    f1 = models.removal_fairness(1)
    handle = pre_automaton(f1)
    assert set(handle.automaton.states) == set(f1.core.states)
    assert handle.automaton.transitions == f1.core.transitions


def test_pre_prunes_dead_end():
    al = Alphabet.make(("a", "b"))
    core = StarAutomaton(al, (0, 1, 2), 0,
                         {(0, "a"): 1, (0, "b"): 2, (1, "a"): 1})
    b = BuchiAutomaton(core, frozenset({1}))
    handle = pre_automaton(b)
    assert set(handle.automaton.states) == {0, 1}
    full = enumerate_language(core, 5)
    pruned = enumerate_language(handle.automaton, 5)
    assert pruned < full
    assert all(w for w in full - pruned if "b" in w)


def test_pre_of_empty():
    al = Alphabet.make(("a",))
    core = StarAutomaton(al, (0,), 0, {})
    assert pre_automaton(BuchiAutomaton(core, frozenset())).is_empty


def test_clo_fixpoint_on_alternation_spec():
    mins = models.alternation_spec()
    clo = clo_automaton(mins)
    rng = random.Random(2)
    for _ in range(60):
        w = random_lasso(rng, mins.alphabet)
        assert run_lasso(clo, w) == run_lasso(mins, w)


def test_clo_strictly_larger_for_fairness():
    # a run that parks in the pending state forever is in the closure but
    # not in the accepted behavior
    f1 = models.removal_fairness(1)
    pend = StarAutomaton(f1.core.alphabet, f1.core.states, f1.core.initial,
                         dict(f1.core.transitions) | {(1, "b1"): 1})
    b = BuchiAutomaton(pend, f1.accepting)
    clo = clo_automaton(b)
    w = LassoWord(("b1",), ("b1",))
    assert run_lasso(clo, w)
    assert not run_lasso(b, w)


def test_clo_idempotent_random():
    rng = random.Random(7)
    for _ in range(20):
        al = random_alphabet(rng, 3)
        b = random_buchi(rng, al, 4)
        once = clo_automaton(b)
        twice = clo_automaton(once)
        for _ in range(50):
            w = random_lasso(rng, al)
            assert run_lasso(once, w) == run_lasso(twice, w)


def test_clo_contains_original_sampled(sf):
    rng = random.Random(13)
    for b in (sf["plant"], models.start_fairness_spec(), models.alternation_spec()):
        clo = clo_automaton(b)
        for _ in range(60):
            w = random_lasso(rng, b.alphabet)
            if run_lasso(b, w):
                assert run_lasso(clo, w)


def test_deadlock_free_plant(sf):
    assert is_deadlock_free(sf["plant"])


def test_deadlock_free_counterexamples():
    al = Alphabet.make(("a", "b"))
    stuck = StarAutomaton(al, (0, 1), 0, {(0, "a"): 1, (0, "b"): 0})
    assert not is_deadlock_free(BuchiAutomaton(stuck, frozenset({0})))
    loop = StarAutomaton(al, (0,), 0, {(0, "a"): 0})
    assert is_deadlock_free(BuchiAutomaton(loop, frozenset({0})))


def test_star_equal_reflexive(sf):
    h = sf["sup"].handle()
    ok, _ = star_equal(h, h)
    assert ok


def test_star_equal_containment_by_construction(sf):
    # supervised behavior against plant ^ supervised behavior
    from suploc.automata import sync_product
    plant_core = sf["plant"].core
    sup_aut = sf["sup"].automaton
    meet = sync_product([plant_core, sup_aut], plant_core.alphabet)
    ok, _ = star_equal(StarLanguageHandle(meet), sf["sup"].handle())
    assert ok


def test_star_equal_depth_three_difference():
    al = Alphabet.make(("a", "b"))
    x = StarAutomaton(al, (0, 1, 2, 3), 0,
                      {(0, "a"): 1, (1, "a"): 2, (2, "a"): 3, (3, "b"): 3})
    y = StarAutomaton(al, (0, 1, 2, 3), 0,
                      {(0, "a"): 1, (1, "a"): 2, (2, "a"): 3})
    ok, witness = star_equal(StarLanguageHandle(x), StarLanguageHandle(y))
    assert not ok
    assert witness == ("a", "a", "a", "b")


def test_star_equal_is_equivalence_spotcheck():
    rng = random.Random(31)
    al = random_alphabet(rng, 3)
    autos = [StarLanguageHandle(random_star_automaton(rng, al, rng.randint(1, 4)))
             for _ in range(20)]
    for h in autos[:6]:
        assert star_equal(h, h)[0]
    for x in autos[:6]:
        for y in autos[:6]:
            assert star_equal(x, y)[0] == star_equal(y, x)[0]
    for x in autos[:5]:
        for y in autos[:5]:
            for z in autos[:5]:
                if star_equal(x, y)[0] and star_equal(y, z)[0]:
                    assert star_equal(x, z)[0]


def test_pre_monotone_idempotent():
    rng = random.Random(37)
    for _ in range(10):
        al = random_alphabet(rng, 3)
        b = random_buchi(rng, al, 5)
        h1 = pre_automaton(b)
        if h1.is_empty:
            continue
        h2 = pre_automaton(h1)
        ok, _ = star_equal(h1, h2)
        assert ok


def test_omega_containment_reflexive(sf):
    ok, _ = omega_contained_single_pair(sf["prod"], sf["prod"])
    assert ok


def test_omega_containment_counterexample():
    f1 = extend_alphabet(models.removal_fairness(1), models.alphabet())
    f2 = extend_alphabet(models.removal_fairness(2), models.alphabet())
    from suploc.automata import buchi_intersection
    both = buchi_intersection(f1, f2)
    ok, witness = omega_contained_single_pair(f1, both, a_layer="buchi", b_layer="buchi")
    assert not ok
    assert run_lasso(f1, witness)
    assert not run_lasso(both, witness)


def test_omega_containment_multi_pair_rejected(sf):
    from suploc.automata import RabinBuchiAutomaton
    core = sf["prod"].core
    multi = RabinBuchiAutomaton(core, sf["prod"].buchi,
                                sf["prod"].rabin_pairs * 2)
    with pytest.raises(AutomatonError):
        omega_contained_single_pair(multi, multi)


def test_omega_containment_random_sound():
    # on random pairs, verify the verdict against lasso sampling
    rng = random.Random(41)
    for _ in range(15):
        al = random_alphabet(rng, 3)
        a = random_buchi(rng, al, 4)
        b = random_buchi(rng, al, 4)
        ok, witness = omega_contained_single_pair(a, b, a_layer="buchi", b_layer="buchi")
        if ok:
            for _ in range(200):
                w = random_lasso(rng, al)
                assert not (run_lasso(a, w) and not run_lasso(b, w))
        else:
            assert run_lasso(a, witness) and not run_lasso(b, witness)


def test_star_contained():
    al = Alphabet.make(("a", "b"))
    big = StarAutomaton(al, (0,), 0, {(0, "a"): 0, (0, "b"): 0})
    small = StarAutomaton(al, (0,), 0, {(0, "a"): 0})
    ok, _ = star_contained(StarLanguageHandle(small), StarLanguageHandle(big))
    assert ok
    ok, witness = star_contained(StarLanguageHandle(big), StarLanguageHandle(small))
    assert not ok and witness == ("b",)


def test_limit_membership_by_running():
    mins = models.alternation_spec()
    w_in = LassoWord((), ("a1", "b1", "g1", "a2", "b2", "g2"))
    w_out = LassoWord(("a1",), ("a1",))
    assert lasso_in_star(mins.core, w_in)
    assert not lasso_in_star(mins.core, w_out)
