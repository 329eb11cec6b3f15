import random

import pytest

from harness import corpus, random_alphabet, random_buchi, random_lasso, random_star_automaton
from oracles import (
    enumerate_language,
    in_projected_product,
    language_equal_upto,
    states_reaching_good_cycle,
    visit_set_by_positions,
)

from suploc.automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    LassoWord,
    StarAutomaton,
    all_accepting,
    buchi_intersection,
    extend_alphabet,
    omega_visit_set,
    reachable_trim,
    run_lasso,
    run_star,
    states_reaching_cycle,
    sync_product,
    totalize,
)


def single_loop(al, event):
    return StarAutomaton(Alphabet.make((event,)), (0,), 0, {(0, event): 0})


def test_alphabet_partition():
    al = Alphabet.make(("a", "b"), ("a",))
    assert al.controllable == {"a"}
    assert al.uncontrollable == {"b"}
    with pytest.raises(AutomatonError):
        Alphabet(("a", "b"), frozenset("a"), frozenset("a"))
    with pytest.raises(AutomatonError):
        Alphabet.make(("a", "a"))


def test_sync_product_disjoint_selfloops():
    glob = Alphabet.make(("a", "b"))
    prod = sync_product([single_loop(glob, "a"), single_loop(glob, "b")], glob)
    assert len(prod.states) == 1
    assert prod.transitions == {(0, "a"): 0, (0, "b"): 0}


def test_sync_product_shared_event():
    glob = Alphabet.make(("a1", "b1", "g1"), ("a1",))
    m1 = StarAutomaton(Alphabet.make(("a1", "b1"), ("a1",)), (0, 1), 0,
                       {(0, "a1"): 1, (1, "b1"): 0})
    b1 = StarAutomaton(Alphabet.make(("b1", "g1")), (0, 1), 0,
                       {(0, "b1"): 1, (1, "g1"): 0})
    prod = sync_product([m1, b1], glob)
    assert len(prod.states) == 4
    assert run_star(prod, ("a1", "b1", "g1")) is not None
    assert run_star(prod, ("b1",)) is None
    # oracle: membership by projections, all strings up to length 4
    for word in enumerate_language(totalize(prod), 4):
        assert (run_star(prod, word) is not None) == in_projected_product(word, [m1, b1])


def test_sync_product_rejects_foreign_events():
    glob = Alphabet.make(("a",))
    with pytest.raises(AutomatonError):
        sync_product([single_loop(glob, "b")], glob)


def test_sync_product_associative_random():
    rng = random.Random(3)
    for _ in range(12):
        al = random_alphabet(rng, 3)
        parts = [random_star_automaton(rng, al, rng.randint(1, 4)) for _ in range(3)]
        left = sync_product([sync_product(parts[:2], al), parts[2]], al)
        right = sync_product([parts[0], sync_product(parts[1:], al)], al)
        assert language_equal_upto(left, right, 6)


def test_sync_product_disjoint_projection():
    rng = random.Random(5)
    a_al = Alphabet.make(("a", "b"))
    c_al = Alphabet.make(("c", "d"))
    glob = Alphabet.make(("a", "b", "c", "d"))
    x = random_star_automaton(rng, a_al, 3)
    y = random_star_automaton(rng, c_al, 3)
    prod = sync_product([x, y], glob)
    assert len(prod.states) <= len(x.states) * len(y.states)
    for word in enumerate_language(prod, 5):
        assert run_star(x, tuple(e for e in word if e in ("a", "b"))) is not None
        assert run_star(y, tuple(e for e in word if e in ("c", "d"))) is not None


def test_reachable_trim_island():
    al = Alphabet.make(("a",))
    aut = StarAutomaton(al, (0, 1, 2, 3), 0,
                        {(0, "a"): 0, (1, "a"): 2, (2, "a"): 3, (3, "a"): 1})
    trimmed = reachable_trim(aut)
    assert trimmed.states == (0,)
    assert language_equal_upto(aut, trimmed, 6)


def test_reachable_trim_fixpoint():
    al = Alphabet.make(("a",))
    aut = StarAutomaton(al, (0, 1), 0, {(0, "a"): 1})
    assert reachable_trim(aut) == aut


def test_reachable_trim_language_random():
    rng = random.Random(11)
    for _ in range(10):
        al = random_alphabet(rng, 3)
        aut = random_star_automaton(rng, al, 10)
        assert language_equal_upto(aut, reachable_trim(aut), 6)


def test_totalize_minspec():
    mins = corpus()["minspec"].core
    total = totalize(mins)
    assert len(total.states) == 7
    assert all(len(total.enabled(q)) == 6 for q in total.states)
    # original language recoverable: non-sink runs coincide
    for word in enumerate_language(mins, 5):
        assert run_star(mins, word) == run_star(total, word)


def test_totalize_already_total():
    al = Alphabet.make(("a",))
    aut = StarAutomaton(al, (0,), 0, {(0, "a"): 0})
    assert totalize(aut) is aut


def test_totalize_single_state_two_events():
    al = Alphabet.make(("a", "b"))
    aut = StarAutomaton(al, (0,), 0, {})
    total = totalize(aut)
    assert len(total.states) == 2
    assert total.n_transitions() == 4


def test_run_star_empty_word():
    al = Alphabet.make(("a",))
    aut = StarAutomaton(al, (0,), 0, {(0, "a"): 0})
    assert run_star(aut, ()) == 0


def test_run_star_undefined():
    al = Alphabet.make(("a", "b"))
    aut = StarAutomaton(al, (0,), 0, {(0, "a"): 0})
    assert run_star(aut, ("a", "b")) is None
    with pytest.raises(AutomatonError):
        run_star(aut, ("zz",))


def test_run_lasso_fairness_examples():
    f1 = corpus()["f1"]
    assert run_lasso(f1, LassoWord((), ("b1", "g1")))
    # staying forever in the pending state never meets the accepting set
    core = f1.core
    pend = StarAutomaton(core.alphabet, core.states, core.initial,
                         dict(core.transitions) | {("1", "b1"): "1"})
    pending_forever = BuchiAutomaton(pend, f1.accepting)
    assert not run_lasso(pending_forever, LassoWord(("b1",), ("b1",)))


def test_run_lasso_stem_rejected():
    al = Alphabet.make(("a", "b"))
    aut = BuchiAutomaton(StarAutomaton(al, (0,), 0, {(0, "a"): 0}), frozenset({0}))
    assert not run_lasso(aut, LassoWord(("b",), ("a",)))


def test_run_lasso_rotation_stable():
    rng = random.Random(17)
    for _ in range(20):
        al = random_alphabet(rng, 3)
        b = random_buchi(rng, al, 4)
        w = random_lasso(rng, al)
        padded = LassoWord(w.stem + w.cycle, w.cycle)
        assert run_lasso(b, w) == run_lasso(b, padded)


def fall_off_length(core, w):
    """Length of the shortest prefix of w the automaton cannot run, or None."""
    bound = len(w.stem) + (len(core.states) + 1) * len(w.cycle)
    return next((n for n in range(1, bound + 1) if run_star(core, w.prefix(n)) is None), None)


def test_omega_visit_set_matches_oracle():
    rng = random.Random(41)
    outcomes = {"stem": 0, "first pass": 0, "later pass": 0, "accepted": 0}
    for _ in range(400):
        al = random_alphabet(rng, rng.randint(2, 3))
        core = random_star_automaton(rng, al, rng.randint(1, 6), density=rng.choice((0.5, 0.8, 1.0)))
        w = random_lasso(rng, al, max_stem=4, max_cycle=5)
        got = omega_visit_set(core, w)
        assert got == visit_set_by_positions(core, w), (core, w)
        n = fall_off_length(core, w)
        assert (got is None) == (n is not None)
        if n is None:
            outcomes["accepted"] += 1
        elif n <= len(w.stem):
            outcomes["stem"] += 1
        elif n <= len(w.stem) + len(w.cycle):
            outcomes["first pass"] += 1
        else:
            outcomes["later pass"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_omega_visit_set_later_pass():
    # a counter modulo 3 that refuses "b" at 2: the run on (a b)^omega
    # passes 0 -> 2, 2 -> 1 and falls off in its third pass
    al = Alphabet.make(("a", "b"))
    core = StarAutomaton(al, (0, 1, 2), 0, {
        (0, "a"): 1, (1, "a"): 2, (2, "a"): 0, (0, "b"): 1, (1, "b"): 2})
    assert omega_visit_set(core, LassoWord((), ("a", "b"))) is None
    assert omega_visit_set(core, LassoWord((), ("a", "a", "b"))) is None
    assert omega_visit_set(core, LassoWord(("b",), ("a", "a", "a"))) == {0, 1, 2}
    assert omega_visit_set(core, LassoWord(("a", "b"), ("a",))) == {0, 1, 2}


def test_buchi_intersection_idempotent_on_lassos():
    rng = random.Random(23)
    al = random_alphabet(rng, 3)
    a = random_buchi(rng, al, 4)
    both = buchi_intersection(a, a)
    for _ in range(50):
        w = random_lasso(rng, al)
        assert run_lasso(both, w) == run_lasso(a, w)


def test_buchi_intersection_fairness_pair():
    c = corpus()
    f1 = extend_alphabet(c["f1"], c["minspec"].alphabet)
    f2 = extend_alphabet(c["f2"], c["minspec"].alphabet)
    both = buchi_intersection(f1, f2)
    assert run_lasso(both, LassoWord((), ("a1", "b1", "g1", "a2", "b2", "g2")))
    # g2 never occurs after b2: the second fairness condition fails
    assert not run_lasso(both, LassoWord(("a2", "b2"), ("a1", "b1", "g1")))


def test_buchi_intersection_matches_conjunction():
    rng = random.Random(29)
    al = random_alphabet(rng, 3)
    a = random_buchi(rng, al, 4)
    b = random_buchi(rng, al, 4)
    both = buchi_intersection(a, b)
    for _ in range(100):
        w = random_lasso(rng, al)
        assert run_lasso(both, w) == (run_lasso(a, w) and run_lasso(b, w))


def test_buchi_intersection_alphabet_mismatch():
    a = all_accepting(single_loop(None, "a"))
    b = all_accepting(single_loop(None, "b"))
    with pytest.raises(AutomatonError):
        buchi_intersection(a, b)


def test_operations_preserve_determinism(sf):
    for aut in (sf["plant"].core, sf["sup"].automaton, sf["prod"].core,
                sf["supw"].automaton):
        seen = set()
        for (q, e) in aut.transitions:
            assert (q, e) not in seen
            seen.add((q, e))


def test_lasso_prefix_helper():
    w = LassoWord(("a",), ("b", "c"))
    assert w.prefix(5) == ("a", "b", "c", "b", "c")
    with pytest.raises(AutomatonError):
        LassoWord(("a",), ())


def test_states_reaching_cycle_matches_reachability_oracle():
    rng = random.Random(2718)
    for _ in range(300):
        al = random_alphabet(rng, rng.randint(1, 4))
        a = random_star_automaton(rng, al, rng.randint(1, 8), density=rng.random())
        states = list(a.states)
        region = set(rng.sample(states, rng.randint(1, len(states))))
        good = set(rng.sample(states, rng.randint(0, len(states))))
        inside = set(rng.sample(states, rng.randint(0, len(states))))
        ordered = [q for q in states if q in region]

        def succ(q):
            return [t for t in a.targets(q) if t in region]

        for cut in (None, inside):
            assert states_reaching_cycle(ordered, succ, good, inside=cut) == \
                states_reaching_good_cycle(ordered, succ, good, inside=cut)
