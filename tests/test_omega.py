import random

import pytest

from harness import (
    corpus,
    random_alphabet,
    random_buchi,
    random_lasso,
    random_single_pair,
    random_star_automaton,
)
from oracles import (
    bad_cycle_sets,
    deadlock_free,
    enumerate_language,
    lasso_accepted,
    omega_contained_by_subsets,
    omega_product,
    star_compare_by_explore,
    sync_product_by_movers,
)

from suploc.automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    LassoWord,
    RabinBuchiAutomaton,
    StarAutomaton,
    all_accepting,
    extend_alphabet,
    lasso_in_star,
    live_states,
    minimize_prefix_closed,
    run_lasso,
    sync_product,
)
from suploc.omega import (
    StarLanguageHandle,
    clo_automaton,
    omega_contained_single_pair,
    pre_automaton,
    product_compare,
)
from suploc.safety import sup_con_star


def test_pre_deadlock_free_buchi_keeps_structure():
    f1 = corpus()["f1"]
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
    mins = corpus()["minspec"]
    clo = clo_automaton(mins)
    rng = random.Random(2)
    for _ in range(60):
        w = random_lasso(rng, mins.alphabet)
        assert run_lasso(clo, w) == run_lasso(mins, w)


def test_clo_strictly_larger_for_fairness():
    # a run that parks in the pending state forever is in the closure but
    # not in the accepted behavior
    f1 = corpus()["f1"]
    pend = StarAutomaton(f1.core.alphabet, f1.core.states, f1.core.initial,
                         dict(f1.core.transitions) | {("1", "b1"): "1"})
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
    for b in (sf["plant"], corpus()["maxspec"], corpus()["minspec"]):
        clo = clo_automaton(b)
        for _ in range(60):
            w = random_lasso(rng, b.alphabet)
            if run_lasso(b, w):
                assert run_lasso(clo, w)


def test_deadlock_free_plant(sf):
    assert deadlock_free(sf["plant"])


def test_deadlock_free_counterexamples():
    al = Alphabet.make(("a", "b"))
    stuck = StarAutomaton(al, (0, 1), 0, {(0, "a"): 1, (0, "b"): 0})
    assert not deadlock_free(BuchiAutomaton(stuck, frozenset({0})))
    loop = StarAutomaton(al, (0,), 0, {(0, "a"): 0})
    assert deadlock_free(BuchiAutomaton(loop, frozenset({0})))


def star_equal(a: StarAutomaton, b: StarAutomaton):
    """L(a) = L(b), by `product_compare` with the one factor a."""
    return product_compare([a], b)


def test_star_equal_reflexive(sf):
    sup = sf["sup"].automaton
    assert star_equal(sup, sup) == (True, None)


def test_star_equal_containment_by_construction(sf):
    # supervised behavior against plant ^ supervised behavior
    plant_core = sf["plant"].core
    sup_aut = sf["sup"].automaton
    meet = sync_product([plant_core, sup_aut], plant_core.alphabet)
    assert star_compare_by_explore(meet, sup_aut) == (True, None)


def test_star_equal_depth_three_difference():
    al = Alphabet.make(("a", "b"))
    x = StarAutomaton(al, (0, 1, 2, 3), 0,
                      {(0, "a"): 1, (1, "a"): 2, (2, "a"): 3, (3, "b"): 3})
    y = StarAutomaton(al, (0, 1, 2, 3), 0,
                      {(0, "a"): 1, (1, "a"): 2, (2, "a"): 3})
    assert star_equal(x, y) == (False, ("a", "a", "a", "b"))


def test_star_equal_is_equivalence_spotcheck():
    rng = random.Random(31)
    al = random_alphabet(rng, 3)
    autos = [random_star_automaton(rng, al, rng.randint(1, 4)) for _ in range(20)]
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


def random_factors(rng, al: Alphabet) -> list[StarAutomaton]:
    """One to three random automata, each over a non-empty part of `al`
    with `al`'s controllability."""
    out = []
    for _ in range(rng.randint(1, 3)):
        events = [e for e in al.events if rng.random() < 0.7] or [rng.choice(al.events)]
        part = Alphabet.make(events, [e for e in events if e in al.controllable])
        out.append(random_star_automaton(rng, part, rng.randint(1, 5),
                                         density=rng.uniform(0.3, 1.0)))
    return out


def near(rng, a: StarAutomaton) -> StarAutomaton:
    """`a` with one transition dropped, or one self-loop added where an
    event is undefined."""
    rows = {q: dict(row) for q, row in a.rows.items()}
    q = rng.choice(a.states)
    missing = [e for e in a.alphabet.events if e not in rows[q]]
    if rows[q] and (not missing or rng.random() < 0.5):
        del rows[q][rng.choice(list(rows[q]))]
    else:
        rows[q][rng.choice(missing)] = q
        rows[q] = {e: rows[q][e] for e in a.alphabet.events if e in rows[q]}
    return StarAutomaton.from_rows(a.alphabet, rows, a.initial)


def test_product_compare_matches_built_product():
    # the walk of the factors' product against the product built by
    # `sync_product_by_movers`, compared as one factor and by the
    # whole-product scan the walk replaced: same verdict, same witness
    rng = random.Random(1729)
    verdicts = []
    for _ in range(600):
        al = random_alphabet(rng, rng.randint(1, 4))
        factors = random_factors(rng, al)
        built = sync_product_by_movers(factors, al)
        kind = rng.randrange(3)
        if kind == 0:
            b = minimize_prefix_closed(built)
        elif kind == 1:
            b = near(rng, minimize_prefix_closed(built))
        else:
            b = random_star_automaton(rng, al, rng.randint(1, 6), density=rng.uniform(0.3, 1.0))
        got = product_compare(factors, b)
        assert got == star_compare_by_explore(built, b) == star_equal(built, b)
        verdicts.append(got[0])
    assert sum(verdicts) >= 150 and len(verdicts) - sum(verdicts) >= 250, sum(verdicts)


def test_product_compare_checks_alphabets():
    al = Alphabet.make(("a", "b"), ("a",))
    one = StarAutomaton(Alphabet.make(("a",)), (0,), 0, {(0, "a"): 0})
    b = StarAutomaton(al, (0,), 0, {(0, "a"): 0})
    with pytest.raises(AutomatonError, match="controllable"):
        product_compare([one], b)
    # the product is taken over b's alphabet, which must hold every factor's events
    with pytest.raises(AutomatonError, match=r"event\(s\) \['b'\] not in global alphabet"):
        product_compare([b], StarAutomaton(Alphabet.make(("a",), ("a",)), (0,), 0, {}))


def test_pre_monotone_idempotent():
    rng = random.Random(37)
    for _ in range(10):
        al = random_alphabet(rng, 3)
        b = random_buchi(rng, al, 5)
        h1 = pre_automaton(b)
        if h1.is_empty:
            continue
        h2 = pre_automaton(all_accepting(h1.automaton))
        assert star_compare_by_explore(h1.automaton, h2.automaton) == (True, None)


def test_omega_containment_reflexive(sf):
    ok, _ = omega_contained_single_pair(sf["prod"], sf["prod"])
    assert ok


def test_omega_containment_counterexample():
    c = corpus()
    f1 = extend_alphabet(c["f1"], c["minspec"].alphabet)
    f2 = extend_alphabet(c["f2"], c["minspec"].alphabet)
    from suploc.automata import buchi_intersection
    both = buchi_intersection(f1, f2)
    ok, witness = omega_contained_single_pair(f1, both)
    assert not ok
    assert run_lasso(f1, witness)
    assert not run_lasso(both, witness)


def test_omega_containment_multi_pair_rejected(sf):
    from suploc.automata import RabinBuchiAutomaton
    core = sf["prod"].core
    with pytest.raises(AutomatonError):
        RabinBuchiAutomaton(core, sf["prod"].buchi, sf["prod"].rabin_pairs * 2)


def test_omega_containment_random_sound():
    # on random pairs, verify the verdict against lasso sampling
    rng = random.Random(41)
    for _ in range(15):
        al = random_alphabet(rng, 3)
        a = random_buchi(rng, al, 4)
        b = random_buchi(rng, al, 4)
        ok, witness = omega_contained_single_pair(a, b)
        if ok:
            for _ in range(200):
                w = random_lasso(rng, al)
                assert not (run_lasso(a, w) and not run_lasso(b, w))
        else:
            assert run_lasso(a, witness) and not run_lasso(b, witness)


def test_star_contained():
    # the oracle's containment mode, the tests' check of L(a) <= L(b)
    al = Alphabet.make(("a", "b"))
    big = StarAutomaton(al, (0,), 0, {(0, "a"): 0, (0, "b"): 0})
    small = StarAutomaton(al, (0,), 0, {(0, "a"): 0})
    assert star_compare_by_explore(small, big, True) == (True, None)
    assert star_compare_by_explore(big, small, True) == (False, ("b",))


def test_empty_languages():
    # the empty language (no string, not even the empty one) is a handle
    # with no automaton; a nonempty language holds the empty string
    empty = StarLanguageHandle(None)
    loop = StarAutomaton.from_rows(Alphabet.make(("a",), ("a",)), {0: {"a": 0}}, 0)
    assert empty.is_empty and not StarLanguageHandle(loop).is_empty
    assert sup_con_star(BuchiAutomaton(loop, frozenset({0})), empty).is_empty


def test_limit_membership_by_running():
    mins = corpus()["minspec"]
    w_in = LassoWord((), ("a1", "b1", "g1", "a2", "b2", "g2"))
    w_out = LassoWord(("a1",), ("a1",))
    assert lasso_in_star(mins.core, w_in)
    assert not lasso_in_star(mins.core, w_out)


def test_omega_containment_matches_subset_oracle():
    # the verdict against every strongly connected set of the product; a
    # witness must lie in S(a) \ S(b).  Shape 2 of the search (a cycle
    # that meets R_a and leaves I_b, when none avoids R_b) must be reached,
    # also where no state of such a cycle does both, so that the witness
    # cycle runs anchor -> waypoint -> anchor through two distinct states
    rng = random.Random(2024)
    pairs = shape2 = two_stops = 0
    while pairs < 400:
        al = random_alphabet(rng, rng.randint(2, 3))
        make_a = rng.choice((random_buchi, random_single_pair))
        a = make_a(rng, al, rng.randint(1, 4), density=rng.choice((0.5, 0.8)))
        b = random_single_pair(rng, al, rng.randint(1, 4), density=rng.choice((0.5, 0.8)))
        if len(omega_product(a, b)[0]) > 14:
            continue
        pairs += 1
        ok, witness = omega_contained_single_pair(a, b)
        assert ok == omega_contained_by_subsets(a, b)
        if ok:
            assert witness is None
            continue
        assert lasso_accepted(a, witness, "rabin") and not lasso_accepted(b, witness, "rabin")
        bad = bad_cycle_sets(a, b)
        (rb, ib), = b.rabin_pairs
        ra = a.accepting if isinstance(a, BuchiAutomaton) else a.rabin_pairs[0][0]
        if all(any(qb in rb for _qa, qb in s) for s in bad):  # no cycle avoids R_b
            shape2 += 1
            two_stops += not any(qa in ra and (qb is None or qb not in ib)
                                 for s in bad for qa, qb in s)
    assert shape2 > 0 and two_stops > 0, (shape2, two_stops)


def test_buchi_and_its_pair_form_accept_alike():
    # a Buchi set F and the Rabin pair (F, every state) are one acceptance
    # rule: the same lassos, live states and containment verdicts and witnesses
    rng = random.Random(2728)
    verdicts = [0, 0]
    for _ in range(150):
        al = random_alphabet(rng, rng.randint(1, 3))
        b = random_buchi(rng, al, rng.randint(1, 5), density=rng.uniform(0.4, 1.0))
        twin = RabinBuchiAutomaton(b.core, b.accepting,
                                   ((b.accepting, frozenset(b.core.states)),))
        assert live_states(twin) == live_states(b)
        for _ in range(20):
            w = random_lasso(rng, al, max_stem=4, max_cycle=4)
            assert run_lasso(twin, w) == run_lasso(b, w)
        assert omega_contained_single_pair(b, twin) == (True, None)
        assert omega_contained_single_pair(twin, b) == (True, None)
        other = rng.choice((random_buchi, random_single_pair))(
            rng, al, rng.randint(1, 5), density=rng.uniform(0.4, 1.0))
        for got, want in ((omega_contained_single_pair(twin, other),
                           omega_contained_single_pair(b, other)),
                          (omega_contained_single_pair(other, twin),
                           omega_contained_single_pair(other, b))):
            assert got == want
            verdicts[want[0]] += 1
    assert min(verdicts) > 50, verdicts
