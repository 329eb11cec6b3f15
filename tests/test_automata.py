import random
from pathlib import Path

import pytest

from harness import (
    compose_model,
    corpus,
    random_alphabet,
    random_buchi,
    random_lasso,
    random_pipeline,
    random_single_pair,
    random_star_automaton,
)
from oracles import (
    bfs_order,
    buchi_intersection_by_explore,
    enumerate_language,
    in_projected_product,
    language_equal_upto,
    acceptance_pair_by_type,
    lasso_accepted,
    pair_moves,
    rows_ok,
    run_lasso_by_type,
    run_star,
    states_reaching_good_cycle,
    sync_product_by_movers,
    visit_set_by_positions,
)
from perfbench.autfile import write_model
from perfbench.factory import factory as factory_texts

from suploc import automata, cli, textio
from suploc.automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    ImplicitProduct,
    LassoWord,
    RabinBuchiAutomaton,
    StarAutomaton,
    TransitionView,
    all_accepting,
    buchi_intersection,
    buchi_lift,
    explore,
    extend_alphabet,
    lasso_in_star,
    live_states,
    lockstep,
    minimize_prefix_closed,
    omega_visit_set,
    product_moves,
    reachable_trim,
    restrict,
    run_lasso,
    states_reaching_cycle,
    sync_product,
    totalize,
)
from suploc.localization import localize_all
from suploc.omega import (
    StarLanguageHandle,
    clo_automaton,
    omega_contained_single_pair,
    product_compare,
)
from suploc.omegasynth import controllability_subset
from suploc.safety import sup_con_star
from suploc.textio import parse_automaton, serialize_automaton
from suploc.verify import check_finite_equivalence

DATA = Path(__file__).parent / "data"


def single_loop(al, event):
    return StarAutomaton(Alphabet.make((event,)), (0,), 0, {(0, event): 0})


def test_alphabet_partition():
    al = Alphabet.make(("a", "b"), ("a",))
    assert al.controllable == {"a"}
    assert al.uncontrollable == {"b"}
    with pytest.raises(AutomatonError):
        Alphabet(("a", "b"), frozenset("c"))
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


def test_sync_product_matches_frozen_form():
    # components lifted by `extend_alphabet` and walked with `product_moves`
    # give the rows and numbering of the earlier form, in which an event
    # moved only the components declaring it; one component of each list
    # is over a single event
    rng = random.Random(2718)
    for _ in range(300):
        al = random_alphabet(rng, rng.randint(1, 5))
        one = rng.choice(al.events)
        parts = [random_star_automaton(rng, Alphabet.make((one,), al.controllable & {one}),
                                       rng.randint(1, 3))]
        for _ in range(rng.randint(0, 3)):
            events = [e for e in al.events if rng.random() < 0.6] or [rng.choice(al.events)]
            part = Alphabet.make(events, al.controllable.intersection(events))
            parts.append(random_star_automaton(rng, part, rng.randint(1, 5),
                                               density=rng.uniform(0.3, 1.0)))
        rng.shuffle(parts)
        got, want = sync_product(parts, al), sync_product_by_movers(parts, al)
        assert got == want and repr(got) == repr(want)


def test_product_moves_matches_pair_moves():
    rng = random.Random(1414)
    for _ in range(200):
        al = random_alphabet(rng, rng.randint(1, 5))
        a, b = (random_star_automaton(rng, al, rng.randint(1, 6), density=rng.uniform(0.3, 1.0))
                for _ in "ab")
        init = (a.initial, b.initial)
        assert explore(init, product_moves((a, b))) == explore(init, pair_moves(a, b))


def test_sync_product_of_no_components():
    # what `suploc pipeline` builds as the safety specification when
    # `safety_specs` is empty: one state that allows every event
    al = Alphabet.make(("a", "b", "c"), ("a",))
    prod = sync_product([], al)
    assert prod.states == (0,) and prod.rows == {0: {"a": 0, "b": 0, "c": 0}}
    assert repr(prod) == repr(sync_product_by_movers([], al))


def test_implicit_product_is_the_sync_product_built_on_demand():
    # lassos get the verdicts of `sync_product`; rows read in index order
    # build `sync_product`'s breadth-first rows; no automaton allows every
    # event
    rng = random.Random(4242)
    accepted = 0
    for _ in range(150):
        al = random_alphabet(rng, rng.randint(1, 4))
        parts = [random_star_automaton(rng, al, rng.randint(1, 5), density=rng.uniform(0.3, 1.0))
                 for _ in range(rng.randint(0, 3))]
        eager = sync_product(parts, al)
        lazy = ImplicitProduct(parts, al)
        for _ in range(20):
            w = random_lasso(rng, al)
            verdict = lasso_in_star(lazy, w)
            assert verdict == lasso_in_star(eager, w)
            accepted += verdict
        assert len(lazy.rows) <= len(eager.states)
        rows, i, top = ImplicitProduct(parts, al).rows, 0, 0
        while i <= top:
            top = max([top, *rows[i].values()])
            i += 1
        assert StarAutomaton.from_rows(al, dict(rows), 0) == eager
    assert 0 < accepted < 150 * 20


def test_extend_alphabet_keeps_an_automaton_over_the_alphabet():
    rng = random.Random(577)
    al = random_alphabet(rng, 3)
    a = random_star_automaton(rng, al, 4)
    b = BuchiAutomaton(a, frozenset({a.initial}))
    assert extend_alphabet(a, a.alphabet) is a
    assert extend_alphabet(a, Alphabet.make(al.events, al.controllable)) is a
    assert extend_alphabet(b, al) is b
    wide = Alphabet.make(al.events + ("x",), al.controllable)
    assert extend_alphabet(b, wide).core == extend_alphabet(a, wide) != a


def test_lockstep_names_the_first_undefined_event_below_the_initial_state():
    # after "a" the lead allows b and c; each follower lacks one of them
    al = Alphabet.make(("a", "b", "c"))
    lead = StarAutomaton(al, (0, 1), 0, {(0, "a"): 1, (1, "b"): 1, (1, "c"): 0})
    no_c = StarAutomaton(al, (0, 1), 0, {(0, "a"): 1, (1, "b"): 1})
    no_b = StarAutomaton(al, (0, 1), 0, {(0, "a"): 1, (1, "c"): 0})
    for followers, event in (((no_c,), "c"), ((no_b,), "b"), ((no_c, no_b), "b"),
                             ((no_b, no_c), "b")):
        with pytest.raises(AutomatonError) as err:
            lockstep(lead, *followers)
        assert str(err.value) == (f"a following automaton is undefined on event {event!r} "
                                  "along a string of the leading one")


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


# `run_star`, the tests' word runner, walks an automaton's rows
def test_run_star_empty_word():
    al = Alphabet.make(("a",))
    aut = StarAutomaton(al, (0,), 0, {(0, "a"): 0})
    assert run_star(aut, ()) == 0


def test_run_star_undefined():
    al = Alphabet.make(("a", "b"))
    aut = StarAutomaton(al, (0,), 0, {(0, "a"): 0})
    assert run_star(aut, ("a", "b")) is None
    assert run_star(aut, ("zz",)) is None


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


def lasso_prefix(w, n):
    """The first n events of the lasso word w."""
    return (w.stem + w.cycle * (n // len(w.cycle) + 1))[:n]


def fall_off_length(core, w):
    """Length of the shortest prefix of w the automaton cannot run, or None."""
    bound = len(w.stem) + (len(core.states) + 1) * len(w.cycle)
    return next((n for n in range(1, bound + 1) if run_star(core, lasso_prefix(w, n)) is None),
                None)


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


def assert_same_buchi(got: BuchiAutomaton, want: BuchiAutomaton):
    """Same states, rows (in order) and accepting set."""
    rows = [(q, list(row.items())) for q, row in got.core.rows.items()]
    assert rows == [(q, list(row.items())) for q, row in want.core.rows.items()]
    assert (got.core.initial, got.accepting) == (want.core.initial, want.accepting)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_buchi_intersection_matches_explore_oracle_factory(monkeypatch, n):
    # every intersection step of the n-machine factory's plant composition
    steps = []
    inner = automata.buchi_intersection

    def recording(a, b):
        out = inner(a, b)
        steps.append((a, b, out))
        return out
    monkeypatch.setattr(automata, "buchi_intersection", recording)
    compose_model(factory_texts(n))
    assert len(steps) == n
    phase_counter = 0
    for a, b, got in steps:
        assert_same_buchi(got, buchi_intersection_by_explore(a, b))
        phase_counter += not (set(a.core.states) <= a.accepting
                              or set(b.core.states) <= b.accepting)
    assert phase_counter == n - 1


def test_buchi_intersection_matches_explore_oracle_random():
    rng = random.Random(2718)
    phase_counter = 0
    for _ in range(60):
        al = random_alphabet(rng, rng.randint(1, 4))
        a, b = (random_buchi(rng, al, rng.randint(2, 8), density=rng.random()) for _ in "ab")
        assert_same_buchi(buchi_intersection(a, b), buchi_intersection_by_explore(a, b))
        phase_counter += not (set(a.core.states) <= a.accepting
                              or set(b.core.states) <= b.accepting)
    assert phase_counter >= 20, phase_counter


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
    assert lasso_prefix(w, 5) == ("a", "b", "c", "b", "c")
    assert lasso_prefix(w, 0) == () and lasso_prefix(w, 1) == ("a",)
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


def test_run_lasso_matches_layered_oracle():
    # acceptance read off the type: a Rabin-Buchi automaton by its pair, its
    # Buchi layer as BuchiAutomaton(core, buchi), as the layer names did
    rng = random.Random(1710)
    accepted = {"rabin": 0, "buchi": 0}
    for _ in range(200):
        al = random_alphabet(rng, rng.randint(2, 4))
        a = random_single_pair(rng, al, rng.randint(2, 7), density=rng.uniform(0.5, 1.0))
        layer = BuchiAutomaton(a.core, a.buchi)
        for _ in range(30):
            w = random_lasso(rng, al, max_stem=4, max_cycle=4)
            for aut, name in ((a, "rabin"), (layer, "buchi")):
                got = run_lasso(aut, w)
                assert got == lasso_accepted(a, w, name), (name, w)
                accepted[name] += got
    # both answers occur often enough for the comparison to mean something
    assert min(accepted.values()) > 300, accepted


def test_live_states_matches_oracle():
    # an unreachable state on an accepting cycle must not count as live
    rng = random.Random(1711)
    for _ in range(200):
        al = random_alphabet(rng, rng.randint(1, 4))
        n = rng.randint(1, 8)
        aut = (random_buchi if rng.random() < 0.5 else random_single_pair)(
            rng, al, n, density=rng.random())
        core = aut.core
        lost = StarAutomaton(al, (*core.states, "x"), core.initial,
                             {**core.transitions, ("x", al.events[0]): "x"})
        if isinstance(aut, BuchiAutomaton):
            cases = [(aut, aut.accepting, None),
                     (BuchiAutomaton(lost, aut.accepting | {"x"}), aut.accepting | {"x"}, None)]
        else:
            (r, i), = aut.rabin_pairs
            cases = [(aut, r, i),
                     (RabinBuchiAutomaton(lost, aut.buchi, ((r | {"x"}, i | {"x"}),)),
                      r | {"x"}, i | {"x"})]
        for a, good, inside in cases:
            def succ(q, edges=a.core.transitions):
                return [t for (s, _e), t in edges.items() if s == q]

            want = states_reaching_good_cycle(bfs_order(a.core), succ, good, inside=inside)
            assert live_states(a) == want


def test_pair_and_run_lasso_match_frozen_forms():
    # one acceptance rule, `pair`, gives what the class-dispatched forms gave
    rng = random.Random(2727)
    accepted = [0, 0]
    for k in range(300):
        al = random_alphabet(rng, rng.randint(1, 4))
        make = (random_buchi, random_single_pair)[k % 2]
        aut = make(rng, al, rng.randint(1, 7), density=rng.uniform(0.4, 1.0))
        assert aut.pair == acceptance_pair_by_type(aut)
        for _ in range(20):
            w = random_lasso(rng, al, max_stem=4, max_cycle=4)
            got = run_lasso(aut, w)
            assert got == run_lasso_by_type(aut, w), (k, w)
            accepted[got] += 1
    # both answers occur often enough for the comparison to mean something
    assert min(accepted) > 500, accepted


def _flagged(controllable):
    """A one-state automaton looping on a and b, with `controllable` as the
    controllable events."""
    al = Alphabet.make(("a", "b"), controllable)
    return StarAutomaton(al, (0,), 0, {(0, "a"): 0, (0, "b"): 0})


@pytest.mark.parametrize("entry", [
    "buchi_lift", "sup_con_star", "product_compare", "omega_contained_single_pair",
    "controllability_subset"])
def test_operand_disagreeing_on_controllability_rejected(entry):
    # the operands list the same events, but `b` is controllable in `flipped`
    # and uncontrollable in `core`
    core, flipped = _flagged(("a",)), _flagged(("a", "b"))
    buchi, handle = BuchiAutomaton(core, frozenset({0})), StarLanguageHandle(flipped)
    calls = {
        "buchi_lift": lambda: buchi_lift(flipped, buchi),
        "sup_con_star": lambda: sup_con_star(buchi, handle),
        "product_compare": lambda: product_compare([core], flipped),
        "omega_contained_single_pair": lambda: omega_contained_single_pair(
            buchi, BuchiAutomaton(flipped, frozenset({0}))),
        "controllability_subset": lambda: controllability_subset(
            RabinBuchiAutomaton(flipped, frozenset(), ((frozenset({0}), frozenset({0})),)),
            core.alphabet),
    }
    with pytest.raises(AutomatonError, match="'b' is controllable in one alphabet only"):
        calls[entry]()


# trans lines out of alphabet order and interleaved across states
SHUFFLED = """\
automaton shuffled
type star
events a:c b:u c:c d:u
initial 0
trans 1 d 0
trans 0 c 2
trans 1 a 1
trans 0 a 1
trans 2 b 0
trans 0 d 0
trans 2 a 2
trans 1 c 2
"""


def assert_rows_match_probe(a: StarAutomaton):
    """`moves`, `enabled` and `targets` read the rows; each must equal the
    alphabet-order probe of `transitions`."""
    for q in a.states:
        probe = [(e, a.transitions[(q, e)]) for e in a.alphabet.events
                 if (q, e) in a.transitions]
        assert list(a.moves(q)) == probe
        assert a.enabled(q) == tuple(e for e, _t in probe)
        assert list(a.targets(q)) == [t for _e, t in probe]


def test_rows_follow_alphabet_order():
    """`transitions` is read-only after construction: the rows are built
    from it once, so they stay its alphabet-order view.  Random automata
    list their transitions out of order (spanning edges first) and
    interleaved across states, as do the trans lines of SHUFFLED."""
    shuffled = parse_automaton(SHUFFLED)[1]
    assert shuffled.enabled("0") == ("a", "c", "d")
    rng = random.Random(1618)
    autos = [shuffled]
    for _ in range(60):
        al = random_alphabet(rng, rng.randint(1, 5))
        autos.append(random_star_automaton(rng, al, rng.randint(1, 8), density=rng.random()))
    for a in autos:
        events = list(a.alphabet.events)
        for e in ("x", "y"):
            events.insert(rng.randint(0, len(events)), e)
        wide = Alphabet.make(events, a.alphabet.controllable | {"x"})
        keep = {a.initial} | set(rng.sample(a.states, rng.randint(0, len(a.states))))
        other = random_star_automaton(rng, a.alphabet, rng.randint(1, 5))
        for b in (a, restrict(a, keep), totalize(a), extend_alphabet(a, wide),
                  sync_product([a, other], a.alphabet), sync_product([a], wide)):
            assert_rows_match_probe(b)


def test_product_walks_make_no_keyed_reads(monkeypatch):
    # counted work instead of wall time: the product walks read the rows and
    # never probe `transitions` by (state, event) key
    plant, spec, _legal, _minimal = compose_model(factory_texts(3))
    p = plant.core
    s = sup_con_star(plant, spec).automaton
    lookups = []
    inner = TransitionView.__getitem__

    def counted(view, key):
        lookups.append(key)
        return inner(view, key)
    monkeypatch.setattr(TransitionView, "__getitem__", counted)
    product = explore((s.initial, p.initial), product_moves((s, p)))[0]
    joint = lockstep(s, p)
    sync = sync_product([p, s], p.alphabet)
    assert lookups == []
    assert len(product) == len(joint) == len(sync.states) > len(s.states)
    # the guard counts: one probe of the old kind is seen
    assert (p.initial, "a1") in p.transitions and lookups == [(p.initial, "a1")]


def assert_rows_index(a: StarAutomaton):
    """A rows-built automaton holds no (state, event)-keyed dict: its
    `transitions` is a read-only view that answers from the rows, in row
    order."""
    t = a.transitions
    flat = {(q, e): x for q, row in a.rows.items() for e, x in row.items()}
    assert isinstance(t, TransitionView) and not isinstance(t, dict)
    assert not hasattr(t, "__setitem__")
    assert t == flat and list(t) == list(flat) and list(t.items()) == list(flat.items())
    assert len(t) == len(flat) == a.n_transitions()
    for key, x in flat.items():
        assert key in t and t[key] == x and t.get(key) == x
    for key in ((a.initial, "no-such-event"), ("no-such-state", a.alphabet.events[0])):
        assert key not in t and t.get(key, "-") == "-"
        with pytest.raises(KeyError):
            t[key]


def test_constructions_index_by_rows(sf):
    rng = random.Random(3141)
    built = []
    for _ in range(40):
        al = random_alphabet(rng, rng.randint(1, 4))
        a = random_star_automaton(rng, al, rng.randint(1, 8), density=rng.random())
        b, c = (random_buchi(rng, al, rng.randint(1, 6), density=rng.random()) for _ in "bc")
        wide = Alphabet.make(al.events + ("x",), al.controllable)
        keep = {a.initial} | set(rng.sample(a.states, rng.randint(0, len(a.states))))
        built += [StarAutomaton.from_rows(al, explore(a.initial, a.moves)[1], 0),
                  restrict(a, keep), totalize(a),
                  extend_alphabet(a, wide), sync_product([a, b.core], al),
                  minimize_prefix_closed(a), buchi_intersection(b, all_accepting(a)).core,
                  buchi_intersection(b, c).core, clo_automaton(b).core]
    built += [sf["plant"].core, sf["sup"].automaton, sf["prod"].core, sf["supw"].automaton]
    built += [c.automaton for c in sf["controllers"]]
    built.append(textio._canonical(parse_automaton(SHUFFLED)[1])[0])
    for a in built:
        assert_rows_index(a)


def test_constructor_validates_mappings():
    al = Alphabet.make(("a", "b"), ("a",))
    malformed = [({0: {"z": 0}}, 0, "transition on unknown event 'z'"),
                 ({0: {"a": 1}}, 0, "transition (0, 'a', 1) uses unknown state"),
                 ({0: {"a": 0}, 1: {}}, 2, "initial state not in state set")]
    for rows, initial, message in malformed:
        trans = {(q, e): t for q, row in rows.items() for e, t in row.items()}
        with pytest.raises(AutomatonError) as err:
            StarAutomaton(al, tuple(rows), initial, trans)
        assert str(err.value) == message
        # `from_rows` trusts its caller; the oracle sees the broken contract
        assert not rows_ok(StarAutomaton.from_rows(al, rows, initial))
    with pytest.raises(AutomatonError, match="duplicate states"):
        StarAutomaton(al, (0, 0), 0, {})
    with pytest.raises(AutomatonError, match=r"transition \(1, 'a', 0\) uses unknown state"):
        StarAutomaton(al, (0,), 0, {(1, "a"): 0})
    # a mapping out of alphabet order gives rows in order
    trans = {(0, "b"): 0, (0, "a"): 1, (1, "b"): 1}
    by_map = StarAutomaton(al, (0, 1), 0, trans)
    by_rows = StarAutomaton.from_rows(al, {0: {"a": 1, "b": 0}, 1: {"b": 1}}, 0)
    assert list(by_map.rows[0].items()) == [("a", 1), ("b", 0)] and rows_ok(by_map)
    assert by_map == by_rows and repr(by_map) == repr(by_rows)
    assert not rows_ok(StarAutomaton.from_rows(al, {0: {"b": 0, "a": 1}, 1: {"b": 1}}, 0))


def test_constructor_keeps_no_reference_to_its_mapping():
    al = Alphabet.make(("a", "b"), ("a",))
    trans = {(0, "a"): 1, (1, "b"): 0}
    x = StarAutomaton(al, (0, 1), 0, trans)
    fresh = StarAutomaton(al, (0, 1), 0, dict(trans))
    del trans[(0, "a")]
    trans[(0, "b")] = 0
    assert dict(x.transitions) == {(0, "a"): 1, (1, "b"): 0}
    assert x.rows == {0: {"a": 1}, 1: {"b": 0}}
    assert run_star(x, ["a"]) == 1 and run_star(x, ["b"]) is None
    assert x == fresh


def shuffled_text(rng: random.Random, text: str) -> str:
    """`text` with the lines after its header lines in a random order."""
    header = ("automaton", "type", "events", "initial")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    body = [ln for ln in lines if ln.split()[0] not in header]
    rng.shuffle(body)
    return "\n".join([ln for ln in lines if ln.split()[0] in header] + body) + "\n"


def test_internal_rows_keep_the_from_rows_contract(monkeypatch, tmp_path):
    # `from_rows` does not check its rows; every automaton the package
    # builds, the parser's included, must still keep its contract
    built, broken = [], []
    inner = StarAutomaton.from_rows.__func__

    def checked(cls, alphabet, rows, initial):
        aut = inner(cls, alphabet, rows, initial)
        built.append(aut)
        if not rows_ok(aut):
            broken.append(aut)
        return aut
    monkeypatch.setattr(StarAutomaton, "from_rows", classmethod(checked))
    models = {f"f{n}": factory_texts(n) for n in (2, 3)}
    models |= {d.name: {f.name: f.read_text() for f in d.iterdir()}
               for d in sorted(DATA.iterdir()) if d.is_dir()}
    exits = []
    for name, files in models.items():
        write_model(tmp_path / name, files)
        exits.append(cli.main(["--quiet", "pipeline", str(tmp_path / name / "pipeline.cfg")]))
    assert exits.count(0) >= 3 and 3 in exits
    rng = random.Random(2718)
    pipelines = 0
    while pipelines < 30:
        inst = random_pipeline(rng)
        if inst is not None:
            pipelines += 1
            controllers = localize_all(inst["plant"], inst["sup"], inst["closed"], inst["supw"])
            check_finite_equivalence(inst["plant"], inst["sup"], inst["supw"], controllers)
    for text in [f.read_text() for f in sorted(DATA.glob("*/*.aut"))] + [SHUFFLED]:
        name, aut = parse_automaton(text)
        for _ in range(3):
            again = parse_automaton(shuffled_text(rng, text))[1]
            assert serialize_automaton(name, again) == serialize_automaton(name, aut)
    assert len(built) > 1000 and broken == []
