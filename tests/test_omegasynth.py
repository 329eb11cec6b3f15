import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from harness import random_alphabet, random_buchi, random_lasso, random_single_pair
from oracles import (
    greedy_pattern_map,
    prefix_region,
    restorable_drops,
    winning_region_by_enumeration,
)

import suploc

from suploc.automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    LassoWord,
    RabinBuchiAutomaton,
    StarAutomaton,
    all_accepting,
    buchi_intersection,
    lasso_in_star,
    lockstep,
    run_lasso,
)
from suploc import omegasynth
from suploc.omega import (
    StarLanguageHandle,
    omega_contained_single_pair,
    star_equal,
)
from suploc.omegasynth import (
    ControllabilityResult,
    assemble_fomega,
    build_rabin_buchi,
    controllability_subset,
    existence_check,
    inf_closure,
    restrict_sup,
)
from suploc.safety import check_star_controllability


def test_legal_product_factory_counts(sf):
    prod = sf["prod"]
    assert len(prod.core.states) == 27
    r, i = prod.single_pair()
    assert len(r) == 4
    assert i == frozenset(prod.core.states)


def test_legal_product_star_layer(sf):
    # the star layer accepts exactly the safety-supervised behavior (the
    # legal tracker is total, so prefixes impose nothing)
    ok, _ = star_equal(StarLanguageHandle(sf["prod"].core), sf["sup"])
    assert ok


def test_legal_product_layers_on_toy():
    rng = random.Random(51)
    for _ in range(10):
        al = random_alphabet(rng, 3)
        plant = random_buchi(rng, al, 3)
        legal = random_buchi(rng, al, 3)
        try:
            prod = build_rabin_buchi(plant, legal)
        except AutomatonError:
            continue
        for _ in range(150):
            w = random_lasso(rng, al)
            assert run_lasso(BuchiAutomaton(prod.core, prod.buchi), w) == (
                run_lasso(plant, w) and lasso_in_star(legal.core, w))
            assert run_lasso(prod, w) == (
                lasso_in_star(plant.core, w) and run_lasso(legal, w))


def test_legal_product_self_spec(sf):
    # taking the plant's own behavior as the legal condition leaves the
    # Rabin layer lasso-equal to the plant's acceptance
    closed = sf["closed"]
    legal = BuchiAutomaton(closed.core, closed.accepting)
    prod = build_rabin_buchi(closed, legal)
    rng = random.Random(53)
    for _ in range(150):
        w = random_lasso(rng, closed.alphabet)
        assert run_lasso(prod, w) == run_lasso(closed, w)


def test_legal_product_multi_pair_rejected(sf):
    with pytest.raises(AutomatonError):
        RabinBuchiAutomaton(
            sf["maxspec"].core,
            frozenset(sf["maxspec"].core.states),
            ((sf["maxspec"].accepting, frozenset(sf["maxspec"].core.states)),) * 2,
        )


def test_controllability_subset_factory(sf):
    ctr = sf["ctr"]
    assert ctr.subset == frozenset(sf["prod"].core.states)
    refined = {q for q in ctr.subset
               if ctr.phi[q] != frozenset(sf["prod"].core.enabled(q))}
    dropped = {q: set(sf["prod"].core.enabled(q)) - ctr.phi[q] for q in refined}
    # every dropped event is controllable
    assert all(e in sf["plant"].alphabet.controllable
               for evs in dropped.values() for e in evs)
    assert sum(1 for evs in dropped.values() if "a1" in evs) == 2
    assert sum(1 for evs in dropped.values() if "a2" in evs) == 2


def test_controllability_phi_floor(sf):
    core = sf["prod"].core
    unc = sf["plant"].alphabet.uncontrollable
    for q in sf["ctr"].subset:
        enabled = set(core.enabled(q))
        assert sf["ctr"].phi[q] >= (enabled & unc)
        assert sf["ctr"].phi[q] <= enabled


def test_controllability_idempotent(sf):
    again = controllability_subset(sf["prod"], sf["plant"].alphabet)
    assert again.subset == sf["ctr"].subset
    assert again.phi == sf["ctr"].phi


def test_controllability_trap_instance():
    # state 0 carries an uncontrollable live self-loop that never meets R:
    # no control choice escapes it, so 0 is excluded while the R-cycle wins
    al = Alphabet.make(("c", "u"), ("c",))
    core = StarAutomaton(al, (0, 1, 2), 0,
                         {(0, "u"): 0, (0, "c"): 1, (1, "u"): 2, (2, "u"): 1})
    a = RabinBuchiAutomaton(core, frozenset({0, 1}), ((frozenset({1}), frozenset({0, 1, 2})),))
    ctr = controllability_subset(a, al)
    assert ctr.subset == frozenset({1, 2})
    assert winning_region_by_enumeration(a, al) == ctr.subset

    # making the self-loop controllable rescues state 0
    al2 = Alphabet.make(("c", "u"), ("c", "u"))
    hmm = StarAutomaton(al2, (0, 1, 2), 0, dict(core.transitions))
    b = RabinBuchiAutomaton(hmm, frozenset({0, 1}), ((frozenset({1}), frozenset({0, 1, 2})),))
    ctr2 = controllability_subset(b, al2)
    assert ctr2.subset == frozenset({0, 1, 2})
    assert "u" not in ctr2.phi[0] or "c" in ctr2.phi[0]


def test_controllability_uncontrollable_trap():
    # an uncontrollable step forces a dead region: its predecessors lose
    al = Alphabet.make(("c", "u"), ("c",))
    core = StarAutomaton(al, (0, 1, 2, 3), 0,
                         {(0, "c"): 1, (1, "u"): 2, (2, "u"): 2, (0, "u"): 3,
                          (3, "u"): 3, (3, "c"): 3})
    a = RabinBuchiAutomaton(core, frozenset({3}), ((frozenset({3}), frozenset({0, 1, 2, 3})),))
    ctr = controllability_subset(a, al)
    # 2 is dead (no accepting cycle), 1 falls into it uncontrollably; 0 can
    # disable c and survive on the u-branch
    assert ctr.subset == frozenset({0, 3})
    assert winning_region_by_enumeration(a, al) == ctr.subset


def test_controllability_nothing_to_control():
    al = Alphabet.make(("u", "v"))
    core = StarAutomaton(al, (0, 1), 0, {(0, "u"): 1, (1, "v"): 0})
    a = RabinBuchiAutomaton(core, frozenset({0}), ((frozenset({0}), frozenset({0, 1})),))
    ctr = controllability_subset(a, al)
    assert ctr.subset == frozenset({0, 1})
    assert all(ctr.phi[q] == frozenset(core.enabled(q)) for q in core.states)


def test_controllability_matches_bruteforce_random():
    rng = random.Random(42)
    for _ in range(50):
        al = random_alphabet(rng)
        a = random_single_pair(rng, al, rng.randint(2, 6))
        assert controllability_subset(a, al).subset == winning_region_by_enumeration(a, al)


def test_controllability_monotone_in_r():
    rng = random.Random(61)
    for _ in range(20):
        al = random_alphabet(rng, 3)
        a = random_single_pair(rng, al, rng.randint(2, 5))
        r, i = a.single_pair()
        bigger_r = frozenset(a.core.states) & i
        b = RabinBuchiAutomaton(a.core, a.buchi, ((r | bigger_r, i),))
        small = controllability_subset(a, al).subset
        big = controllability_subset(b, al).subset
        assert small <= big


def random_games(count, seed, sizes=(2, 12)):
    """Seeded random single-pair games of `sizes` states (2 to 12 by
    default) over 2 to 5 events."""
    rng = random.Random(seed)
    for _ in range(count):
        al = random_alphabet(rng, rng.randint(2, 5))
        yield random_single_pair(rng, al, rng.randint(*sizes), density=rng.uniform(0.3, 0.9)), al


def test_enlargement_matches_greedy_oracle(sf, factory, monkeypatch):
    # the edge-local enlargement against the loop that re-verifies the whole
    # pattern map per trial, swapped in for it
    games = [(sf["prod"], sf["plant"].alphabet)]
    games += [(factory(n)["prod"], factory(n)["plant"].alphabet) for n in (2, 3)]
    games += list(random_games(250, 7))
    # long paths in the pattern graph: an accepted edge updates closures
    # that many later trials read
    games += list(random_games(60, 8, sizes=(15, 40)))
    fast = [controllability_subset(a, al) for a, al in games]
    monkeypatch.setattr(omegasynth, "_enlarge_pattern_map", greedy_pattern_map)
    for (a, al), got in zip(games, fast):
        want = controllability_subset(a, al)
        assert (got.subset, got.phi) == (want.subset, want.phi)
    # many games refuse some trial: a controllable event with a winning
    # target stays out of a winning state's pattern
    refusing = sum(1 for (a, al), c in zip(games, fast) if restorable_drops(a, al, c.phi, c.subset))
    assert refusing >= 10, refusing


def test_enlargement_verifies_twice_per_solve(factory, monkeypatch):
    # one full check of the base map and one of the final map per game
    # solve, never one per trial
    calls = {"solve": 0, "wins": 0}
    wins, solve = omegasynth._pattern_map_wins, omegasynth._solve_pattern_game

    def counted_wins(*args):
        calls["wins"] += 1
        return wins(*args)

    def counted_solve(*args):
        calls["solve"] += 1
        return solve(*args)

    monkeypatch.setattr(omegasynth, "_pattern_map_wins", counted_wins)
    monkeypatch.setattr(omegasynth, "_solve_pattern_game", counted_solve)
    f = factory(3)
    ctr = controllability_subset(f["prod"], f["plant"].alphabet)
    assert restorable_drops(f["prod"], f["plant"].alphabet, ctr.phi, ctr.subset)
    assert calls["solve"] >= 1
    assert calls["wins"] <= 2 * calls["solve"]


def test_enlargement_builds_closures_once_per_call(factory, monkeypatch):
    # one pair of closures for the pattern graph and one for its part
    # outside R per enlargement, whatever the number of trials; an accepted
    # edge updates them in place
    calls = {"enlarge": 0, "closures": 0, "inserts": 0}
    enlarge, closures, insert = (omegasynth._enlarge_pattern_map, omegasynth._closures,
                                 omegasynth._insert_edge)

    def counted_enlarge(*args):
        calls["enlarge"] += 1
        return enlarge(*args)

    def counted_closures(*args):
        calls["closures"] += 1
        return closures(*args)

    def counted_insert(*args):
        calls["inserts"] += 1
        return insert(*args)

    monkeypatch.setattr(omegasynth, "_enlarge_pattern_map", counted_enlarge)
    monkeypatch.setattr(omegasynth, "_closures", counted_closures)
    monkeypatch.setattr(omegasynth, "_insert_edge", counted_insert)
    f = factory(3)
    ctr = controllability_subset(f["prod"], f["plant"].alphabet)
    assert restorable_drops(f["prod"], f["plant"].alphabet, ctr.phi, ctr.subset)
    assert calls["enlarge"] >= 1
    assert calls["closures"] <= 2 * calls["enlarge"] < calls["inserts"]


def test_enlargement_without_trials_builds_no_closures(monkeypatch):
    # the closures are built at the first trial that would add an edge to
    # the pattern graph; in these games the base map already takes every
    # move into the winning states, so no trial needs them
    calls = {"enlarge": 0, "closures": 0}
    enlarge, closures = omegasynth._enlarge_pattern_map, omegasynth._closures

    def counted_enlarge(*args):
        calls["enlarge"] += 1
        return enlarge(*args)

    def counted_closures(*args):
        calls["closures"] += 1
        return closures(*args)

    monkeypatch.setattr(omegasynth, "_enlarge_pattern_map", counted_enlarge)
    monkeypatch.setattr(omegasynth, "_closures", counted_closures)
    # nothing to control
    al = Alphabet.make(("u", "v"))
    core = StarAutomaton(al, (0, 1), 0, {(0, "u"): 1, (1, "v"): 0})
    games = [(RabinBuchiAutomaton(core, frozenset({0}), ((frozenset({0}), frozenset({0, 1})),)),
              al)]
    # two controllable moves into a winning state and a controllable self-loop
    al = Alphabet.make(("c", "d", "u"), ("c", "d"))
    core = StarAutomaton(al, (0, 1, 2), 0, {(0, "c"): 1, (0, "d"): 1, (0, "u"): 2, (1, "u"): 0,
                                            (2, "u"): 0, (2, "c"): 2})
    games.append((RabinBuchiAutomaton(core, frozenset({1}),
                                      ((frozenset({1}), frozenset({0, 1, 2})),)), al))
    for a, al in games:
        ctr = controllability_subset(a, al)
        assert ctr.subset == frozenset(a.core.states)
        assert ctr.phi == {q: frozenset(a.core.enabled(q)) for q in a.core.states}
    assert calls == {"enlarge": 2, "closures": 0}


def count_zielonka_depth(monkeypatch) -> dict:
    """Route `_zielonka`'s calls, its own recursive ones included, through a
    wrapper that records the deepest nesting in the returned dict."""
    inner = omegasynth._zielonka
    depth = {"now": 0, "max": 0}

    def counted(*args):
        depth["now"] += 1
        depth["max"] = max(depth["max"], depth["now"])
        try:
            return inner(*args)
        finally:
            depth["now"] -= 1
    monkeypatch.setattr(omegasynth, "_zielonka", counted)
    return depth


def ladder_game(n):
    """A two-priority game on product states that the controller wins
    everywhere, but that Zielonka's algorithm solves one rung per round:
    u_0 only loops (priority 0), q_k (priority 1) has one controllable move
    to u_(k-1), and u_k has uncontrollable moves to itself and to q_k.  Each
    round the plant's attractor of the q states holds every u_k with k >= 1
    until q_k has been won and removed, so run as recursion the second call
    nests once per rung."""
    nodes = [("u", 0)]
    moves = {("u", 0): [("loop", False, ("u", 0))]}
    for k in range(1, n + 1):
        nodes += [("q", k), ("u", k)]
        moves[("q", k)] = [("down", True, ("u", k - 1))]
        moves[("u", k)] = [("loop", False, ("u", k)), ("up", False, ("q", k))]
    priority = {v: 1 if v[0] == "q" else 0 for v in nodes}
    return nodes, moves, priority


def test_zielonka_depth_bounded(factory, monkeypatch):
    # nesting is at most the number of distinct priorities + 1
    depth = count_zielonka_depth(monkeypatch)
    f = factory(3)
    controllability_subset(f["prod"], f["plant"].alphabet)
    assert 2 <= depth["max"] <= 5
    for a, al in random_games(100, 11):
        controllability_subset(a, al)
    assert depth["max"] <= 5
    for n in (3, 30, 300):
        depth["max"] = 0
        nodes, moves, priority = ladder_game(n)
        w0, w1, strat = omegasynth._zielonka(nodes, moves, priority, frozenset())
        assert (w0, w1) == (set(nodes), set())
        assert all(strat[("q", k)] == {"down"} for k in range(1, n + 1))
        assert depth["max"] <= 3


def wide_game(k):
    """Two states and k controllable events: c0 leads to state 0, the others
    to state 1, from either state.  State 0 is R, and both states are in I
    and in the Buchi layer, so state 1 must not loop."""
    events = [f"c{i}" for i in range(k)]
    al = Alphabet.make(events, events)
    trans = {(q, e): 0 if e == "c0" else 1 for q in (0, 1) for e in events}
    core = StarAutomaton(al, (0, 1), 0, trans)
    return RabinBuchiAutomaton(core, frozenset({0, 1}), ((frozenset({0}), frozenset({0, 1})),)), al


def test_game_size_linear_in_states(monkeypatch):
    # a state with k controllable events has 2^k - 1 patterns; the game is
    # played on the states themselves plus the losing sink
    sizes = []
    inner = omegasynth._zielonka

    def counted(nodes, *args):
        sizes.append(len(nodes))
        return inner(nodes, *args)
    monkeypatch.setattr(omegasynth, "_zielonka", counted)
    for k in (1, 2, 4, 6, 16):
        sizes.clear()
        a, al = wide_game(k)
        ctr = controllability_subset(a, al)
        assert sizes[0] <= len(a.core.states) + 1
        assert ctr.phi == {0: frozenset(al.events), 1: frozenset({"c0"})}
        if k <= 6:
            assert ctr.subset == winning_region_by_enumeration(a, al)


def test_restrict_sup_factory_unchanged(sf):
    asup = sf["asup"]
    assert asup.rabin_pairs == sf["prod"].rabin_pairs
    assert asup.core is sf["prod"].core


def test_restrict_sup_empty_subset(sf):
    empty = restrict_sup(sf["prod"], ControllabilityResult(frozenset(), {}))
    rng = random.Random(63)
    for _ in range(100):
        w = random_lasso(rng, sf["prod"].alphabet)
        assert not run_lasso(empty, w)


def test_restrict_sup_degenerate_state():
    al = Alphabet.make(("c", "u"), ("c",))
    core = StarAutomaton(al, (0, 1), 0,
                         {(0, "c"): 1, (1, "u"): 0, (0, "u"): 0})
    a = RabinBuchiAutomaton(core, frozenset({0, 1}), ((frozenset({1}), frozenset({0, 1})),))
    restricted = restrict_sup(a, ControllabilityResult(frozenset({0}), {}))
    # a lasso through the degenerate state 1 infinitely often now fails
    w = LassoWord((), ("c", "u"))
    assert run_lasso(a, w)
    assert not run_lasso(restricted, w)
    # and one avoiding it still cannot hit R (R was masked to C as well)
    assert not run_lasso(restricted, LassoWord((), ("u",)))


def test_inf_closure_factory(sf):
    # the alternation behavior is its own closure and lies inside the
    # controlled plant's behavior, so nothing is added
    infa = sf["infa"]
    rng = random.Random(65)
    minimal = sf["minimal"]
    closed = sf["closed"]
    for _ in range(200):
        w = random_lasso(rng, minimal.alphabet)
        want = run_lasso(minimal, w) and run_lasso(closed, w)
        assert run_lasso(infa, w) == want


def test_inf_closure_already_closed():
    rng = random.Random(67)
    al = random_alphabet(rng, 3)
    plant = random_buchi(rng, al, 4)
    closed_spec = BuchiAutomaton(plant.core, frozenset(plant.core.states))
    out = inf_closure(closed_spec, plant)
    for _ in range(150):
        w = random_lasso(rng, al)
        assert run_lasso(out, w) == (run_lasso(closed_spec, w) and run_lasso(plant, w))


def test_inf_closure_empty():
    al = Alphabet.make(("a",))
    empty = BuchiAutomaton(StarAutomaton(al, (0,), 0, {}), frozenset())
    plant = BuchiAutomaton(StarAutomaton(al, (0,), 0, {(0, "a"): 0}), frozenset({0}))
    out = inf_closure(empty, plant)
    assert not run_lasso(out, LassoWord((), ("a",)))


def test_existence_factory(sf):
    ok, _ = existence_check(sf["infa"], sf["asup"])
    assert ok


def test_existence_failure_witness():
    al = Alphabet.make(("c", "u"), ("c",))
    # minimal behavior demands an infinite u-run, but the legal pair only
    # accepts runs through the c-cycle
    core = StarAutomaton(al, (0, 1), 0, {(0, "u"): 0, (0, "c"): 1, (1, "c"): 0})
    legal = RabinBuchiAutomaton(core, frozenset({0, 1}), ((frozenset({1}), frozenset({0, 1})),))
    minimal = BuchiAutomaton(StarAutomaton(al, (0,), 0, {(0, "u"): 0}), frozenset({0}))
    plant = BuchiAutomaton(core, frozenset({0, 1}))
    infa = inf_closure(minimal, plant)
    ok, witness = existence_check(infa, legal)
    assert not ok
    assert run_lasso(infa, witness)
    assert not run_lasso(legal, witness)


def test_existence_empty_minimal(sf):
    al = sf["plant"].alphabet
    empty = BuchiAutomaton(StarAutomaton(al, (0,), 0, {}), frozenset())
    infa = inf_closure(empty, sf["closed"])
    ok, _ = existence_check(infa, sf["asup"])
    assert ok


def test_supervisor_factory_counts(sf):
    supw = sf["supw"]
    assert len(supw.automaton.states) == 36
    assert supw.automaton.n_transitions() == 59
    assert len(supw.buchi_lift) == 28


def test_supervisor_requires_existence(sf):
    with pytest.raises(AutomatonError):
        assemble_fomega(sf["asup"], sf["ctr"], sf["minimal"], existence_verified=False)


def test_supervisor_star_controllable_wrt_controlled_plant(sf):
    ok, _ = check_star_controllability(
        sf["closed"], StarLanguageHandle(sf["supw"].automaton))
    assert ok


def test_supervisor_split_branches(sf):
    supw = sf["supw"]
    sink = supw.tracker_sink
    z_state = dict(lockstep(supw.automaton, supw.tracker))
    on_track = [x for x in supw.automaton.states if z_state[x] != sink]
    off_track = [x for x in supw.automaton.states if z_state[x] == sink]
    assert len(on_track) == 10
    assert off_track
    # along the minimal behavior's prefixes the supervisor enables exactly
    # the events that stay in the prefix region of the restricted legal behavior
    core = sf["asup"].core
    region = prefix_region(sf["asup"], sf["ctr"].subset)
    for x, q, z in lockstep(supw.automaton, core, supw.tracker):
        if z != sink:
            assert set(supw.automaton.enabled(x)) == {
                e for e, t in core.moves(q) if t in region}


def walk_lasso(rng, aut):
    """Random walk in the automaton until a state repeats; the repeated
    segment is the cycle, so the lasso stays inside the language."""
    q = aut.initial
    word = []
    seen = {q: 0}
    while True:
        events = aut.enabled(q)
        if not events:
            return None
        e = rng.choice(events)
        word.append(e)
        q = aut.transitions[(q, e)]
        if q in seen:
            k = seen[q]
            return LassoWord(tuple(word[:k]), tuple(word[k:]))
        seen[q] = len(word)


def test_supervisor_behavior_sandwich(sf):
    # minimal acceptable <= controlled behavior <= legal, on sampled lassos
    rng = random.Random(71)
    supw, plant = sf["supw"], sf["plant"]
    maxspec = sf["maxspec"]
    sup = sf["sup"]
    hits = 0
    for trial in range(500):
        if trial % 2:
            w = random_lasso(rng, plant.alphabet, max_stem=8, max_cycle=12)
        else:
            w = walk_lasso(rng, supw.automaton)
        in_inf = run_lasso(sf["infa"], w)
        in_loop = (run_lasso(plant, w)
                   and lasso_in_star(sup.automaton, w)
                   and lasso_in_star(supw.automaton, w))
        if in_inf:
            assert in_loop
        if in_loop:
            hits += 1
            assert run_lasso(maxspec, w)
    assert hits  # the sample exercised the controlled loop


@pytest.mark.parametrize("n", [0, 2, 3])
def test_supervisor_admits_minimal_behaviour(sf, factory, n):
    # A ^ plant ^ lim(SUP*) <= plant ^ lim(SUP*) ^ lim(SUPw), decided
    # exactly; n = 0 is the bundled factory
    f = sf if n == 0 else factory(n)
    loop = buchi_intersection(f["plant"], all_accepting(f["sup"].automaton))
    ok, witness = omega_contained_single_pair(
        buchi_intersection(loop, f["minimal"]),
        buchi_intersection(loop, all_accepting(f["supw"].automaton)))
    assert ok, witness


def test_supervisor_alternation_word_and_repeat_disablement(sf):
    supw = sf["supw"]
    aut = supw.automaton
    # the alternation word stays enabled forever
    assert lasso_in_star(aut, LassoWord((), ("a1", "b1", "g1", "a2", "b2", "g2")))
    # after two full routine-1 rounds the supervisor disables a1
    from suploc.automata import run_star
    q = run_star(aut, ("a1", "b1", "g1", "a1", "b1", "g1"))
    assert q is not None
    assert (q, "a1") not in aut.transitions
    # one round is still permitted
    q1 = run_star(aut, ("a1", "b1", "g1"))
    assert (q1, "a1") in aut.transitions


def test_supervisor_deadlock_free(sf):
    assert_deadlock_free(sf["supw"])


def assert_deadlock_free(supw):
    closed = BuchiAutomaton(supw.automaton, supw.buchi_lift)
    from suploc.omega import is_deadlock_free
    assert is_deadlock_free(closed)


def test_supervisor_total_tracker_degenerate():
    # when the minimal behavior covers the whole plant language, the pattern
    # branch is never taken and the supervisor equals the legal region
    al = Alphabet.make(("c", "u"), ("c",))
    core = StarAutomaton(al, (0,), 0, {(0, "c"): 0, (0, "u"): 0})
    plant = BuchiAutomaton(core, frozenset({0}))
    legal = BuchiAutomaton(core, frozenset({0}))
    prod = build_rabin_buchi(plant, legal)
    ctr = controllability_subset(prod, al)
    asup = restrict_sup(prod, ctr)
    minimal = BuchiAutomaton(core, frozenset({0}))
    infa = inf_closure(minimal, plant)
    ok, _ = existence_check(infa, asup)
    assert ok
    supw = assemble_fomega(asup, ctr, minimal, existence_verified=True)
    assert supw.tracker_sink is None
    ok, _ = star_equal(StarLanguageHandle(supw.automaton),
                       StarLanguageHandle(prod.core))
    assert ok


# Synthesis up to the control game on a pipeline input directory; prints the
# controllability subset and the pattern map.
GAME_SCRIPT = """
import sys
from suploc.automata import BuchiAutomaton, StarAutomaton, all_accepting, buchi_intersection, sync_product
from suploc.omega import StarLanguageHandle
from suploc.omegasynth import build_rabin_buchi, controllability_subset
from suploc.safety import controlled_plant, sup_con_star
from suploc.textio import load_automaton

aut = {n: load_automaton(f"{sys.argv[1]}/{n}.aut")[1]
       for n in ("plant", "fair", "spec", "legal", "minimal")}
al = aut["minimal"].alphabet
fair = aut["fair"].core
loops = {(q, e): q for q in fair.states for e in al.events if e not in fair.alphabet}
fair = BuchiAutomaton(StarAutomaton(al, fair.states, fair.initial, {**fair.transitions, **loops}),
                      aut["fair"].accepting)
plant = buchi_intersection(all_accepting(sync_product([aut["plant"]], al)), fair)
sup = sup_con_star(plant, StarLanguageHandle(sync_product([aut["spec"]], al)))
ctr = controllability_subset(build_rabin_buchi(controlled_plant(plant, sup), aut["legal"]), al)
print(sorted(ctr.subset))
print(sorted((q, sorted(p)) for q, p in ctr.phi.items()))
"""


def test_controllability_independent_of_hash_seed():
    # instance r0932 of the random-small benchmark, seed 1: iterating game
    # nodes in hash order gave pattern maps that varied with PYTHONHASHSEED
    data = Path(__file__).parent / "data" / "r0932"
    src = str(Path(suploc.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", GAME_SCRIPT, str(data)],
                             env=env, capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0].strip()
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
