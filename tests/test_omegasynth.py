import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import prefix_region

import suploc

from suploc.automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    LassoWord,
    RabinBuchiAutomaton,
    StarAutomaton,
    all_accepting,
    lasso_in_star,
    lockstep,
    reachable_states,
    run_lasso,
)
from suploc import models
from suploc.omega import StarLanguageHandle, star_equal
from suploc.omegasynth import (
    ControllabilityResult,
    assemble_fomega,
    build_rabin_buchi,
    controllability_subset,
    existence_check,
    inf_closure,
    restrict_sup,
)
from suploc.safety import check_star_controllability, controlled_plant, sup_con_star
from suploc.verify import (
    brute_force_controllability,
    random_alphabet,
    random_buchi,
    random_lasso,
    random_single_pair,
    random_star_automaton,
)


def test_legal_product_factory_counts(sf):
    prod = sf["prod"]
    assert len(prod.core.states) == 27
    r, i = prod.single_pair()
    assert len(r) == 4
    assert i == frozenset(prod.core.states)


def test_legal_product_star_layer(sf):
    # the star layer accepts exactly the safety-supervised behavior (the
    # legal tracker is total, so prefixes impose nothing)
    ok, _ = star_equal(StarLanguageHandle(sf["prod"].core), sf["sup"].handle())
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
            verdict = run_lasso(prod, w)
            assert verdict.buchi == (run_lasso(plant, w) and lasso_in_star(legal.core, w))
            assert verdict.rabin == (lasso_in_star(plant.core, w) and run_lasso(legal, w))


def test_legal_product_self_spec(sf):
    # taking the plant's own behavior as the legal condition leaves the
    # Rabin layer lasso-equal to the plant's acceptance
    closed = sf["closed"]
    legal = BuchiAutomaton(closed.core, closed.accepting)
    prod = build_rabin_buchi(closed, legal)
    rng = random.Random(53)
    for _ in range(150):
        w = random_lasso(rng, closed.alphabet)
        assert run_lasso(prod, w).rabin == run_lasso(closed, w)


def test_legal_product_multi_pair_rejected(sf):
    multi = RabinBuchiAutomaton(
        sf["maxspec"].core,
        frozenset(sf["maxspec"].core.states),
        ((sf["maxspec"].accepting, frozenset(sf["maxspec"].core.states)),) * 2,
    )
    with pytest.raises(AutomatonError):
        build_rabin_buchi(sf["closed"], multi)


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
    assert brute_force_controllability(a, al) == ctr.subset

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
    assert brute_force_controllability(a, al) == ctr.subset


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
        assert controllability_subset(a, al).subset == brute_force_controllability(a, al)


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


def test_restrict_sup_factory_unchanged(sf):
    asup = sf["asup"]
    assert asup.rabin_pairs == sf["prod"].rabin_pairs
    assert asup.core is sf["prod"].core


def test_restrict_sup_empty_subset(sf):
    empty = restrict_sup(sf["prod"], ControllabilityResult(frozenset(), {}))
    rng = random.Random(63)
    for _ in range(100):
        w = random_lasso(rng, sf["prod"].alphabet)
        assert not run_lasso(empty, w).rabin


def test_restrict_sup_degenerate_state():
    al = Alphabet.make(("c", "u"), ("c",))
    core = StarAutomaton(al, (0, 1), 0,
                         {(0, "c"): 1, (1, "u"): 0, (0, "u"): 0})
    a = RabinBuchiAutomaton(core, frozenset({0, 1}), ((frozenset({1}), frozenset({0, 1})),))
    restricted = restrict_sup(a, ControllabilityResult(frozenset({0}), {}))
    # a lasso through the degenerate state 1 infinitely often now fails
    w = LassoWord((), ("c", "u"))
    assert run_lasso(a, w).rabin
    assert not run_lasso(restricted, w).rabin
    # and one avoiding it still cannot hit R (R was masked to C as well)
    assert not run_lasso(restricted, LassoWord((), ("u",))).rabin


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
    assert not run_lasso(legal, witness).rabin


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
    on_track = [x for x in supw.automaton.states if supw.z_component[x] != sink]
    off_track = [x for x in supw.automaton.states if supw.z_component[x] == sink]
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
