import random
from collections import Counter

import pytest

from harness import (
    brute_force_min_congruence,
    lemma1_harness,
    mutate_controller,
    random_alphabet,
    random_lasso,
    random_star_automaton,
)
from conftest import _pipeline
from suploc import automata, verify
from suploc.automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    LassoWord,
    StarAutomaton,
    lasso_in_star,
    run_lasso,
    run_star,
    sync_product,
)
from suploc.localization import (
    EnableDisableProfile,
    Kind,
    LocalController,
    Part,
    build_congruence,
    localize_all,
    profile_safety,
)
from suploc.omega import StarLanguageHandle
from suploc.verify import (
    EquivalenceReport,
    VerificationError,
    check_finite_equivalence,
    check_infinite_equivalence,
)


def test_finite_equivalence_factory(sf):
    report = check_finite_equivalence(sf["plant"], sf["sup"], sf["supw"], sf["controllers"])
    assert report.finite_ok
    assert report.sub_results == {
        "safety_factor": True, "liveness_factor": True, "collective": True}
    assert report.counterexample is None


def test_finite_equivalence_builds_no_product(factory, monkeypatch):
    # counted work: the three equalities walk the products, so no
    # `sync_product` runs and no automaton is built from rows
    f = factory(3)
    controllers = localize_all(f["plant"], f["sup"], f["closed"], f["supw"])
    calls = {"sync_product": 0, "from_rows": 0}
    inner_sync, inner_rows = automata.sync_product, StarAutomaton.from_rows

    def counted_sync(*args):
        calls["sync_product"] += 1
        return inner_sync(*args)

    def counted_rows(cls, *args):
        calls["from_rows"] += 1
        return inner_rows(*args)
    monkeypatch.setattr(automata, "sync_product", counted_sync)
    monkeypatch.setattr(StarAutomaton, "from_rows", classmethod(counted_rows))
    report = check_finite_equivalence(f["plant"], f["sup"], f["supw"], controllers)
    assert report.finite_ok and report.counterexample is None
    assert calls == {"sync_product": 0, "from_rows": 0}
    # the guard counts: one product built the old way is seen
    automata.sync_product([f["plant"].core], f["plant"].alphabet)
    assert calls == {"sync_product": 1, "from_rows": 1}


def test_finite_equivalence_supervisors_as_controllers(sf):
    # using the parent supervisors themselves as controllers is equivalent
    sup_copy = [
        LocalController(sf["sup"].automaton, "a1", Kind.SAFETY),
        LocalController(sf["supw"].automaton, "a1", Kind.LIVENESS, Part.C1),
        LocalController(sf["supw"].automaton, "a2", Kind.LIVENESS, Part.C2),
    ]
    report = check_finite_equivalence(sf["plant"], sf["sup"], sf["supw"], sup_copy)
    assert report.finite_ok


def test_finite_equivalence_detects_mutations(sf):
    rng = random.Random(99)
    for _ in range(20):
        controllers = list(sf["controllers"])
        idx = rng.randrange(len(controllers))
        mutated = mutate_controller(rng, controllers[idx])
        assert mutated is not None
        controllers[idx] = mutated
        report = check_finite_equivalence(sf["plant"], sf["sup"], sf["supw"], controllers)
        assert not report.finite_ok
        assert report.counterexample is not None


def test_finite_equivalence_counterexample_replays(sf):
    controllers = list(sf["controllers"])
    victim = controllers[0]
    keys = sorted(victim.automaton.transitions.keys(), key=lambda k: (str(k[0]), k[1]))
    trans = dict(victim.automaton.transitions)
    del trans[keys[0]]
    controllers[0] = LocalController(
        StarAutomaton(victim.automaton.alphabet, victim.automaton.states,
                      victim.automaton.initial, trans),
        victim.event, victim.kind, victim.part)
    report = check_finite_equivalence(sf["plant"], sf["sup"], sf["supw"], controllers)
    assert not report.finite_ok
    ce = report.counterexample
    assert ce is not None
    # the string distinguishes the collective behavior from the supervisor's
    in_collective = run_star(sf["plant"].core, ce) is not None and all(
        run_star(c.automaton, ce) is not None for c in controllers)
    in_parent = run_star(sf["supw"].automaton, ce) is not None
    assert in_collective != in_parent


def test_infinite_equivalence_factory(sf):
    report = check_infinite_equivalence(
        sf["plant"], sf["sup"], sf["supw"], sf["controllers"],
        lasso_budget=500, seed=123)
    assert report.finite_ok and report.infinite_ok
    assert report.sub_results["tier1"] is True
    assert report.sub_results["tier2_disagreements"] == 0
    assert report.checked_lassos == 500
    assert report.seed == 123


def test_infinite_equivalence_budget_zero(sf):
    report = check_infinite_equivalence(
        sf["plant"], sf["sup"], sf["supw"], sf["controllers"], lasso_budget=0)
    assert report.infinite_ok
    assert report.checked_lassos == 0


@pytest.mark.parametrize("check", [check_finite_equivalence, check_infinite_equivalence])
def test_empty_safety_supervisor_is_input_error(sf, check):
    # an empty SUP* has no automaton to compare with; the check says so
    # instead of failing on the missing automaton
    empty = StarLanguageHandle(None)
    with pytest.raises(AutomatonError, match=r"SUP\* is empty") as err:
        check(sf["plant"], empty, sf["supw"], sf["controllers"])
    assert not isinstance(err.value, VerificationError)


def unspecified_pipeline(states, transitions):
    """Synthesis on a plant over a (controllable) and u, every state
    accepting, under no specification."""
    al = Alphabet.make(("a", "u"), ("a",))
    plant = BuchiAutomaton(StarAutomaton(al, states, 0, transitions), frozenset(states))
    out = _pipeline(plant, StarLanguageHandle(plant.core), plant, plant)
    out["controllers"] = localize_all(out["plant"], out["sup"], out["closed"], out["supw"])
    return out


def free_pipeline():
    """A one-state plant that runs a and u freely: every lasso lies in it."""
    return unspecified_pipeline((0,), {(0, "a"): 0, (0, "u"): 0})


def test_infinite_equivalence_same_seed_same_report():
    # a is impossible once u has occurred, so some lassos leave the plant
    # while they are drawn
    p = unspecified_pipeline((0, 1), {(0, "a"): 0, (0, "u"): 1, (1, "u"): 1})
    args = (p["plant"], p["sup"], p["supw"], p["controllers"])
    first = check_infinite_equivalence(*args, lasso_budget=200, seed=3)
    assert first.checked_lassos == 200
    assert 0 < first.sub_results["tier2_in_plant"] < 200
    assert first.sub_results["tier2_disagreements"] == 0
    assert first.as_dict() == check_infinite_equivalence(*args, lasso_budget=200, seed=3).as_dict()


def test_tier2_lasso_distribution(monkeypatch):
    # the free plant follows every lasso, so each one is drawn in full and
    # reaches run_lasso: stem length uniform on 0..8, cycle length on
    # 1..max_cycle, events uniform
    p = free_pipeline()
    drawn = []

    def recording_run_lasso(plant, w):
        drawn.append(w)
        return run_lasso(plant, w)
    monkeypatch.setattr(verify, "run_lasso", recording_run_lasso)
    check_infinite_equivalence(p["plant"], p["sup"], p["supw"], p["controllers"],
                               lasso_budget=3000, seed=5, max_cycle=6)
    assert len(drawn) == 3000
    stems = Counter(len(w.stem) for w in drawn)
    cycles = Counter(len(w.cycle) for w in drawn)
    events = Counter(e for w in drawn for e in w.stem + w.cycle)
    assert sorted(stems) == list(range(9))
    assert sorted(cycles) == list(range(1, 7))
    assert all(abs(n - 3000 / 9) < 80 for n in stems.values()), stems
    assert all(abs(n - 3000 / 6) < 100 for n in cycles.values()), cycles
    assert abs(events["a"] - events["u"]) < 0.05 * sum(events.values()), events


def test_tier2_catches_mutant_controller(monkeypatch):
    # the mutant safety controller of a disables a for good once u has
    # occurred; with the exact finite check stubbed out, only the lasso
    # sampling can see it
    p = free_pipeline()
    mutant = LocalController(
        StarAutomaton(p["plant"].alphabet, (0, 1), 0, {(0, "a"): 0, (0, "u"): 1, (1, "u"): 1}),
        "a", Kind.SAFETY)
    controllers = [mutant if c.kind == Kind.SAFETY else c for c in p["controllers"]]
    assert controllers != p["controllers"]
    args = (p["plant"], p["sup"], p["supw"], controllers)

    monkeypatch.setattr(verify, "check_finite_equivalence",
                        lambda *a: EquivalenceReport(finite_ok=True))
    with pytest.raises(VerificationError) as caught:
        check_infinite_equivalence(*args, lasso_budget=50, seed=1)

    # without the tier-1 proof the same draws come back as a report
    monkeypatch.setattr(verify, "check_finite_equivalence",
                        lambda *a: EquivalenceReport(finite_ok=False))
    report = check_infinite_equivalence(*args, lasso_budget=50, seed=1)
    assert report.infinite_ok is False
    assert report.sub_results["tier2_disagreements"] > 0
    w = report.counterexample
    assert isinstance(w, LassoWord)
    assert f"first lasso {list(w.stem)} ; {list(w.cycle)}" in str(caught.value)
    in_plant = run_lasso(p["plant"], w)
    lhs = in_plant and all(lasso_in_star(c.automaton, w) for c in controllers)
    rhs = (in_plant and lasso_in_star(p["sup"].automaton, w)
           and lasso_in_star(p["supw"].automaton, w))
    assert lhs != rhs


def test_lemma1_harness():
    out = lemma1_harness(trials=100, seed=5, lassos=50)
    assert out["violations"] == 0
    assert out["checked_lassos"] == 100 * 50


def test_lemma1_identical_operands():
    rng = random.Random(8)
    al = random_alphabet(rng, 3)
    a = random_star_automaton(rng, al, 4)
    c = sync_product([a, a], al)
    for _ in range(50):
        w = random_lasso(rng, al)
        assert lasso_in_star(a, w) == lasso_in_star(c, w)


def test_lemma1_disjoint_operands():
    al = Alphabet.make(("a", "b"))
    x = StarAutomaton(al, (0,), 0, {(0, "a"): 0})
    y = StarAutomaton(al, (0,), 0, {(0, "b"): 0})
    c = sync_product([x, y], al)
    rng = random.Random(10)
    for _ in range(50):
        w = random_lasso(rng, al)
        assert not (lasso_in_star(x, w) and lasso_in_star(y, w)) or lasso_in_star(c, w)
        assert not lasso_in_star(c, w) or len(w.stem) + len(w.cycle) == 0


def test_brute_force_min_congruence_trivial(sf):
    prof = EnableDisableProfile("a1", {x: False for x in sf["sup"].automaton.states},
                                {x: False for x in sf["sup"].automaton.states})
    cong = brute_force_min_congruence(sf["sup"].automaton, prof)
    assert len(cong.cells) == 1


def test_brute_force_min_congruence_factory_profiles(sf):
    for alpha in ("a1", "a2"):
        prof = profile_safety(sf["plant"], sf["sup"], alpha)
        greedy = build_congruence(sf["sup"].automaton, prof)
        best = brute_force_min_congruence(sf["sup"].automaton, prof)
        assert len(best.cells) <= len(greedy.cells)


def test_brute_force_min_congruence_three_state():
    al = Alphabet.make(("c", "x"), ("c",))
    aut = StarAutomaton(al, (0, 1, 2), 0, {(0, "x"): 1, (1, "x"): 2})
    prof = EnableDisableProfile(
        "c", {0: True, 1: False, 2: False}, {0: False, 1: False, 2: True})
    best = brute_force_min_congruence(aut, prof)
    assert len(best.cells) == 2


def test_brute_force_min_congruence_size_limit():
    al = Alphabet.make(("x",))
    states = tuple(range(9))
    aut = StarAutomaton(al, states, 0, {(i, "x"): i + 1 for i in range(8)})
    prof = EnableDisableProfile("x", {i: False for i in states}, {i: False for i in states})
    with pytest.raises(AutomatonError):
        brute_force_min_congruence(aut, prof)


def test_greedy_congruence_never_beats_bruteforce_random():
    rng = random.Random(77)
    for _ in range(50):
        al = random_alphabet(rng, 3)
        aut = random_star_automaton(rng, al, rng.randint(2, 8))
        alpha = sorted(al.controllable)[0]
        enable = {x: (x, alpha) in aut.transitions for x in aut.states}
        disable = {x: (not enable[x]) and rng.random() < 0.4 for x in aut.states}
        prof = EnableDisableProfile(alpha, enable, disable)
        greedy = build_congruence(aut, prof)
        from suploc.localization import check_congruence
        assert check_congruence(aut, prof, greedy)
        best = brute_force_min_congruence(aut, prof)
        assert len(best.cells) <= len(greedy.cells)


def test_mutation_of_transitions_always_detected(sf):
    # deleting any single transition of any controller breaks equivalence
    for idx, victim in enumerate(sf["controllers"]):
        for key in sorted(victim.automaton.transitions.keys(),
                          key=lambda k: (str(k[0]), k[1])):
            trans = {k: v for k, v in victim.automaton.transitions.items() if k != key}
            mutated = LocalController(
                StarAutomaton(victim.automaton.alphabet, victim.automaton.states,
                              victim.automaton.initial, trans),
                victim.event, victim.kind, victim.part)
            controllers = list(sf["controllers"])
            controllers[idx] = mutated
            report = check_finite_equivalence(
                sf["plant"], sf["sup"], sf["supw"], controllers)
            assert not report.finite_ok, (idx, key)
