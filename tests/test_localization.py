import random

import pytest

from oracles import enumerate_language, greedy_congruence

from suploc.automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    StarAutomaton,
    all_accepting,
    run_star,
)
from suploc import models
from suploc.localization import (
    ControlCongruence,
    EnableDisableProfile,
    Kind,
    Part,
    build_congruence,
    build_local_controller,
    check_congruence,
    consistent,
    localize_all,
    profile_liveness,
    profile_safety,
)
from suploc.omega import StarLanguageHandle, star_contained
from suploc.safety import controlled_plant, sup_con_star
from suploc.verify import random_alphabet, random_star_automaton


def test_profile_safety_factory(sf):
    prof = profile_safety(sf["plant"], sf["sup"], "a1")
    aut = sf["sup"].automaton
    # a1 is withheld exactly where the buffer is full or the other machine
    # holds the resource: the supervisor disables it at 4 of the 8 states
    disabled = {x for x, v in prof.disable.items() if v}
    enabled = {x for x, v in prof.enable.items() if v}
    assert len(disabled) == 4
    assert len(enabled) == 2
    assert disabled.isdisjoint(enabled)
    # mutually exclusive by definition
    for x in aut.states:
        assert not (prof.enable[x] and prof.disable[x])


def test_profile_safety_nothing_disabled(sf):
    plant = sf["plant"]
    sup = sup_con_star(plant, StarLanguageHandle(plant.core))
    for alpha in ("a1", "a2"):
        prof = profile_safety(plant, sup, alpha)
        assert not any(prof.disable.values())


def test_profile_safety_uncontrollable_rejected(sf):
    with pytest.raises(AutomatonError):
        profile_safety(sf["plant"], sf["sup"], "b1")


def test_profile_safety_string_oracle():
    # three-state toy: D agrees with brute-force string search
    al = Alphabet.make(("c", "u"), ("c",))
    plant_core = StarAutomaton(al, (0, 1, 2), 0,
                               {(0, "c"): 1, (0, "u"): 2, (2, "c"): 2})
    plant = all_accepting(plant_core)
    spec = StarLanguageHandle(StarAutomaton(al, (0, 1), 0, {(0, "c"): 1, (0, "u"): 1}))
    sup = sup_con_star(plant, spec)
    prof = profile_safety(plant, sup, "c")
    sup_lang = enumerate_language(sup.automaton, 5)
    plant_lang = enumerate_language(plant_core, 5)
    for x in sup.automaton.states:
        want = any(
            run_star(sup.automaton, s) == x and s + ("c",) in plant_lang
            and s + ("c",) not in sup_lang
            for s in sup_lang
        )
        assert prof.disable[x] == want


def test_profile_liveness_factory_parts(sf):
    for alpha in ("a1", "a2"):
        p1 = profile_liveness(sf["closed"], sf["supw"], alpha, Part.C1)
        p2 = profile_liveness(sf["closed"], sf["supw"], alpha, Part.C2)
        assert not any(p1.disable.values())
        assert sum(p2.disable.values()) == 2
        whole = profile_liveness(sf["closed"], sf["supw"], alpha, Part.NONE)
        for x in sf["supw"].automaton.states:
            assert whole.disable[x] == (p1.disable[x] or p2.disable[x])


def test_profile_liveness_scope_classification():
    # a state reachable only off the minimal behavior's prefixes is not
    # charged to the on-track controller even though the event is withheld
    al = Alphabet.make(("c", "u"), ("c",))
    # plant: u loops at 0; c available at 0 and after u
    plant_core = StarAutomaton(al, (0, 1, 2), 0,
                               {(0, "u"): 1, (1, "u"): 0, (0, "c"): 2, (1, "c"): 2,
                                (2, "u"): 2})
    plant = BuchiAutomaton(plant_core, frozenset({0, 1, 2}))
    # supervisor: follows the plant but withholds c at state 1
    sup_aut = StarAutomaton(al, (0, 1, 2), 0,
                            {(0, "u"): 1, (1, "u"): 0, (0, "c"): 2, (2, "u"): 2})
    # minimal behavior: the pure u-cycle of even length
    minimal_core = StarAutomaton(al, (0, 1), 0, {(0, "u"): 1, (1, "u"): 0})
    from suploc.automata import totalize
    from suploc.omegasynth import OmegaSupervisor
    tracker = totalize(minimal_core)
    sink = tracker.states[-1]
    supw = OmegaSupervisor(sup_aut, frozenset({0}), tracker, sink, {})
    p1 = profile_liveness(plant, supw, "c", Part.C1)
    p2 = profile_liveness(plant, supw, "c", Part.C2)
    # state 1 is reached by u (on track) and by uu...u only; c is withheld
    # there and the plant allows it, so the on-track controller owns it
    assert p1.disable[1] and not p2.disable[1]


def test_consistent_formula():
    p = EnableDisableProfile("c", {0: True, 1: False, 2: False},
                             {0: False, 1: True, 2: False})
    assert not consistent(p, 0, 1)
    assert consistent(p, 0, 2)
    assert consistent(p, 1, 2)
    assert consistent(p, 1, 1)


def test_consistent_all_when_no_disable(sf):
    prof = profile_liveness(sf["closed"], sf["supw"], "a1", Part.C1)
    states = sf["supw"].automaton.states
    assert all(consistent(prof, x, y) for x in states for y in states)


def test_factory_c2_disable_states_mutually_consistent(sf):
    prof = profile_liveness(sf["closed"], sf["supw"], "a1", Part.C2)
    dis = [x for x, v in prof.disable.items() if v]
    ena = [x for x, v in prof.enable.items() if v]
    for x in dis:
        for y in dis:
            assert consistent(prof, x, y)
        for y in ena:
            assert not consistent(prof, x, y)


def test_congruence_single_cell_when_unconstrained(sf):
    prof = profile_liveness(sf["closed"], sf["supw"], "a1", Part.C1)
    cong = build_congruence(sf["supw"].automaton, prof)
    assert len(cong.cells) == 1


def test_congruence_validates(sf):
    for alpha in ("a1", "a2"):
        prof = profile_safety(sf["plant"], sf["sup"], alpha)
        cong = build_congruence(sf["sup"].automaton, prof)
        assert check_congruence(sf["sup"].automaton, prof, cong)
        for part in (Part.C1, Part.C2):
            prof = profile_liveness(sf["closed"], sf["supw"], alpha, part)
            cong = build_congruence(sf["supw"].automaton, prof)
            assert check_congruence(sf["supw"].automaton, prof, cong)


def test_congruence_nontransitive_consistency():
    # consistency holds for {a,b} and {b,c} but not {a,c}: a and c must land
    # in different cells
    al = Alphabet.make(("c", "x"), ("c",))
    aut = StarAutomaton(al, (0, 1, 2), 0, {(0, "x"): 1, (1, "x"): 2, (0, "c"): 0})
    prof = EnableDisableProfile(
        "c", {0: True, 1: False, 2: False}, {0: False, 1: False, 2: True})
    assert consistent(prof, 0, 1) and consistent(prof, 1, 2)
    assert not consistent(prof, 0, 2)
    cong = build_congruence(aut, prof)
    assert cong.index[0] != cong.index[2]
    assert check_congruence(aut, prof, cong)


def test_identity_congruence_always_valid(sf):
    aut = sf["sup"].automaton
    prof = profile_safety(sf["plant"], sf["sup"], "a1")
    cells = tuple(frozenset({x}) for x in aut.states)
    index = {x: i for i, x in enumerate(aut.states)}
    assert check_congruence(aut, prof, ControlCongruence(cells, index))


def test_local_controller_single_cell(sf):
    prof = profile_liveness(sf["closed"], sf["supw"], "a1", Part.C1)
    cong = build_congruence(sf["supw"].automaton, prof)
    loc = build_local_controller(sf["supw"].automaton, cong, "a1", Kind.LIVENESS, Part.C1)
    assert len(loc.automaton.states) == 1
    seen_events = {e for (_q, e) in sf["supw"].automaton.transitions}
    assert set(loc.automaton.enabled(0)) == seen_events


def test_local_controller_identity_congruence(sf):
    aut = sf["sup"].automaton
    cells = tuple(frozenset({x}) for x in aut.states)
    index = {x: i for i, x in enumerate(aut.states)}
    loc = build_local_controller(aut, ControlCongruence(cells, index), "a1", Kind.SAFETY)
    assert len(loc.automaton.states) == len(aut.states)
    # isomorphic: languages agree
    from suploc.omega import star_equal
    ok, _ = star_equal(StarLanguageHandle(loc.automaton), StarLanguageHandle(aut))
    assert ok


def test_localize_all_factory_shape(sf):
    controllers = sf["controllers"]
    assert len(controllers) == 6
    safety = [c for c in controllers if c.kind is Kind.SAFETY]
    live = [c for c in controllers if c.kind is Kind.LIVENESS]
    assert len(safety) == 2 and len(live) == 4
    c1 = [c for c in live if c.part is Part.C1]
    assert all(len(c.automaton.states) == 1 for c in c1)


def test_localize_no_controllables():
    al = Alphabet.make(("u",))
    core = StarAutomaton(al, (0,), 0, {(0, "u"): 0})
    plant = BuchiAutomaton(core, frozenset({0}))
    sup = sup_con_star(plant, StarLanguageHandle(core))
    closed = controlled_plant(plant, sup)
    from suploc.omegasynth import (assemble_fomega, build_rabin_buchi,
                                   controllability_subset, existence_check,
                                   inf_closure, restrict_sup)
    prod = build_rabin_buchi(closed, BuchiAutomaton(core, frozenset({0})))
    ctr = controllability_subset(prod, al)
    asup = restrict_sup(prod, ctr)
    minimal = BuchiAutomaton(core, frozenset({0}))
    infa = inf_closure(minimal, closed)
    ok, _ = existence_check(infa, asup)
    supw = assemble_fomega(asup, ctr, minimal, existence_verified=ok)
    assert localize_all(plant, sup, closed, supw) == []


def test_parent_language_contained_in_controllers(sf):
    supw_handle = StarLanguageHandle(sf["supw"].automaton)
    sup_handle = sf["sup"].handle()
    for c in sf["controllers"]:
        parent = sup_handle if c.kind is Kind.SAFETY else supw_handle
        ok, _ = star_contained(parent, StarLanguageHandle(c.automaton))
        assert ok


def controller_property_holds(plant_star, parent, loc, scope=None, bound=9):
    """Exhaustive check of the per-event control equivalence property over
    the plant's strings up to the bound."""
    lang = enumerate_language(plant_star, bound)
    alpha = loc.event
    for s in lang:
        if scope is not None and not scope(s):
            continue
        if run_star(parent, s) is None:
            continue
        sa = s + (alpha,)
        lhs = (run_star(loc.automaton, sa) is not None
               and run_star(plant_star, sa) is not None)
        rhs = run_star(parent, sa) is not None
        if lhs != rhs:
            return False, sa
    return True, None


def test_controller_property_safety(sf):
    plant_star = sf["plant"].core
    for c in sf["controllers"]:
        if c.kind is not Kind.SAFETY:
            continue
        ok, witness = controller_property_holds(plant_star, sf["sup"].automaton, c)
        assert ok, witness


def test_controller_property_liveness(sf):
    closed_star = sf["closed"].core
    supw = sf["supw"]
    tracker = supw.tracker

    def scope_c1(s):
        return run_star(tracker, s) != supw.tracker_sink

    def scope_c2(s):
        return run_star(tracker, s) == supw.tracker_sink

    for c in sf["controllers"]:
        if c.kind is not Kind.LIVENESS:
            continue
        scope = scope_c1 if c.part is Part.C1 else scope_c2
        ok, witness = controller_property_holds(closed_star, supw.automaton, c, scope)
        assert ok, witness


def test_part_split_no_larger_than_undivided(sf):
    for alpha in ("a1", "a2"):
        undivided = profile_liveness(sf["closed"], sf["supw"], alpha, Part.NONE)
        cong_u = build_congruence(sf["supw"].automaton, undivided)
        for part in (Part.C1, Part.C2):
            prof = profile_liveness(sf["closed"], sf["supw"], alpha, part)
            cong = build_congruence(sf["supw"].automaton, prof, seed=cong_u)
            assert len(cong.cells) <= len(cong_u.cells)
            assert check_congruence(sf["supw"].automaton, prof, cong)


def test_seeded_congruence_matches_shipped_controllers(sf):
    # the controllers from localize_all embody the seeded construction
    live = [c for c in sf["controllers"] if c.kind is Kind.LIVENESS]
    for c in live:
        undiv = profile_liveness(sf["closed"], sf["supw"], c.event, Part.NONE)
        cu = build_congruence(sf["supw"].automaton, undiv)
        assert len(c.automaton.states) <= len(cu.cells)


def random_profile(rng, states, disable_from=None):
    """Each state enables, must disable, or neither; with `disable_from`,
    the enables are kept and a random subset of its disablements is."""
    if disable_from is not None:
        return EnableDisableProfile(
            "e0", dict(disable_from.enable),
            {x: v and rng.random() < 0.5 for x, v in disable_from.disable.items()})
    kinds = {x: rng.choice("edn") for x in states}
    return EnableDisableProfile("e0", {x: k == "e" for x, k in kinds.items()},
                                {x: k == "d" for x, k in kinds.items()})


def test_congruence_matches_greedy_oracle():
    # exact cells and numbering against plain partition merging, unseeded
    # and seeded with the congruence of a profile with more disablements
    rng = random.Random(4)
    for _ in range(200):
        al = random_alphabet(rng, rng.randint(1, 4))
        aut = random_star_automaton(rng, al, rng.randint(3, 10), density=rng.random())
        big = random_profile(rng, aut.states)
        small = random_profile(rng, aut.states, disable_from=big)
        cong = build_congruence(aut, big)
        cells, index = greedy_congruence(aut, lambda x, y: consistent(big, x, y))
        assert (list(cong.cells), cong.index) == (cells, index)
        seeded = build_congruence(aut, small, seed=cong)
        cells, index = greedy_congruence(aut, lambda x, y: consistent(small, x, y),
                                         seed_cells=cells)
        assert (list(seeded.cells), seeded.index) == (cells, index)
        assert check_congruence(aut, small, seeded)


def test_congruence_rejects_inconsistent_seed():
    al = Alphabet.make(("c", "x"), ("c",))
    aut = StarAutomaton(al, (0, 1, 2), 0, {(0, "x"): 1, (1, "x"): 2, (0, "c"): 0})
    prof = EnableDisableProfile(
        "c", {0: True, 1: False, 2: False}, {0: False, 1: False, 2: True})
    seed = ControlCongruence((frozenset({0, 1, 2}),), {0: 0, 1: 0, 2: 0})
    with pytest.raises(AutomatonError, match="seed congruence"):
        build_congruence(aut, prof, seed=seed)
