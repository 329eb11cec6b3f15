import random

from harness import random_lasso
from oracles import enumerate_language, in_projected_product

from suploc.automata import LassoWord, lasso_in_star, run_lasso, run_star
from suploc import models


def test_plant_core_states():
    core = models.plant_core()
    assert len(core.states) == 16


def test_plant_core_language_matches_projections():
    core = models.plant_core()
    comps = [models.machine(1), models.machine(2), models.buffer(1), models.buffer(2)]
    for word in enumerate_language(core, 5):
        assert in_projected_product(word, comps)


def test_plant_liveness_semantics():
    plant = models.plant()
    # alternating operation satisfies both fairness assumptions
    assert run_lasso(plant, LassoWord((), ("a1", "b1", "g1", "a2", "b2", "g2")))
    # buffer 1 never drained: not accepted
    assert not run_lasso(plant, LassoWord(("a1", "b1"), ("a2", "b2", "g2")))
    # the plant's finite behavior is untouched by the liveness layers
    rng = random.Random(4)
    core = models.plant_core()
    for _ in range(200):
        w = random_lasso(rng, plant.alphabet)
        assert lasso_in_star(plant.core, w) == lasso_in_star(core, w)


def test_start_fairness_tracker():
    maxspec = models.start_fairness_spec()
    assert run_lasso(maxspec, LassoWord((), ("a1", "b1", "a2", "b2")))
    assert run_lasso(maxspec, LassoWord((), ("a1", "a2")))
    assert not run_lasso(maxspec, LassoWord((), ("a1", "b1", "g1")))
    assert not run_lasso(maxspec, LassoWord(("a1", "a2"), ("b1", "g1")))
    # the tracker is total: every finite string is a prefix
    assert maxspec.core.is_total()


def test_alternation_spec_single_word():
    mins = models.alternation_spec()
    cycle = ("a1", "b1", "g1", "a2", "b2", "g2")
    assert run_lasso(mins, LassoWord((), cycle))
    assert not run_lasso(mins, LassoWord((), ("a1", "b1", "g1")))
    assert run_star(mins.core, cycle * 2) == 0


def test_safety_spec_blocks_overflow_and_contention():
    spec = models.safety_spec().automaton
    assert run_star(spec, ("a1", "b1", "a1", "b1")) is None
    assert run_star(spec, ("a1", "b1", "g1", "a1", "b1")) is not None
    assert run_star(spec, ("a1", "a2")) is None
    assert run_star(spec, ("a1", "b1", "a2")) is not None
