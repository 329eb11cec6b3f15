import random

from harness import corpus, random_lasso
from oracles import enumerate_language, in_projected_product, run_star

from suploc.automata import LassoWord, lasso_in_star, run_lasso, sync_product

MACHINES_AND_BUFFERS = ("m1", "m2", "b1", "b2")


def plant_core():
    c = corpus()
    return sync_product([c[n] for n in MACHINES_AND_BUFFERS], c["minspec"].alphabet)


def test_plant_core_states():
    assert len(plant_core().states) == 16


def test_plant_core_language_matches_projections():
    core = plant_core()
    comps = [corpus()[n] for n in MACHINES_AND_BUFFERS]
    for word in enumerate_language(core, 5):
        assert in_projected_product(word, comps)


def test_plant_liveness_semantics(sf):
    plant = sf["plant"]
    # alternating operation satisfies both fairness assumptions
    assert run_lasso(plant, LassoWord((), ("a1", "b1", "g1", "a2", "b2", "g2")))
    # buffer 1 never drained: not accepted
    assert not run_lasso(plant, LassoWord(("a1", "b1"), ("a2", "b2", "g2")))
    # the plant's finite behavior is untouched by the liveness layers
    rng = random.Random(4)
    core = plant_core()
    for _ in range(200):
        w = random_lasso(rng, plant.alphabet)
        assert lasso_in_star(plant.core, w) == lasso_in_star(core, w)


def test_start_fairness_tracker():
    maxspec = corpus()["maxspec"]
    assert run_lasso(maxspec, LassoWord((), ("a1", "b1", "a2", "b2")))
    assert run_lasso(maxspec, LassoWord((), ("a1", "a2")))
    assert not run_lasso(maxspec, LassoWord((), ("a1", "b1", "g1")))
    assert not run_lasso(maxspec, LassoWord(("a1", "a2"), ("b1", "g1")))
    # the tracker is total: every finite string is a prefix
    assert maxspec.core.is_total()


def test_alternation_spec_single_word():
    mins = corpus()["minspec"]
    cycle = ("a1", "b1", "g1", "a2", "b2", "g2")
    assert run_lasso(mins, LassoWord((), cycle))
    assert not run_lasso(mins, LassoWord((), ("a1", "b1", "g1")))
    assert run_star(mins.core, cycle * 2) == mins.core.initial


def test_safety_spec_blocks_overflow_and_contention(sf):
    spec = sf["spec"].automaton
    assert run_star(spec, ("a1", "b1", "a1", "b1")) is None
    assert run_star(spec, ("a1", "b1", "g1", "a1", "b1")) is not None
    assert run_star(spec, ("a1", "a2")) is None
    assert run_star(spec, ("a1", "b1", "a2")) is not None
