import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from suploc import models
from suploc.automata import (
    Alphabet,
    BuchiAutomaton,
    StarAutomaton,
    all_accepting,
    buchi_intersection,
    extend_alphabet,
    sync_product,
)
from suploc.localization import localize_all
from suploc.omegasynth import (
    assemble_fomega,
    build_rabin_buchi,
    controllability_subset,
    existence_check,
    inf_closure,
    restrict_sup,
)
from suploc.omega import StarLanguageHandle
from suploc.safety import controlled_plant, sup_con_star


def _pipeline(plant, spec, maxspec, minimal) -> dict:
    """Synthesis up to SUPw; the existence check must pass."""
    sup = sup_con_star(plant, spec)
    closed = controlled_plant(plant, sup)
    prod = build_rabin_buchi(closed, maxspec)
    ctr = controllability_subset(prod, plant.alphabet)
    asup = restrict_sup(prod, ctr)
    infa = inf_closure(minimal, closed)
    ok, witness = existence_check(infa, asup)
    assert ok, witness
    supw = assemble_fomega(asup, ctr, minimal, existence_verified=True)
    return {
        "plant": plant,
        "spec": spec,
        "sup": sup,
        "closed": closed,
        "maxspec": maxspec,
        "minimal": minimal,
        "prod": prod,
        "ctr": ctr,
        "asup": asup,
        "infa": infa,
        "supw": supw,
    }


@pytest.fixture(scope="session")
def sf():
    """The full factory pipeline, computed once."""
    out = _pipeline(models.plant(), models.safety_spec(), models.start_fairness_spec(),
                    models.alternation_spec())
    out["controllers"] = localize_all(out["plant"], out["sup"], out["closed"], out["supw"])
    return out


def machine_factory(n: int) -> dict:
    """The pipeline up to SUPw on the n-machine factory: `models`' machines,
    buffers and removal fairness as the plant, its buffer specifications and
    an n-way mutex as the safety specification, round-robin machine starts
    as the legal specification and round-robin routines as the minimal
    behaviour.  At n=2 it is the bundled factory with a round-robin legal
    specification instead of the alternation tracker."""
    rng = range(1, n + 1)
    events = tuple(f"{x}{i}" for i in rng for x in "abg")
    al = Alphabet.make(events, [f"a{i}" for i in rng])
    plant = all_accepting(sync_product([models.machine(i) for i in rng]
                                       + [models.buffer(i) for i in rng], al))
    for i in rng:
        plant = buchi_intersection(plant, extend_alphabet(models.removal_fairness(i), al))
    mutex = StarAutomaton(Alphabet.make(tuple(f"{x}{i}" for i in rng for x in "ab")),
                          tuple(range(n + 1)), 0,
                          {k: v for i in rng for k, v in (((0, f"a{i}"), i), ((i, f"b{i}"), 0))})
    spec = StarLanguageHandle(sync_product([models.buffer_spec(i) for i in rng] + [mutex], al))
    starts = {(k, e): k for k in range(n) for e in events}
    starts.update({(k, f"a{k + 1}"): k + 1 for k in range(n)})
    starts.update({(n, e): 0 for e in events})
    starts[(n, "a1")] = 1
    maxspec = BuchiAutomaton(StarAutomaton(al, tuple(range(n + 1)), 0, starts), frozenset({n}))
    routines = {(k, e): (k + 1) % len(events) for k, e in enumerate(events)}
    minimal = BuchiAutomaton(StarAutomaton(al, tuple(range(len(events))), 0, routines),
                             frozenset({0}))
    return _pipeline(plant, spec, maxspec, minimal)


@pytest.fixture(scope="session")
def factory():
    """`factory(n)`: `machine_factory(n)`, built once per n."""
    return lru_cache(maxsize=None)(machine_factory)
