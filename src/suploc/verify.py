"""Machine checks that the local controllers together act exactly like the
supervisors.

Finite-behavior equivalence is decided exactly on synchronized products,
which are walked, not built: each equality is one breadth-first walk of the
factors' product paired with the supervisor (`omega.product_compare`),
stopped at the first node where the two sides enable different events.
Infinite-behavior equivalence is certified in two tiers.  Tier 1 derives it
from the finite equality: for prefix-closed star languages the limit
distributes over intersection, lim(A ^ B) = lim(A) ^ lim(B), a property of
`sync_product` that the tests sample on random automata.  Tier 2 samples
seeded random lassos on both sides as an independent soundness net.  A
tier-2 disagreement indicates an implementation bug and is reported loudly.

Tier 2 draws each lasso lazily: first the stem length, uniform on
0..MAX_STEM, and the cycle length, uniform on 1..MAX_CYCLE; then the events,
uniform over the alphabet, one at a time while the plant follows them.  Both
sides of the equality require the lasso to lie in the plant, so a lasso
whose plant run is undefined is rejected by both whatever its remaining
events are, and its drawing stops there.  A lasso the plant follows through
its stem and one pass of its cycle is drawn in full; one the plant accepts
is run on the `automata.ImplicitProduct` of the controllers and on that of
both supervisors, whose rows are computed when a lasso first reaches them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import floor
from typing import Optional

from .automata import (
    AutomatonError,
    BuchiAutomaton,
    ImplicitProduct,
    LassoWord,
    extend_alphabet,
    lasso_in_star,
    run_lasso,
)
from .localization import LocalController
from .omega import StarLanguageHandle, product_compare
from .omegasynth import OmegaSupervisor

# longest stem and longest cycle of a tier-2 lasso
MAX_STEM = 8
MAX_CYCLE = 12


class VerificationError(AutomatonError):
    """A check contradicts a result the library has already proved, so the
    implementation, not the input, is at fault."""


@dataclass
class EquivalenceReport:
    finite_ok: bool
    infinite_ok: Optional[bool] = None
    counterexample: Optional[object] = None
    checked_lassos: int = 0
    seed: Optional[int] = None
    sub_results: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        ce = self.counterexample
        if isinstance(ce, LassoWord):
            ce = {"stem": list(ce.stem), "cycle": list(ce.cycle)}
        elif isinstance(ce, tuple):
            ce = list(ce)
        return {
            "finite_ok": self.finite_ok,
            "infinite_ok": self.infinite_ok,
            "counterexample": ce,
            "checked_lassos": self.checked_lassos,
            "seed": self.seed,
            "sub_results": dict(sorted(self.sub_results.items())),
        }


def check_finite_equivalence(
    plant: BuchiAutomaton,
    sup_star: StarLanguageHandle,
    sup_omega: OmegaSupervisor,
    controllers: list[LocalController],
) -> EquivalenceReport:
    """Exact decision of the collective finite behavior against the
    supervisors' and of both factor equalities; `finite_ok` holds when all
    three do.  An empty SUP* is an input error: no supervisor exists to
    compare with."""
    if sup_star.is_empty:
        raise AutomatonError("SUP* is empty: there is no safety supervisor to verify against")
    safety = [c.automaton for c in controllers if c.kind.value == "safety"]
    liveness = [c.automaton for c in controllers if c.kind.value == "liveness"]
    everyone = [c.automaton for c in controllers]
    ok_star, ce_star = product_compare([plant.core] + safety, sup_star.automaton)
    ok_live, ce_live = product_compare([sup_star.automaton] + liveness, sup_omega.automaton)
    ok_full, ce_full = product_compare([plant.core] + everyone, sup_omega.automaton)

    report = EquivalenceReport(finite_ok=ok_star and ok_live and ok_full)
    report.sub_results = {
        "safety_factor": ok_star,
        "liveness_factor": ok_live,
        "collective": ok_full,
    }
    report.counterexample = ce_full or ce_star or ce_live
    return report


def check_infinite_equivalence(
    plant: BuchiAutomaton,
    sup_star: StarLanguageHandle,
    sup_omega: OmegaSupervisor,
    controllers: list[LocalController],
    lasso_budget: int = 500,
    seed: int = 0,
) -> EquivalenceReport:
    """Two-tier check of the collective infinite behavior.

    Tier 1 re-verifies the finite product equalities exactly and applies the
    limit-distribution argument: since the finite intersections agree and
    lim(A ^ B) = lim(A) ^ lim(B) for star languages, the infinite behaviors
    agree as well.  Tier 2 checks `lasso_budget` seeded random lassos on
    both sides: stem length uniform on 0..MAX_STEM, cycle length uniform on
    1..MAX_CYCLE, events uniform over the plant's alphabet, drawn one at a
    time while the plant follows them, then run on two implicit products
    (see the module docstring).  On both tiers, an event a controller does
    not declare leaves it in place.  A lasso the plant cannot follow counts
    as checked and agreeing, since both sides are "in the plant and ...".
    `sub_results["tier2_in_plant"]` counts the sampled lassos the plant
    accepts.  The same seed gives the same report.
    """
    report = check_finite_equivalence(plant, sup_star, sup_omega, controllers)
    # tier 1: the premise (finite equality) was just decided exactly, and
    # lim distributes over the intersection that `sync_product` builds, so
    # infinite equality follows when the premise holds
    tier1 = report.finite_ok
    report.sub_results["tier1"] = tier1

    collective = ImplicitProduct(
        [extend_alphabet(c.automaton, plant.alphabet) for c in controllers], plant.alphabet)
    supervisors = ImplicitProduct([sup_star.automaton, sup_omega.automaton], plant.alphabet)
    draw = random.Random(seed).random
    events = plant.alphabet.events
    n_events = len(events)
    plant_rows = plant.core.rows
    disagreements = 0
    in_plant_count = 0
    first_bad = None
    for _ in range(lasso_budget):
        # floor(random() * k) is uniform on 0..k-1, as in `random.choices`
        stem_len = floor(draw() * (MAX_STEM + 1))
        cycle_len = 1 + floor(draw() * MAX_CYCLE)
        word = []
        q = plant.core.initial
        for _ in range(stem_len + cycle_len):
            e = events[floor(draw() * n_events)]
            q = plant_rows[q].get(e)
            if q is None:
                break
            word.append(e)
        else:
            w = LassoWord(tuple(word[:stem_len]), tuple(word[stem_len:]))
            in_plant = run_lasso(plant, w)
            in_plant_count += in_plant
            if in_plant and lasso_in_star(collective, w) != lasso_in_star(supervisors, w):
                disagreements += 1
                if first_bad is None:
                    first_bad = w
    report.checked_lassos = max(lasso_budget, 0)
    report.seed = seed
    report.sub_results["tier2_disagreements"] = disagreements
    report.sub_results["tier2_in_plant"] = in_plant_count
    report.infinite_ok = tier1 and disagreements == 0
    if first_bad is not None and report.counterexample is None:
        report.counterexample = first_bad
    if tier1 and disagreements:
        raise VerificationError(
            f"tier-2 sampling found {disagreements} disagreements against a "
            f"tier-1 proof; this indicates an implementation bug (seed={seed}); "
            f"first lasso {list(first_bad.stem)} ; {list(first_bad.cycle)}")
    return report
