"""The pipeline as ``suploc pipeline`` runs it, driven through public calls.

`run_pipeline` reads a pipeline configuration and its ``.aut`` inputs with
``suploc.textio``, then calls the library's public functions in the order
of ``suploc.cli.cmd_pipeline``: compose the plant and the safety
specification, SUP*, the controlled plant, the legal product, the
controllability subset, the existence check, SUPw, localization and the
equivalence check.  Artifacts are written with ``textio.save_automaton``
under the same file and automaton names the CLI uses.

Every library function is looked up on its module at call time, so a
tracer that replaces module attributes sees each call.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import suploc.automata as automata
import suploc.localization as localization
import suploc.omega as omega
import suploc.omegasynth as omegasynth
import suploc.safety as safety
import suploc.textio as textio
import suploc.verify as verify

LASSO_BUDGET = 500
LASSO_SEED = 0

# outcomes of one pipeline run; every one but ADMITTED is a negative verdict
SUP_STAR_EMPTY = "sup_star_empty"
INITIAL_LOST = "initial_lost"
EXISTENCE_FAILED = "existence_failed"
ADMITTED = "admitted"


@dataclass
class Outcome:
    """What one pipeline run built, for the benchmark's checks and counters."""

    verdict: str = ""
    plant: object = None
    sup: object = None
    closed: object = None
    product: object = None
    ctr: object = None
    supw: object = None
    controllers: list = field(default_factory=list)
    report: object = None
    # artifact file name (relative to the output directory) -> (name, automaton)
    artifacts: dict = field(default_factory=dict)


def controller_name(c) -> str:
    if c.kind is localization.Kind.SAFETY:
        return f"loc_{c.event}_safety"
    suffix = "c1" if c.part is localization.Part.C1 else "c2"
    return f"loc_{c.event}_live_{suffix}"


def _load(path, expect=None):
    name, aut = textio.load_automaton(path)
    if expect is not None and not isinstance(aut, expect):
        raise textio.ParseError(0, f"{path}: expected {expect.__name__}")
    return name, aut


def run_pipeline(config_path: str, out_dir: str) -> Outcome:
    """One pipeline run, stopping early at a negative verdict."""
    with open(config_path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    base = os.path.dirname(os.path.abspath(config_path))

    def rel(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    os.makedirs(out_dir, exist_ok=True)
    out = Outcome()

    def save(fname, name, aut):
        textio.save_automaton(os.path.join(out_dir, fname), name, aut)
        out.artifacts[fname] = (name, aut)

    plant_parts = [_load(rel(p))[1] for p in cfg["plant_components"]]
    liveness = [p for p in plant_parts if isinstance(p, automata.BuchiAutomaton)]
    star_parts = [p for p in plant_parts if isinstance(p, automata.StarAutomaton)]
    global_alpha = None
    for p in plant_parts:
        al = p.alphabet
        if global_alpha is None or len(al.events) > len(global_alpha.events):
            global_alpha = al
    if "alphabet_from" in cfg:
        global_alpha = _load(rel(cfg["alphabet_from"]))[1].alphabet

    def lift_star(s):
        trans = dict(s.transitions)
        for q in s.states:
            for e in global_alpha.events:
                if e not in s.alphabet.events:
                    trans[(q, e)] = q
        return automata.StarAutomaton(global_alpha, s.states, s.initial, trans)

    plant_star = automata.sync_product([lift_star(s) for s in star_parts], global_alpha)
    plant = automata.all_accepting(plant_star)
    for live in liveness:
        lifted = automata.BuchiAutomaton(lift_star(live.core), live.accepting)
        plant = automata.buchi_intersection(plant, lifted)
    out.plant = plant
    save("plant.aut", "plant", plant)

    specs = [_load(rel(p))[1] for p in cfg["safety_specs"]]
    spec_cores = [s.core if not isinstance(s, automata.StarAutomaton) else s for s in specs]
    spec = omega.StarLanguageHandle(
        automata.sync_product([lift_star(s) for s in spec_cores], global_alpha))

    sup = safety.sup_con_star(plant, spec)
    out.sup = sup
    if sup.is_empty:
        out.verdict = SUP_STAR_EMPTY
        return out
    closed = safety.controlled_plant(plant, sup)
    out.closed = closed
    save("sup_star.aut", "sup-star", closed)

    _, legal = _load(rel(cfg["legal_spec"]))
    _, minimal = _load(rel(cfg["minimal_spec"]), automata.BuchiAutomaton)
    product = omegasynth.build_rabin_buchi(closed, legal)
    ctr = omegasynth.controllability_subset(product, closed.alphabet)
    asup = omegasynth.restrict_sup(product, ctr)
    infa = omegasynth.inf_closure(minimal, closed)
    ok, _witness = omegasynth.existence_check(infa, asup)
    out.product, out.ctr = product, ctr
    save("legal_product.aut", "legal-product", product)
    if product.core.initial not in ctr.subset:
        out.verdict = INITIAL_LOST
        return out
    if not ok:
        out.verdict = EXISTENCE_FAILED
        return out
    supw = omegasynth.assemble_fomega(asup, ctr, minimal, existence_verified=True)
    out.supw = supw
    save("sup_omega.aut", "sup-omega", automata.BuchiAutomaton(supw.automaton, supw.buchi_lift))
    out.verdict = ADMITTED

    controllers = localization.localize_all(plant, sup, closed, supw)
    out.controllers = controllers
    os.makedirs(os.path.join(out_dir, "controllers"), exist_ok=True)
    for c in controllers:
        name = controller_name(c)
        save(os.path.join("controllers", name + ".aut"), name, c.automaton)
    out.report = verify.check_infinite_equivalence(
        plant, sup, supw, controllers, lasso_budget=LASSO_BUDGET, seed=LASSO_SEED)
    return out


def controller_states(out: Outcome) -> int:
    """States of all local controllers the run built."""
    return sum(len(c.automaton.states) for c in out.controllers)
