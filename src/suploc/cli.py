"""Command line front end: synthesis, localization, verification, pipeline."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .automata import (
    AutomatonError,
    BuchiAutomaton,
    RabinBuchiAutomaton,
    StarAutomaton,
    alphabet_union,
    all_accepting,
    buchi_intersection,
    extend_alphabet,
    lockstep,
    sink_tracker,
    sync_product,
)
from .localization import Kind, LocalController, Part, localize_all
from .omega import StarLanguageHandle
from .omegasynth import (
    OmegaSupervisor,
    assemble_fomega,
    build_rabin_buchi,
    controllability_subset,
    existence_check,
    inf_closure,
    restrict_sup,
)
from .safety import SafetySupervisor, controlled_plant, sup_con_star
from .textio import ParseError, load_automaton, save_automaton, to_dot
from .verify import VerificationError, check_infinite_equivalence

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EXISTENCE = 3
EXIT_VERIFY = 4

# a legal specification carries liveness: a Buchi or a Rabin-Buchi automaton
LEGAL_TYPES = (BuchiAutomaton, RabinBuchiAutomaton)

NO_SAFETY_SUPERVISOR = "no safety supervisor: SUP* is empty"


def _load(path, expect=None):
    """Parse an automaton file; `expect` is a type or a tuple of types the
    automaton must have."""
    try:
        name, aut = load_automaton(path)
    except FileNotFoundError:
        raise AutomatonError(f"no such file: {path}")
    if expect is not None and not isinstance(aut, expect):
        kinds = expect if isinstance(expect, tuple) else (expect,)
        raise AutomatonError(f"{path}: expected {' or '.join(k.__name__ for k in kinds)}, "
                             f"got {type(aut).__name__}")
    return name, aut


def _emit(args, payload: dict):
    if not args.quiet:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _write_dot(path, name, aut):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_dot(name, aut))


def cmd_product(args) -> int:
    comps = [_load(p)[1] for p in args.component]
    cores = [c.core if not isinstance(c, StarAutomaton) else c for c in comps]
    global_alpha = alphabet_union(c.alphabet for c in cores)
    prod = sync_product(cores, global_alpha)
    save_automaton(args.out, "product", prod)
    if args.dot:
        _write_dot(args.dot, "product", prod)
    _emit(args, {"states": len(prod.states), "transitions": prod.n_transitions()})
    return EXIT_OK


def cmd_synth_safety(args) -> int:
    _, plant = _load(args.plant, BuchiAutomaton)
    specs = [_load(p)[1] for p in args.spec]
    spec_cores = [s.core if not isinstance(s, StarAutomaton) else s for s in specs]
    spec = StarLanguageHandle(sync_product(spec_cores, plant.alphabet))
    sup = sup_con_star(plant, spec)
    if sup.is_empty:
        _emit(args, {"empty": True})
        print(NO_SAFETY_SUPERVISOR, file=sys.stderr)
        return EXIT_EXISTENCE
    closed = controlled_plant(plant, sup)
    save_automaton(args.out, "sup-star", closed)
    if args.dot:
        _write_dot(args.dot, "sup-star", closed)
    _emit(args, {
        "states": len(sup.automaton.states),
        "transitions": sup.automaton.n_transitions(),
        "buchi": len(sup.buchi_lift),
    })
    return EXIT_OK


INITIAL_LOST = "the controllability game loses the initial state"


def _synth_omega(plant: BuchiAutomaton, legal, minimal: BuchiAutomaton):
    """SUPw with the legal product and the game's result; when no supervisor
    exists, None and in its place the reason: the existence check's witness
    lasso, or INITIAL_LOST."""
    product = build_rabin_buchi(plant, legal)
    ctr = controllability_subset(product, plant.alphabet)
    asup = restrict_sup(product, ctr)
    infa = inf_closure(minimal, plant)
    ok, witness = existence_check(infa, asup)
    if not ok:
        return None, witness, product, ctr
    if product.core.initial not in ctr.subset:
        return None, INITIAL_LOST, product, ctr
    sup = assemble_fomega(asup, ctr, minimal, existence_verified=True)
    return sup, None, product, ctr


def _no_supervisor(reason) -> str:
    if reason == INITIAL_LOST:
        return f"no liveness supervisor: {INITIAL_LOST}"
    return f"existence check failed; witness lasso {list(reason.stem)} ; {list(reason.cycle)}"


def cmd_synth_omega(args) -> int:
    _, plant = _load(args.plant, BuchiAutomaton)
    _, legal = _load(args.legal, LEGAL_TYPES)
    _, minimal = _load(args.minimal, BuchiAutomaton)
    sup, reason, product, ctr = _synth_omega(plant, legal, minimal)
    if sup is None:
        if reason == INITIAL_LOST:
            _emit(args, {"existence": False, "initial_lost": True})
        else:
            _emit(args, {"existence": False,
                         "witness": {"stem": list(reason.stem), "cycle": list(reason.cycle)}})
        print(_no_supervisor(reason), file=sys.stderr)
        return EXIT_EXISTENCE
    closed = BuchiAutomaton(sup.automaton, sup.buchi_lift)
    save_automaton(args.out, "sup-omega", closed)
    if args.dot:
        _write_dot(args.dot, "sup-omega", closed)
    if args.psi_table:
        with open(args.psi_table, "w", encoding="utf-8") as fh:
            fh.write("product_state,z_state,enabled_events\n")
            for x in sup.automaton.states:
                evs = " ".join(sup.automaton.enabled(x))
                fh.write(f"{x},{sup.z_component[x]},{evs}\n")
    _emit(args, {
        "product_states": len(product.core.states),
        "controllability_subset": len(ctr.subset),
        "states": len(sup.automaton.states),
        "transitions": sup.automaton.n_transitions(),
        "buchi": len(sup.buchi_lift),
    })
    return EXIT_OK


def cmd_info(args) -> int:
    name, aut = _load(args.file)
    info: dict = {"name": name}
    core = aut if isinstance(aut, StarAutomaton) else aut.core
    info["type"] = ("star" if isinstance(aut, StarAutomaton)
                    else "buchi" if isinstance(aut, BuchiAutomaton) else "rabin-buchi")
    info["states"] = len(core.states)
    info["transitions"] = core.n_transitions()
    info["events"] = {
        "controllable": sorted(core.alphabet.controllable),
        "uncontrollable": sorted(core.alphabet.uncontrollable),
    }
    if isinstance(aut, BuchiAutomaton):
        info["buchi"] = len(aut.accepting)
    if isinstance(aut, RabinBuchiAutomaton):
        info["buchi"] = len(aut.buchi)
        info["rabin_pairs"] = [[len(r), len(i)] for r, i in aut.rabin_pairs]
    _emit(args, info)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="suploc")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product")
    p.add_argument("component", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--dot")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("synth-safety")
    p.add_argument("--plant", required=True)
    p.add_argument("--spec", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dot")
    p.set_defaults(func=cmd_synth_safety)

    p = sub.add_parser("synth-omega")
    p.add_argument("--plant", required=True)
    p.add_argument("--legal", required=True)
    p.add_argument("--minimal", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--psi-table")
    p.add_argument("--dot")
    p.set_defaults(func=cmd_synth_omega)

    p = sub.add_parser("localize")
    p.add_argument("--plant", required=True)
    p.add_argument("--sup-star", required=True)
    p.add_argument("--sup-omega", required=True)
    p.add_argument("--minimal", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("verify")
    p.add_argument("--plant", required=True)
    p.add_argument("--sup-star", required=True)
    p.add_argument("--sup-omega", required=True)
    p.add_argument("--minimal", required=True)
    p.add_argument("--controllers", required=True)
    p.add_argument("--lassos", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pipeline")
    p.add_argument("config")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lassos", type=int, default=500)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("info")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except AutomatonError as exc:
        # inputs that parse but do not fit together, e.g. a specification
        # over foreign events or supervisors given in the wrong order
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def _rebuild_supervisors(plant_path, sup_star_path, sup_omega_path, minimal_path):
    """Reload pipeline artifacts for localization/verification runs.

    The supervisors are stored as Buchi automata (structure + lift); the
    liveness supervisor's tracker is rebuilt from the minimal behavior, and
    each supervisor state's tracker component by a joint walk.
    """
    _, plant = _load(plant_path, BuchiAutomaton)
    _, star_b = _load(sup_star_path, BuchiAutomaton)
    _, omega_b = _load(sup_omega_path, BuchiAutomaton)
    _, minimal = _load(minimal_path, BuchiAutomaton)
    sup_star = SafetySupervisor(star_b.core, star_b.accepting)
    tracker, sink = sink_tracker(minimal.core)
    z_comp: dict = {}
    for x, z in lockstep(omega_b.core, tracker):
        z_comp.setdefault(x, z)
    sup_omega = OmegaSupervisor(omega_b.core, omega_b.accepting, tracker, sink, z_comp)
    return plant, sup_star, sup_omega, minimal


def cmd_localize(args) -> int:
    plant, sup_star, sup_omega, _minimal = _rebuild_supervisors(
        args.plant, args.sup_star, args.sup_omega, args.minimal)
    closed = controlled_plant(plant, sup_star)
    controllers = localize_all(plant, sup_star, closed, sup_omega)
    manifest = _write_controllers(controllers, args.out_dir, args.dot)
    _emit(args, {"controllers": manifest})
    return EXIT_OK


def _controller_name(c: LocalController) -> str:
    if c.kind is Kind.SAFETY:
        return f"loc_{c.event}_safety"
    suffix = "c1" if c.part is Part.C1 else "c2"
    return f"loc_{c.event}_live_{suffix}"


def _write_controllers(controllers: list[LocalController], out_dir, dot: bool) -> list[dict]:
    """Save each controller (and its DOT rendering) plus ``manifest.json``;
    returns the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for c in controllers:
        name = _controller_name(c)
        save_automaton(os.path.join(out_dir, name + ".aut"), name, c.automaton)
        if dot:
            _write_dot(os.path.join(out_dir, name + ".dot"), name, c.automaton)
        manifest.append({"name": name, "event": c.event, "kind": c.kind.value,
                         "part": c.part.value, "states": len(c.automaton.states)})
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def _load_controllers(directory) -> list[LocalController]:
    with open(os.path.join(directory, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    out = []
    for entry in manifest:
        _, aut = _load(os.path.join(directory, entry["name"] + ".aut"), StarAutomaton)
        out.append(LocalController(aut, entry["event"], Kind(entry["kind"]), Part(entry["part"])))
    return out


def cmd_verify(args) -> int:
    plant, sup_star, sup_omega, _minimal = _rebuild_supervisors(
        args.plant, args.sup_star, args.sup_omega, args.minimal)
    controllers = _load_controllers(args.controllers)
    report = check_infinite_equivalence(
        plant, sup_star, sup_omega, controllers, lasso_budget=args.lassos, seed=args.seed)
    payload = report.as_dict()
    _emit(args, payload)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return EXIT_OK if (report.finite_ok and report.infinite_ok) else EXIT_VERIFY


def cmd_pipeline(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    base = os.path.dirname(os.path.abspath(args.config))

    def rel(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    out_dir = rel(cfg["output_dir"])
    os.makedirs(out_dir, exist_ok=True)

    plant_parts = [_load(rel(p))[1] for p in cfg["plant_components"]]
    specs = [_load(rel(p))[1] for p in cfg["safety_specs"]]
    _, legal = _load(rel(cfg["legal_spec"]), LEGAL_TYPES)
    _, minimal = _load(rel(cfg["minimal_spec"]), BuchiAutomaton)
    liveness = [p for p in plant_parts if isinstance(p, BuchiAutomaton)]
    star_parts = [p for p in plant_parts if isinstance(p, StarAutomaton)]
    # the legal product needs the legal specification over exactly the
    # global alphabet, so that is the default
    global_alpha = legal.alphabet
    if "alphabet_from" in cfg:
        global_alpha = _load(rel(cfg["alphabet_from"]))[1].alphabet

    plant = all_accepting(sync_product(star_parts, global_alpha))
    for live in liveness:
        plant = buchi_intersection(plant, extend_alphabet(live, global_alpha))
    save_automaton(os.path.join(out_dir, "plant.aut"), "plant", plant)

    spec_cores = [s.core if not isinstance(s, StarAutomaton) else s for s in specs]
    spec = StarLanguageHandle(sync_product(spec_cores, global_alpha))

    sup = sup_con_star(plant, spec)
    if sup.is_empty:
        print(NO_SAFETY_SUPERVISOR, file=sys.stderr)
        return EXIT_EXISTENCE
    closed = controlled_plant(plant, sup)
    save_automaton(os.path.join(out_dir, "sup_star.aut"), "sup-star", closed)

    supw, reason, product, ctr = _synth_omega(closed, legal, minimal)
    save_automaton(os.path.join(out_dir, "legal_product.aut"), "legal-product", product)
    if supw is None:
        print(_no_supervisor(reason), file=sys.stderr)
        return EXIT_EXISTENCE
    save_automaton(os.path.join(out_dir, "sup_omega.aut"), "sup-omega",
                   BuchiAutomaton(supw.automaton, supw.buchi_lift))

    controllers = localize_all(plant, sup, closed, supw)
    manifest = _write_controllers(controllers, os.path.join(out_dir, "controllers"), args.dot)

    report = check_infinite_equivalence(
        plant, sup, supw, controllers, lasso_budget=args.lassos, seed=args.seed)
    payload = report.as_dict()
    payload["sup_star"] = {"states": len(sup.automaton.states),
                           "transitions": sup.automaton.n_transitions(),
                           "buchi": len(sup.buchi_lift)}
    payload["legal_product"] = {"states": len(product.core.states),
                                "buchi": len(product.buchi),
                                "rabin_r": len(product.rabin_pairs[0][0]),
                                "controllability_subset": len(ctr.subset)}
    payload["sup_omega"] = {"states": len(supw.automaton.states),
                            "transitions": supw.automaton.n_transitions(),
                            "buchi": len(supw.buchi_lift)}
    payload["controllers"] = manifest
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    _emit(args, payload)
    return EXIT_OK if (report.finite_ok and report.infinite_ok) else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
