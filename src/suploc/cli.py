"""Command line front end: synthesis, localization, verification, pipeline."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .automata import (
    AutomatonError,
    BuchiAutomaton,
    RabinBuchiAutomaton,
    StarAutomaton,
    alphabet_union,
    check_alphabet,
    compose_plant,
    lockstep,
    sync_product,
)
from .localization import Kind, LocalController, Part, localize_all
from .omega import StarLanguageHandle, prefix_tracker
from .omegasynth import (
    OmegaSupervisor,
    assemble_fomega,
    build_rabin_buchi,
    controllability_subset,
    existence_check,
    inf_closure,
    restrict_sup,
)
from .safety import controlled_plant, sup_con_star
from .textio import ParseError, load_automaton, save_automaton, to_dot, type_name, write_text
from .verify import VerificationError, check_infinite_equivalence

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EXISTENCE = 3
EXIT_VERIFY = 4

# a legal specification carries liveness: a Buchi or a Rabin-Buchi automaton
LEGAL_TYPES = (BuchiAutomaton, RabinBuchiAutomaton)

# the pipeline configuration's required keys; "alphabet_from", a path too,
# is optional
PATH_LIST_KEYS = ("plant_components", "safety_specs")
PATH_KEYS = ("legal_spec", "minimal_spec", "output_dir")


class NoSupervisor(Exception):
    """No supervisor exists; `main` prints the verdict and exits 3.  Not an
    AutomatonError: the inputs are fine, the answer is negative."""

    def __init__(self, message: str, verdict: dict):
        super().__init__(message)
        self.verdict = verdict


def _load(path, expect=None):
    """Parse an automaton file; `expect` is a type or a tuple of types the
    automaton must have."""
    try:
        name, aut = load_automaton(path)
    except FileNotFoundError:
        raise AutomatonError(f"no such file: {path}")
    except UnicodeDecodeError as exc:
        raise AutomatonError(f"{path}: not UTF-8 text ({exc})")
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)  # name the file the line is in
        raise
    if expect is not None and not isinstance(aut, expect):
        kinds = expect if isinstance(expect, tuple) else (expect,)
        raise AutomatonError(f"{path}: expected {' or '.join(k.__name__ for k in kinds)}, "
                             f"got {type(aut).__name__}")
    return name, aut


def _fit(path, aut, alphabet, source=None, role=""):
    """`aut`, read from `path`, if it declares events of `alphabet` with their
    controllability and, given `source` (where `alphabet` is read from), all in order."""
    if source is not None and aut.alphabet.events != alphabet.events:
        raise AutomatonError(f"alphabet mismatch: {source} and {role}{path} list other events "
                             "or another order")
    try:
        check_alphabet(aut.alphabet, alphabet)
    except AutomatonError as exc:
        raise AutomatonError(f"{path}: {exc}") from None
    return aut


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise AutomatonError(f"no such file: {path}")
    except ValueError as exc:  # not UTF-8, or not JSON
        raise AutomatonError(f"{path}: not a JSON file ({exc})")


def _read_config(path) -> dict:
    """The pipeline configuration: a JSON object with every required key,
    each holding a path or a list of paths."""
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise AutomatonError(f"{path}: expected a JSON object, got {type(cfg).__name__}")
    missing = [k for k in PATH_LIST_KEYS + PATH_KEYS if k not in cfg]
    if missing:
        raise AutomatonError(f"{path}: missing required key(s) {', '.join(missing)}")
    for key in PATH_LIST_KEYS + PATH_KEYS + ("alphabet_from",):
        value = cfg.get(key, "")
        paths = value if key in PATH_LIST_KEYS else [value]
        if not (isinstance(paths, list) and all(isinstance(p, str) for p in paths)):
            kind = "a list of paths" if key in PATH_LIST_KEYS else "a path"
            raise AutomatonError(f"{path}: {key} must be {kind}")
    return cfg


def _emit(args, payload: dict):
    if not args.quiet:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _save(path, name, aut, dot=None):
    """Write `aut` to `path` and, when `dot` is a path, its DOT rendering."""
    save_automaton(path, name, aut)
    if dot:
        write_text(dot, to_dot(name, aut))


def _write_json(path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def _sizes(saved: BuchiAutomaton) -> dict:
    """The size summary of a SUP* or SUPw, from the Buchi automaton it is
    saved as: the closed loop, or SUPw with its lifted marking."""
    return {"states": len(saved.core.states),
            "transitions": saved.core.n_transitions(),
            "buchi": len(saved.accepting)}


def cmd_product(args) -> int:
    comps = [_load(p)[1] for p in args.component]
    plant = compose_plant(comps, alphabet_union(c.alphabet for c in comps))
    _save(args.out, "product", plant, args.dot)
    _emit(args, {"states": len(plant.core.states), "transitions": plant.core.n_transitions()})
    return EXIT_OK


def _load_safety_spec(path) -> StarAutomaton:
    """A safety specification: a star automaton, or a Buchi automaton that
    marks every state and so means exactly its finite behaviour (`product`
    writes one for star components)."""
    _, spec = _load(path)
    if isinstance(spec, StarAutomaton):
        return spec
    kind = type(spec).__name__
    if isinstance(spec, BuchiAutomaton):
        unmarked = [q for q in spec.core.states if q not in spec.accepting]
        if not unmarked:
            return spec.core
        kind += f" with unmarked state(s) {' '.join(map(str, unmarked))}"
    raise AutomatonError(f"{path}: a safety specification must be a StarAutomaton or a "
                         f"BuchiAutomaton marking every state, got {kind}")


def _synth_safety(plant: BuchiAutomaton, specs: list[StarAutomaton]):
    """SUP* of the specifications over the plant's alphabet, and the plant
    under its control."""
    sup = sup_con_star(plant, StarLanguageHandle(sync_product(specs, plant.alphabet)))
    if sup.is_empty:
        raise NoSupervisor("no safety supervisor: SUP* is empty", {"empty": True})
    return sup, controlled_plant(plant, sup)


def cmd_synth_safety(args) -> int:
    _, plant = _load(args.plant, BuchiAutomaton)
    specs = [_fit(p, _load_safety_spec(p), plant.alphabet) for p in args.spec]
    _sup, closed = _synth_safety(plant, specs)
    _save(args.out, "sup-star", closed, args.dot)
    _emit(args, _sizes(closed))
    return EXIT_OK


def _synth_omega(closed: BuchiAutomaton, product, minimal: BuchiAutomaton):
    """SUPw from the legal product of the controlled plant, and the game's
    result.  The game's verdict on the initial state comes before the
    existence check."""
    ctr = controllability_subset(product, closed.alphabet)
    if product.core.initial not in ctr.subset:
        raise NoSupervisor("no liveness supervisor: the controllability game loses the "
                           "initial state", {"existence": False, "initial_lost": True})
    asup = restrict_sup(product, ctr)
    ok, witness = existence_check(inf_closure(minimal, closed), asup)
    if not ok:
        stem, cycle = list(witness.stem), list(witness.cycle)
        raise NoSupervisor(f"existence check failed; witness lasso {stem} ; {cycle}",
                           {"existence": False, "witness": {"stem": stem, "cycle": cycle}})
    return assemble_fomega(asup, ctr, minimal, existence_verified=True), ctr


def cmd_synth_omega(args) -> int:
    _, closed = _load(args.plant, BuchiAutomaton)
    legal, minimal = (_fit(p, _load(p, kind)[1], closed.alphabet, args.plant)
                      for p, kind in ((args.legal, LEGAL_TYPES), (args.minimal, BuchiAutomaton)))
    product = build_rabin_buchi(closed, legal)
    sup, ctr = _synth_omega(closed, product, minimal)
    saved = BuchiAutomaton(sup.automaton, sup.buchi_lift)
    _save(args.out, "sup-omega", saved, args.dot)
    if args.psi_table:
        z_state = dict(lockstep(sup.automaton, sup.tracker))
        rows = [f"{x},{z_state[x]},{' '.join(sup.automaton.enabled(x))}\n"
                for x in sup.automaton.states]
        write_text(args.psi_table, "product_state,z_state,enabled_events\n" + "".join(rows))
    _emit(args, {"product_states": len(product.core.states),
                 "controllability_subset": len(ctr.subset), **_sizes(saved)})
    return EXIT_OK


def cmd_info(args) -> int:
    name, aut = _load(args.file)
    info: dict = {"name": name}
    core = aut if isinstance(aut, StarAutomaton) else aut.core
    info["type"] = type_name(aut)
    info["states"] = len(core.states)
    info["transitions"] = core.n_transitions()
    info["events"] = {
        "controllable": sorted(core.alphabet.controllable),
        "uncontrollable": sorted(core.alphabet.uncontrollable),
    }
    if core is not aut:  # an omega-automaton
        info["buchi"] = len(aut.buchi)
        if aut.rabin_pairs:
            info["rabin_pairs"] = [[len(r), len(i)] for r, i in aut.rabin_pairs]
    _emit(args, info)
    return EXIT_OK


def _lasso_count(text: str) -> int:
    """A number of lassos for tier 2: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="suploc")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    # the inputs `localize` and `verify` rebuild the supervisors from
    supervisors = argparse.ArgumentParser(add_help=False)
    for flag in ("--plant", "--sup-star", "--sup-omega", "--minimal"):
        supervisors.add_argument(flag, required=True)
    # tier-2 lasso sampling of `verify` and `pipeline`
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--lassos", type=_lasso_count, default=500)
    sampling.add_argument("--seed", type=int, default=0)

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

    p = sub.add_parser("localize", parents=[supervisors])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("verify", parents=[supervisors, sampling])
    p.add_argument("--controllers", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pipeline", parents=[sampling])
    p.add_argument("config")
    p.add_argument("--dot", action="store_true")
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
    except NoSupervisor as exc:
        _emit(args, exc.verdict)
        print(exc, file=sys.stderr)
        return EXIT_EXISTENCE
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except AutomatonError as exc:
        # inputs that parse but do not fit together, e.g. a specification
        # over foreign events or supervisors given in the wrong order
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        # a path that cannot be read or written: a directory where a file
        # is expected, an output file in a missing directory, ...
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"input error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE


def _rebuild_supervisors(args):
    """The plant, SUP* and SUPw from the pipeline artifacts named by the
    ``--plant``, ``--sup-star``, ``--sup-omega`` and ``--minimal`` inputs.

    Both are stored as Buchi automata: SUP* is the structure of its closed
    loop, SUPw the structure with its marking, and SUPw's tracker is rebuilt
    from the minimal behavior.
    """
    _, plant = _load(args.plant, BuchiAutomaton)
    star_b, omega_b, minimal = (_fit(p, _load(p, BuchiAutomaton)[1], plant.alphabet, args.plant)
                                for p in (args.sup_star, args.sup_omega, args.minimal))
    sup_star = StarLanguageHandle(star_b.core)
    sup_omega = OmegaSupervisor(omega_b.core, omega_b.accepting, *prefix_tracker(minimal))
    return plant, sup_star, sup_omega


def cmd_localize(args) -> int:
    plant, sup_star, sup_omega = _rebuild_supervisors(args)
    closed = controlled_plant(plant, sup_star)
    controllers = localize_all(plant, sup_star, closed, sup_omega)
    manifest = _write_controllers(controllers, args.out_dir, args.dot, [])
    _emit(args, {"controllers": manifest})
    return EXIT_OK


def _controller_name(event, kind, part) -> str:
    """The file name (without extension) the pipeline gives a controller,
    from its manifest entry's event, kind and part."""
    if kind == Kind.SAFETY.value:
        return f"loc_{event}_safety"
    return f"loc_{event}_live_{'c1' if part == Part.C1.value else 'c2'}"


@contextlib.contextmanager
def _replacing(directory, finished: list, files, sub=""):
    """Let the run inside replace the files the CLI writes in `directory`:
    on leaving, by any exit, remove each of them whose path is not in
    `finished`, which the run extends as it finishes its stages.  They are
    `files`, the ``manifest.json`` of the subdirectory `sub`, and the
    controllers (``.aut`` and ``.dot``) it names under the names the CLI
    gives them (`_controller_name`)."""
    manifest = os.path.join(directory, sub, "manifest.json")
    try:
        named = [os.path.join(sub, e["name"] + ext) for e in _read_json(manifest)
                 if isinstance(e, dict)
                 and e.get("name") == _controller_name(e.get("event"), e.get("kind"), e.get("part"))
                 and "/" not in e["name"] for ext in (".aut", ".dot")]
    except (AutomatonError, TypeError):
        named = []
    try:
        yield
    finally:
        for path in {manifest, *(os.path.join(directory, f) for f in [*files, *named])}:
            if path not in finished and os.path.isfile(path):
                os.remove(path)


def _write_controllers(controllers: list[LocalController], out_dir, dot: bool,
                       finished: list) -> list[dict]:
    """Replace the controller set in `out_dir` by `controllers` (and their
    DOT renderings) and the ``manifest.json`` naming them; adds the paths
    written to `finished` and returns the manifest."""
    names = [_controller_name(c.event, c.kind.value, c.part.value) for c in controllers]
    os.makedirs(out_dir, exist_ok=True)
    with _replacing(out_dir, finished, [n + ext for n in names for ext in (".aut", ".dot")]):
        manifest, files = [], [os.path.join(out_dir, "manifest.json")]
        for name, c in zip(names, controllers):
            path = os.path.join(out_dir, name)
            _save(path + ".aut", name, c.automaton, dot and path + ".dot")
            files += [path + ".aut", path + ".dot"] if dot else [path + ".aut"]
            manifest.append({"name": name, "event": c.event, "kind": c.kind.value,
                             "part": c.part.value, "states": len(c.automaton.states)})
        _write_json(files[0], manifest)
        finished.extend(files)
    return manifest


def _load_controllers(directory, alphabet) -> list[LocalController]:
    path = os.path.join(directory, "manifest.json")
    manifest = _read_json(path)
    try:
        entries = [(os.path.join(directory, e["name"] + ".aut"), e["event"], Kind(e["kind"]),
                    Part(e["part"])) for e in manifest]
    except (KeyError, TypeError, ValueError) as exc:
        raise AutomatonError(f"{path}: not a controller manifest ({exc!r})")
    return [LocalController(_fit(p, _load(p, StarAutomaton)[1], alphabet), event, kind, part)
            for p, event, kind, part in entries]


def cmd_verify(args) -> int:
    plant, sup_star, sup_omega = _rebuild_supervisors(args)
    controllers = _load_controllers(args.controllers, plant.alphabet)
    report = check_infinite_equivalence(
        plant, sup_star, sup_omega, controllers, lasso_budget=args.lassos, seed=args.seed)
    payload = report.as_dict()
    _emit(args, payload)
    if args.report:
        _write_json(args.report, payload)
    return EXIT_OK if (report.finite_ok and report.infinite_ok) else EXIT_VERIFY


def cmd_pipeline(args) -> int:
    cfg = _read_config(args.config)
    base = os.path.dirname(os.path.abspath(args.config))

    def rel(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    parts = [(rel(p), _load(rel(p))[1]) for p in cfg["plant_components"]]
    specs = [(rel(p), _load_safety_spec(rel(p))) for p in cfg["safety_specs"]]
    source = legal_path = rel(cfg["legal_spec"])
    _, legal = _load(legal_path, LEGAL_TYPES)
    _, minimal = _load(rel(cfg["minimal_spec"]), BuchiAutomaton)
    # every input over the global alphabet, the legal specification's: the
    # legal product needs it over exactly that, so `alphabet_from` may only name it
    if "alphabet_from" in cfg:
        source = rel(cfg["alphabet_from"])
        _fit(legal_path, legal, _load(source)[1].alphabet, source, "the legal specification ")
    for path, aut in parts + specs:
        _fit(path, aut, legal.alphabet)
    _fit(rel(cfg["minimal_spec"]), minimal, legal.alphabet, source)

    out_dir = rel(cfg["output_dir"])
    os.makedirs(out_dir, exist_ok=True)
    finished = []

    def finish(fname, write, *content):
        write(os.path.join(out_dir, fname), *content)
        finished.append(os.path.join(out_dir, fname))

    plant = compose_plant([part for _path, part in parts], legal.alphabet)
    finish("plant.aut", save_automaton, "plant", plant)
    # after `plant.aut`, the run leaves exactly the files of the stages it finished
    stages = ("sup_star.aut", "legal_product.aut", "sup_omega.aut", "report.json")
    with _replacing(out_dir, finished, stages, "controllers"):
        sup, closed = _synth_safety(plant, [spec for _path, spec in specs])
        finish("sup_star.aut", save_automaton, "sup-star", closed)
        product = build_rabin_buchi(closed, legal)
        finish("legal_product.aut", save_automaton, "legal-product", product)
        supw, ctr = _synth_omega(closed, product, minimal)
        supw_saved = BuchiAutomaton(supw.automaton, supw.buchi_lift)
        finish("sup_omega.aut", save_automaton, "sup-omega", supw_saved)
        controllers = localize_all(plant, sup, closed, supw)
        manifest = _write_controllers(controllers, os.path.join(out_dir, "controllers"), args.dot,
                                      finished)
        report = check_infinite_equivalence(
            plant, sup, supw, controllers, lasso_budget=args.lassos, seed=args.seed)
        payload = report.as_dict()
        payload["sup_star"] = _sizes(closed)
        payload["legal_product"] = {"states": len(product.core.states),
                                    "buchi": len(product.buchi),
                                    "rabin_r": len(product.rabin_pairs[0][0]),
                                    "controllability_subset": len(ctr.subset)}
        payload["sup_omega"] = _sizes(supw_saved)
        payload["controllers"] = manifest
        finish("report.json", _write_json, payload)
    _emit(args, payload)
    return EXIT_OK if (report.finite_ok and report.infinite_ok) else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
