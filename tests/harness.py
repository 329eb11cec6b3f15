"""Seeded generators, model loaders and harnesses for the tests.

Unlike `oracles.py`, these run the library: `random_pipeline` synthesizes
with it, `lemma1_harness` and `brute_force_min_congruence` call its product
and congruence check, and `compose_model` parses and composes a model's
``.aut`` files.  The generators draw from a caller's `random.Random`, so a
seed fixes every instance.
"""

import json
import random
from pathlib import Path
from typing import Optional

from suploc.automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    Event,
    LassoWord,
    RabinBuchiAutomaton,
    StarAutomaton,
    State,
    compose_plant,
    lasso_in_star,
    omega_visit_set,
    reachable_states,
    reachable_trim,
    sync_product,
)
from suploc.localization import (
    ControlCongruence,
    EnableDisableProfile,
    LocalController,
    check_congruence,
)
from suploc.omega import StarLanguageHandle
from suploc.textio import parse_automaton

CORPUS = Path(__file__).resolve().parents[1] / "corpus" / "small-factory"


def corpus_texts() -> dict[str, str]:
    """{file name: text} of the Small Factory corpus: its ``.aut`` files and
    ``pipeline.cfg``."""
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(CORPUS.iterdir())
            if p.suffix == ".aut" or p.name == "pipeline.cfg"}


def parse_models(files: dict[str, str]) -> dict[str, object]:
    """The automata of a model's ``.aut`` texts, by file name without ``.aut``."""
    return {name[:-len(".aut")]: parse_automaton(text)[1]
            for name, text in files.items() if name.endswith(".aut")}


def corpus() -> dict[str, object]:
    """The corpus automata: "m1", "b1", "f1", "bufspec1", "muxspec", "maxspec",
    "minspec", ..."""
    return parse_models(corpus_texts())


def compose_model(files: dict[str, str]):
    """(plant, safety specification, legal specification, minimal behaviour)
    of a model given as {file name: text}, composed as its ``pipeline.cfg``
    says and as ``suploc pipeline`` composes them."""
    cfg = json.loads(files["pipeline.cfg"])
    aut = parse_models(files)

    def get(name):
        return aut[name.removesuffix(".aut")]
    alphabet = get(cfg["alphabet_from"]).alphabet
    plant = compose_plant([get(p) for p in cfg["plant_components"]], alphabet)
    spec = StarLanguageHandle(sync_product([get(p) for p in cfg["safety_specs"]], alphabet))
    return plant, spec, get(cfg["legal_spec"]), get(cfg["minimal_spec"])


def lemma1_harness(trials: int, seed: int = 0, n_states: int = 5, lassos: int = 50) -> dict:
    """Property harness: for random prefix-closed deterministic A, B with
    C = A ^ B (product), sampled lassos satisfy
    lasso in lim(A) and lim(B)  <=>  lasso in lim(C)."""
    rng = random.Random(seed)
    violations = 0
    checked = 0
    for _ in range(trials):
        alphabet = random_alphabet(rng)
        a = random_star_automaton(rng, alphabet, rng.randint(2, n_states))
        b = random_star_automaton(rng, alphabet, rng.randint(2, n_states))
        c = sync_product([a, b], alphabet)
        for _ in range(lassos):
            w = random_lasso(rng, alphabet, max_stem=5, max_cycle=6)
            in_a = lasso_in_star(a, w)
            in_b = lasso_in_star(b, w)
            in_c = lasso_in_star(c, w)
            checked += 1
            if (in_a and in_b) != in_c:
                violations += 1
    return {"trials": trials, "checked_lassos": checked, "violations": violations, "seed": seed}


def brute_force_min_congruence(
    sup_automaton: StarAutomaton, profile: EnableDisableProfile
) -> ControlCongruence:
    """Minimum-cell control congruence by exhaustive partition search
    (Bell-number bounded; refuses more than 8 states)."""
    states = reachable_states(sup_automaton)
    if len(states) > 8:
        raise AutomatonError("brute-force congruence search limited to 8 states")
    best: Optional[list[list[State]]] = None

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part

    for part in partitions(states):
        if best is not None and len(part) >= len(best):
            continue
        cells = tuple(frozenset(c) for c in part)
        index = {x: i for i, c in enumerate(cells) for x in c}
        cong = ControlCongruence(cells, index)
        if check_congruence(sup_automaton, profile, cong):
            best = part
    assert best is not None  # singletons always qualify
    cells = tuple(frozenset(c) for c in best)
    index = {x: i for i, c in enumerate(cells) for x in c}
    return ControlCongruence(cells, index)


def random_alphabet(rng: random.Random, n_events: int = 4) -> Alphabet:
    events = tuple(f"e{i}" for i in range(n_events))
    k = max(1, n_events // 2)
    controllable = rng.sample(events, k)
    return Alphabet.make(events, controllable)


def random_lasso(rng: random.Random, alphabet: Alphabet,
                 max_stem: int = 6, max_cycle: int = 6) -> LassoWord:
    """Seeded lasso of uniform random events."""
    stem = tuple(rng.choice(alphabet.events) for _ in range(rng.randint(0, max_stem)))
    cycle = tuple(rng.choice(alphabet.events) for _ in range(rng.randint(1, max_cycle)))
    return LassoWord(stem, cycle)


def random_star_automaton(
    rng: random.Random, alphabet: Alphabet, n_states: int, density: float = 0.6
) -> StarAutomaton:
    """Connected random deterministic automaton with the given transition
    density over reachable slots."""
    states = tuple(range(n_states))
    trans: dict[tuple[State, Event], State] = {}
    # spanning structure: connect state i from some earlier state
    for i in range(1, n_states):
        src = rng.randrange(i)
        free = [e for e in alphabet.events if (src, e) not in trans]
        if not free:
            src = next(q for q in range(n_states)
                       if any((q, e) not in trans for e in alphabet.events))
            free = [e for e in alphabet.events if (src, e) not in trans]
        trans[(src, rng.choice(free))] = i
    for q in states:
        for e in alphabet.events:
            if (q, e) not in trans and rng.random() < density:
                trans[(q, e)] = rng.randrange(n_states)
    return reachable_trim(StarAutomaton(alphabet, states, 0, trans))


def random_buchi(rng: random.Random, alphabet: Alphabet, n_states: int,
                 density: float = 0.6) -> BuchiAutomaton:
    core = random_star_automaton(rng, alphabet, n_states, density)
    k = rng.randint(1, len(core.states))
    acc = frozenset(rng.sample(list(core.states), k))
    return BuchiAutomaton(core, acc)


def random_single_pair(rng: random.Random, alphabet: Alphabet, n_states: int,
                       density: float = 0.6) -> RabinBuchiAutomaton:
    core = random_star_automaton(rng, alphabet, n_states, density)
    states = list(core.states)
    r = frozenset(rng.sample(states, rng.randint(1, len(states))))
    extra = frozenset(rng.sample(states, rng.randint(0, len(states))))
    i = r | extra
    b = frozenset(rng.sample(states, rng.randint(1, len(states))))
    return RabinBuchiAutomaton(core, b, ((r, i),))


def random_pipeline(rng: random.Random, max_states: int = 5):
    """A random end-to-end synthesis instance, or None when the draw does not
    admit a liveness supervisor.

    The minimal acceptable behavior is a single ultimately periodic word
    sampled from the synthesized legal region under its winning patterns, so
    the existence condition holds by construction whenever the sample's cycle
    is accepted.
    """
    from suploc.omegasynth import (assemble_fomega, build_rabin_buchi,
                                   controllability_subset, existence_check,
                                   inf_closure, restrict_sup)
    from suploc.safety import controlled_plant, sup_con_star
    from suploc.omega import StarLanguageHandle

    al = random_alphabet(rng)
    plant = random_buchi(rng, al, rng.randint(2, max_states), density=0.7)
    spec = StarLanguageHandle(random_star_automaton(rng, al, rng.randint(2, 4), density=0.8))
    sup = sup_con_star(plant, spec)
    if sup.is_empty:
        return None
    closed = controlled_plant(plant, sup)
    legal = random_buchi(rng, al, rng.randint(2, 4), density=0.8)
    try:
        prod = build_rabin_buchi(closed, legal)
    except AutomatonError:
        return None
    ctr = controllability_subset(prod, al)
    if prod.core.initial not in ctr.subset:
        return None
    asup = restrict_sup(prod, ctr)
    minimal = _random_accepted_word_automaton(rng, asup, ctr)
    if minimal is None:
        return None
    infa = inf_closure(minimal, closed)
    ok, _ = existence_check(infa, asup)
    if not ok:
        return None
    try:
        supw = assemble_fomega(asup, ctr, minimal, existence_verified=True)
    except AutomatonError:
        return None
    return {"alphabet": al, "plant": plant, "spec": spec, "sup": sup,
            "closed": closed, "legal": legal, "prod": prod, "ctr": ctr,
            "asup": asup, "minimal": minimal, "supw": supw}


def _random_accepted_word_automaton(rng, asup, ctr):
    """Automaton of one lasso accepted by the restricted legal behavior,
    drawn by random walk under the winning patterns."""
    core = asup.core
    r_set, i_set = asup.single_pair()
    for _attempt in range(40):
        q = core.initial
        word = []
        seen = {q: 0}
        dead = False
        while True:
            choices = sorted(ctr.phi.get(q, frozenset()), key=core.alphabet.index)
            if not choices:
                dead = True
                break
            e = rng.choice(choices)
            word.append(e)
            q = core.transitions[(q, e)]
            if q in seen:
                k = seen[q]
                break
            seen[q] = len(word)
        if dead:
            continue
        w = LassoWord(tuple(word[:k]), tuple(word[k:]))
        omega = omega_visit_set(core, w)
        if omega is None or not (omega & r_set) or not omega <= i_set:
            continue
        # line-plus-cycle automaton of the single word
        al = core.alphabet
        n = len(w.stem)
        m = len(w.cycle)
        trans = {}
        for idx, e in enumerate(w.stem):
            trans[(idx, e)] = idx + 1
        for idx, e in enumerate(w.cycle):
            trans[(n + idx, e)] = n + (idx + 1) % m
        aut = StarAutomaton(al, tuple(range(n + m)), 0, trans)
        if aut.is_total():
            return None
        return BuchiAutomaton(aut, frozenset(range(n, n + m)))
    return None


def mutate_controller(rng: random.Random, c: LocalController) -> Optional[LocalController]:
    """Delete one random transition from the controller (None when it has none)."""
    keys = sorted(c.automaton.transitions.keys(), key=lambda k: (str(k[0]), k[1]))
    if not keys:
        return None
    victim = rng.choice(keys)
    trans = {k: v for k, v in c.automaton.transitions.items() if k != victim}
    aut = StarAutomaton(c.automaton.alphabet, c.automaton.states, c.automaton.initial, trans)
    return LocalController(aut, c.event, c.kind, c.part)
