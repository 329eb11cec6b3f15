"""Liveness supervisor synthesis on a single-Rabin-pair product automaton.

Pipeline: build one product automaton carrying three acceptance layers
(star / Buchi / Rabin), compute its controllability subset and a maximal
memoryless control pattern map by solving a parity game, restrict the Rabin
layer to the subset, check the existence condition against the minimal
acceptable behavior, and realize the supervisor as the product of the legal
region with a totalized tracker of the minimal behavior.

The game semantics credits the Buchi layer as a liveness assumption: a run
that violates the Buchi layer need not satisfy the Rabin objective.  With a
single pair (R, I) this is the parity condition over priorities

    3 : outside I      (losing if seen infinitely often)
    2 : in R
    1 : in the Buchi layer, outside R
    0 : everything else

where the controller picks, at every state, a control pattern (a nonempty
subset of the defined events containing every defined uncontrollable event)
and the plant picks an event from the pattern.  Only the multi-pair case is
out of scope and rejected.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
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
    buchi_intersection,
    explore,
    pair_moves,
    reachable_states,
    restrict,
    sink_tracker,
    states_reaching_cycle,
)
from .omega import clo_automaton, omega_contained_single_pair


@dataclass(frozen=True)
class ControllabilityResult:
    """Winning states of the control game and a maximal winning pattern map."""

    subset: frozenset[State]
    phi: dict[State, frozenset[Event]]


@dataclass(frozen=True)
class OmegaSupervisor:
    """Liveness supervisor realized over (legal-region state, tracker state).

    The events enabled at a supervisor state are the ones `automaton`
    defines there.  `tracker` is the totalized automaton of the minimal
    acceptable behavior whose sink state (`tracker_sink`) flags strings that
    have left that behavior's prefixes.  `z_component` maps each supervisor
    state to its tracker component.
    """

    automaton: StarAutomaton
    buchi_lift: frozenset[State]
    tracker: StarAutomaton
    tracker_sink: State
    z_component: dict[State, State]


def _as_rabin(legal: BuchiAutomaton | RabinBuchiAutomaton) -> RabinBuchiAutomaton:
    if isinstance(legal, RabinBuchiAutomaton):
        legal.single_pair()
        return legal
    states = frozenset(legal.core.states)
    return RabinBuchiAutomaton(legal.core, states, ((legal.accepting, states),))


def build_rabin_buchi(
    plant: BuchiAutomaton,
    legal: BuchiAutomaton | RabinBuchiAutomaton,
) -> RabinBuchiAutomaton:
    """Product of the controlled plant with the legal specification.

    The star layer accepts L(plant) ^ pre(E_l); the Buchi layer accepts the
    plant's accepted infinite behavior restricted to the closure of E_l (a
    product state is marked when its plant state is accepting and its legal
    state is off the sink); the Rabin pair of the legal automaton is lifted
    through the product.

    The Buchi layer is only as exact as the plant's marking.  With the
    lifted marking of `controlled_plant` it over-approximates
    plant ^ lim(SUP*) ^ clo(E_l): on the bundled factory it accepts
    a1 b1 (a2 b2 g2)^omega, a word that never empties buffer 1.
    """
    rl = _as_rabin(legal)
    if plant.alphabet.events != rl.alphabet.events:
        raise AutomatonError("alphabet mismatch")
    alphabet = plant.alphabet
    r_set, i_set = rl.single_pair()

    # pre(E_l): legal states that still admit a pair-accepted continuation;
    # the pruned tracker is then made total with an absorbing dead sink so
    # the product's star layer accepts the plant's finite behavior exactly
    # (strings outside pre(E_l) run into the sink, which satisfies nothing)
    good = states_reaching_cycle(reachable_states(rl.core), rl.core.targets, r_set,
                                 inside=i_set)
    if rl.core.initial not in good:
        raise AutomatonError("legal specification has empty omega-language")
    tracker, sink = sink_tracker(restrict(rl.core, good))
    origin, trans = explore((plant.core.initial, tracker.initial), pair_moves(plant.core, tracker))

    core = StarAutomaton(alphabet, tuple(range(len(origin))), 0, trans)
    rabin_r = frozenset(i for i, (q, l) in enumerate(origin) if l in r_set and l != sink)
    rabin_i = frozenset(i for i, (q, l) in enumerate(origin) if l in i_set and l != sink)
    buchi = frozenset(i for i, (q, l) in enumerate(origin)
                      if q in plant.accepting and l != sink)
    return RabinBuchiAutomaton(core, buchi, ((rabin_r, rabin_i),))


# ---------------------------------------------------------------------------
# the control game


def _patterns(enabled: tuple[Event, ...], alphabet: Alphabet) -> list[frozenset[Event]]:
    """Valid control patterns at a state: nonempty subsets of the defined
    events that keep every defined uncontrollable event, largest first."""
    floor = tuple(e for e in enabled if e in alphabet.uncontrollable)
    optional = tuple(e for e in enabled if e in alphabet.controllable)
    out = []
    for k in range(len(optional), -1, -1):
        for combo in combinations(optional, k):
            pat = frozenset(floor) | frozenset(combo)
            if pat:
                out.append(pat)
    return out


def _priority(q, r_set, i_set, b_set) -> int:
    if q not in i_set:
        return 3
    if q in r_set:
        return 2
    if q in b_set:
        return 1
    return 0


def _zielonka(nodes, edges, owner, priority):
    """Memoryless parity game solver; returns both players' winning sets and
    the controller's strategy.

    owner[v] in {0, 1} (0 = controller); a player stuck at its own node
    loses.  The strategy maps controller nodes of the controller's winning
    set to a chosen successor.  `nodes` is a list, and every node set is
    walked in its order, so the strategy does not depend on how nodes hash.
    """
    if not nodes:
        return set(), set(), {}
    p = max(priority[v] for v in nodes)
    player = p % 2
    target = [v for v in nodes if priority[v] == p]
    attr, attr_strat = _attractor(player, target, nodes, edges, owner)
    w0, w1, s0 = _zielonka([v for v in nodes if v not in attr], edges, owner, priority)
    wins = (w0, w1)
    if not wins[1 - player]:
        inside = set(nodes)
        if player == 1:
            return set(), inside, {}
        strat = dict(s0)
        strat.update(attr_strat)
        for v in target:
            if owner[v] == 0:
                succ = [t for t in edges.get(v, ()) if t in inside]
                if succ:
                    strat.setdefault(v, succ[0])
        return inside, set(), strat
    opp = 1 - player
    b_attr, b_strat = _attractor(opp, [v for v in nodes if v in wins[opp]], nodes, edges, owner)
    w0b, w1b, s0b = _zielonka([v for v in nodes if v not in b_attr], edges, owner, priority)
    if opp == 1:
        return w0b, w1b | b_attr, s0b
    strat0 = dict(s0)
    strat0.update(b_strat)
    strat0.update(s0b)
    return w0b | b_attr, w1b, strat0


def _attractor(player, target, nodes, edges, owner):
    """Attractor of `target` (a list inside the list `nodes`) for `player`,
    with a strategy for the player's nodes that move toward the target."""
    inside = set(nodes)
    attr = set(target)
    strat = {}
    # count remaining escapes for opponent nodes
    out_count = {}
    preds: dict = {}
    for v in nodes:
        succ = [t for t in edges.get(v, ()) if t in inside]
        out_count[v] = len(succ)
        for t in succ:
            preds.setdefault(t, []).append(v)
    queue = deque(target)
    while queue:
        t = queue.popleft()
        for v in preds.get(t, ()):  # v in nodes by construction
            if v in attr:
                continue
            if owner[v] == player:
                attr.add(v)
                strat.setdefault(v, t)
                queue.append(v)
            else:
                out_count[v] -= 1
                if out_count[v] == 0:
                    attr.add(v)
                    queue.append(v)
    return attr, strat


def controllability_subset(a: RabinBuchiAutomaton, alphabet: Alphabet) -> ControllabilityResult:
    """States from which a supervisor can win the liveness control objective,
    together with a maximal winning control pattern per state.

    A winning supervisor must, from every state it can reach, keep some
    continuation that satisfies the plant's Buchi layer (deadlock-freedom
    with respect to the accepted infinite behavior); the parity game alone
    would also admit "vacuous" wins that starve the liveness assumption, so
    states without a live continuation under the maximal pattern map are
    pruned and the game re-solved until stable.
    """
    r_set, i_set = a.single_pair()
    core = a.core
    if core.alphabet.events != alphabet.events:
        raise AutomatonError("alphabet mismatch")

    allowed = set(core.states)
    while True:
        winning, phi = _solve_pattern_game(core, alphabet, allowed, r_set, i_set, a.buchi)
        live = states_reaching_cycle([q for q in core.states if q in winning],
                                     _pattern_succ(core, phi, winning), a.buchi)
        if live == winning:
            return ControllabilityResult(frozenset(winning), phi)
        allowed = live


def _solve_pattern_game(core, alphabet, allowed, r_set, i_set, b_set):
    nodes = []
    edges: dict = {}
    owner = {}
    priority = {}
    # losing sink keeps the game graph total: a state with no valid pattern
    # deadlocks (or exits the allowed region), which loses for the controller
    dead = ("dead",)
    nodes.append(dead)
    owner[dead] = 1
    priority[dead] = 1
    edges[dead] = [dead]
    for q in core.states:
        if q not in allowed:
            continue
        cnode = ("c", q)
        nodes.append(cnode)
        owner[cnode] = 0
        priority[cnode] = _priority(q, r_set, i_set, b_set)
        succs = []
        for pat in _patterns(core.enabled(q), alphabet):
            pnode = ("p", q, pat)
            nodes.append(pnode)
            owner[pnode] = 1
            priority[pnode] = 0
            edges[pnode] = [
                ("c", core.transitions[(q, e)])
                if core.transitions[(q, e)] in allowed else dead
                for e in sorted(pat, key=alphabet.index)
            ]
            succs.append(pnode)
        edges[cnode] = succs or [dead]

    w0, _w1, strat0 = _zielonka(nodes, edges, owner, priority)
    winning = {q for q in core.states if ("c", q) in w0}

    # base pattern map from the game strategy, then greedy maximal enlargement
    phi: dict[State, frozenset[Event]] = {}
    for q in winning:
        choice = strat0.get(("c", q))
        if choice is None:  # interior of an attractor layer; any winning pattern
            choice = next(p for p in edges[("c", q)] if p in w0)
        phi[q] = choice[2]

    def phi_wins_everywhere(cand: dict) -> bool:
        return _pattern_map_wins(core, cand, winning, r_set, i_set, b_set)

    if not phi_wins_everywhere(phi):
        raise AssertionError("game strategy failed verification")
    for q in sorted(winning, key=core.states.index):
        for e in core.enabled(q):
            if e in phi[q] or e not in alphabet.controllable:
                continue
            if core.transitions[(q, e)] not in winning:
                continue
            trial = dict(phi)
            trial[q] = phi[q] | {e}
            if phi_wins_everywhere(trial):
                phi = trial
    return winning, phi


def _pattern_succ(core, phi, region):
    """Successors under the pattern map, kept inside `region`."""
    return lambda q: [core.transitions[(q, e)] for e in sorted(phi[q], key=core.alphabet.index)
                      if core.transitions[(q, e)] in region]


def _pattern_map_wins(core, phi, region, r_set, i_set, b_set) -> bool:
    """Check that the fixed memoryless pattern map wins from every state of
    `region`: no deadlock, plays stay in the region, and no reachable cycle
    has odd maximal priority: none passes outside I, and none avoids R while
    meeting the Buchi layer."""
    for q in region:
        if not phi.get(q):
            return False
        for e in phi[q]:
            if core.transitions.get((q, e)) is None or core.transitions[(q, e)] not in region:
                return False
    ordered = [q for q in core.states if q in region]
    succ = _pattern_succ(core, phi, region)
    return not (states_reaching_cycle(ordered, succ, region - i_set)
                or states_reaching_cycle(ordered, succ, b_set, inside=region - r_set))


def restrict_sup(a: RabinBuchiAutomaton, c: ControllabilityResult) -> RabinBuchiAutomaton:
    """Degenerate every state outside the controllability subset: it keeps
    its transitions but leaves both R and I, so no run through it infinitely
    often can satisfy the pair."""
    r_set, i_set = a.single_pair()
    return RabinBuchiAutomaton(
        a.core,
        a.buchi,
        ((r_set & c.subset, i_set & c.subset),),
    )


def inf_closure(minimal: BuchiAutomaton, plant_omega: BuchiAutomaton) -> BuchiAutomaton:
    """Infimal omega-closed superlanguage of the minimal behavior relative to
    the plant: clo(A) ^ S(plant)."""
    return buchi_intersection(clo_automaton(minimal), plant_omega)


def existence_check(
    inf_a: BuchiAutomaton, sup_e: RabinBuchiAutomaton
) -> tuple[bool, Optional[LassoWord]]:
    """The supervisor existence condition: inf F(A) <= sup C(E_l)."""
    return omega_contained_single_pair(inf_a, sup_e, a_layer="buchi", b_layer="rabin")


def assemble_fomega(
    asup: RabinBuchiAutomaton,
    c: ControllabilityResult,
    minimal: BuchiAutomaton,
    *,
    existence_verified: bool,
) -> OmegaSupervisor:
    """Realize the piecewise liveness supervisor as one automaton.

    States are pairs (legal-region state, tracker state) where the tracker is
    the totalized automaton of the minimal behavior.  While the tracker is
    off its sink the string is a prefix of the minimal behavior and every
    defined event stays enabled; once the sink is reached, the maximal
    winning pattern of the legal region takes over.  A supervisor state is
    marked when its legal-region state is in the Buchi layer.
    """
    if not existence_verified:
        raise AutomatonError("assemble_fomega requires a passed existence check")
    r_set, i_set = asup.single_pair()
    # the full-enablement branch may only move inside the prefix region of
    # the restricted legal behavior: states reaching an accepting cycle
    # without leaving the controllability subset (states outside it act as
    # degenerate traps).  On a fully controllable instance this is every
    # reachable state and the branch enables every defined event.
    if asup.core.initial not in c.subset:
        raise AutomatonError("restricted legal behavior is empty")
    sub_core = restrict(asup.core, c.subset)
    prefix_region = states_reaching_cycle(reachable_states(sub_core), sub_core.targets, r_set,
                                          inside=i_set)
    if asup.core.initial not in prefix_region:
        raise AutomatonError("restricted legal behavior is empty")
    for q in prefix_region:
        for e in asup.core.enabled(q):
            if e in asup.alphabet.uncontrollable and \
                    asup.core.transitions[(q, e)] not in prefix_region:
                raise AutomatonError(
                    "prefix region of the restricted legal behavior is not "
                    "controllable; the controllability subset is inconsistent")

    # with a total tracker every string stays a prefix of the minimal
    # behavior and the pattern branch is never taken
    tracker, sink = sink_tracker(minimal.core)
    core = asup.core

    def psi_at(v) -> frozenset[Event]:
        q, z = v
        if z == sink:
            return frozenset(core.enabled(q)) & c.phi[q]
        return frozenset(e for e in core.enabled(q) if core.transitions[(q, e)] in prefix_region)

    def succ(v):
        q, z = v
        for e in sorted(psi_at(v), key=core.alphabet.index):
            yield e, (core.transitions[(q, e)], tracker.transitions[(z, e)])

    origin, trans = explore((core.initial, tracker.initial), succ)
    aut = StarAutomaton(asup.alphabet, tuple(range(len(origin))), 0, trans)
    lift = frozenset(i for i, (q, z) in enumerate(origin) if q in asup.buchi)
    z_comp = {i: v[1] for i, v in enumerate(origin)}
    return OmegaSupervisor(aut, lift, tracker, sink, z_comp)
