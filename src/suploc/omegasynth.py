"""Liveness supervisor synthesis on a single-Rabin-pair product automaton.

Pipeline: build one product automaton carrying three acceptance layers
(star / Buchi / Rabin), compute its controllability subset and a maximal
memoryless control pattern map by solving a parity game, restrict the
product to the subset, check the existence condition against the minimal
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
and the plant picks an event from the pattern.  The game is solved on the
product states themselves, with Zielonka's algorithm over a controllable-
predecessor attractor, so a state with k controllable events adds k moves
to the game rather than 2^k pattern nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    Event,
    LassoWord,
    OmegaAutomaton,
    RabinBuchiAutomaton,
    StarAutomaton,
    State,
    buchi_intersection,
    check_alphabet,
    explore,
    good_sccs,
    live_states,
    product_moves,
    restrict,
    states_reaching_cycle,
    tarjan_scc,
)
from .omega import clo_automaton, omega_contained_single_pair, prefix_tracker


@dataclass(frozen=True)
class ControllabilityResult:
    """Winning states of the control game and a maximal winning pattern map."""

    subset: frozenset[State]
    phi: dict[State, frozenset[Event]]


@dataclass(frozen=True)
class OmegaSupervisor:
    """Liveness supervisor realized over (legal-region state, tracker state).

    The events enabled at a supervisor state are the ones `automaton`
    defines there.  `tracker` is `prefix_tracker` of the minimal acceptable
    behavior: its sink state (`tracker_sink`) flags strings that have left
    that behavior's prefixes.  A supervisor state's tracker component is
    the one `lockstep(automaton, tracker)` pairs it with.
    """

    automaton: StarAutomaton
    buchi_lift: frozenset[State]
    tracker: StarAutomaton
    tracker_sink: State


def build_rabin_buchi(plant: BuchiAutomaton, legal: OmegaAutomaton) -> RabinBuchiAutomaton:
    """Product of the controlled plant with the legal specification.

    The star layer accepts L(plant) ^ pre(E_l); the Buchi layer accepts the
    plant's accepted infinite behavior restricted to the closure of E_l (a
    product state is marked when its plant state is accepting and its legal
    state is off the sink); the Rabin pair of the legal automaton is lifted
    through the product.
    """
    r_set, i_set = legal.pair
    check_alphabet(legal.alphabet, plant.alphabet, same=True)
    alphabet = plant.alphabet

    # the tracker of pre(E_l) is total, so the product's star layer accepts
    # the plant's finite behavior exactly (strings outside pre(E_l) run into
    # the sink, which satisfies nothing)
    tracker, sink = prefix_tracker(legal)
    if tracker.initial == sink:
        raise AutomatonError("legal specification has empty omega-language")
    origin, rows = explore((plant.core.initial, tracker.initial),
                           product_moves((plant.core, tracker)))

    core = StarAutomaton.from_rows(alphabet, rows, 0)
    rabin_r = frozenset(i for i, (q, l) in enumerate(origin) if l in r_set and l != sink)
    rabin_i = frozenset(i for i, (q, l) in enumerate(origin) if l in i_set and l != sink)
    buchi = frozenset(i for i, (q, l) in enumerate(origin)
                      if q in plant.accepting and l != sink)
    return RabinBuchiAutomaton(core, buchi, ((rabin_r, rabin_i),))


# ---------------------------------------------------------------------------
# the control game


def _priority(q, r_set, i_set, b_set) -> int:
    if q not in i_set:
        return 3
    if q in r_set:
        return 2
    if q in b_set:
        return 1
    return 0


def _zielonka(nodes, moves, priority, lost):
    """Memoryless parity game solver on product states; returns both
    players' winning sets and the controller's pattern at each state it wins.

    `moves[q]` lists q's moves as (event, controllable, target).  At q the
    controller picks a pattern: every uncontrollable move and any of the
    controllable ones, one move at least; the plant then picks a move of
    the pattern.  A move whose target lies outside the list `nodes` is not
    played in this game.  `lost` holds the states outside `nodes` that a
    plant attractor took on the way to this subgame.  Every state set is
    walked in the order of `nodes`, so the result does not depend on how
    states hash.

    The patterns returned obey one rule, and none enables a move into the
    `lost` of the subgame it is chosen in.  At a top-priority state of a
    subgame the controller wins outright, the pattern holds every other
    move.  At a state the controller's attractor takes, it holds every
    uncontrollable move, and the controllable moves into states the
    attractor had already taken off its queue or into states outside the
    subgame.

    Zielonka's second recursive call (on the game minus the opponent's
    attractor) is a tail call and runs as the next round of the loop; only
    the call on the game minus the top priority's attractor recurses.  Each
    such call drops the largest priority left, so the recursion is at most
    one deeper than the number of distinct priorities: 5 for the control
    game's priorities 0..3.
    """
    # winning sets and controller strategy carried over from earlier rounds
    w0_acc, w1_acc, s0_acc = set(), set(), {}
    while nodes:
        p = max(priority[v] for v in nodes)
        player = p % 2
        target = [v for v in nodes if priority[v] == p]
        attr, attr_strat = _attractor(player, target, nodes, moves, lost)
        w0, w1, s0 = _zielonka([v for v in nodes if v not in attr], moves, priority,
                               lost | attr if player == 1 else lost)
        wins = (w0, w1)
        if not wins[1 - player]:
            inside = set(nodes)
            if player == 1:
                return w0_acc, w1_acc | inside, s0_acc
            s0_acc.update(s0)
            s0_acc.update(attr_strat)
            for v in target:
                s0_acc[v] = frozenset(e for e, _c, t in moves[v] if t not in lost)
            return w0_acc | inside, w1_acc, s0_acc
        opp = 1 - player
        b_attr, b_strat = _attractor(opp, [v for v in nodes if v in wins[opp]], nodes, moves, lost)
        if opp == 1:
            w1_acc |= b_attr
            lost = lost | b_attr
        else:
            w0_acc |= b_attr
            s0_acc.update(s0)
            s0_acc.update(b_strat)
        nodes = [v for v in nodes if v not in b_attr]
    return w0_acc, w1_acc, s0_acc


def _attractor(player, target, nodes, moves, lost):
    """Attractor of `target` (a list inside the list `nodes`) for `player`,
    with the controller's pattern at each state it attracts.

    The controller attracts a state once every uncontrollable move inside
    `nodes` lands in the attractor and one move does.  The plant attracts a
    state once one of its uncontrollable moves lands there, or, at a state
    without one, once all of its moves outside `lost` do."""
    inside = set(nodes)
    attr = set(target)
    done = set()  # states taken off the queue
    strat = {}
    forced = {}  # uncontrollable moves inside `nodes`, per state
    need = {}  # counted moves still to land before the state is attracted
    preds: dict = {}
    for v in nodes:
        forced[v] = sum(1 for _e, c, t in moves[v] if not c and t in inside)
        if player == 0:
            need[v] = forced[v]
        elif forced[v]:
            need[v] = 1
        else:
            need[v] = sum(1 for _e, _c, t in moves[v] if t not in lost)
        for _e, c, t in moves[v]:
            if t in inside:
                preds.setdefault(t, []).append((v, c))
    queue = deque(target)
    while queue:
        t = queue.popleft()
        done.add(t)
        for v, c in preds.get(t, ()):  # v in nodes by construction
            if v in attr:
                continue
            if not c or (player == 1 and not forced[v]):
                need[v] -= 1
            if need[v] == 0:
                attr.add(v)
                queue.append(v)
                if player == 0:
                    strat[v] = frozenset(e for e, ctl, s in moves[v] if not ctl or s in done
                                         or (s not in inside and s not in lost))
    return attr, strat


def controllability_subset(a: OmegaAutomaton, alphabet: Alphabet) -> ControllabilityResult:
    """States from which a supervisor can win the liveness control objective,
    together with a maximal winning control pattern per state.

    A winning supervisor must, from every state it can reach, keep some
    continuation that satisfies the plant's Buchi layer (deadlock-freedom
    with respect to the accepted infinite behavior); the parity game alone
    would also admit "vacuous" wins that starve the liveness assumption, so
    states without a live continuation under the maximal pattern map are
    pruned and the game re-solved until stable.
    """
    r_set, i_set = a.pair
    core = a.core
    check_alphabet(core.alphabet, alphabet, same=True)

    allowed = set(core.states)
    while True:
        winning, phi = _solve_pattern_game(core, alphabet, allowed, r_set, i_set, a.buchi)
        live = states_reaching_cycle([q for q in core.states if q in winning],
                                     _pattern_succ(core, phi, winning), a.buchi)
        if live == winning:
            return ControllabilityResult(frozenset(winning), phi)
        allowed = live


def _solve_pattern_game(core, alphabet, allowed, r_set, i_set, b_set):
    """Winning states of the control game on `allowed` and a maximal winning
    pattern map over them.

    The game is played on the states of `allowed` plus one losing sink.  A
    move that leaves `allowed` enters the sink, and a state without a
    defined event has one uncontrollable move into it.  The base map takes
    each winning state's pattern from `_zielonka`, whose docstring states
    the rule that picks it.  `_enlarge_pattern_map` then makes it maximal
    in a canonical order: states in `core.states` order, then events in
    alphabet order, starting from the base map.  Another order or
    another base map can give another maximal map.  Both the base map and
    the enlarged map are verified in full, and a failure raises
    AssertionError.
    """
    dead = ("dead",)  # the plant's sink: it loops with priority 1
    nodes = [dead] + [q for q in core.states if q in allowed]
    moves = {dead: [(None, False, dead)]}
    priority = {dead: 1}
    for q in nodes[1:]:
        moves[q] = [(e, e in alphabet.controllable, t if t in allowed else dead)
                    for e, t in core.moves(q)] or [(None, False, dead)]
        priority[q] = _priority(q, r_set, i_set, b_set)

    w0, _w1, strat0 = _zielonka(nodes, moves, priority, frozenset())
    winning = {q for q in core.states if q in w0}
    phi = {q: strat0[q] for q in winning}
    if not _pattern_map_wins(core, phi, winning, r_set, i_set, b_set):
        raise AssertionError("game strategy failed verification")
    phi = _enlarge_pattern_map(core, alphabet, winning, phi, r_set, i_set, b_set)
    if not _pattern_map_wins(core, phi, winning, r_set, i_set, b_set):
        raise AssertionError("enlarged pattern map failed verification")
    return winning, phi


def _enlarge_pattern_map(core, alphabet, winning, phi, r_set, i_set, b_set):
    """Greedy maximal enlargement of `phi`, a pattern map that wins from
    every state of `winning`: in the canonical order, each controllable
    event whose target wins is added when the map still wins with it.

    A trial adds at most one edge q -> t to the pattern graph.  The old map
    has no bad cycle, so a new one must pass through that edge and close a
    walk t ~> q of the old graph.  The trial is refused when a state outside
    I lies on such a walk, or when q and t lie outside R and a Buchi state
    lies on such a walk that stays outside R.  That decides what
    `_pattern_map_wins` would say of the trial map.

    The walks are read off reachability closures, int bit masks over the
    winning states in `core.states` order: per state, the states it reaches
    (`fwd`) and the states that reach it (`bwd`), itself included.  One pair
    is kept for the pattern graph and one for its subgraph outside R, each
    built by `_closures` at the first trial that would add an edge, so not
    at all when every trial's edge is already in the graph.  The states on
    walks t ~> q are fwd[t] & bwd[q], so a trial is a few mask tests.  Graph edges are only
    ever added, so an accepted edge q -> t updates the closures in place,
    as in Italiano's incremental transitive closure (TCS 1986): every state
    of bwd[q] now reaches all of fwd[t], and every state of fwd[t] is
    reached from all of bwd[q].  The subgraph's pair takes the same update
    when q and t both lie outside R.
    """
    phi = dict(phi)
    ordered = [q for q in core.states if q in winning]
    pos = {q: k for k, q in enumerate(ordered)}
    outside = [q not in r_set for q in ordered]
    not_i = sum(1 << k for k, q in enumerate(ordered) if q not in i_set)
    buchi = sum(1 << k for k, q in enumerate(ordered) if q in b_set)
    succ = _pattern_succ(core, phi, winning)
    adj = [{pos[t] for t in succ(q)} for q in ordered]
    fwd = None
    for k, q in enumerate(ordered):
        for e, t in core.rows[q].items():
            if e in phi[q] or e not in alphabet.controllable or t not in winning:
                continue
            j = pos[t]
            if j not in adj[k]:
                if fwd is None:
                    fwd, bwd = _closures(adj)
                    fwd_o, bwd_o = _closures([{m for m in ts if outside[m]} if outside[i] else ()
                                              for i, ts in enumerate(adj)])
                both_outside = outside[k] and outside[j]
                if fwd[j] >> k & 1 and (
                        fwd[j] & bwd[k] & not_i
                        or both_outside and fwd_o[j] >> k & 1 and fwd_o[j] & bwd_o[k] & buchi):
                    continue
                adj[k].add(j)
                _insert_edge(fwd, bwd, k, j)
                if both_outside:
                    _insert_edge(fwd_o, bwd_o, k, j)
            phi[q] = phi[q] | {e}
    return phi


def _closures(adj) -> tuple[list[int], list[int]]:
    """Reflexive reachability closures of the graph on nodes 0..n-1 whose
    successors are `adj[i]`, as int bit masks: bit j of fwd[i] and bit i of
    bwd[j] are set when i reaches j."""
    preds: list[list[int]] = [[] for _ in adj]
    for i, ts in enumerate(adj):
        for j in ts:
            preds[j].append(i)
    return _reach_masks(adj), _reach_masks(preds)


def _reach_masks(adj) -> list[int]:
    """Per node, the bit mask of the nodes it reaches in `adj`, itself
    included.  Tarjan emits each component after every component it
    reaches, so those masks are final when it is read."""
    masks = [0] * len(adj)
    for comp in tarjan_scc(range(len(adj)), adj.__getitem__):
        mask = 0
        for v in comp:
            mask |= 1 << v
            for w in adj[v]:
                mask |= masks[w]  # 0 while w is in this component
        for v in comp:
            masks[v] = mask
    return masks


def _insert_edge(fwd: list[int], bwd: list[int], q: int, t: int) -> None:
    """Update reflexive closures in place for a new edge q -> t."""
    ahead, behind = fwd[t], bwd[q]
    for masks, members, add in ((fwd, behind, ahead), (bwd, ahead, behind)):
        while members:
            low = members & -members
            masks[low.bit_length() - 1] |= add
            members ^= low


def _pattern_succ(core, phi, region):
    """Successors under the pattern map, kept inside `region`, in alphabet
    order."""
    rows = core.rows

    def succ(q):
        pattern = phi[q]
        return [t for e, t in rows[q].items() if e in pattern and t in region]
    return succ


def _pattern_map_wins(core, phi, region, r_set, i_set, b_set) -> bool:
    """Check that the fixed memoryless pattern map wins from every state of
    `region`: no deadlock, plays stay in the region, and no reachable cycle
    has odd maximal priority: none passes outside I, and none avoids R while
    meeting the Buchi layer."""
    for q in region:
        if not phi.get(q):
            return False
        row = core.rows[q]
        for e in phi[q]:
            t = row.get(e)
            if t is None or t not in region:
                return False
    ordered = [q for q in core.states if q in region]
    succ = _pattern_succ(core, phi, region)
    return not (any(good_sccs(ordered, succ, (region - i_set,)))
                or any(good_sccs(ordered, succ, (b_set,), region - r_set)))


def restrict_sup(a: OmegaAutomaton, c: ControllabilityResult) -> OmegaAutomaton:
    """sup C(E_l) on the product: the words whose run never leaves the
    controllability subset C and satisfies the pair there.

    When C holds the initial state, the core, the Buchi layer and the pair
    are restricted to C; when C is every state, `a` itself is returned.
    When C has lost the initial state, the core is kept and only the pair is
    masked to C, so no run can satisfy it outside C.
    """
    r_set, i_set = a.pair
    if c.subset.issuperset(a.core.states):
        return a
    pair = ((r_set & c.subset, i_set & c.subset),)
    if a.core.initial not in c.subset:
        return RabinBuchiAutomaton(a.core, a.buchi, pair)
    return RabinBuchiAutomaton(restrict(a.core, c.subset), a.buchi & c.subset, pair)


def inf_closure(minimal: BuchiAutomaton, plant_omega: BuchiAutomaton) -> BuchiAutomaton:
    """Infimal omega-closed superlanguage of the minimal behavior relative to
    the plant: clo(A) ^ S(plant)."""
    return buchi_intersection(clo_automaton(minimal), plant_omega)


def existence_check(
    inf_a: BuchiAutomaton, sup_e: OmegaAutomaton
) -> tuple[bool, Optional[LassoWord]]:
    """The supervisor existence condition: inf F(A) <= sup C(E_l)."""
    return omega_contained_single_pair(inf_a, sup_e)


def assemble_fomega(
    asup: OmegaAutomaton,
    c: ControllabilityResult,
    minimal: BuchiAutomaton,
    *,
    existence_verified: bool,
) -> OmegaSupervisor:
    """Realize the piecewise liveness supervisor as one automaton.

    States are pairs (legal-region state, tracker state) where the tracker is
    `prefix_tracker` of the minimal behavior A.  While the tracker is off
    its sink the string is in pre(A), the prefixes of S(A), and every
    defined event stays enabled; once the sink is reached, the maximal
    winning pattern of the legal region takes over.  A supervisor state is
    marked when its legal-region state is in the Buchi layer.  `asup` is
    `restrict_sup`'s result for `c`, so its states lie in the
    controllability subset once that subset holds the initial state.
    """
    if not existence_verified:
        raise AutomatonError("assemble_fomega requires a passed existence check")
    core = asup.core
    # the full-enablement branch may only move inside the prefix region of
    # the restricted legal behavior: states reaching an accepting cycle.  On
    # a fully controllable instance this is every reachable state and the
    # branch enables every defined event.
    if core.initial not in c.subset:
        raise AutomatonError("restricted legal behavior is empty")
    prefix_region = live_states(asup)
    if core.initial not in prefix_region:
        raise AutomatonError("restricted legal behavior is empty")
    rows, unc = core.rows, asup.alphabet.uncontrollable
    for q in prefix_region:
        for e, t in rows[q].items():
            if e in unc and t not in prefix_region:
                raise AutomatonError(
                    "prefix region of the restricted legal behavior is not "
                    "controllable; the controllability subset is inconsistent")

    tracker, sink = prefix_tracker(minimal)

    def succ(v):
        q, z = v
        zrow = tracker.rows[z]
        if z == sink:
            pattern = c.phi[q]
            return [(e, (t, zrow[e])) for e, t in rows[q].items() if e in pattern]
        return [(e, (t, zrow[e])) for e, t in rows[q].items() if t in prefix_region]

    origin, rows = explore((core.initial, tracker.initial), succ)
    aut = StarAutomaton.from_rows(asup.alphabet, rows, 0)
    lift = frozenset(i for i, (q, z) in enumerate(origin) if q in asup.buchi)
    return OmegaSupervisor(aut, lift, tracker, sink)
