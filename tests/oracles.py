"""Independent oracles used to derive expected values in the tests.

Everything here is deliberately brute force: plain string enumeration,
fixpoints over explicit string sets, exhaustive subset search.  None of it
shares code paths with the library operations it checks.
"""

from collections import deque
from itertools import product as iproduct

from suploc.automata import (
    BuchiAutomaton,
    LassoWord,
    RabinBuchiAutomaton,
    StarAutomaton,
    lasso_in_star,
    run_lasso,
    run_star,
)


def enumerate_language(aut: StarAutomaton, max_len: int) -> set[tuple]:
    """All accepted strings of length <= max_len, by brute enumeration."""
    out = {()}
    frontier = {(): aut.initial}
    for _ in range(max_len):
        nxt = {}
        for word, q in frontier.items():
            for e in aut.alphabet.events:
                t = aut.transitions.get((q, e))
                if t is not None:
                    w2 = word + (e,)
                    nxt[w2] = t
                    out.add(w2)
        frontier = nxt
    return out


def language_equal_upto(a: StarAutomaton, b: StarAutomaton, max_len: int) -> bool:
    return enumerate_language(a, max_len) == enumerate_language(b, max_len)


def projection(word, events) -> tuple:
    return tuple(e for e in word if e in events)


def in_projected_product(word, components) -> bool:
    """Membership oracle for the synchronous product: the projection onto
    each component's alphabet must be accepted there."""
    for c in components:
        if run_star(c, projection(word, set(c.alphabet.events))) is None:
            return False
    return True


def supremal_controllable_finite(universe: set[tuple], legal: set[tuple],
                                 uncontrollable, plant_lang: set[tuple]) -> set[tuple]:
    """Supremal controllable prefix-closed sublanguage on a finite string
    universe, by iterated removal."""
    def prefix_closed(k):
        return {w[:i] for w in k for i in range(len(w) + 1)}

    k = {w for w in legal if w in plant_lang}
    k = {w for w in k if all(w[:i] in legal for i in range(len(w) + 1))}
    k = prefix_closed(k) & plant_lang & legal
    while True:
        bad = set()
        for w in k:
            for u in uncontrollable:
                wu = w + (u,)
                if wu in plant_lang and wu not in k:
                    bad.add(w)
                    break
        if not bad:
            return k
        # removing a string removes all its extensions
        k = {w for w in k if not any(w[:i] in bad for i in range(len(w) + 1))}


def lasso_semantic_closed_loop(plant_buchi, star_automata, w: LassoWord) -> bool:
    """Membership of a lasso in the closed loop: accepted by the plant and
    inside the limit of every supervisor/controller language."""
    if not run_lasso(plant_buchi, w):
        return False
    return all(lasso_in_star(a, w) for a in star_automata)


# ---------------------------------------------------------------------------
# control-game oracles
#
# Written from the definitions in the `omegasynth` module docstring.  A play
# of the control game is won by the controller iff the states it visits
# infinitely often stay inside I and either meet R or avoid the Buchi layer
# (the parity condition over priorities 3/2/1/0).  A memoryless control
# pattern map phi wins from a state q iff every state reachable from q under
# phi
#   - has a valid pattern: nonempty, made of defined events, and keeping
#     every defined uncontrollable event;
#   - lies on no cycle through a state outside I, and on no cycle inside
#     I \ R through a Buchi state (the plant can pick any cycle);
#   - can still reach a Buchi state that lies on a cycle (a live
#     continuation; the parity game alone would accept starving the Buchi
#     assumption).
# Cycles are found by plain reachability (a state is on a cycle inside X iff
# it reaches itself inside X), not by SCC decomposition.


def _successors(core: StarAutomaton):
    def succ(q):
        return [t for (s, _e), t in core.transitions.items() if s == q]
    return succ


def _reach(start, succ, within=None) -> set:
    """States reachable from `start` in one or more steps, moving only
    through states of `within` (every state when None)."""
    seen: set = set()
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for t in succ(v):
            if (within is None or t in within) and t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def states_reaching_good_cycle(states, succ, good, inside=None) -> set:
    """States v of `states` that reach (or are) some g in `good` which
    reaches itself by a non-empty path through states of `inside` (every
    state when None); g must lie in `inside` too."""
    region = set(states) if inside is None else set(inside)
    cyclic = {g for g in good if g in region and g in _reach(g, succ, region)}
    return {v for v in states if v in cyclic or cyclic & _reach(v, succ)}


def valid_patterns(a: RabinBuchiAutomaton, alphabet, q) -> list[frozenset]:
    """Every valid control pattern at q (none when q has no defined event)."""
    defined = [e for e in alphabet.events if (q, e) in a.core.transitions]
    floor = frozenset(e for e in defined if e in alphabet.uncontrollable)
    optional = [e for e in defined if e in alphabet.controllable]
    out = []
    for mask in range(2 ** len(optional)):
        pat = floor | frozenset(e for k, e in enumerate(optional) if mask >> k & 1)
        if pat:
            out.append(pat)
    return out


def pattern_map_winning_states(a: RabinBuchiAutomaton, alphabet, phi: dict) -> set:
    """States from which the memoryless pattern map `phi` wins on the
    automaton's declared Buchi layer and single Rabin pair (a state missing
    from `phi` has the empty pattern)."""
    core = a.core
    r_set, i_set = a.single_pair()
    states = set(core.states)

    def pattern(q):
        return phi.get(q) or frozenset()

    def succ(q):
        return [core.transitions[(q, e)] for e in pattern(q) if (q, e) in core.transitions]

    def valid(q):
        pat = pattern(q)
        defined = {e for e in alphabet.events if (q, e) in core.transitions}
        return bool(pat) and pat <= defined and (defined & alphabet.uncontrollable) <= pat

    reach = {q: _reach(q, succ) for q in states}
    from_q = {q: reach[q] | {q} for q in states}
    quiet = (i_set - r_set) & states
    bad = {q for q in states if not valid(q)}
    bad |= {q for q in states if q not in i_set and q in reach[q]}
    bad |= {q for q in quiet & a.buchi if q in _reach(q, succ, quiet)}
    live = {q for q in a.buchi if q in reach[q]}
    keeps_live = {q for q in states if from_q[q] & live}
    return {q for q in states if not from_q[q] & bad and from_q[q] <= keeps_live}


def pattern_map_wins_on(a: RabinBuchiAutomaton, alphabet, phi: dict, region) -> bool:
    """phi wins from every state of `region`."""
    return set(region) <= pattern_map_winning_states(a, alphabet, phi)


def restorable_drops(a: RabinBuchiAutomaton, alphabet, phi: dict, region) -> list[tuple]:
    """(state, event) pairs where phi drops a defined controllable event
    whose target stays in `region`."""
    out = []
    for q in sorted(region, key=a.core.states.index):
        for e in alphabet.events:
            t = a.core.transitions.get((q, e))
            if e in alphabet.controllable and t is not None and t in region \
                    and e not in phi[q]:
                out.append((q, e))
    return out


def winning_region_by_enumeration(a: RabinBuchiAutomaton, alphabet) -> set:
    """States from which some memoryless pattern map wins, by trying every
    pattern map (exponential; for automata of a handful of states)."""
    per_state = [[(q, p) for p in valid_patterns(a, alphabet, q)] or [(q, frozenset())]
                 for q in a.core.states]
    won: set = set()
    for combo in iproduct(*per_state):
        won |= pattern_map_winning_states(a, alphabet, dict(combo))
        if len(won) == len(a.core.states):
            break
    return won


# ---------------------------------------------------------------------------
# piecewise liveness supervisor oracle


def prefix_region(a: RabinBuchiAutomaton, subset) -> set:
    """States reachable from the initial state inside `subset` from which,
    still inside `subset`, a cycle through R inside I is reachable."""
    core = a.core
    r_set, i_set = a.single_pair()
    subset = set(subset)
    succ = _successors(core)
    if core.initial not in subset:
        return set()
    reach = _reach(core.initial, succ, subset) | {core.initial}
    inside = subset & set(i_set)
    anchors = {q for q in reach & set(r_set) & inside if q in _reach(q, succ, inside)}
    return {q for q in reach if (_reach(q, succ, subset) | {q}) & anchors}


def minimal_prefix_states(minimal: BuchiAutomaton) -> set:
    """States of the minimal behavior's automaton from which an accepting
    cycle is reachable: a string is a prefix of the minimal behavior iff its
    run ends in one of them."""
    core = minimal.core
    succ = _successors(core)
    on_cycle = {q for q in minimal.accepting if q in _reach(q, succ)}
    return {q for q in core.states if (_reach(q, succ) | {q}) & on_cycle}


def piecewise_supervisor(a: RabinBuchiAutomaton, subset, phi: dict,
                         minimal: BuchiAutomaton, max_len: int) -> StarAutomaton:
    """Tree automaton (one state per string) of the piecewise liveness
    supervisor's strings of length <= max_len.

    While the string is a prefix of the minimal behavior, every defined
    event whose target lies in the prefix region of `subset` is enabled;
    once the string has left those prefixes, the pattern map `phi` decides.
    """
    core = a.core
    region = prefix_region(a, subset)
    on_track = minimal_prefix_states(minimal)
    trans = {}
    states = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for word in frontier:
            q = run_star(core, word)
            z = run_star(minimal.core, word)
            for e in core.alphabet.events:
                t = core.transitions.get((q, e))
                if t is None:
                    continue
                if z is not None and z in on_track:
                    ok = t in region
                else:
                    ok = e in phi.get(q, frozenset())
                if ok:
                    w2 = word + (e,)
                    trans[(word, e)] = w2
                    states.append(w2)
                    nxt.append(w2)
        frontier = nxt
    return StarAutomaton(core.alphabet, tuple(states), (), trans)


def joint_states(a: StarAutomaton, b: StarAutomaton, max_len: int) -> set[tuple]:
    """Pairs (state of a, state of b) reached by the strings of L(a) of
    length <= max_len (every such string must also run in b)."""
    out = set()
    for word in enumerate_language(a, max_len):
        qb = run_star(b, word)
        assert qb is not None, word
        out.add((run_star(a, word), qb))
    return out


def disabling_states(sup: StarAutomaton, plant: StarAutomaton, alpha, max_len: int) -> set:
    """Supervisor states where alpha is undefined while the plant, after the
    same string of length <= max_len, allows it."""
    return {x for x, g in joint_states(sup, plant, max_len)
            if (x, alpha) not in sup.transitions and (g, alpha) in plant.transitions}


def bfs_order(aut: StarAutomaton) -> list:
    """Reachable states in breadth-first order, events in alphabet order."""
    order = [aut.initial]
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for e in aut.alphabet.events:
            t = aut.transitions.get((q, e))
            if t is not None and t not in order:
                order.append(t)
                queue.append(t)
    return order


def greedy_congruence(aut: StarAutomaton, consistent_pair, seed_cells=None):
    """Greedy control congruence on plain partitions (lists of sets).

    Pairs of states are tried in breadth-first order.  A trial joins the
    pair's cells and then, as long as two members of one cell have
    e-successors in different cells, joins those two cells; it is kept
    when `consistent_pair` holds for every pair inside every cell.  The
    start is `seed_cells`, or singletons.  Returns (cells, index) with the
    cells numbered by their first state in breadth-first order.
    """
    order = bfs_order(aut)

    def cell_of(part, x):
        return next(c for c in part if x in c)

    def join(part, c, d):
        return [k for k in part if k is not c and k is not d] + [c | d]

    def cells_apart(part):
        """Two cells holding e-successors of members of one cell, or None."""
        for c in part:
            for e in aut.alphabet.events:
                succ_cells = [cell_of(part, aut.transitions[(s, e)])
                              for s in c if (s, e) in aut.transitions]
                for d in succ_cells[1:]:
                    if d is not succ_cells[0]:
                        return succ_cells[0], d
        return None

    def close(part):
        while (pair := cells_apart(part)) is not None:
            part = join(part, *pair)
        return part

    part = [set(c) for c in seed_cells] if seed_cells is not None else [{x} for x in order]
    for i, x in enumerate(order):
        for y in order[i + 1:]:
            cx, cy = cell_of(part, x), cell_of(part, y)
            if cx is cy:
                continue
            trial = close(join(part, cx, cy))
            if all(consistent_pair(u, v) for c in trial for u in c for v in c):
                part = trial
    cells = sorted(part, key=lambda c: min(order.index(x) for x in c))
    index = {x: k for k, c in enumerate(cells) for x in c}
    return [frozenset(c) for c in cells], index
