"""Independent oracles used to derive expected values in the tests.

Everything here is deliberately brute force: plain string enumeration,
fixpoints over explicit string sets, exhaustive subset search.  None of it
shares code paths with the library operations it checks, with these
exceptions: `greedy_pattern_map` re-runs the pattern-map enlargement with the
library's full winning check per trial, the reference for its edge-local
shortcut; `profile_by_walk` builds one enable/disable profile from a
`lockstep` walk of its own, the reference for the profiles `localize_all`
reads off one shared walk per supervisor; `buchi_intersection_by_explore`
and `star_compare_by_explore` are the earlier forms of `buchi_intersection`
and of the prefix-closed language comparison, built on `explore` with the
two-automaton successor `pair_moves`, the references for the inlined loops
that replaced them (`star_compare_by_explore` is also how the tests decide
equality and containment of the star languages the stages build);
`pair_moves` and `sync_product_by_movers` are the earlier product
successors, which kept the rule for an event outside a component's
alphabet to themselves, the references for `product_moves` and for
`sync_product` over components lifted by `extend_alphabet`; and
`serialize_by_lines` and `dot_by_lines` are the earlier forms of
`textio.serialize_automaton` and `textio.to_dot`, which joined a list of
lines with newlines, on the library's canonical numbering
(`textio._canonical`).  `lasso_accepted` is the earlier layered form of
`run_lasso`, which picked the acceptance condition by a layer name, on the
oracle's own visit set: the reference for reading it off the type.
`acceptance_pair_by_type` and `run_lasso_by_type` are the earlier
`automata.acceptance_pair` and `run_lasso`, which chose the acceptance
rule by the automaton's class, the references for `OmegaAutomaton.pair`
and the one-formula `run_lasso` that reads it.
`check_infinite_equivalence_by_automaton` is the earlier tier 2 of
`verify.check_infinite_equivalence`, which ran each lasso the plant accepts
on every controller and then on both supervisors, one automaton at a time:
the reference for running it on the two memoized `ImplicitProduct`s.
`rows_ok` checks the contract that `StarAutomaton.from_rows` trusts its
callers to keep, on the automata the package builds.  `minimal_prefix_states`
and `bad_cycle_sets` reach states one path at a time, the definitions that
`live_states` and the cycle search of `omega_contained_single_pair` decide
on strongly connected components.
"""

import random
from collections import deque
from itertools import product as iproduct
from math import floor

from suploc import verify
from suploc.automata import (
    BuchiAutomaton,
    LassoWord,
    RabinBuchiAutomaton,
    StarAutomaton,
    bfs_word,
    check_alphabet,
    explore,
    extend_alphabet,
    lasso_in_star,
    lockstep,
    omega_visit_set,
    run_lasso,
)
from suploc.localization import EnableDisableProfile, Part
from suploc.omegasynth import _pattern_map_wins
from suploc.textio import _canonical


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


def run_star(a: StarAutomaton, word):
    """State reached on `word` by walking the rows, or None when some step
    is undefined (an event outside the alphabet has no step)."""
    q = a.initial
    for e in word:
        q = a.rows[q].get(e)
        if q is None:
            return None
    return q


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


def visit_set_by_positions(core: StarAutomaton, w: LassoWord):
    """States visited infinitely often by the run on w, or None if it falls
    off: the run is followed one event at a time until a (state, position
    in the cycle) pair repeats."""
    q = run_star(core, w.stem)
    if q is None:
        return None
    seen = {}
    trace = []
    pos = 0
    while (q, pos) not in seen:
        seen[(q, pos)] = len(trace)
        trace.append(q)
        q = core.rows[q].get(w.cycle[pos])
        if q is None:
            return None
        pos = (pos + 1) % len(w.cycle)
    return frozenset(trace[seen[(q, pos)]:])


def lasso_accepted(aut, w: LassoWord, layer: str) -> bool:
    """Whether the lasso word is accepted by the automaton's `layer`: a
    Buchi automaton's set F, or a Rabin-Buchi automaton's "buchi" layer,
    read as the pair (F, every state); or such an automaton's single
    "rabin" pair (R, I), met and never left by the infinity set."""
    omega = visit_set_by_positions(aut.core, w)
    if omega is None:
        return False
    states = frozenset(aut.core.states)
    if isinstance(aut, BuchiAutomaton):
        r, i = aut.accepting, states
    elif layer == "buchi":
        r, i = aut.buchi, states
    elif layer == "rabin":
        (r, i), = aut.rabin_pairs
    else:
        raise ValueError(f"unknown acceptance layer {layer!r}")
    return bool(omega & r) and omega <= i


def acceptance_pair_by_type(aut):
    """(R, I) of an automaton as its class chose it: a Buchi set F is
    (F, every state), a Rabin-Buchi automaton answers with its single pair."""
    if isinstance(aut, BuchiAutomaton):
        return aut.accepting, frozenset(aut.core.states)
    return aut.single_pair()


def run_lasso_by_type(aut, w: LassoWord) -> bool:
    """Whether the automaton accepts the lasso word, by the rule its class
    carries: a Buchi automaton when the infinity set meets its set, a
    Rabin-Buchi automaton when it meets R and stays inside I."""
    omega = omega_visit_set(aut.core, w)
    if omega is None:
        return False
    if isinstance(aut, BuchiAutomaton):
        return not omega.isdisjoint(aut.accepting)
    r, i = aut.single_pair()
    return not omega.isdisjoint(r) and omega <= i


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


def deadlock_free(a: BuchiAutomaton) -> bool:
    """Whether every reachable state of `a` reaches an accepting cycle."""
    reach = bfs_order(a.core)
    return states_reaching_good_cycle(reach, lambda q: a.core.rows[q].values(),
                                      a.accepting) == set(reach)


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


def greedy_pattern_map(core: StarAutomaton, alphabet, winning, phi: dict,
                       r_set, i_set, b_set) -> dict:
    """Greedy maximal enlargement of a pattern map that wins from every
    state of `winning`, with a full re-verification per trial: states in
    `core.states` order, events in enabled order, each controllable event
    whose target wins is kept when `_pattern_map_wins` accepts the map with
    it.  This is the plain loop that `omegasynth._enlarge_pattern_map`
    decides edge by edge."""
    phi = dict(phi)
    for q in core.states:
        if q not in winning:
            continue
        for e in core.enabled(q):
            if e in phi[q] or e not in alphabet.controllable \
                    or core.transitions[(q, e)] not in winning:
                continue
            trial = dict(phi)
            trial[q] = phi[q] | {e}
            if _pattern_map_wins(core, trial, winning, r_set, i_set, b_set):
                phi = trial
    return phi


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
# omega-containment oracle


def _pair(aut):
    """(R, I) of a Buchi automaton (its set, every state) or of a
    Rabin-Buchi automaton's single pair."""
    if isinstance(aut, BuchiAutomaton):
        return set(aut.accepting), set(aut.core.states)
    (r, i), = aut.rabin_pairs
    return set(r), set(i)


def omega_product(a, b):
    """The reachable states of the product of a with b, and its successor
    function; b is partial, and a string b cannot run takes b's component
    to None, which stays None."""
    def succ(v):
        qa, qb = v
        out = []
        for e in a.alphabet.events:
            ta = a.core.transitions.get((qa, e))
            if ta is not None:
                out.append((ta, None if qb is None else b.core.transitions.get((qb, e))))
        return out

    start = (a.core.initial, b.core.initial)
    return _reach(start, succ) | {start}, succ


def bad_cycle_sets(a, b) -> list[frozenset]:
    """Every strongly connected set of reachable states of the product of a
    with b on which a run is accepted by a and rejected by b.

    The product is `omega_product`'s, where None accepts nothing.  A set is
    strongly connected when each of its states reaches every one of them
    (itself included) by a non-empty path inside the set; such a set is the
    infinity set of some ultimately periodic run, and every run's infinity
    set is one.  Sets are tried exhaustively, among the subsets of each
    maximal one."""
    ra, ia = _pair(a)
    rb, ib = _pair(b)
    states, succ = omega_product(a, b)
    out = []
    blocks = {frozenset(t for t in _reach(v, succ) if v in _reach(t, succ)) for v in states}
    for block in (sorted(c, key=repr) for c in blocks if c):
        for mask in range(1, 2 ** len(block)):
            cand = {v for k, v in enumerate(block) if mask >> k & 1}
            if not all(cand <= _reach(v, succ, cand) for v in cand):
                continue
            a_side = {qa for qa, _qb in cand}
            b_side = {qb for _qa, qb in cand}
            a_accepts = bool(a_side & ra) and a_side <= ia
            b_accepts = None not in b_side and bool(b_side & rb) and b_side <= ib
            if a_accepts and not b_accepts:
                out.append(frozenset(cand))
    return out


def omega_contained_by_subsets(a, b) -> bool:
    """S(a) <= S(b), each by its Buchi set or single Rabin pair: no
    strongly connected set of the product is accepted by a and rejected by
    b (`bad_cycle_sets`)."""
    return not bad_cycle_sets(a, b)


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


def profile_by_walk(aut: StarAutomaton, alpha, part: Part, plant: StarAutomaton,
                    tracker=None, sink=None) -> EnableDisableProfile:
    """Profile of `aut` for alpha from a walk for this event and scope
    alone.  A state disables alpha when alpha is undefined there and some
    string reaching it, run jointly in the plant (and in the tracker, inside
    the scope `part` names), reaches a plant state where alpha is
    defined."""
    followers = (plant,) if tracker is None else (plant, tracker)
    witness = {v[0] for v in lockstep(aut, *followers)
               if alpha in plant.rows[v[1]]
               and (part is Part.NONE or (v[2] != sink) == (part is Part.C1))}
    enable = {x: alpha in aut.rows[x] for x in aut.states}
    disable = {x: (not enable[x]) and (x in witness) for x in aut.states}
    return EnableDisableProfile(alpha, enable, disable, part)


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
        where = {x: k for k, c in enumerate(part) for x in c}
        first = {}
        for (s, e), t in aut.transitions.items():
            if s in where:
                d = first.setdefault((where[s], e), where[t])
                if d != where[t]:
                    return part[d], part[where[t]]
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


def pair_moves(a: StarAutomaton, b: StarAutomaton):
    """Successor function of the synchronous product of two automata over the
    same alphabet: the events defined in both, in alphabet order, each with
    the pair of targets."""
    rows_a, rows_b = a.rows, b.rows

    def succ(v):
        row_a, row_b = rows_a[v[0]], rows_b[v[1]]
        if len(row_a) <= len(row_b):
            return [(e, (ta, tb)) for e, ta in row_a.items()
                    if (tb := row_b.get(e)) is not None]
        return [(e, (ta, tb)) for e, tb in row_b.items()
                if (ta := row_a.get(e)) is not None]
    return succ


def sync_product_by_movers(components, alphabet) -> StarAutomaton:
    """The synchronous product as `sync_product` built it on the components
    as declared: per event, in alphabet order, the components whose
    alphabet holds it must all define it and move together, and the others
    stay in place."""
    for c in components:
        check_alphabet(c.alphabet, alphabet)
    comp_rows = [c.rows for c in components]
    movers = [(e, [k for k, c in enumerate(components) if e in c.alphabet])
              for e in alphabet.events]

    def succ(vec):
        rows = [cr[q] for cr, q in zip(comp_rows, vec)]
        out = []
        for e, ks in movers:
            for k in ks:
                if e not in rows[k]:
                    break
            else:
                nxt = list(vec)
                for k in ks:
                    nxt[k] = rows[k][e]
                out.append((e, tuple(nxt)))
        return out

    return StarAutomaton.from_rows(
        alphabet, explore(tuple(c.initial for c in components), succ)[1], 0)


def buchi_intersection_by_explore(a: BuchiAutomaton, b: BuchiAutomaton) -> BuchiAutomaton:
    """The intersection as `buchi_intersection` built it with `explore` and
    a successor closure that returns each product state's moves as a list:
    the plain product when one operand accepts everywhere, else the
    two-phase counter (phase 0 owes a visit to a's set, phase 1 to b's; a
    state is accepting when it hits the set its phase owes, and the phase
    of its successors then advances)."""
    check_alphabet(a.alphabet, b.alphabet, same=True)
    if set(a.core.states) <= a.accepting or set(b.core.states) <= b.accepting:
        order, rows = explore((a.core.initial, b.core.initial), pair_moves(a.core, b.core))
        acc = (i for i, (qa, qb) in enumerate(order)
               if qa in a.accepting and qb in b.accepting)
    else:
        def hit(qa, qb, phase):
            return (qa in a.accepting) if phase == 0 else (qb in b.accepting)

        moves = pair_moves(a.core, b.core)

        def succ(v):
            phase = 1 - v[2] if hit(*v) else v[2]
            return [(e, (ta, tb, phase)) for e, (ta, tb) in moves(v[:2])]

        order, rows = explore((a.core.initial, b.core.initial, 0), succ)
        acc = (i for i, v in enumerate(order) if hit(*v))
    return BuchiAutomaton(StarAutomaton.from_rows(a.alphabet, rows, 0), frozenset(acc))


def star_compare_by_explore(a: StarAutomaton, b: StarAutomaton, containment: bool = False):
    """L(a) = L(b) (or, with `containment`, L(a) <= L(b)) as the library
    decided it on one automaton `a`: explore the whole pair product, then
    scan its nodes in breadth-first order for the first where a enables an
    event b does not (or, for equality, the other way round).  Returns
    (True, None) or (False, `bfs_word` to that node + the least such
    event)."""
    order, rows = explore((a.initial, b.initial), pair_moves(a, b))
    for i, (qa, qb) in enumerate(order):
        ea, eb = a.rows[qa].keys(), b.rows[qb].keys()
        bad = (ea - eb) if containment else (ea ^ eb)
        if bad:
            return False, bfs_word(rows, i) + (min(bad, key=a.alphabet.index),)
    return True, None


def serialize_by_lines(name: str, aut) -> str:
    """The ``.aut`` text of `aut`, one line per list entry, joined with
    newlines."""
    core, buchi, pairs = _canonical(aut)
    kind = ("star" if isinstance(aut, StarAutomaton)
            else "buchi" if isinstance(aut, BuchiAutomaton) else "rabin-buchi")
    lines = [f"automaton {name}", f"type {kind}"]
    evs = " ".join(
        f"{e}:{'c' if e in core.alphabet.controllable else 'u'}" for e in core.alphabet.events
    )
    lines.append(f"events {evs}")
    lines.append(f"initial {core.initial}")
    for q in core.states:
        for e, t in core.rows[q].items():
            lines.append(f"trans {q} {e} {t}")
    if buchi is not None:
        lines.append("buchi " + " ".join(str(q) for q in sorted(buchi)))
    if pairs is not None:
        for r, i in pairs:
            lines.append(
                "rabin R " + " ".join(str(q) for q in sorted(r))
                + " ; I " + " ".join(str(q) for q in sorted(i))
            )
    return "\n".join(lines) + "\n"


def dot_by_lines(name: str, aut) -> str:
    """The DOT rendering of `aut`, one line per list entry, joined with
    newlines; a backslash or double quote in the name or an event label is
    escaped by a backslash."""
    def quoted(text):
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    core, buchi, pairs = _canonical(aut)
    out = [f'digraph {quoted(name)} {{', "  rankdir=LR;", '  node [shape=circle];',
           '  __init [shape=point];']
    for q in core.states:
        label = str(q)
        attrs = []
        if buchi is not None and q in buchi:
            attrs.append("shape=doublecircle")
        if pairs is not None:
            tags = []
            for idx, (r, i) in enumerate(pairs, start=1):
                if q in r:
                    tags.append(f"R{idx}")
                if q in i:
                    tags.append(f"I{idx}")
            if tags:
                label += "\\n" + ",".join(tags)
        attrs.insert(0, f'label="{label}"')
        out.append(f'  "{q}" [{", ".join(attrs)}];')
    out.append(f'  __init -> "{core.initial}";')
    for q in core.states:
        for e, t in core.rows[q].items():
            out.append(f'  "{q}" -> "{t}" [label={quoted(e)}];')
    out.append("}")
    return "\n".join(out) + "\n"


def rows_ok(aut: StarAutomaton) -> bool:
    """Whether `aut` keeps the contract of `StarAutomaton.from_rows`: its
    states are the keys of its rows, in their order; the initial state and
    every target is a key; every event is in the alphabet; and every row
    lists its events in alphabet order."""
    rows = aut.rows
    place = {e: i for i, e in enumerate(aut.alphabet.events)}
    if tuple(aut.states) != tuple(rows) or aut.initial not in rows:
        return False
    for row in rows.values():
        places = [place.get(e) for e in row]
        if None in places or places != sorted(places) or any(t not in rows for t in row.values()):
            return False
    return True


def check_infinite_equivalence_by_automaton(plant, sup_star, sup_omega, controllers,
                                            lasso_budget: int = 500, seed: int = 0):
    """`verify.check_infinite_equivalence` as it ran tier 2 one automaton at
    a time: tier 1 is `verify.check_finite_equivalence`, and each lasso the
    plant accepts is run on every controller, lifted by `extend_alphabet`,
    then on SUP* and on SUPw.  The draws, counts, counterexample and error
    are the library's."""
    report = verify.check_finite_equivalence(plant, sup_star, sup_omega, controllers)
    tier1 = report.finite_ok
    report.sub_results["tier1"] = tier1

    extended = [extend_alphabet(c.automaton, plant.alphabet) for c in controllers]
    draw = random.Random(seed).random
    events = plant.alphabet.events
    n_events = len(events)
    plant_rows = plant.core.rows
    disagreements = 0
    in_plant_count = 0
    first_bad = None
    for _ in range(lasso_budget):
        stem_len = floor(draw() * (verify.MAX_STEM + 1))
        cycle_len = 1 + floor(draw() * verify.MAX_CYCLE)
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
            lhs = in_plant and all(lasso_in_star(c, w) for c in extended)
            rhs = (
                in_plant
                and lasso_in_star(sup_star.automaton, w)
                and lasso_in_star(sup_omega.automaton, w)
            )
            if lhs != rhs:
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
        raise verify.VerificationError(
            f"tier-2 sampling found {disagreements} disagreements against a "
            f"tier-1 proof; this indicates an implementation bug (seed={seed}); "
            f"first lasso {list(first_bad.stem)} ; {list(first_bad.cycle)}")
    return report
