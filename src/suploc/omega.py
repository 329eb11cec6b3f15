"""Language operators on finite and infinite behaviors.

The prefix-closure of a star language is represented by its (trim,
all-accepting) automaton.  Limits are never materialized: membership of an
ultimately periodic word in lim(K) is decided by running it, which is exact
for deterministic prefix-closed K.  Containment of omega-languages is decided
on the synchronized product: with deterministic operands and single-pair
acceptance, every counterexample is witnessed by an ultimately periodic word,
and such a word shows up as a reachable product cycle whose infinity set is
accepting on one side and rejecting on the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import (
    AutomatonError,
    BuchiAutomaton,
    LassoWord,
    RabinBuchiAutomaton,
    StarAutomaton,
    Word,
    bfs_word,
    cyclic_sccs,
    explore,
    omega_visit_set,
    pair_moves,
    reachable_states,
    reachable_trim,
    restrict,
    states_reaching_cycle,
    totalize,
)


@dataclass(frozen=True)
class StarLanguageHandle:
    """A prefix-closed star language, held as a trim all-accepting automaton.

    ``automaton is None`` encodes the empty language (which, being
    prefix-free of even the empty string, has no automaton of this shape).
    """

    automaton: Optional[StarAutomaton]

    @property
    def is_empty(self) -> bool:
        return self.automaton is None

    @property
    def alphabet(self):
        if self.automaton is None:
            raise AutomatonError("empty language handle has no alphabet")
        return self.automaton.alphabet


def pre_automaton(a: BuchiAutomaton | StarAutomaton | StarLanguageHandle) -> StarLanguageHandle:
    """Automaton for the set of finite prefixes of the declared language.

    For a star automaton this is just the trim structure.  For a Buchi
    automaton, states that cannot reach an accepting cycle contribute no
    prefixes and are pruned first.
    """
    if isinstance(a, StarLanguageHandle):
        if a.is_empty:
            return a
        return StarLanguageHandle(reachable_trim(a.automaton))
    if isinstance(a, StarAutomaton):
        return StarLanguageHandle(reachable_trim(a))
    core = a.core
    good = states_reaching_cycle(reachable_states(core), core.targets, a.accepting)
    if core.initial not in good:
        return StarLanguageHandle(None)
    return StarLanguageHandle(reachable_trim(restrict(core, good)))


def clo_automaton(a: BuchiAutomaton) -> BuchiAutomaton:
    """Omega-closure: the limit of pre of the automaton's omega-language."""
    handle = pre_automaton(a)
    if handle.is_empty:
        empty = StarAutomaton(a.alphabet, (0,), 0, {})
        return BuchiAutomaton(empty, frozenset())
    return BuchiAutomaton(handle.automaton, frozenset(handle.automaton.states))


def is_deadlock_free(a: BuchiAutomaton) -> bool:
    """True iff every reachable state reaches an accepting cycle."""
    reach = reachable_states(a.core)
    return len(states_reaching_cycle(reach, a.core.targets, a.accepting)) == len(reach)


def star_equal(a: StarLanguageHandle, b: StarLanguageHandle) -> tuple[bool, Optional[Word]]:
    """Exact equality of prefix-closed languages, with a shortest-difference
    witness string on failure."""
    if a.is_empty or b.is_empty:
        if a.is_empty and b.is_empty:
            return True, None
        return False, ()
    return _star_compare(a.automaton, b.automaton, containment=False)


def star_contained(a: StarLanguageHandle, b: StarLanguageHandle) -> tuple[bool, Optional[Word]]:
    """Exact containment L(a) <= L(b), with a witness in L(a) \\ L(b)."""
    if a.is_empty:
        return True, None
    if b.is_empty:
        return False, ()
    return _star_compare(a.automaton, b.automaton, containment=True)


def _star_compare(a: StarAutomaton, b: StarAutomaton, containment: bool):
    if a.alphabet.events != b.alphabet.events:
        raise AutomatonError("alphabet mismatch")
    order, edges = explore((a.initial, b.initial), pair_moves(a, b))
    for i, (qa, qb) in enumerate(order):
        ea, eb = set(a.enabled(qa)), set(b.enabled(qb))
        bad = (ea - eb) if containment else (ea ^ eb)
        if bad:
            return False, bfs_word(edges, i) + (min(bad, key=a.alphabet.index),)
    return True, None


def _acceptance_pair(aut, layer: str):
    """(R, I) view of the queried acceptance condition."""
    states = frozenset(aut.core.states)
    if isinstance(aut, BuchiAutomaton):
        return aut.accepting, states
    if layer == "buchi":
        return aut.buchi, states
    if layer == "rabin":
        return aut.single_pair()
    raise AutomatonError(f"unknown acceptance layer {layer!r}")


def omega_contained_single_pair(
    a: BuchiAutomaton | RabinBuchiAutomaton,
    b: BuchiAutomaton | RabinBuchiAutomaton,
    a_layer: str = "rabin",
    b_layer: str = "rabin",
) -> tuple[bool, Optional[LassoWord]]:
    """Decide S(a) <= S(b); on failure return a lasso in S(a) \\ S(b).

    Searches the synchronized product (b totalized with a dead sink) for a
    reachable cycle accepting for a's condition and rejecting for b's.  Two
    cycle shapes cover all counterexamples: a cycle inside I_a avoiding R_b
    that hits R_a, and a cycle inside I_a hitting both R_a and the complement
    of I_b.
    """
    if a.core.alphabet.events != b.core.alphabet.events:
        raise AutomatonError("alphabet mismatch")
    ra, ia = _acceptance_pair(a, a_layer)
    rb, ib = _acceptance_pair(b, b_layer)
    bt = totalize(b.core)
    sink = None if bt is b.core else bt.states[-1]
    # the product, on visit indices: node i is the state pair order[i]
    order, edges = explore((a.core.initial, bt.initial), pair_moves(a.core, bt))
    events = a.core.alphabet.events

    def b_outside_i(i):
        return order[i][1] == sink or order[i][1] not in ib

    def b_in_r(i):
        return order[i][1] != sink and order[i][1] in rb

    def a_in_r(i):
        return order[i][0] in ra

    def moves_in(region):
        def moves(i):
            for e in events:
                j = edges.get((i, e))
                if j is not None and j in region:
                    yield e, j
        return moves

    def targets_in(region):
        moves = moves_in(region)
        return lambda i: [j for _e, j in moves(i)]

    def path(region, src, dst) -> Word:
        """Shortest non-empty event path src -> dst inside region."""
        sub_order, sub_edges = explore(src, moves_in(region))
        if dst != src:
            return bfs_word(sub_edges, sub_order.index(dst))
        i, e = next(k for k, j in sub_edges.items() if j == 0)
        return bfs_word(sub_edges, i) + (e,)

    def cycle_through(region, anchor, waypoints) -> Word:
        """Event path: anchor -> each waypoint in turn -> anchor, inside region."""
        word: Word = ()
        cur = anchor
        for goal in list(waypoints) + [anchor]:
            if cur == goal and word:
                continue
            word += path(region, cur, goal)
            cur = goal
        return word

    witness_cycle = None
    anchor = None
    indices = range(len(order))
    # shape 1: cycle inside I_a, avoiding R_b, hitting R_a
    region1 = {i for i in indices if order[i][0] in ia and not b_in_r(i)}
    for comp in cyclic_sccs(sorted(region1), targets_in(region1)):
        hits = [i for i in comp if a_in_r(i)]
        if hits:
            anchor = min(hits)
            witness_cycle = cycle_through(set(comp), anchor, [])
            break
    if witness_cycle is None:
        # shape 2: cycle inside I_a hitting R_a and leaving I_b
        region2 = {i for i in indices if order[i][0] in ia}
        for comp in cyclic_sccs(sorted(region2), targets_in(region2)):
            hits = [i for i in comp if a_in_r(i)]
            outs = [i for i in comp if b_outside_i(i)]
            if hits and outs:
                anchor = min(hits)
                witness_cycle = cycle_through(set(comp), anchor, [min(outs)])
                break
    if witness_cycle is None:
        return True, None
    lasso = LassoWord(bfs_word(edges, anchor), witness_cycle)
    return False, _shrink_lasso(lasso, a, b, a_layer, b_layer)


def lasso_accepted(aut, w: LassoWord, layer: str) -> bool:
    omega = omega_visit_set(aut.core, w)
    if omega is None:
        return False
    r, i = _acceptance_pair(aut, layer)
    return bool(omega & r) and omega <= i


def _shrink_lasso(w: LassoWord, a, b, a_layer, b_layer) -> LassoWord:
    """Greedy deterministic minimization: shorten the stem, then the cycle,
    keeping the lasso inside S(a) \\ S(b)."""

    def still_witness(cand: LassoWord) -> bool:
        return lasso_accepted(a, cand, a_layer) and not lasso_accepted(b, cand, b_layer)

    for k in range(len(w.stem) + 1):
        cand = LassoWord(w.stem[:k], w.cycle)
        if still_witness(cand):
            w = cand
            break
    for m in range(1, len(w.cycle)):
        cand = LassoWord(w.stem, w.cycle[:m])
        if still_witness(cand):
            w = cand
            break
    return w

