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
from typing import Optional, Sequence

from .automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    LassoWord,
    RabinBuchiAutomaton,
    Rows,
    StarAutomaton,
    Word,
    acceptance_pair,
    bfs_word,
    check_alphabet,
    cyclic_sccs,
    explore,
    live_states,
    pair_moves,
    reachable_states,
    reachable_trim,
    restrict,
    run_lasso,
    sink_tracker,
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


def pre_automaton(a: BuchiAutomaton | StarLanguageHandle) -> StarLanguageHandle:
    """Automaton for the set of finite prefixes of the declared language.

    For a star language this is just the trim structure.  For a Buchi
    automaton, states that cannot reach an accepting cycle contribute no
    prefixes and are pruned first.
    """
    if isinstance(a, StarLanguageHandle):
        if a.is_empty:
            return a
        return StarLanguageHandle(reachable_trim(a.automaton))
    good = live_states(a)
    if a.core.initial not in good:
        return StarLanguageHandle(None)
    return StarLanguageHandle(reachable_trim(restrict(a.core, good)))


def clo_automaton(a: BuchiAutomaton) -> BuchiAutomaton:
    """Omega-closure: the limit of pre of the automaton's omega-language."""
    handle = pre_automaton(a)
    if handle.is_empty:
        empty = StarAutomaton.from_rows(a.alphabet, {0: {}}, 0)
        return BuchiAutomaton(empty, frozenset())
    return BuchiAutomaton(handle.automaton, frozenset(handle.automaton.states))


def is_deadlock_free(a: BuchiAutomaton) -> bool:
    """True iff every reachable state reaches an accepting cycle."""
    return len(live_states(a)) == len(reachable_states(a.core))


def star_equal(a: StarLanguageHandle, b: StarLanguageHandle) -> tuple[bool, Optional[Word]]:
    """Exact equality of prefix-closed languages, with a shortest-difference
    witness string on failure."""
    if a.is_empty or b.is_empty:
        if a.is_empty and b.is_empty:
            return True, None
        return False, ()
    return product_compare([a.automaton], a.alphabet, b.automaton, containment=False)


def star_contained(a: StarLanguageHandle, b: StarLanguageHandle) -> tuple[bool, Optional[Word]]:
    """Exact containment L(a) <= L(b), with a witness in L(a) \\ L(b)."""
    if a.is_empty:
        return True, None
    if b.is_empty:
        return False, ()
    return product_compare([a.automaton], a.alphabet, b.automaton, containment=True)


def product_compare(factors: Sequence[StarAutomaton], alphabet: Alphabet, b: StarAutomaton,
                    containment: bool = False) -> tuple[bool, Optional[Word]]:
    """Equality (or, with `containment`, inclusion) of the language of the
    synchronous product of `factors` over `alphabet` with L(b), decided
    without building the product.

    One breadth-first walk of the factors' product paired with `b`, events
    in alphabet order: node i is the vector of the factors' states followed
    by b's state, numbered as `explore` numbers it, so the nodes and their
    order are those of the walk `explore` makes over `sync_product(factors,
    alphabet)` and `b` with `pair_moves`.  The walk stops at the first node
    where the product enables an event that b does not (or, for equality,
    the other way round) and returns `bfs_word` to that node followed by
    the least such event.  Each factor must fit `alphabet` as in
    `sync_product`, and b must have its events.
    """
    for f in factors:
        check_alphabet(f.alphabet, alphabet)
    check_alphabet(b.alphabet, alphabet, same=True)
    factor_rows, rows_b = [f.rows for f in factors], b.rows
    n = len(factors)
    # per event, in alphabet order: the positions of the factors it moves
    movers = [(e, [k for k, f in enumerate(factors) if e in f.alphabet]) for e in alphabet.events]
    init = (*(f.initial for f in factors), b.initial)
    num = {init: 0}
    order = [init]
    rows: Rows = {}
    for i, v in enumerate(order):  # `order` grows while it is walked: the queue
        here = [fr[q] for fr, q in zip(factor_rows, v)]
        row_b = rows_b[v[n]]
        row = rows[i] = {}
        for e, ks in movers:
            for k in ks:
                if e not in here[k]:
                    if not containment and e in row_b:
                        return False, bfs_word(rows, i) + (e,)
                    break
            else:
                tb = row_b.get(e)
                if tb is None:
                    return False, bfs_word(rows, i) + (e,)
                nxt = list(v)
                for k in ks:
                    nxt[k] = here[k][e]
                nxt[n] = tb
                w = tuple(nxt)
                j = num.get(w)
                if j is None:
                    j = num[w] = len(order)
                    order.append(w)
                row[e] = j
    return True, None


def omega_contained_single_pair(
    a: BuchiAutomaton | RabinBuchiAutomaton,
    b: BuchiAutomaton | RabinBuchiAutomaton,
) -> tuple[bool, Optional[LassoWord]]:
    """Decide S(a) <= S(b), each by the acceptance its type carries (see
    `acceptance_pair`); on failure return a lasso in S(a) \\ S(b).

    Searches the synchronized product with b's `sink_tracker` (b trimmed and
    totalized with a dead sink) for a reachable cycle accepting for a's
    condition and rejecting for b's.  Two cycle shapes cover all
    counterexamples: a cycle inside I_a avoiding R_b that hits R_a, and a
    cycle inside I_a hitting both R_a and the complement of I_b.
    """
    check_alphabet(a.alphabet, b.alphabet, same=True)
    ra, ia = acceptance_pair(a)
    rb, ib = acceptance_pair(b)
    bt, sink = sink_tracker(b.core)
    # the product, on visit indices: node i is the state pair order[i]
    order, rows = explore((a.core.initial, bt.initial), pair_moves(a.core, bt))

    def moves_in(region):
        return lambda i: [(e, j) for e, j in rows[i].items() if j in region]

    def targets_in(region):
        return lambda i: [j for j in rows[i].values() if j in region]

    def path(region, src, dst) -> Word:
        """Shortest non-empty event path src -> dst inside region."""
        sub_order, sub_rows = explore(src, moves_in(region))
        if dst != src:
            return bfs_word(sub_rows, sub_order.index(dst))
        i, e = next((i, e) for i, row in sub_rows.items() for e, j in row.items() if j == 0)
        return bfs_word(sub_rows, i) + (e,)

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
    # shape 1: cycle inside I_a, avoiding R_b (as the sink does), hitting R_a
    region1 = {i for i, (qa, qb) in enumerate(order) if qa in ia and (qb == sink or qb not in rb)}
    for comp in cyclic_sccs(sorted(region1), targets_in(region1)):
        hits = [i for i in comp if order[i][0] in ra]
        if hits:
            anchor = min(hits)
            witness_cycle = cycle_through(set(comp), anchor, [])
            break
    if witness_cycle is None:
        # shape 2: cycle inside I_a hitting R_a and leaving I_b
        region2 = {i for i, (qa, _qb) in enumerate(order) if qa in ia}
        for comp in cyclic_sccs(sorted(region2), targets_in(region2)):
            hits = [i for i in comp if order[i][0] in ra]
            outs = [i for i in comp if order[i][1] == sink or order[i][1] not in ib]
            if hits and outs:
                anchor = min(hits)
                witness_cycle = cycle_through(set(comp), anchor, [min(outs)])
                break
    if witness_cycle is None:
        return True, None
    lasso = LassoWord(bfs_word(rows, anchor), witness_cycle)
    return False, _shrink_lasso(lasso, a, b)


def _shrink_lasso(w: LassoWord, a, b) -> LassoWord:
    """Greedy deterministic minimization: shorten the stem, then the cycle,
    keeping the lasso inside S(a) \\ S(b)."""

    def still_witness(cand: LassoWord) -> bool:
        return run_lasso(a, cand) and not run_lasso(b, cand)

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

