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
    BuchiAutomaton,
    LassoWord,
    OmegaAutomaton,
    Rows,
    StarAutomaton,
    State,
    Word,
    bfs_word,
    check_alphabet,
    explore,
    extend_alphabet,
    good_sccs,
    live_states,
    product_moves,
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


def pre_automaton(a: OmegaAutomaton) -> StarLanguageHandle:
    """Automaton for pre(S(a)), the finite prefixes of the accepted
    behaviour: states that cannot reach an accepting cycle contribute no
    prefixes and are pruned."""
    good = live_states(a)
    if a.core.initial not in good:
        return StarLanguageHandle(None)
    return StarLanguageHandle(reachable_trim(restrict(a.core, good)))


def prefix_tracker(a: OmegaAutomaton) -> tuple[StarAutomaton, Optional[State]]:
    """The automaton of pre(S(a)) totalized with a dead sink, which the
    strings outside pre(S(a)) run into, and that sink (None when no string
    leaves pre(S(a))).  When S(a) is empty, the run starts on the sink."""
    pre = pre_automaton(a)
    if pre.is_empty:
        sink = "sink"
        return StarAutomaton.from_rows(a.alphabet, {sink: dict.fromkeys(a.alphabet.events, sink)},
                                       sink), sink
    return sink_tracker(pre.automaton)


def clo_automaton(a: BuchiAutomaton) -> BuchiAutomaton:
    """Omega-closure: the limit of pre of the automaton's omega-language."""
    handle = pre_automaton(a)
    if handle.is_empty:
        empty = StarAutomaton.from_rows(a.alphabet, {0: {}}, 0)
        return BuchiAutomaton(empty, frozenset())
    return BuchiAutomaton(handle.automaton, frozenset(handle.automaton.states))


def product_compare(factors: Sequence[StarAutomaton],
                    b: StarAutomaton) -> tuple[bool, Optional[Word]]:
    """Equality of the language of the synchronous product of `factors`
    over b's alphabet with L(b), decided without building the product.

    One breadth-first walk of the factors' product paired with `b`, events
    in alphabet order: node i is the vector of the factors' states followed
    by b's state, numbered as `explore` numbers it, so the nodes and their
    order are those of the walk `explore` makes over `sync_product(factors,
    b.alphabet)` and `b` with `product_moves`.  The walk stops at the first
    node where the product and b enable different events and returns
    `bfs_word` to that node followed by the least such event.
    """
    events = b.alphabet.events
    factors = [extend_alphabet(f, b.alphabet) for f in factors]
    factor_rows, rows_b = [f.rows for f in factors], b.rows
    # `explore`'s loop with `product_moves` inlined, so that the walk stops
    # at the first node where the two sides differ: as `explore` over a
    # closure around `product_moves`, the check of the 4-machine factory took
    # 5.2-5.5 ms instead of 4.0-4.3 ms (best of 40, Python 3.11 on a Xeon)
    init = (*(f.initial for f in factors), b.initial)
    num = {init: 0}
    order = [init]
    rows: Rows = {}
    for i, v in enumerate(order):  # `order` grows while it is walked: the queue
        here = [fr[q] for fr, q in zip(factor_rows, v)]
        row_b = rows_b[v[-1]]
        row = rows[i] = {}
        for e in min(here, key=len, default=events):
            w = []
            for r in here:
                t = r.get(e)
                if t is None:
                    break
                w.append(t)
            else:
                tb = row_b.get(e)
                if tb is None:
                    break  # the product enables e and b does not
                w = (*w, tb)
                j = num.get(w)
                if j is None:
                    j = num[w] = len(order)
                    order.append(w)
                row[e] = j
        else:
            if len(row) == len(row_b):
                continue
        bad = next(e for e in events if (e in row_b) != all(e in r for r in here))
        return False, bfs_word(rows, i) + (bad,)
    return True, None


def omega_contained_single_pair(a: OmegaAutomaton, b: OmegaAutomaton
                                ) -> tuple[bool, Optional[LassoWord]]:
    """Decide S(a) <= S(b), each by its `pair`; on failure return a lasso in
    S(a) \\ S(b).

    Searches the synchronized product with b's `sink_tracker` (b trimmed and
    totalized with a dead sink) for a reachable cycle accepting for a's
    condition and rejecting for b's.  Two cycle shapes cover all
    counterexamples: a cycle inside I_a avoiding R_b that hits R_a, and a
    cycle inside I_a hitting both R_a and the complement of I_b.
    """
    check_alphabet(a.alphabet, b.alphabet, same=True)
    (ra, ia), (rb, ib) = a.pair, b.pair
    bt, sink = sink_tracker(b.core)
    # the product, on visit indices: node i is the state pair order[i]
    order, rows = explore((a.core.initial, bt.initial), product_moves((a.core, bt)))

    def path(region, src, dst) -> Word:
        """Shortest non-empty event path src -> dst inside region."""
        sub_order, sub_rows = explore(
            src, lambda i: [(e, j) for e, j in rows[i].items() if j in region])
        k = sub_order.index(dst)
        i, e = next((i, e) for i, row in sub_rows.items() for e, j in row.items() if j == k)
        return bfs_word(sub_rows, i) + (e,)

    def targets(i):
        return rows[i].values()

    nodes = range(len(order))
    hits = {i for i in nodes if order[i][0] in ra}
    in_a = {i for i in nodes if order[i][0] in ia}
    # shape 1: a cycle inside I_a, avoiding R_b (as the sink does), hitting R_a
    avoid_rb = {i for i in in_a if order[i][1] == sink or order[i][1] not in rb}
    comp = next(good_sccs(nodes, targets, (hits,), avoid_rb), None)
    if comp is not None:
        anchor = waypoint = min(hits.intersection(comp))
    else:
        # shape 2: a cycle inside I_a hitting R_a and leaving I_b
        out_b = {i for i in nodes if order[i][1] == sink or order[i][1] not in ib}
        comp = next(good_sccs(nodes, targets, (hits, out_b), in_a), None)
        if comp is None:
            return True, None
        anchor, waypoint = min(hits.intersection(comp)), min(out_b.intersection(comp))
    region = set(comp)
    cycle = path(region, anchor, waypoint)
    if waypoint != anchor:
        cycle += path(region, waypoint, anchor)
    return False, _shrink_lasso(LassoWord(bfs_word(rows, anchor), cycle), a, b)


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

