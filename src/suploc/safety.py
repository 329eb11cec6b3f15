"""Supremal controllable sublanguage synthesis for safety specifications.

The supervisor is computed by the standard pruning fixpoint on the
plant x spec product: a product state dies when some uncontrollable event is
possible in the plant but not in the product.  Deleting a state can expose
new violations at its predecessors, so a worklist runs to the global
fixpoint; the result is order-independent (the supremal element is unique)
and we expose the visit order for randomized testing.  The surviving part is
trimmed, state-minimized and renumbered, which makes the supervisor
canonical regardless of how the plant's liveness layers were composed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .automata import (
    AutomatonError,
    BuchiAutomaton,
    Event,
    StarAutomaton,
    State,
    buchi_lift,
    explore,
    minimize_prefix_closed,
    pair_moves,
    reachable_trim,
)
from .omega import StarLanguageHandle


@dataclass(frozen=True)
class SafetySupervisor:
    """Implementation of the supremal safe supervisor.

    `automaton` is None when the supremal controllable sublanguage is empty
    (a normal outcome, not an error).  `buchi_lift` marks supervisor states
    reachable by some string that lands on an accepting plant state; it turns
    the supervisor structure into the controlled plant's Buchi automaton.

    That marking over-approximates the closed loop plant ^ lim(SUP*): a
    cycle of marked supervisor states may be run by a word whose plant run
    never meets an accepting plant state.  On the bundled factory the lifted
    automaton accepts a1 b1 (a2 b2 g2)^omega, which starves buffer 1's
    removal fairness, while the exact closed loop has 14 states, 8 of them
    accepting.
    """

    automaton: Optional[StarAutomaton]
    buchi_lift: frozenset[State]

    @property
    def is_empty(self) -> bool:
        return self.automaton is None

    def handle(self) -> StarLanguageHandle:
        return StarLanguageHandle(self.automaton)


def sup_con_star(
    plant: BuchiAutomaton,
    spec: StarLanguageHandle,
    shuffle_seed: Optional[int] = None,
) -> SafetySupervisor:
    """Supremal controllable (and prefix-closed) sublanguage of spec ^ L(plant)."""
    if spec.is_empty:
        return SafetySupervisor(None, frozenset())
    p = plant.core
    s = spec.automaton
    if p.alphabet.events != s.alphabet.events:
        raise AutomatonError("alphabet mismatch")
    alphabet = p.alphabet

    # reachable product, on visit indices: node i is the state pair order[i]
    order, trans = explore((p.initial, s.initial), pair_moves(p, s))
    preds: list[set[int]] = [set() for _ in order]
    for (src, _e), dst in trans.items():
        preds[dst].add(src)

    dead: set[int] = set()

    def violates(st: int) -> bool:
        q = order[st][0]
        for u in alphabet.uncontrollable:
            if (q, u) in p.transitions:
                t = trans.get((st, u))
                if t is None or t in dead:
                    return True
        return False

    worklist = list(range(len(order)))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(worklist)
    pending = deque(worklist)
    enqueued = set(worklist)
    while pending:
        st = pending.popleft()
        enqueued.discard(st)
        if st in dead or not violates(st):
            continue
        dead.add(st)
        for pr in preds[st]:
            if pr not in dead and pr not in enqueued:
                pending.append(pr)
                enqueued.add(pr)

    if 0 in dead:
        return SafetySupervisor(None, frozenset())

    live = [st for st in range(len(order)) if st not in dead]
    aut = StarAutomaton(
        alphabet,
        tuple(live),
        0,
        {k: t for k, t in trans.items() if k[0] not in dead and t not in dead},
    )
    aut = minimize_prefix_closed(reachable_trim(aut))
    lift = buchi_lift(aut, plant)
    return SafetySupervisor(aut, lift)


def controlled_plant(plant: BuchiAutomaton, sup: SafetySupervisor) -> BuchiAutomaton:
    """The closed loop as a Buchi automaton: the supervisor's transition
    structure with its lifted acceptance marking.

    The star layer is exact, the Buchi layer is not: it accepts a superset
    of plant ^ lim(SUP*) (see `SafetySupervisor`; on the bundled factory
    a1 b1 (a2 b2 g2)^omega is accepted but violates the plant's fairness).
    """
    if sup.is_empty:
        raise AutomatonError("empty supervisor has no controlled plant")
    return BuchiAutomaton(sup.automaton, sup.buchi_lift)


def check_star_controllability(
    plant: BuchiAutomaton, k: StarLanguageHandle
) -> tuple[bool, Optional[tuple[State, Event]]]:
    """Exact controllability check of a prefix-closed language against the
    plant; on failure returns a (language state, uncontrollable event) witness."""
    if k.is_empty:
        return True, None
    p = plant.core
    s = k.automaton
    if p.alphabet.events != s.alphabet.events:
        raise AutomatonError("alphabet mismatch")
    for q, x in explore((p.initial, s.initial), pair_moves(p, s))[0]:
        for u in p.alphabet.uncontrollable:
            if (q, u) in p.transitions and (x, u) not in s.transitions:
                return False, (x, u)
    return True, None
