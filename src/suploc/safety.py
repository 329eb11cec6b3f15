"""Supremal controllable sublanguage synthesis for safety specifications.

For a prefix-closed specification the supremal controllable sublanguage
(Wonham & Ramadge, SIAM J. Control Optim. 1987) drops every state of the
plant x spec product from which a string of uncontrollable events reaches an
uncontrollable event that the plant allows and the product lacks.  Those
states are found by one backward closure along uncontrollable product moves,
so the result does not depend on any visit order.  The surviving part is
trimmed, state-minimized and renumbered, which makes the supervisor
canonical regardless of how the plant's liveness layers were composed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import (
    AutomatonError,
    BuchiAutomaton,
    Event,
    StarAutomaton,
    State,
    buchi_lift,
    check_alphabet,
    explore,
    minimize_prefix_closed,
    pair_moves,
    restrict,
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


def sup_con_star(plant: BuchiAutomaton, spec: StarLanguageHandle) -> SafetySupervisor:
    """Supremal controllable (and prefix-closed) sublanguage of spec ^ L(plant).

    A product state is lost when the plant allows an uncontrollable event
    there that the product lacks, or when an uncontrollable product move
    leads to a lost state; the supervisor is the trimmed, minimized rest.
    """
    if spec.is_empty:
        return SafetySupervisor(None, frozenset())
    p = plant.core
    s = spec.automaton
    check_alphabet(s.alphabet, p.alphabet, same=True)
    alphabet = p.alphabet

    # reachable product, on visit indices: node i is the state pair order[i]
    order, rows = explore((p.initial, s.initial), pair_moves(p, s))
    unc, plant_rows = alphabet.uncontrollable, p.rows
    lost = {st for st, (q, _x) in enumerate(order)
            if any(u in unc and u not in rows[st] for u in plant_rows[q])}
    preds: list[list[int]] = [[] for _ in order]
    for src, row in rows.items():
        for e, dst in row.items():
            if e in unc:
                preds[dst].append(src)
    stack = list(lost)
    while stack:
        for pr in preds[stack.pop()]:
            if pr not in lost:
                lost.add(pr)
                stack.append(pr)
    if 0 in lost:
        return SafetySupervisor(None, frozenset())
    product = StarAutomaton.from_rows(alphabet, rows, 0)
    aut = minimize_prefix_closed(restrict(product, set(range(len(order))) - lost))
    return SafetySupervisor(aut, buchi_lift(aut, plant))


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
    check_alphabet(s.alphabet, p.alphabet, same=True)
    unc = p.alphabet.uncontrollable
    for q, x in explore((p.initial, s.initial), pair_moves(p, s))[0]:
        for u in p.rows[q]:
            if u in unc and u not in s.rows[x]:
                return False, (x, u)
    return True, None
