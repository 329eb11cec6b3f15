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


def sup_con_star(plant: BuchiAutomaton, spec: StarLanguageHandle) -> StarLanguageHandle:
    """Supremal controllable (and prefix-closed) sublanguage of spec ^ L(plant).

    A product state is lost when the plant allows an uncontrollable event
    there that the product lacks, or when an uncontrollable product move
    leads to a lost state; the supervisor is the trimmed, minimized rest,
    and the empty language (a normal outcome, not an error) when the
    initial state is lost.
    """
    if spec.is_empty:
        return StarLanguageHandle(None)
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
        return StarLanguageHandle(None)
    product = StarAutomaton.from_rows(alphabet, rows, 0)
    return StarLanguageHandle(
        minimize_prefix_closed(restrict(product, set(range(len(order))) - lost)))


def controlled_plant(plant: BuchiAutomaton, sup: StarLanguageHandle) -> BuchiAutomaton:
    """The closed loop as a Buchi automaton: the supervisor's transition
    structure, marked at the states some string reaches while the plant
    ends in an accepting state (`buchi_lift`).

    The star layer is exact, the Buchi layer is not: the marking
    over-approximates plant ^ lim(SUP*).  A cycle of marked supervisor
    states may be run by a word whose plant run never meets an accepting
    plant state.  On the bundled factory the lifted automaton accepts
    a1 b1 (a2 b2 g2)^omega, which starves buffer 1's removal fairness,
    while the exact closed loop has 14 states, 8 of them accepting.
    """
    if sup.is_empty:
        raise AutomatonError("empty supervisor has no controlled plant")
    return BuchiAutomaton(sup.automaton, buchi_lift(sup.automaton, plant))


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
