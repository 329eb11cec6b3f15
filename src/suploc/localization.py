"""Decomposition of supervisors into per-event local controllers.

A supervisor's control action on one controllable event is summarized by an
enable function (the event is defined at the state) and a disable function
(the event is undefined but some matching plant state allows it, witnessed by
a string of the relevant scope).  States whose enable/disable decisions never
conflict can share a cell of a control congruence: a partition that is
pairwise consistent inside every cell and whose cells map into single cells
under every event.  The quotient of the supervisor by such a congruence is a
local controller for the event.

Liveness supervisors are split into two scopes per event: strings inside the
prefixes of the minimal acceptable behavior and strings outside them.  Each
scope gets its own controller, which in general is smaller than a controller
localized from the undivided disablement information.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .automata import (
    AutomatonError,
    BuchiAutomaton,
    Event,
    StarAutomaton,
    State,
    lockstep,
    reachable_states,
)
from .omegasynth import OmegaSupervisor
from .safety import SafetySupervisor


class Part(Enum):
    NONE = "none"
    C1 = "c1"
    C2 = "c2"


class Kind(Enum):
    SAFETY = "safety"
    LIVENESS = "liveness"


@dataclass(frozen=True)
class EnableDisableProfile:
    event: Event
    enable: dict[State, bool]
    disable: dict[State, bool]
    part: Part = Part.NONE

    def __post_init__(self):
        for x in self.enable:
            if self.enable[x] and self.disable.get(x):
                raise AutomatonError(f"state {x!r} both enables and disables {self.event!r}")


@dataclass(frozen=True)
class ControlCongruence:
    cells: tuple[frozenset[State], ...]
    index: dict[State, int]


@dataclass(frozen=True)
class LocalController:
    automaton: StarAutomaton
    event: Event
    kind: Kind
    part: Part = Part.NONE


def profile_safety(plant: BuchiAutomaton, sup: SafetySupervisor, alpha: Event) -> EnableDisableProfile:
    """Enable/disable summary of the safety supervisor for one event, with
    disablement witnessed against the plant over all strings."""
    if alpha not in plant.alphabet.controllable:
        raise AutomatonError(f"event {alpha!r} is not controllable")
    if sup.is_empty:
        raise AutomatonError("empty supervisor has no profile")
    return _profile(sup.automaton, alpha, Part.NONE, plant.core)


def profile_liveness(
    controlled_plant: BuchiAutomaton,
    sup: OmegaSupervisor,
    alpha: Event,
    part: Part,
) -> EnableDisableProfile:
    """Enable/disable summary of the liveness supervisor for one event.

    Disablement only counts at states reached by a string of the requested
    scope (inside or outside the prefixes of the minimal behavior), and the
    plant here is the safety-controlled plant, decided on the triple product
    supervisor x controlled plant x tracker.
    """
    if alpha not in controlled_plant.alphabet.controllable:
        raise AutomatonError(f"event {alpha!r} is not controllable")
    return _profile(sup.automaton, alpha, part, controlled_plant.core, sup.tracker,
                    sup.tracker_sink)


def _profile(aut: StarAutomaton, alpha: Event, part: Part, plant: StarAutomaton,
             tracker: Optional[StarAutomaton] = None, sink: State = None) -> EnableDisableProfile:
    """Profile of `aut` for alpha.  A state disables alpha when alpha is
    undefined there and some string reaching it, run jointly in the plant
    (and in the tracker, inside the scope `part` names), reaches a plant
    state where alpha is defined."""
    followers = (plant,) if tracker is None else (plant, tracker)
    witness = {v[0] for v in lockstep(aut, *followers)
               if (v[1], alpha) in plant.transitions
               and (part is Part.NONE or (v[2] != sink) == (part is Part.C1))}
    enable = {x: (x, alpha) in aut.transitions for x in aut.states}
    disable = {x: (not enable[x]) and (x in witness) for x in aut.states}
    return EnableDisableProfile(alpha, enable, disable, part)


def consistent(p: EnableDisableProfile, x: State, y: State) -> bool:
    """Control consistency: the event may not be enabled at one state while
    the other state must disable it."""
    ex = p.enable.get(x, False)
    ey = p.enable.get(y, False)
    dx = p.disable.get(x, False)
    dy = p.disable.get(y, False)
    return not (ex and dy) and not (ey and dx)


def build_congruence(
    sup_automaton: StarAutomaton,
    p: EnableDisableProfile,
    seed: Optional[ControlCongruence] = None,
) -> ControlCongruence:
    """Greedy pairwise merging into a control congruence.

    State pairs are visited in canonical (BFS numbering) order; a merge is
    kept when the merged cell stays pairwise consistent and its transitive
    forward-closure consequences do too, otherwise it is rolled back.  The
    singleton partition is always valid, so the procedure cannot fail.

    A `seed` congruence valid for this profile may be given as the starting
    partition; merging then only coarsens it, so the result never has more
    cells than the seed.
    """
    order = reachable_states(sup_automaton)
    pos = {x: i for i, x in enumerate(order)}
    events = sup_automaton.alphabet.events
    if seed is None:
        cell_of = {x: i for i, x in enumerate(order)}
        members: dict[int, set[State]] = {i: {x} for i, x in enumerate(order)}
    else:
        cell_of = {}
        members = {}
        for cell in seed.cells:
            rep = min(pos[x] for x in cell)
            members[rep] = set(cell)
            for x in cell:
                cell_of[x] = rep

    def try_merge(x0: State, y0: State) -> Optional[tuple[dict, dict]]:
        cell = dict(cell_of)
        mem = {k: set(v) for k, v in members.items()}
        pending = deque([(x0, y0)])
        while pending:
            x, y = pending.popleft()
            ra, rb = cell[x], cell[y]
            if ra == rb:
                continue
            if rb < ra:
                ra, rb = rb, ra
            for u in mem[ra]:
                for v in mem[rb]:
                    if not consistent(p, u, v):
                        return None
            mem[ra] |= mem[rb]
            for u in mem[rb]:
                cell[u] = ra
            del mem[rb]
            # propagate forward closure: successors of the grown cell must
            # share a cell, event by event
            for e in events:
                succs = [sup_automaton.transitions[(u, e)] for u in sorted(mem[ra], key=pos.get)
                         if (u, e) in sup_automaton.transitions]
                for s2 in succs[1:]:
                    if cell[s2] != cell[succs[0]]:
                        pending.append((succs[0], s2))
        return cell, mem

    n = len(order)
    for i in range(n):
        for j in range(i + 1, n):
            if cell_of[order[i]] == cell_of[order[j]]:
                continue
            merged = try_merge(order[i], order[j])
            if merged is not None:
                cell_of, members = merged

    cells = []
    seen_rep = {}
    for x in order:
        rep = cell_of[x]
        if rep not in seen_rep:
            seen_rep[rep] = len(cells)
            cells.append(set())
        cells[seen_rep[rep]].add(x)
    index = {x: seen_rep[cell_of[x]] for x in order}
    return ControlCongruence(tuple(frozenset(c) for c in cells), index)


def check_congruence(sup_automaton: StarAutomaton, p: EnableDisableProfile,
                     cong: ControlCongruence) -> bool:
    """Machine-check both congruence conditions after construction."""
    covered = set()
    for cell in cong.cells:
        covered |= cell
        for x in cell:
            for y in cell:
                if not consistent(p, x, y):
                    return False
    if covered != set(reachable_states(sup_automaton)):
        return False
    for cell in cong.cells:
        for e in sup_automaton.alphabet.events:
            targets = {cong.index[sup_automaton.transitions[(x, e)]]
                       for x in cell if (x, e) in sup_automaton.transitions}
            if len(targets) > 1:
                return False
    return True


def build_local_controller(
    sup_automaton: StarAutomaton,
    cong: ControlCongruence,
    event: Event,
    kind: Kind,
    part: Part = Part.NONE,
) -> LocalController:
    """Quotient the supervisor by the congruence; determinism of the result
    follows from forward closure."""
    trans: dict[tuple[State, Event], State] = {}
    for i, cell in enumerate(cong.cells):
        for e in sup_automaton.alphabet.events:
            targets = {cong.index[sup_automaton.transitions[(x, e)]]
                       for x in cell if (x, e) in sup_automaton.transitions}
            if len(targets) > 1:
                raise AutomatonError("cover is not forward-closed")
            if targets:
                trans[(i, e)] = targets.pop()
    aut = StarAutomaton(
        sup_automaton.alphabet,
        tuple(range(len(cong.cells))),
        cong.index[sup_automaton.initial],
        trans,
    )
    return LocalController(aut, event, kind, part)


def localize_all(
    plant: BuchiAutomaton,
    sup_star: SafetySupervisor,
    controlled: BuchiAutomaton,
    sup_omega: OmegaSupervisor,
) -> list[LocalController]:
    """One safety controller per controllable event plus two liveness
    controllers (one per scope) per controllable event.

    Each scoped liveness merging starts from the undivided congruence for its
    event (which is always valid for the scoped profile, since restricting
    the scope only removes disablement witnesses); this guarantees the scoped
    controllers never exceed the undivided localization in size.
    """
    out: list[LocalController] = []
    for alpha in sorted(plant.alphabet.controllable, key=plant.alphabet.index):
        prof = profile_safety(plant, sup_star, alpha)
        cong = build_congruence(sup_star.automaton, prof)
        out.append(build_local_controller(sup_star.automaton, cong, alpha, Kind.SAFETY))
    for alpha in sorted(plant.alphabet.controllable, key=plant.alphabet.index):
        undivided = profile_liveness(controlled, sup_omega, alpha, Part.NONE)
        base = build_congruence(sup_omega.automaton, undivided)
        for part in (Part.C1, Part.C2):
            prof = profile_liveness(controlled, sup_omega, alpha, part)
            cong = build_congruence(sup_omega.automaton, prof, seed=base)
            out.append(build_local_controller(sup_omega.automaton, cong, alpha,
                                              Kind.LIVENESS, part))
    return out
