"""Decomposition of supervisors into per-event local controllers.

A supervisor's control action on one controllable event is summarized by an
enable function (the event is defined at the state) and a disable function
(the event is undefined but some matching plant state allows it, witnessed by
a string of the relevant scope).  States whose enable/disable decisions never
conflict can share a cell of a control congruence: a partition that is
pairwise consistent inside every cell and whose cells map into single cells
under every event.  Pairwise consistency of a cell reduces to two flags: the
cell is consistent unless some member enables the event and some member must
disable it.  The quotient of the supervisor by such a congruence is a local
controller for the event.  The greedy construction is the congruence step of
Su & Wonham's supervisor reduction (DEDS 2004) as used by Cai & Wonham's
supervisor localization (IEEE TAC 2010).

Liveness supervisors are split into two scopes per event: strings inside the
prefixes of the minimal acceptable behavior and strings outside them.  Each
scope gets its own controller, which in general is smaller than a controller
localized from the undivided disablement information.
"""

from __future__ import annotations

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
    """Greedy merging into a control congruence, by congruence closure.

    State pairs are visited in canonical (BFS numbering) order.  Joining a
    pair also joins the cells' successors event by event until the
    partition is forward-closed again; the merge is kept when no cell has
    both flags set (some member enables, some member must disable) and is
    undone otherwise.  Each outcome depends only on the least forward-closed
    coarsening that joins the pair, not on the order of the joins.

    A `seed` congruence is joined by the same closure first; AutomatonError
    is raised when it is not consistent with the profile.  Merging only
    coarsens it, so the result never has more cells than the seed.
    """
    order = reachable_states(sup_automaton)
    pos = {x: i for i, x in enumerate(order)}
    trans = sup_automaton.transitions
    # per cell root (its least position): the two flags and, per event, the
    # position of one successor of the cell
    parent = list(range(len(order)))
    enables = [p.enable.get(x, False) for x in order]
    disables = [p.disable.get(x, False) for x in order]
    succ = [[pos.get(trans.get((x, e))) for e in sup_automaton.alphabet.events]
            for x in order]

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    def merge(i: int, j: int) -> bool:
        """Join the cells of i and j and close; undo it all from the log and
        return False when some cell gets both flags."""
        log = []
        pending = [(i, j)]
        while pending:
            ra, rb = sorted(map(find, pending.pop()))
            if ra == rb:
                continue
            log.append((ra, rb, enables[ra], disables[ra], succ[ra]))
            parent[rb] = ra
            enables[ra] |= enables[rb]
            disables[ra] |= disables[rb]
            if enables[ra] and disables[ra]:
                for a, b, en, dis, row in reversed(log):
                    parent[b], enables[a], disables[a], succ[a] = b, en, dis, row
                return False
            pending.extend((s, t) for s, t in zip(succ[ra], succ[rb])
                           if s is not None and t is not None)
            succ[ra] = [t if s is None else s for s, t in zip(succ[ra], succ[rb])]
        return True

    for cell in (seed.cells if seed is not None else ()):
        first, *rest = sorted(pos[x] for x in cell)
        if not all(merge(first, i) for i in rest):
            raise AutomatonError(f"seed congruence is not consistent with the profile of {p.event!r}")
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if find(i) != find(j):
                merge(i, j)

    # roots are least positions: numbered in order, cells go by first member
    roots = [find(i) for i in range(len(order))]
    number = {r: k for k, r in enumerate(sorted(set(roots)))}
    index = {x: number[r] for x, r in zip(order, roots)}
    cells = tuple(frozenset(x for x in order if index[x] == k) for k in range(len(number)))
    return ControlCongruence(cells, index)


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
    event.  That seed is always consistent with the scoped profile, since
    restricting the scope only removes disablement witnesses and so only
    clears "must disable" flags; `build_congruence` checks this and raises
    AutomatonError otherwise.  This guarantees the scoped controllers never
    exceed the undivided localization in size.
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
