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
from .omega import StarLanguageHandle
from .omegasynth import OmegaSupervisor


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


def profile_safety(plant: BuchiAutomaton, sup: StarLanguageHandle,
                   alpha: Event) -> EnableDisableProfile:
    """Enable/disable summary of the safety supervisor for one event, with
    disablement witnessed against the plant over all strings."""
    if alpha not in plant.alphabet.controllable:
        raise AutomatonError(f"event {alpha!r} is not controllable")
    if sup.is_empty:
        raise AutomatonError("empty supervisor has no profile")
    return _profile(sup.automaton, alpha, Part.NONE, _witnesses(sup.automaton, plant.core))


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
    return _profile(sup.automaton, alpha, part,
                    _witnesses(sup.automaton, controlled_plant.core, sup.tracker, sup.tracker_sink))


def _witnesses(aut: StarAutomaton, plant: StarAutomaton, tracker: Optional[StarAutomaton] = None,
               sink: State = None) -> dict[tuple[Event, Part], set[State]]:
    """Per (controllable event, scope): the states of `aut` that some string
    reaches while its joint run in the plant reaches a plant state where the
    event is defined, from one walk of `aut` x plant (x tracker).  Without a
    tracker only the scope NONE is filled; with one, a string is in scope C1
    while the tracker is off its sink and in C2 once it is on it, and NONE
    holds both."""
    ctrl, plant_rows = plant.alphabet.controllable, plant.rows
    out: dict[tuple[Event, Part], set[State]] = {
        (e, part): set() for e in ctrl for part in Part}
    for v in lockstep(aut, plant) if tracker is None else lockstep(aut, plant, tracker):
        x = v[0]
        parts = (Part.NONE,) if tracker is None else (Part.NONE, Part.C1 if v[2] != sink else Part.C2)
        for e in plant_rows[v[1]]:
            if e in ctrl:
                for part in parts:
                    out[e, part].add(x)
    return out


def _profile(aut: StarAutomaton, alpha: Event, part: Part,
             witnesses: dict[tuple[Event, Part], set[State]]) -> EnableDisableProfile:
    """Profile of `aut` for alpha.  A state disables alpha when alpha is
    undefined there and it is one of the `_witnesses` of (alpha, part)."""
    witness = witnesses[alpha, part]
    rows = aut.rows
    enable = {x: alpha in rows[x] for x in aut.states}
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

    When no reachable state enables the event, or none must disable it, the
    answer is the one cell of all reachable states, returned without a
    scan: no cell can get both flags, so no merge (of the seed or of the
    scan) is refused and the scan joins everything into cell 0.

    Only pairs of current roots are tried, in the order of the plain
    pairwise scan; every trial skipped would be refused.  A refused trial
    leaves the partition as it was, and a trial refused on a partition
    stays refused on any coarser one: the closure from a coarser partition
    is coarser, and flags only accumulate.  So once row i of the scan is
    done, the cell of i has been joined with, or refused against, the cell
    of every later position.  A non-root position stands for its root's
    cell, and that root's own row, or its earlier column in the current
    row, has settled the pair.  Two roots with opposite flags (one
    enables, the other must disable) are refused at the first step.  Once
    i stops being a root, the rest of its row is settled the same way.
    """
    order = reachable_states(sup_automaton)
    enables = [p.enable.get(x, False) for x in order]
    disables = [p.disable.get(x, False) for x in order]
    if not (any(enables) and any(disables)):
        return ControlCongruence((frozenset(order),), dict.fromkeys(order, 0))
    pos = {x: i for i, x in enumerate(order)}
    # per cell root (its least position): the two flags and the events the
    # cell defines, each with the position of one successor of the cell
    parent = list(range(len(order)))
    succ = [{e: pos[t] for e, t in sup_automaton.rows[x].items()} for x in order]

    def merge(i: int, j: int) -> bool:
        """Join the cells of i and j and close; undo it all from the log and
        return False when some cell gets both flags."""
        log = []
        pending = [(i, j)]
        while pending:
            ra, rb = pending.pop()
            while parent[ra] != ra:
                ra = parent[ra]
            while parent[rb] != rb:
                rb = parent[rb]
            if ra == rb:
                continue
            if rb < ra:
                ra, rb = rb, ra
            row = succ[ra]
            log.append((ra, rb, enables[ra], disables[ra], row))
            parent[rb] = ra
            enables[ra] |= enables[rb]
            disables[ra] |= disables[rb]
            if enables[ra] and disables[ra]:
                for a, b, en, dis, old in reversed(log):
                    parent[b], enables[a], disables[a], succ[a] = b, en, dis, old
                return False
            row = succ[ra] = row.copy()
            for e, t in succ[rb].items():
                s = row.setdefault(e, t)
                if s != t:
                    pending.append((s, t))
        return True

    for cell in (seed.cells if seed is not None else ()):
        first, *rest = sorted(pos[x] for x in cell)
        if not all(merge(first, i) for i in rest):
            raise AutomatonError(f"seed congruence is not consistent with the profile of {p.event!r}")
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if parent[i] != i:
                break
            if parent[j] != j or (enables[i] and disables[j]) or (disables[i] and enables[j]):
                continue
            merge(i, j)

    # roots are least positions, so parent[i] < i off a root and one pass in
    # order leaves every position pointing at its root; cells are numbered
    # in order of their roots, that is, by first member
    for i, r in enumerate(parent):
        parent[i] = parent[r]
    number = {r: k for k, r in enumerate(sorted(set(parent)))}
    index = {x: number[r] for x, r in zip(order, parent)}
    members: list[list[State]] = [[] for _ in number]
    for x, k in index.items():
        members[k].append(x)
    return ControlCongruence(tuple(map(frozenset, members)), index)


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
    return (covered == set(reachable_states(sup_automaton))
            and _cell_moves(sup_automaton, cong) is not None)


def _cell_moves(sup_automaton: StarAutomaton, cong: ControlCongruence
                ) -> Optional[list[dict[Event, int]]]:
    """Per cell, in alphabet order: the cell each event leads to from the
    cell's members; None when two members lead to two cells on one event."""
    rows, index, position = sup_automaton.rows, cong.index, sup_automaton.alphabet.position
    out = []
    for cell in cong.cells:
        moves: dict[Event, int] = {}
        for x in cell:
            for e, t in rows[x].items():
                if moves.setdefault(e, index[t]) != index[t]:
                    return None
        out.append(dict(sorted(moves.items(), key=lambda move: position[move[0]])))
    return out


def build_local_controller(
    sup_automaton: StarAutomaton,
    cong: ControlCongruence,
    event: Event,
    kind: Kind,
    part: Part = Part.NONE,
) -> LocalController:
    """Quotient the supervisor by the congruence; determinism of the result
    follows from forward closure."""
    cell_moves = _cell_moves(sup_automaton, cong)
    if cell_moves is None:
        raise AutomatonError("cover is not forward-closed")
    aut = StarAutomaton.from_rows(sup_automaton.alphabet, dict(enumerate(cell_moves)),
                                  cong.index[sup_automaton.initial])
    return LocalController(aut, event, kind, part)


def localize_all(
    plant: BuchiAutomaton,
    sup_star: StarLanguageHandle,
    controlled: BuchiAutomaton,
    sup_omega: OmegaSupervisor,
) -> list[LocalController]:
    """One safety controller per controllable event plus two liveness
    controllers (one per scope) per controllable event.

    Each supervisor is walked once: SUP* x plant gives the disablement
    witnesses of every safety profile, and SUPw x controlled plant x
    tracker those of every liveness profile, in every scope (`_witnesses`).
    The per-event entry points `profile_safety` and `profile_liveness`
    build the same profiles, each from a walk of its own.

    Each scoped liveness merging starts from the undivided congruence for its
    event.  That seed is always consistent with the scoped profile, since
    restricting the scope only removes disablement witnesses and so only
    clears "must disable" flags; `build_congruence` checks this and raises
    AutomatonError otherwise.  This guarantees the scoped controllers never
    exceed the undivided localization in size.  When the scoped profile's
    `disable` map equals the undivided one's, the undivided congruence is
    the scoped one and no merging runs: the flags are the same, and every
    pair of its roots was refused under them, so the seeded scan would
    return the seed.
    """
    events = sorted(plant.alphabet.controllable, key=plant.alphabet.index)
    out: list[LocalController] = []
    if not events:
        return out
    if sup_star.is_empty:
        raise AutomatonError("empty supervisor has no profile")
    star = sup_star.automaton
    witnesses = _witnesses(star, plant.core)
    for alpha in events:
        cong = build_congruence(star, _profile(star, alpha, Part.NONE, witnesses))
        out.append(build_local_controller(star, cong, alpha, Kind.SAFETY))
    omega = sup_omega.automaton
    witnesses = _witnesses(omega, controlled.core, sup_omega.tracker, sup_omega.tracker_sink)
    for alpha in events:
        undivided = _profile(omega, alpha, Part.NONE, witnesses)
        base = build_congruence(omega, undivided)
        for part in (Part.C1, Part.C2):
            scoped = _profile(omega, alpha, part, witnesses)
            cong = (base if scoped.disable == undivided.disable
                    else build_congruence(omega, scoped, seed=base))
            out.append(build_local_controller(omega, cong, alpha, Kind.LIVENESS, part))
    return out
