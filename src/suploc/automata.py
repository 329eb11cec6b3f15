"""Deterministic explicit-state automata: star, Buchi and Rabin-Buchi layers.

State identifiers are arbitrary hashable values (``None`` is reserved as the
reject result of a run).  Every operation that builds a new state space does
so with `explore`, the one place where the numbering policy lives: states are
numbered densely, breadth-first from the initial state, iterating events in
alphabet order, so the outputs are reproducible.  Liveness questions ("can
this state reach a cycle through a good state?") all go through
`states_reaching_cycle`; on an automaton's own acceptance, through
`live_states`.  Acceptance comes from the automaton's type
(`acceptance_pair`).

The successor index is `StarAutomaton.rows`, per state ``{event: target}``
in alphabet order; an automaton stores no other transition data.  Input is
validated where it enters, by the `StarAutomaton` constructor and by
`textio.parse_automaton`; rows built inside the package (by `explore` and the
operations below) go to `StarAutomaton.from_rows` unchecked.  Every walk
reads a state's row rather than probing `transitions`, a read-only view.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

State = Hashable
Event = str
Word = tuple[Event, ...]


class AutomatonError(ValueError):
    pass


@dataclass(frozen=True)
class Alphabet:
    """Global event set and its controllable events.

    `uncontrollable` (the other events) and `position` (each event's place
    in `events`) are derived from the two fields, so they take no part in
    construction, equality, hashing or repr.
    """

    events: tuple[Event, ...]
    controllable: frozenset[Event]
    uncontrollable: frozenset[Event] = field(init=False, repr=False, compare=False)
    position: dict[Event, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "position", {e: i for i, e in enumerate(self.events)})
        if len(self.position) != len(self.events):
            raise AutomatonError("duplicate event labels")
        if any(not e for e in self.events):
            raise AutomatonError("empty event label")
        unknown = self.controllable.difference(self.events)
        if unknown:
            raise AutomatonError(f"controllable events not in event set: {sorted(unknown)}")
        object.__setattr__(self, "uncontrollable", frozenset(self.events) - self.controllable)

    @classmethod
    def make(cls, events: Iterable[Event], controllable: Iterable[Event] = ()) -> "Alphabet":
        return cls(tuple(events), frozenset(controllable))

    def index(self, event: Event) -> int:
        return self.position[event]

    def __contains__(self, event: Event) -> bool:
        return event in self.position


Rows = dict[State, dict[Event, State]]


class TransitionView(Mapping):
    """Read-only ``(state, event) -> target`` view over per-state rows, in
    row order: an automaton's `transitions`."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Rows):
        self._rows = rows

    def __getitem__(self, key):
        try:
            return self._rows[key[0]][key[1]]
        except KeyError:
            raise KeyError(key) from None

    def __iter__(self):
        for q, row in self._rows.items():
            for e in row:
                yield q, e

    def __len__(self):
        return sum(map(len, self._rows.values()))

    def __repr__(self):
        return repr(dict(self.items()))


@dataclass(frozen=True, init=False)
class StarAutomaton:
    """Deterministic partial automaton; every state accepts (prefix-closed language).

    `rows` is the one successor index and `states` are its keys, in order.
    The constructor checks a caller's (state, event) -> target mapping and
    keeps rows built from it, not the mapping; `from_rows` trusts its rows.
    """

    alphabet: Alphabet
    states: tuple[State, ...]
    initial: State
    rows: Rows

    def __init__(self, alphabet: Alphabet, states: Sequence[State], initial: State,
                 transitions: Mapping[tuple[State, Event], State]):
        rows: Rows = {q: {} for q in states}
        if len(rows) != len(states):
            raise AutomatonError("duplicate states")
        if initial not in rows:
            raise AutomatonError("initial state not in state set")
        for (q, e), t in transitions.items():
            if q not in rows or t not in rows:
                raise AutomatonError(f"transition {(q, e, t)} uses unknown state")
            if e not in alphabet:
                raise AutomatonError(f"transition on unknown event {e!r}")
            rows[q][e] = t
        rows = {q: {e: row[e] for e in sorted(row, key=alphabet.index)} for q, row in rows.items()}
        vars(self).update(alphabet=alphabet, states=tuple(rows), initial=initial, rows=rows)

    @classmethod
    def from_rows(cls, alphabet: Alphabet, rows: Rows, initial: State) -> "StarAutomaton":
        """The automaton on the keys of `rows`, in order, with their rows as
        successors, taken over unchecked: `initial` and every target must be
        a key, every event in `alphabet` and every row in alphabet order."""
        aut = object.__new__(cls)
        vars(aut).update(alphabet=alphabet, states=tuple(rows), initial=initial, rows=rows)
        return aut

    @property
    def transitions(self) -> Mapping[tuple[State, Event], State]:
        return TransitionView(self.rows)

    def enabled(self, q: State) -> tuple[Event, ...]:
        return tuple(self.rows[q])

    def moves(self, q: State) -> Iterable[tuple[Event, State]]:
        """(event, target) pairs of the transitions leaving q, in alphabet order."""
        return self.rows[q].items()

    def targets(self, q: State) -> Iterable[State]:
        """Targets of the transitions leaving q, in alphabet order."""
        return self.rows[q].values()

    def step(self, q: State, e: Event) -> Optional[State]:
        if e not in self.alphabet:
            raise AutomatonError(f"unknown event {e!r}")
        return self.rows[q].get(e)

    def is_total(self) -> bool:
        n = len(self.alphabet.events)
        return all(len(row) == n for row in self.rows.values())

    def n_transitions(self) -> int:
        return sum(map(len, self.rows.values()))


@dataclass(frozen=True)
class BuchiAutomaton:
    core: StarAutomaton
    accepting: frozenset[State]

    def __post_init__(self):
        if not self.accepting <= set(self.core.states):
            raise AutomatonError("accepting set not a subset of states")

    @property
    def alphabet(self) -> Alphabet:
        return self.core.alphabet


@dataclass(frozen=True)
class RabinBuchiAutomaton:
    """One transition structure carrying a Buchi set and one Rabin pair,
    held as the 1-tuple `rabin_pairs`.

    The Rabin convention is: a run is accepted by the pair (R, I) iff the
    set of states visited infinitely often meets R and stays inside I.
    """

    core: StarAutomaton
    buchi: frozenset[State]
    rabin_pairs: tuple[tuple[frozenset[State], frozenset[State]], ...]

    def __post_init__(self):
        if len(self.rabin_pairs) != 1:
            raise AutomatonError(f"expected one Rabin pair, got {len(self.rabin_pairs)}")
        states = set(self.core.states)
        if not self.buchi <= states:
            raise AutomatonError("buchi set not a subset of states")
        r, i = self.rabin_pairs[0]
        if not (r <= states and i <= states):
            raise AutomatonError("rabin pair not a subset of states")

    @property
    def alphabet(self) -> Alphabet:
        return self.core.alphabet

    def single_pair(self) -> tuple[frozenset[State], frozenset[State]]:
        return self.rabin_pairs[0]


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic word stem . cycle^omega."""

    stem: Word
    cycle: Word

    def __post_init__(self):
        if not self.cycle:
            raise AutomatonError("lasso cycle must be non-empty")

    def prefix(self, n: int) -> Word:
        out = list(self.stem)
        i = 0
        while len(out) < n:
            out.append(self.cycle[i % len(self.cycle)])
            i += 1
        return tuple(out[:n])


def run_star(a: StarAutomaton, word: Sequence[Event]) -> Optional[State]:
    """State reached on `word`, or None when some step is undefined."""
    q = a.initial
    for e in word:
        q = a.step(q, e)
        if q is None:
            return None
    return q


def omega_visit_set(core: StarAutomaton, w: LassoWord) -> Optional[frozenset[State]]:
    """States visited infinitely often by the unique run on w, or None if the
    run falls off the transition function (an event outside the alphabet
    has no transition).

    The run is deterministic, so once a pass over the cycle starts in a
    state an earlier pass started in, the passes in between repeat forever:
    the states they visit are the answer.  At most |Q| + 1 passes run."""
    rows = core.rows
    q = core.initial
    for e in w.stem:
        q = rows[q].get(e)
        if q is None:
            return None
    cycle = w.cycle
    pass_start: dict[State, int] = {}
    trace: list[State] = []
    while q not in pass_start:
        pass_start[q] = len(trace)
        for e in cycle:
            trace.append(q)
            q = rows[q].get(e)
            if q is None:
                return None
    return frozenset(trace[pass_start[q]:])


def run_lasso(aut: BuchiAutomaton | RabinBuchiAutomaton, w: LassoWord) -> bool:
    """Whether the automaton accepts the lasso word, by the acceptance its
    type carries (see `acceptance_pair`)."""
    omega = omega_visit_set(aut.core, w)
    if omega is None:
        return False
    if isinstance(aut, BuchiAutomaton):
        return not omega.isdisjoint(aut.accepting)
    r, i = aut.single_pair()
    return not omega.isdisjoint(r) and omega <= i


def acceptance_pair(aut: BuchiAutomaton | RabinBuchiAutomaton
                    ) -> tuple[frozenset[State], frozenset[State]]:
    """(R, I) view of an automaton's acceptance: a run is accepted when the
    states it visits infinitely often meet R and stay inside I.  A Buchi
    set F is (F, every state); a Rabin-Buchi automaton answers with its
    single pair, and its Buchi layer is asked as
    ``BuchiAutomaton(aut.core, aut.buchi)``."""
    if isinstance(aut, BuchiAutomaton):
        return aut.accepting, frozenset(aut.core.states)
    return aut.single_pair()


def lasso_in_star(a: StarAutomaton, w: LassoWord) -> bool:
    """Whether every finite prefix of w stays inside the automaton's language."""
    return omega_visit_set(a, w) is not None


def explore(init: State, succ: Callable[[State], Iterable[tuple[Event, State]]]
            ) -> tuple[list[State], Rows]:
    """Breadth-first exploration of the nodes reachable from `init`.

    `succ(v)` yields the (event, w) moves of node v in alphabet order.
    Returns the nodes in visit order (`init` first) and their rows on visit
    indices: ``rows[i]`` is ``{event: j}`` in the order `succ` yielded the
    moves.  The indices are the dense breadth-first numbering that every
    constructed state space uses, so ``StarAutomaton.from_rows(alphabet,
    rows, 0)`` is the explored automaton.
    """
    num = {init: 0}
    order = [init]
    rows: Rows = {}
    for i, v in enumerate(order):  # `order` grows while it is walked: the queue
        row = rows[i] = {}
        for e, w in succ(v):
            j = num.get(w)
            if j is None:
                j = num[w] = len(order)
                order.append(w)
            row[e] = j
    return order, rows


def bfs_word(rows: Rows, target: int) -> Word:
    """The word leading from index 0 to `target` along the breadth-first tree
    of an `explore` result (each index's first incoming move)."""
    parent: dict[int, tuple[int, Event]] = {}
    for i, row in rows.items():
        for e, j in row.items():
            parent.setdefault(j, (i, e))
    word = []
    while target != 0:
        target, e = parent[target]
        word.append(e)
    return tuple(reversed(word))


def pair_moves(a: StarAutomaton, b: StarAutomaton):
    """Successor function of the synchronous product of two automata over the
    same alphabet: the events defined in both, in alphabet order."""
    rows_a, rows_b = a.rows, b.rows

    def succ(v):
        row_a, row_b = rows_a[v[0]], rows_b[v[1]]
        if len(row_a) <= len(row_b):
            return [(e, (ta, tb)) for e, ta in row_a.items()
                    if (tb := row_b.get(e)) is not None]
        return [(e, (ta, tb)) for e, tb in row_b.items()
                if (ta := row_a.get(e)) is not None]
    return succ


def lockstep(lead: StarAutomaton, *followers: StarAutomaton) -> list[tuple]:
    """Joint states reachable when `lead` moves on its defined events and every
    follower takes the same event, in breadth-first order.

    Requires L(lead) to be contained in every follower's language; a follower
    undefined along a string of `lead` raises.
    """
    lead_rows = lead.rows
    follower_rows = [f.rows for f in followers]

    def succ(v):
        lead_row = lead_rows[v[0]]
        rows = [fr[q] for fr, q in zip(follower_rows, v[1:])]
        try:
            return [(e, (t, *[row[e] for row in rows])) for e, t in lead_row.items()]
        except KeyError as exc:
            raise AutomatonError(f"a following automaton is undefined on event {exc.args[0]!r} "
                                 "along a string of the leading one") from None
    return explore((lead.initial, *(f.initial for f in followers)), succ)[0]


def reachable_states(a: StarAutomaton) -> list[State]:
    """Reachable states in BFS order (events iterated in alphabet order)."""
    return explore(a.initial, a.moves)[0]


def restrict(a: StarAutomaton, keep) -> StarAutomaton:
    """The part of `a` on the states in `keep` (which must hold the initial
    state): those states and the transitions between them, both in `a`'s
    order; ids are kept."""
    return StarAutomaton.from_rows(
        a.alphabet,
        {q: {e: t for e, t in row.items() if t in keep} for q, row in a.rows.items() if q in keep},
        a.initial,
    )


def reachable_trim(a: StarAutomaton) -> StarAutomaton:
    """Restrict to states reachable from the initial state; ids are kept."""
    reach = set(reachable_states(a))
    if len(reach) == len(a.states):
        return a
    return restrict(a, reach)


def renumber_bfs(a: StarAutomaton) -> StarAutomaton:
    """Renumber reachable states densely 0..n-1 in BFS order."""
    return StarAutomaton.from_rows(a.alphabet, explore(a.initial, a.moves)[1], 0)


def totalize(a: StarAutomaton) -> StarAutomaton:
    """Extend the transition function to a total one with a fresh sink state.

    The sink is appended as the last state (``result.states[-1]``); it carries
    self-loops on every event, so the original language is recovered by
    dropping the sink again.  Already-total automata are returned unchanged.
    """
    if a.is_total():
        return a
    sink: State = "sink"
    n = 0
    while sink in a.states:
        sink = f"sink{n}"
        n += 1
    events = a.alphabet.events
    rows = {q: {e: row.get(e, sink) for e in events} for q, row in a.rows.items()}
    rows[sink] = dict.fromkeys(events, sink)
    return StarAutomaton.from_rows(a.alphabet, rows, a.initial)


def sink_tracker(a: StarAutomaton) -> tuple[StarAutomaton, Optional[State]]:
    """The trim part of `a`, totalized; returns it with its sink state, or
    None as the sink when the trim part is already total."""
    trimmed = reachable_trim(a)
    tracker = totalize(trimmed)
    return tracker, (None if tracker is trimmed else tracker.states[-1])


def alphabet_union(alphabets: Iterable[Alphabet]) -> Alphabet:
    """Union of event sets, in order of first appearance.  Raises when two
    alphabets disagree on whether an event is controllable."""
    events: dict[Event, bool] = {}
    for al in alphabets:
        for e in al.events:
            ctrl = e in al.controllable
            if events.setdefault(e, ctrl) != ctrl:
                raise AutomatonError(f"event {e!r} is controllable in one component only")
    return Alphabet.make(events, [e for e, ctrl in events.items() if ctrl])


def check_alphabet(part: Alphabet, alphabet: Alphabet, *, same: bool = False) -> None:
    """Raise unless every event of `part` is in `alphabet` and controllable
    in both or in neither; with `same`, unless both also list the same
    events in the same order."""
    if same and part.events != alphabet.events:
        raise AutomatonError("alphabet mismatch")
    for e in part.events:
        if e not in alphabet:
            missing = sorted(f for f in part.events if f not in alphabet)
            raise AutomatonError(f"component event(s) {missing} not in global alphabet")
        if (e in part.controllable) != (e in alphabet.controllable):
            raise AutomatonError(f"event {e!r} is controllable in one alphabet only")


def extend_alphabet(a: StarAutomaton | BuchiAutomaton, alphabet: Alphabet):
    """Re-declare `a` over `alphabet`, a superset of its events that agrees
    on their controllability; every added event self-loops at every state,
    so the automaton ignores it."""
    if isinstance(a, BuchiAutomaton):
        return BuchiAutomaton(extend_alphabet(a.core, alphabet), a.accepting)
    check_alphabet(a.alphabet, alphabet)
    old = a.alphabet.position
    return StarAutomaton.from_rows(
        alphabet,
        {q: {e: row[e] if e in old else q for e in alphabet.events if e in row or e not in old}
         for q, row in a.rows.items()},
        a.initial)


def sync_product(components: Sequence[StarAutomaton], alphabet: Alphabet) -> StarAutomaton:
    """Synchronous product over a global alphabet.

    An event shared by several components moves them together; an event
    absent from a component's alphabet leaves that component in place.  Only
    reachable product states are materialized, renumbered in BFS order.
    Every component must agree with `alphabet` on which events are
    controllable.
    """
    for c in components:
        check_alphabet(c.alphabet, alphabet)
    comp_rows = [c.rows for c in components]
    # per event, in alphabet order: the positions of the components it moves
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


def all_accepting(a: StarAutomaton) -> BuchiAutomaton:
    """Buchi automaton for the limit of the automaton's prefix-closed language."""
    return BuchiAutomaton(a, frozenset(a.states))


def buchi_intersection(a: BuchiAutomaton, b: BuchiAutomaton) -> BuchiAutomaton:
    """Intersection of two deterministic Buchi automata.

    When one operand accepts on every state, the plain product with the other
    operand's marking is returned.  Otherwise the standard two-phase counter
    is used: phase 0 owes a visit to `a`'s set, phase 1 owes `b`'s; the phase
    advances when the owed set is hit at the source of a transition, and a
    state is accepting exactly when it hits the set its phase owes.  A run
    visits accepting states infinitely often iff both operand sets are
    visited infinitely often.
    """
    check_alphabet(a.alphabet, b.alphabet, same=True)
    if set(a.core.states) <= a.accepting or set(b.core.states) <= b.accepting:
        order, rows = explore((a.core.initial, b.core.initial), pair_moves(a.core, b.core))
        acc = (i for i, (qa, qb) in enumerate(order)
               if qa in a.accepting and qb in b.accepting)
    else:
        # `explore`'s loop with the phase-counter successor inlined: this
        # runs once per product state
        rows_a, rows_b, acc_a, acc_b = a.core.rows, b.core.rows, a.accepting, b.accepting
        init = (a.core.initial, b.core.initial, 0)
        num = {init: 0}
        order = [init]
        rows = {}
        acc = []
        for i, (qa, qb, phase) in enumerate(order):
            if (qa in acc_a) if phase == 0 else (qb in acc_b):
                acc.append(i)
                phase = 1 - phase
            row = rows[i] = {}
            row_b = rows_b[qb]
            for e, ta in rows_a[qa].items():
                tb = row_b.get(e)
                if tb is not None:
                    w = (ta, tb, phase)
                    j = num.get(w)
                    if j is None:
                        j = num[w] = len(order)
                        order.append(w)
                    row[e] = j
    return BuchiAutomaton(StarAutomaton.from_rows(a.alphabet, rows, 0), frozenset(acc))


def compose_plant(components: Sequence[StarAutomaton | BuchiAutomaton],
                  alphabet: Alphabet) -> BuchiAutomaton:
    """The plant over `alphabet`: the synchronous product of the star
    components, intersected with each Buchi component (a liveness
    assumption) in the given order.  Any other kind of component raises."""
    for c in components:
        if not isinstance(c, (StarAutomaton, BuchiAutomaton)):
            raise AutomatonError("a plant component must be a StarAutomaton or a "
                                 f"BuchiAutomaton, got {type(c).__name__}")
    plant = all_accepting(sync_product(
        [c for c in components if isinstance(c, StarAutomaton)], alphabet))
    for c in components:
        if isinstance(c, BuchiAutomaton):
            plant = buchi_intersection(plant, extend_alphabet(c, alphabet))
    return plant


def buchi_lift(target: StarAutomaton, reference: BuchiAutomaton) -> frozenset[State]:
    """States of `target` reachable by some string whose run in `reference`
    ends in an accepting state.

    Requires L(target) to be contained in L(reference); a string of the
    target that falls off the reference raises.
    """
    check_alphabet(target.alphabet, reference.alphabet, same=True)
    return frozenset(qt for qt, qr in lockstep(target, reference.core)
                     if qr in reference.accepting)


def minimize_prefix_closed(a: StarAutomaton) -> StarAutomaton:
    """Language-preserving state minimization for a trim, all-accepting
    partial automaton (Moore refinement on enabled-event signatures)."""
    states = reachable_states(a)
    block = {q: 0 for q in states}
    nblocks = 1
    rows = a.rows
    while True:
        sig = {q: (tuple(rows[q]), tuple(block[t] for t in rows[q].values())) for q in states}
        ids: dict = {}
        newblock = {}
        for q in states:
            newblock[q] = ids.setdefault(sig[q], len(ids))
        if len(ids) == nblocks:
            break
        block, nblocks = newblock, len(ids)
    reps: dict = {}
    cell_of = {}
    for q in states:
        if block[q] not in reps:
            reps[block[q]] = q
        cell_of[q] = reps[block[q]]
    out = StarAutomaton.from_rows(
        a.alphabet,
        {q: {e: cell_of[t] for e, t in rows[q].items()} for q in states if cell_of[q] == q},
        cell_of[a.initial])
    return renumber_bfs(out)


def tarjan_scc(states: Iterable[State], succ) -> list[list[State]]:
    """Strongly connected components (iterative Tarjan), in discovery order."""
    index = {}
    low = {}
    onstack = set()
    stack: list[State] = []
    sccs: list[list[State]] = []
    counter = [0]

    for root in states:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                elif w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def cyclic_sccs(states: Iterable[State], succ) -> Iterator[list[State]]:
    """The strongly connected components that carry a cycle (more than one
    state, or one state with a self-loop), in discovery order."""
    for comp in tarjan_scc(states, succ):
        if len(comp) > 1 or comp[0] in succ(comp[0]):
            yield comp


def states_reaching_cycle(states: Sequence[State], succ, good, inside=None) -> set[State]:
    """States from which `succ` reaches a cycle through a state of `good`.

    `succ` must map `states` into `states`.  With `inside`, only cycles that
    stay within that set count; the path leading to the cycle may leave it.
    """
    if inside is None:
        cyc_states, cyc_succ = states, succ
    else:
        cyc_states = [q for q in states if q in inside]

        def cyc_succ(q):
            return [t for t in succ(q) if t in inside]
    found: set[State] = set()
    for comp in cyclic_sccs(cyc_states, cyc_succ):
        if not good.isdisjoint(comp):
            found.update(comp)
    if not found:
        return found
    preds: dict[State, list[State]] = {q: [] for q in states}
    for q in states:
        for t in succ(q):
            preds[t].append(q)
    stack = list(found)
    while stack:
        for q in preds[stack.pop()]:
            if q not in found:
                found.add(q)
                stack.append(q)
    return found


def live_states(aut: BuchiAutomaton | RabinBuchiAutomaton) -> set[State]:
    """Reachable states from which some run is accepted: those that reach a
    cycle meeting R and staying inside I, for the (R, I) of
    `acceptance_pair`."""
    r, i = acceptance_pair(aut)
    core = aut.core
    return states_reaching_cycle(reachable_states(core), core.targets, r, inside=i)
