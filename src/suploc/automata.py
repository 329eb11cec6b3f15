"""Deterministic explicit-state automata: star, Buchi and Rabin-Buchi layers.

State identifiers are arbitrary hashable values (``None`` is reserved as the
reject result of a run).  Every operation that builds a new state space does
so with `explore`, the one place where the numbering policy lives: states are
numbered densely, breadth-first from the initial state, iterating events in
alphabet order, so the outputs are reproducible.  The one exception is
`ImplicitProduct`, which numbers a joint state when a walk first meets it;
that numbering is private to the object, never written or compared.
`product_moves` is the one successor of a synchronous product of automata
over one alphabet, built whole (`sync_product`) or on demand
(`ImplicitProduct`); a component over fewer events is first lifted by
`extend_alphabet`, the one place where an event outside a component's
alphabet leaves it in place.
Liveness questions ("can this state reach a cycle through a good state?")
all go through `good_sccs`, and the states that reach such a cycle come
from `states_reaching_cycle`; on an automaton's own acceptance, from
`live_states`.  Every omega-automaton is one record, `OmegaAutomaton`,
whose acceptance is its `pair` (R, I); `BuchiAutomaton` and
`RabinBuchiAutomaton` are its two shapes.

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

    def is_total(self) -> bool:
        n = len(self.alphabet.events)
        return all(len(row) == n for row in self.rows.values())

    def n_transitions(self) -> int:
        return sum(map(len, self.rows.values()))


Pair = tuple[frozenset[State], frozenset[State]]


@dataclass(frozen=True)
class OmegaAutomaton:
    """One transition structure carrying a Buchi layer and at most one Rabin
    pair, held as the tuple `rabin_pairs`.

    `pair` is the acceptance (R, I): a run is accepted when the set of
    states it visits infinitely often meets R and stays inside I.  It is
    the Rabin pair when there is one, else (buchi, every state), so a
    Buchi layer is asked on its own as ``BuchiAutomaton(aut.core,
    aut.buchi)``.  `pair` is derived, so it takes no part in construction,
    equality, hashing or repr.
    """

    core: StarAutomaton
    buchi: frozenset[State]
    rabin_pairs: tuple[Pair, ...]
    pair: Pair = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.rabin_pairs) > 1:
            raise AutomatonError(f"expected at most one Rabin pair, got {len(self.rabin_pairs)}")
        states = frozenset(self.core.states)
        if not self.buchi.union(*(s for p in self.rabin_pairs for s in p)) <= states:
            raise AutomatonError("acceptance set not a subset of states")
        object.__setattr__(self, "pair", self.rabin_pairs[0] if self.rabin_pairs
                           else (self.buchi, states))

    @property
    def alphabet(self) -> Alphabet:
        return self.core.alphabet


class BuchiAutomaton(OmegaAutomaton):
    """The record with no Rabin pair: a run is accepted when it visits
    `accepting` infinitely often."""

    def __init__(self, core: StarAutomaton, accepting: frozenset[State]):
        super().__init__(core, accepting, ())

    @property
    def accepting(self) -> frozenset[State]:
        return self.buchi


class RabinBuchiAutomaton(OmegaAutomaton):
    """The record with exactly one Rabin pair."""

    def __post_init__(self):
        if len(self.rabin_pairs) != 1:
            raise AutomatonError(f"expected one Rabin pair, got {len(self.rabin_pairs)}")
        super().__post_init__()

    def single_pair(self) -> Pair:
        return self.rabin_pairs[0]


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic word stem . cycle^omega."""

    stem: Word
    cycle: Word

    def __post_init__(self):
        if not self.cycle:
            raise AutomatonError("lasso cycle must be non-empty")


def omega_visit_set(core: StarAutomaton | ImplicitProduct, w: LassoWord
                    ) -> Optional[frozenset[State]]:
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


def run_lasso(aut: OmegaAutomaton, w: LassoWord) -> bool:
    """Whether the automaton accepts the lasso word, by its `pair`."""
    omega = omega_visit_set(aut.core, w)
    r, i = aut.pair
    return omega is not None and not omega.isdisjoint(r) and omega <= i


def lasso_in_star(a: StarAutomaton | ImplicitProduct, w: LassoWord) -> bool:
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


def product_moves(autos: Sequence[StarAutomaton]):
    """Successor function of the synchronous product of automata over one
    alphabet: at a vector of their states, the events defined in every
    automaton, in alphabet order, each with the vector of targets.  It walks
    the shortest row and looks each event up in the other rows."""
    all_rows = [a.rows for a in autos]

    def succ(v):
        rows = [r[q] for r, q in zip(all_rows, v)]
        out = []
        for e in min(rows, key=len):
            w = []
            for row in rows:
                t = row.get(e)
                if t is None:
                    break
                w.append(t)
            else:
                out.append((e, tuple(w)))
        return out
    return succ


class ImplicitProduct:
    """The synchronous product of automata over `alphabet`, built only where
    it is walked.  It has the `initial` state and the `rows` that
    `omega_visit_set` reads: joint state 0 is the vector of the automata's
    initial states, and a row that is read but missing is computed by
    `product_moves` from its joint state's vector, then stored.  The product
    of no automata is one state looping on every event."""

    initial = 0

    def __init__(self, autos: Sequence[StarAutomaton], alphabet: Alphabet):
        self.rows: Rows = _ProductRows(autos, alphabet)


class _ProductRows(dict):
    """The rows of an `ImplicitProduct`, each computed on its first read;
    `vectors[i]` is joint state i's vector of component states."""

    def __init__(self, autos: Sequence[StarAutomaton], alphabet: Alphabet):
        super().__init__()
        self.moves = product_moves(autos)
        self.vectors = [tuple(a.initial for a in autos)]
        self.number = {self.vectors[0]: 0}
        if not autos:
            self[0] = dict.fromkeys(alphabet.events, 0)

    def __missing__(self, i):
        vectors, number = self.vectors, self.number
        row = self[i] = {}
        for e, w in self.moves(vectors[i]):
            j = number.get(w)
            if j is None:
                j = number[w] = len(vectors)
                vectors.append(w)
            row[e] = j
        return row


def lockstep(lead: StarAutomaton, *followers: StarAutomaton) -> list[tuple]:
    """Joint states reachable when `lead` moves on its defined events and every
    follower takes the same event, in breadth-first order.

    Requires L(lead) to be contained in every follower's language; a follower
    undefined along a string of `lead` raises.
    """
    autos = (lead, *followers)
    moves, lead_rows = product_moves(autos), lead.rows

    def succ(v):
        out, lead_row = moves(v), lead_rows[v[0]]
        if len(out) < len(lead_row):
            missing = next(e for e in lead_row if e not in dict(out))
            raise AutomatonError(f"a following automaton is undefined on event {missing!r} "
                                 "along a string of the leading one")
        return out
    return explore(tuple(a.initial for a in autos), succ)[0]


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
    on their controllability: every added event self-loops at every state,
    so the automaton ignores it.  `a` itself is returned when it is over
    `alphabet` already."""
    if isinstance(a, BuchiAutomaton):
        core = extend_alphabet(a.core, alphabet)
        return a if core is a.core else BuchiAutomaton(core, a.accepting)
    check_alphabet(a.alphabet, alphabet)
    if a.alphabet.events == alphabet.events:
        return a
    old = a.alphabet.position
    return StarAutomaton.from_rows(
        alphabet,
        {q: {e: row[e] if e in old else q for e in alphabet.events if e in row or e not in old}
         for q, row in a.rows.items()},
        a.initial)


def sync_product(components: Sequence[StarAutomaton], alphabet: Alphabet) -> StarAutomaton:
    """Synchronous product over a global alphabet of the components lifted
    by `extend_alphabet`: an event shared by several components moves them
    together, and one outside a component's alphabet leaves it in place.
    Only reachable product states are materialized, renumbered in BFS
    order.  The product of no components is one state looping on every event.
    """
    if not components:
        return StarAutomaton.from_rows(alphabet, {0: dict.fromkeys(alphabet.events, 0)}, 0)
    lifted = [extend_alphabet(c, alphabet) for c in components]
    return StarAutomaton.from_rows(
        alphabet, explore(tuple(c.initial for c in lifted), product_moves(lifted))[1], 0)


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
        order, rows = explore((a.core.initial, b.core.initial), product_moves((a.core, b.core)))
        acc = (i for i, (qa, qb) in enumerate(order)
               if qa in a.accepting and qb in b.accepting)
    else:
        # `explore`'s loop with the phase-counter successor inlined: as
        # `explore` over a closure around `product_moves`, composing the
        # 4-machine factory's plant took 16.7-16.8 ms instead of 7.6-8.3 ms
        # (best of 40, Python 3.11 on a Xeon)
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
    rep = {block[q]: q for q in states}  # a state of each block: all share one signature
    quotient = explore(block[a.initial],
                       lambda b: [(e, block[t]) for e, t in rows[rep[b]].items()])[1]
    return StarAutomaton.from_rows(a.alphabet, quotient, 0)


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


def good_sccs(states: Iterable[State], succ, goods: Iterable, inside=None
              ) -> Iterator[list[State]]:
    """The strongly connected components of `succ` on the states of `inside`
    (every state when None) that carry a cycle (more than one state, or one
    state with a self-loop) and meet every set in `goods`, in discovery
    order; `states` fixes the order in which the search starts."""
    if inside is not None:
        states = [q for q in states if q in inside]
        whole = succ

        def succ(q):
            return [t for t in whole(q) if t in inside]
    for comp in tarjan_scc(states, succ):
        if (len(comp) > 1 or comp[0] in succ(comp[0])) \
                and not any(g.isdisjoint(comp) for g in goods):
            yield comp


def backward_closure(seeds: Iterable[State], preds) -> set[State]:
    """`seeds` and every state with a path into them: a state's predecessors
    are `preds[state]`."""
    found = set(seeds)
    stack = list(found)
    while stack:
        for q in preds[stack.pop()]:
            if q not in found:
                found.add(q)
                stack.append(q)
    return found


def states_reaching_cycle(states: Sequence[State], succ, good, inside=None) -> set[State]:
    """States from which `succ` reaches a cycle through a state of `good`.

    `succ` must map `states` into `states`.  With `inside`, only cycles that
    stay within that set count; the path leading to the cycle may leave it.
    """
    found = [q for comp in good_sccs(states, succ, (good,), inside) for q in comp]
    if not found:
        return set()
    preds: dict[State, list[State]] = {q: [] for q in states}
    for q in states:
        for t in succ(q):
            preds[t].append(q)
    return backward_closure(found, preds)


def live_states(aut: OmegaAutomaton) -> set[State]:
    """Reachable states from which some run is accepted: those that reach a
    cycle meeting R and staying inside I, for the automaton's (R, I) `pair`."""
    r, i = aut.pair
    core = aut.core
    return states_reaching_cycle(reachable_states(core), core.targets, r, inside=i)
