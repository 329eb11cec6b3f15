"""Deterministic explicit-state automata: star, Buchi and Rabin-Buchi layers.

State identifiers are arbitrary hashable values (``None`` is reserved as the
reject result of a run).  Every operation that builds a new state space does
so with `explore`, the one place where the numbering policy lives: states are
numbered densely, breadth-first from the initial state, iterating events in
alphabet order, so the outputs are reproducible.  Liveness questions ("can
this state reach a cycle through a good state?") all go through
`states_reaching_cycle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

State = Hashable
Event = str
Word = tuple[Event, ...]


class AutomatonError(ValueError):
    pass


@dataclass(frozen=True)
class Alphabet:
    """Global event set with a controllable/uncontrollable partition."""

    events: tuple[Event, ...]
    controllable: frozenset[Event]
    uncontrollable: frozenset[Event]

    def __post_init__(self):
        if len(set(self.events)) != len(self.events):
            raise AutomatonError("duplicate event labels")
        if any(not e for e in self.events):
            raise AutomatonError("empty event label")
        evset = frozenset(self.events)
        if self.controllable | self.uncontrollable != evset or self.controllable & self.uncontrollable:
            raise AutomatonError("controllable/uncontrollable must partition the event set")

    @classmethod
    def make(cls, events: Iterable[Event], controllable: Iterable[Event] = ()) -> "Alphabet":
        events = tuple(events)
        ctrl = frozenset(controllable)
        unknown = ctrl - set(events)
        if unknown:
            raise AutomatonError(f"controllable events not in event set: {sorted(unknown)}")
        return cls(events, ctrl, frozenset(events) - ctrl)

    def index(self, event: Event) -> int:
        return self.events.index(event)

    def __contains__(self, event: Event) -> bool:
        return event in self.events


@dataclass(frozen=True)
class StarAutomaton:
    """Deterministic partial automaton; every state accepts (prefix-closed language)."""

    alphabet: Alphabet
    states: tuple[State, ...]
    initial: State
    transitions: dict[tuple[State, Event], State]

    def __post_init__(self):
        stateset = set(self.states)
        if len(stateset) != len(self.states):
            raise AutomatonError("duplicate states")
        if self.initial not in stateset:
            raise AutomatonError("initial state not in state set")
        for (q, e), t in self.transitions.items():
            if q not in stateset or t not in stateset:
                raise AutomatonError(f"transition {(q, e, t)} uses unknown state")
            if e not in self.alphabet:
                raise AutomatonError(f"transition on unknown event {e!r}")

    def enabled(self, q: State) -> tuple[Event, ...]:
        return tuple(e for e in self.alphabet.events if (q, e) in self.transitions)

    def moves(self, q: State) -> Iterator[tuple[Event, State]]:
        """(event, target) pairs of the transitions leaving q, in alphabet order."""
        for e in self.alphabet.events:
            t = self.transitions.get((q, e))
            if t is not None:
                yield e, t

    def targets(self, q: State) -> list[State]:
        """Targets of the transitions leaving q, in alphabet order."""
        return [t for _e, t in self.moves(q)]

    def step(self, q: State, e: Event) -> Optional[State]:
        if e not in self.alphabet:
            raise AutomatonError(f"unknown event {e!r}")
        return self.transitions.get((q, e))

    def is_total(self) -> bool:
        return all((q, e) in self.transitions for q in self.states for e in self.alphabet.events)

    def n_transitions(self) -> int:
        return len(self.transitions)


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
    """One transition structure carrying a Buchi set and Rabin pairs.

    The Rabin convention is: a run is accepted by pair (R, I) iff the set of
    states visited infinitely often meets R and stays inside I.
    """

    core: StarAutomaton
    buchi: frozenset[State]
    rabin_pairs: tuple[tuple[frozenset[State], frozenset[State]], ...]

    def __post_init__(self):
        states = set(self.core.states)
        if not self.buchi <= states:
            raise AutomatonError("buchi set not a subset of states")
        for r, i in self.rabin_pairs:
            if not (r <= states and i <= states):
                raise AutomatonError("rabin pair not a subset of states")

    @property
    def alphabet(self) -> Alphabet:
        return self.core.alphabet

    def single_pair(self) -> tuple[frozenset[State], frozenset[State]]:
        if len(self.rabin_pairs) != 1:
            raise AutomatonError(f"expected one Rabin pair, got {len(self.rabin_pairs)}")
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


@dataclass(frozen=True)
class LassoVerdict:
    """Per-layer verdict of a lasso run (None when the layer is absent)."""

    star: bool
    buchi: Optional[bool] = None
    rabin: Optional[bool] = None


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
    run falls off the transition function."""
    q = run_star(core, w.stem)
    if q is None:
        return None
    seen: dict[tuple[State, int], int] = {}
    trace: list[State] = []
    pos = 0
    while (q, pos) not in seen:
        seen[(q, pos)] = len(trace)
        trace.append(q)
        q2 = core.step(q, w.cycle[pos])
        if q2 is None:
            return None
        q = q2
        pos = (pos + 1) % len(w.cycle)
    return frozenset(trace[seen[(q, pos)]:])


def run_lasso(a: BuchiAutomaton | RabinBuchiAutomaton, w: LassoWord):
    """Evaluate a lasso word.  For a Buchi automaton returns a bool; for a
    Rabin-Buchi automaton returns a LassoVerdict over all layers."""
    if isinstance(a, BuchiAutomaton):
        omega = omega_visit_set(a.core, w)
        return omega is not None and bool(omega & a.accepting)
    omega = omega_visit_set(a.core, w)
    if omega is None:
        return LassoVerdict(star=False, buchi=False, rabin=False)
    r, i = a.single_pair()
    return LassoVerdict(
        star=True,
        buchi=bool(omega & a.buchi),
        rabin=bool(omega & r) and omega <= i,
    )


def lasso_in_star(a: StarAutomaton, w: LassoWord) -> bool:
    """Whether every finite prefix of w stays inside the automaton's language."""
    return omega_visit_set(a, w) is not None


def explore(init: State, succ: Callable[[State], Iterable[tuple[Event, State]]]
            ) -> tuple[list[State], dict[tuple[int, Event], int]]:
    """Breadth-first exploration of the nodes reachable from `init`.

    `succ(v)` yields the (event, w) moves of node v in alphabet order.
    Returns the nodes in visit order (`init` first) and the moves as edges
    between visit indices, ``(i, event) -> j``, in the order they were
    followed.  The indices are the dense breadth-first numbering that every
    constructed state space uses, so ``StarAutomaton(alphabet,
    tuple(range(len(order))), 0, edges)`` is the explored automaton.
    """
    num = {init: 0}
    order = [init]
    edges: dict[tuple[int, Event], int] = {}
    for i, v in enumerate(order):  # `order` grows while it is walked: the queue
        for e, w in succ(v):
            j = num.get(w)
            if j is None:
                j = num[w] = len(order)
                order.append(w)
            edges[(i, e)] = j
    return order, edges


def bfs_word(edges: dict[tuple[int, Event], int], target: int) -> Word:
    """The word leading from index 0 to `target` along the breadth-first tree
    of an `explore` result (each index's first incoming edge)."""
    parent: dict[int, tuple[int, Event]] = {}
    for (i, e), j in edges.items():
        parent.setdefault(j, (i, e))
    word = []
    while target != 0:
        target, e = parent[target]
        word.append(e)
    return tuple(reversed(word))


def pair_moves(a: StarAutomaton, b: StarAutomaton):
    """Successor function of the synchronous product of two automata over the
    same alphabet: the events defined in both, in alphabet order."""
    ta, tb = a.transitions, b.transitions

    def succ(v):
        qa, qb = v
        for e in a.alphabet.events:
            na, nb = ta.get((qa, e)), tb.get((qb, e))
            if na is not None and nb is not None:
                yield e, (na, nb)
    return succ


def lockstep(lead: StarAutomaton, *followers: StarAutomaton) -> list[tuple]:
    """Joint states reachable when `lead` moves on its defined events and every
    follower takes the same event, in breadth-first order.

    Requires L(lead) to be contained in every follower's language; a follower
    undefined along a string of `lead` raises.
    """
    def succ(v):
        for e, t in lead.moves(v[0]):
            nxt = [f.transitions.get((q, e)) for f, q in zip(followers, v[1:])]
            if None in nxt:
                raise AutomatonError(f"a following automaton is undefined on event {e!r} "
                                     "along a string of the leading one")
            yield e, (t, *nxt)
    return explore((lead.initial, *(f.initial for f in followers)), succ)[0]


def reachable_states(a: StarAutomaton) -> list[State]:
    """Reachable states in BFS order (events iterated in alphabet order)."""
    return explore(a.initial, a.moves)[0]


def restrict(a: StarAutomaton, keep) -> StarAutomaton:
    """The part of `a` on the states in `keep` (which must hold the initial
    state): those states and the transitions between them, both in `a`'s
    order; ids are kept."""
    return StarAutomaton(
        a.alphabet,
        tuple(q for q in a.states if q in keep),
        a.initial,
        {k: t for k, t in a.transitions.items() if k[0] in keep and t in keep},
    )


def reachable_trim(a: StarAutomaton) -> StarAutomaton:
    """Restrict to states reachable from the initial state; ids are kept."""
    reach = set(reachable_states(a))
    if len(reach) == len(a.states):
        return a
    return restrict(a, reach)


def renumber_bfs(a: StarAutomaton) -> StarAutomaton:
    """Renumber reachable states densely 0..n-1 in BFS order."""
    order, edges = explore(a.initial, a.moves)
    return StarAutomaton(a.alphabet, tuple(range(len(order))), 0, edges)


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
    trans = dict(a.transitions)
    for q in tuple(a.states) + (sink,):
        for e in a.alphabet.events:
            trans.setdefault((q, e), sink)
    return StarAutomaton(a.alphabet, a.states + (sink,), a.initial, trans)


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


def extend_alphabet(a: StarAutomaton | BuchiAutomaton, alphabet: Alphabet):
    """Re-declare `a` over `alphabet`, a superset of its events; every added
    event self-loops at every state, so the automaton ignores it."""
    if isinstance(a, BuchiAutomaton):
        return BuchiAutomaton(extend_alphabet(a.core, alphabet), a.accepting)
    added = [e for e in alphabet.events if e not in a.alphabet]
    trans = dict(a.transitions)
    for q in a.states:
        for e in added:
            trans[(q, e)] = q
    return StarAutomaton(alphabet, a.states, a.initial, trans)


def sync_product(components: Sequence[StarAutomaton], alphabet: Alphabet) -> StarAutomaton:
    """Synchronous product over a global alphabet.

    An event shared by several components moves them together; an event
    absent from a component's alphabet leaves that component in place.  Only
    reachable product states are materialized, renumbered in BFS order.
    """
    for c in components:
        missing = set(c.alphabet.events) - set(alphabet.events)
        if missing:
            raise AutomatonError(f"component event(s) {sorted(missing)} not in global alphabet")

    def succ(vec):
        for e in alphabet.events:
            nxt = []
            for c, q in zip(components, vec):
                t = c.transitions.get((q, e)) if e in c.alphabet else q
                if t is None:
                    break
                nxt.append(t)
            else:
                yield e, tuple(nxt)

    order, edges = explore(tuple(c.initial for c in components), succ)
    return StarAutomaton(alphabet, tuple(range(len(order))), 0, edges)


def all_accepting(a: StarAutomaton) -> BuchiAutomaton:
    """Buchi automaton for the limit of the automaton's prefix-closed language."""
    return BuchiAutomaton(a, frozenset(a.states))


def _is_trivially_accepting(b: BuchiAutomaton) -> bool:
    return set(b.core.states) <= set(b.accepting)


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
    if a.alphabet.events != b.alphabet.events:
        raise AutomatonError("alphabet mismatch")
    pairs = pair_moves(a.core, b.core)
    if _is_trivially_accepting(a) or _is_trivially_accepting(b):
        order, edges = explore((a.core.initial, b.core.initial), pairs)
        acc = (i for i, (qa, qb) in enumerate(order)
               if qa in a.accepting and qb in b.accepting)
    else:
        def hit(qa, qb, phase):
            return (qa in a.accepting) if phase == 0 else (qb in b.accepting)

        def succ(v):
            nphase = 1 - v[2] if hit(*v) else v[2]
            for e, w in pairs(v[:2]):
                yield e, (*w, nphase)

        order, edges = explore((a.core.initial, b.core.initial, 0), succ)
        acc = (i for i, v in enumerate(order) if hit(*v))
    core = StarAutomaton(a.alphabet, tuple(range(len(order))), 0, edges)
    return BuchiAutomaton(core, frozenset(acc))


def buchi_lift(target: StarAutomaton, reference: BuchiAutomaton) -> frozenset[State]:
    """States of `target` reachable by some string whose run in `reference`
    ends in an accepting state.

    Requires L(target) to be contained in L(reference); a string of the
    target that falls off the reference raises.
    """
    if target.alphabet.events != reference.alphabet.events:
        raise AutomatonError("alphabet mismatch")
    return frozenset(qt for qt, qr in lockstep(target, reference.core)
                     if qr in reference.accepting)


def minimize_prefix_closed(a: StarAutomaton) -> StarAutomaton:
    """Language-preserving state minimization for a trim, all-accepting
    partial automaton (Moore refinement on enabled-event signatures)."""
    a = reachable_trim(a)
    states = reachable_states(a)
    block = {q: 0 for q in states}
    nblocks = 1
    while True:
        sig = {
            q: (a.enabled(q), tuple(block[a.transitions[(q, e)]] for e in a.enabled(q)))
            for q in states
        }
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
    trans = {}
    for q in states:
        if cell_of[q] == q:
            for e in a.enabled(q):
                trans[(q, e)] = cell_of[a.transitions[(q, e)]]
    kept = tuple(q for q in states if cell_of[q] == q)
    out = StarAutomaton(a.alphabet, kept, cell_of[a.initial], trans)
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
