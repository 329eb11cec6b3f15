"""Bundled two-routine factory models.

Two machines M1, M2 feed one-slot buffers B1, B2; removal from a buffer is
driven elsewhere.  Events: a_i machine i starts (controllable), b_i machine i
deposits into buffer i, g_i the workpiece leaves buffer i.  Depositing into a
full buffer is physically possible (the piece is lost), which is exactly what
the safety specification has to rule out; taking from an empty buffer is not.

Fairness of the removal stations (every deposit is eventually removed) is
part of the plant's liveness; fairness of machine starts (each machine starts
infinitely often) is the maximal legal specification, and strict alternation
of the two routines is the minimal acceptable one.
"""

from __future__ import annotations

from .automata import (
    Alphabet,
    BuchiAutomaton,
    StarAutomaton,
    all_accepting,
    buchi_intersection,
    extend_alphabet,
    sync_product,
)
from .omega import StarLanguageHandle

EVENTS = ("a1", "b1", "g1", "a2", "b2", "g2")
CONTROLLABLE = ("a1", "a2")


def alphabet() -> Alphabet:
    return Alphabet.make(EVENTS, CONTROLLABLE)


def _sub_alphabet(events) -> Alphabet:
    ctrl = [e for e in events if e in CONTROLLABLE]
    return Alphabet.make(tuple(events), ctrl)


def machine(i: int) -> StarAutomaton:
    a, b = f"a{i}", f"b{i}"
    return StarAutomaton(_sub_alphabet((a, b)), (0, 1), 0, {(0, a): 1, (1, b): 0})


def buffer(i: int) -> StarAutomaton:
    # state 1 = full; a second deposit overwrites (self-loop), removal only
    # when full
    b, g = f"b{i}", f"g{i}"
    return StarAutomaton(
        _sub_alphabet((b, g)), (0, 1), 0,
        {(0, b): 1, (1, b): 1, (1, g): 0},
    )


def removal_fairness(i: int) -> BuchiAutomaton:
    """Every deposit into buffer i is eventually followed by a removal."""
    b, g = f"b{i}", f"g{i}"
    core = StarAutomaton(
        _sub_alphabet((b, g)), (0, 1), 0,
        {(0, b): 1, (0, g): 0, (1, b): 1, (1, g): 0},
    )
    return BuchiAutomaton(core, frozenset({0}))


def plant_core() -> StarAutomaton:
    return sync_product([machine(1), machine(2), buffer(1), buffer(2)], alphabet())


def plant() -> BuchiAutomaton:
    """The factory as one Buchi automaton: limit of the composed finite
    behavior intersected with both removal fairness assumptions."""
    sf = all_accepting(plant_core())
    f1 = extend_alphabet(removal_fairness(1), alphabet())
    f2 = extend_alphabet(removal_fairness(2), alphabet())
    return buchi_intersection(buchi_intersection(sf, f1), f2)


def buffer_spec(i: int) -> StarAutomaton:
    """Overflow prevention: two deposits into buffer i must be separated by a
    removal."""
    b, g = f"b{i}", f"g{i}"
    return StarAutomaton(
        _sub_alphabet((b, g)), (0, 1), 0,
        {(0, b): 1, (0, g): 0, (1, g): 0},
    )


def mutex_spec() -> StarAutomaton:
    """The machines share a resource: no start while the other is working."""
    return StarAutomaton(
        _sub_alphabet(("a1", "b1", "a2", "b2")), (0, 1, 2), 0,
        {(0, "a1"): 1, (1, "b1"): 0, (0, "a2"): 2, (2, "b2"): 0},
    )


def safety_spec() -> StarLanguageHandle:
    composed = sync_product([buffer_spec(1), buffer_spec(2), mutex_spec()], alphabet())
    return StarLanguageHandle(composed)


def start_fairness_spec() -> BuchiAutomaton:
    """Maximal legal behavior: each machine starts infinitely often.

    Encoded as an alternation tracker: an accepting state is entered exactly
    when a start alternates with the previous different start (a1 after a2 or
    a2 after a1); the mark decays on the next non-start event, and idle
    states remember which start closed the last alternation.  Visiting the
    accepting states infinitely often is equivalent to both starts occurring
    infinitely often.
    """
    al = alphabet()
    # states: 0 nothing seen; 1/2 unmatched run of a1/a2; 3/4 alternation
    # just closed by a1/a2; 5/6 idle after an alternation closed by a1/a2
    trans: dict = {}

    def row(q, a1_t, a2_t, other_t):
        trans[(q, "a1")] = a1_t
        trans[(q, "a2")] = a2_t
        for e in ("b1", "g1", "b2", "g2"):
            trans[(q, e)] = other_t

    row(0, 1, 2, 0)
    row(1, 1, 4, 1)
    row(2, 3, 2, 2)
    row(3, 1, 4, 5)
    row(4, 3, 2, 6)
    row(5, 1, 4, 5)
    row(6, 3, 2, 6)
    core = StarAutomaton(al, (0, 1, 2, 3, 4, 5, 6), 0, trans)
    return BuchiAutomaton(core, frozenset({3, 4}))


def alternation_spec() -> BuchiAutomaton:
    """Minimal acceptable behavior: the two routines run strictly
    alternately, routine 1 first."""
    al = alphabet()
    seq = ("a1", "b1", "g1", "a2", "b2", "g2")
    trans = {(i, e): (i + 1) % 6 for i, e in enumerate(seq)}
    core = StarAutomaton(al, tuple(range(6)), 0, trans)
    return BuchiAutomaton(core, frozenset({0}))


def corpus() -> dict[str, object]:
    return {
        "m1": machine(1),
        "m2": machine(2),
        "b1": buffer(1),
        "b2": buffer(2),
        "f1": removal_fairness(1),
        "f2": removal_fairness(2),
        "bufspec1": buffer_spec(1),
        "bufspec2": buffer_spec(2),
        "muxspec": mutex_spec(),
        "maxspec": start_fairness_spec(),
        "minspec": alternation_spec(),
    }
