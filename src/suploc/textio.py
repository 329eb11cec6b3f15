"""Line-oriented automaton text format and DOT export.

Format (UTF-8, '#' comments and blank lines ignored, strict keys):

    automaton <name>
    type star|buchi|rabin-buchi
    events <label>:c|:u ...
    initial <state>
    trans <state> <event> <state>
    buchi <state> ...
    rabin R <state> ... ; I <state> ...
"""

from __future__ import annotations

from typing import Optional, Union

from .automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    RabinBuchiAutomaton,
    StarAutomaton,
    explore,
)

AnyAutomaton = Union[StarAutomaton, BuchiAutomaton, RabinBuchiAutomaton]


class ParseError(AutomatonError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_automaton(text: str) -> tuple[str, AnyAutomaton]:
    name = None
    kind = None
    alphabet: Optional[Alphabet] = None
    initial = None
    states: set[str] = set()
    state_order: list[str] = []
    trans: dict[tuple[str, str], str] = {}
    buchi: Optional[set[str]] = None
    pairs: list[tuple[set[str], set[str]]] = []

    def note_state(s: str):
        if s not in states:
            states.add(s)
            state_order.append(s)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key, args = fields[0], fields[1:]
        if key == "automaton":
            if len(args) != 1:
                raise ParseError(line_no, "automaton takes exactly one name")
            name = args[0]
        elif key == "type":
            if args not in (["star"], ["buchi"], ["rabin-buchi"]):
                raise ParseError(line_no, f"unknown type {' '.join(args)!r}")
            kind = args[0]
        elif key == "events":
            evs = []
            ctrl = []
            for spec in args:
                if ":" not in spec:
                    raise ParseError(line_no, f"event {spec!r} needs :c or :u")
                label, flag = spec.rsplit(":", 1)
                if flag not in ("c", "u") or not label:
                    raise ParseError(line_no, f"bad event spec {spec!r}")
                evs.append(label)
                if flag == "c":
                    ctrl.append(label)
            try:
                alphabet = Alphabet.make(evs, ctrl)
            except AutomatonError as exc:
                raise ParseError(line_no, str(exc)) from exc
        elif key == "initial":
            if len(args) != 1:
                raise ParseError(line_no, "initial takes exactly one state")
            initial = args[0]
            note_state(initial)
        elif key == "trans":
            if len(args) != 3:
                raise ParseError(line_no, "trans takes: src event dst")
            src, event, dst = args
            if alphabet is None or event not in alphabet:
                raise ParseError(line_no, f"unknown event {event!r}")
            if (src, event) in trans:
                raise ParseError(line_no, f"nondeterministic transition at {src!r} on {event!r}")
            note_state(src)
            note_state(dst)
            trans[(src, event)] = dst
        elif key == "buchi":
            buchi = set(args) if buchi is None else buchi | set(args)
            for s in args:
                note_state(s)
        elif key == "rabin":
            joined = " ".join(args)
            if ";" not in joined or not joined.startswith("R "):
                raise ParseError(line_no, "rabin line must read: R <states> ; I <states>")
            r_part, i_part = joined.split(";", 1)
            r_states = r_part.split()[1:]
            i_fields = i_part.split()
            if not i_fields or i_fields[0] != "I":
                raise ParseError(line_no, "rabin line must read: R <states> ; I <states>")
            i_states = i_fields[1:]
            for s in r_states + i_states:
                note_state(s)
            pairs.append((set(r_states), set(i_states)))
        else:
            raise ParseError(line_no, f"unknown key {key!r}")

    if name is None:
        raise ParseError(0, "missing 'automaton' line")
    if kind is None:
        raise ParseError(0, "missing 'type' line")
    if alphabet is None:
        raise ParseError(0, "missing 'events' line")
    if initial is None:
        raise ParseError(0, "missing 'initial' line")
    if kind == "star" and (buchi is not None or pairs):
        raise ParseError(0, "star automata carry no acceptance lines")
    if kind == "buchi" and buchi is None:
        raise ParseError(0, "buchi automata need a 'buchi' line")
    if kind == "rabin-buchi" and (buchi is None or not pairs):
        raise ParseError(0, "rabin-buchi automata need 'buchi' and 'rabin' lines")

    core = StarAutomaton(alphabet, tuple(state_order), initial, trans)
    if kind == "star":
        return name, core
    if kind == "buchi":
        return name, BuchiAutomaton(core, frozenset(buchi))
    return name, RabinBuchiAutomaton(
        core, frozenset(buchi),
        tuple((frozenset(r), frozenset(i)) for r, i in pairs),
    )


def _canonical(aut: AnyAutomaton):
    """Renumber states densely in BFS order, mapping acceptance sets along."""
    core = aut if isinstance(aut, StarAutomaton) else aut.core
    order, edges = explore(core.initial, core.moves)
    num = {q: i for i, q in enumerate(order)}
    new_core = StarAutomaton(core.alphabet, tuple(range(len(order))), 0, edges)
    if isinstance(aut, StarAutomaton):
        return new_core, None, None
    if isinstance(aut, BuchiAutomaton):
        return new_core, frozenset(num[q] for q in aut.accepting if q in num), None
    pairs = tuple(
        (frozenset(num[q] for q in r if q in num), frozenset(num[q] for q in i if q in num))
        for r, i in aut.rabin_pairs
    )
    return new_core, frozenset(num[q] for q in aut.buchi if q in num), pairs


def serialize_automaton(name: str, aut: AnyAutomaton) -> str:
    core, buchi, pairs = _canonical(aut)
    kind = ("star" if isinstance(aut, StarAutomaton)
            else "buchi" if isinstance(aut, BuchiAutomaton) else "rabin-buchi")
    lines = [f"automaton {name}", f"type {kind}"]
    evs = " ".join(
        f"{e}:{'c' if e in core.alphabet.controllable else 'u'}" for e in core.alphabet.events
    )
    lines.append(f"events {evs}")
    lines.append(f"initial {core.initial}")
    for q in core.states:
        for e in core.alphabet.events:
            t = core.transitions.get((q, e))
            if t is not None:
                lines.append(f"trans {q} {e} {t}")
    if buchi is not None:
        lines.append("buchi " + " ".join(str(q) for q in sorted(buchi)))
    if pairs is not None:
        for r, i in pairs:
            lines.append(
                "rabin R " + " ".join(str(q) for q in sorted(r))
                + " ; I " + " ".join(str(q) for q in sorted(i))
            )
    return "\n".join(lines) + "\n"


def load_automaton(path) -> tuple[str, AnyAutomaton]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_automaton(fh.read())


def save_automaton(path, name: str, aut: AnyAutomaton) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_automaton(name, aut))


def to_dot(name: str, aut: AnyAutomaton) -> str:
    """GraphViz rendering; Buchi states are doubled, Rabin membership is
    annotated on the node label."""
    core, buchi, pairs = _canonical(aut)
    out = [f'digraph "{name}" {{', "  rankdir=LR;", '  node [shape=circle];',
           '  __init [shape=point];']
    for q in core.states:
        label = str(q)
        attrs = []
        if buchi is not None and q in buchi:
            attrs.append("shape=doublecircle")
        if pairs is not None:
            tags = []
            for idx, (r, i) in enumerate(pairs, start=1):
                if q in r:
                    tags.append(f"R{idx}")
                if q in i:
                    tags.append(f"I{idx}")
            if tags:
                label += "\\n" + ",".join(tags)
        attrs.insert(0, f'label="{label}"')
        out.append(f'  "{q}" [{", ".join(attrs)}];')
    out.append(f'  __init -> "{core.initial}";')
    for q in core.states:
        for e in core.alphabet.events:
            t = core.transitions.get((q, e))
            if t is not None:
                out.append(f'  "{q}" -> "{t}" [label="{e}"];')
    out.append("}")
    return "\n".join(out) + "\n"
