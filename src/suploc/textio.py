"""Line-oriented automaton text format, DOT export, and the one routine
that writes a file.

Format (UTF-8, '#' comments and blank lines ignored, strict keys):

    automaton <name>
    type star|buchi|rabin-buchi
    events <label>:c|:u ...
    initial <state>
    trans <state> <event> <state>
    buchi <state> ...
    rabin R <state> ... ; I <state> ...

The lines may come in any order, except that every ``trans`` line must
follow the ``events`` line: a transition's event is checked against the
declared events as the line is read.  Only ``trans`` and ``buchi`` lines
may repeat, so a Rabin-Buchi automaton has one pair.  An event label may
not contain ``/`` or a NUL character, since the pipeline names each local
controller's file after its event.

`write_text` writes every file the library and the CLI produce.  It opens
the file without truncating it, writes over the old bytes and then cuts the
file to the new length.  On ext4 (mounted with the default
``auto_da_alloc``), truncating a non-empty file to zero makes its ``close``
start writeback, so rewriting a file opened with mode ``"w"`` waits on the
disk; rewriting in place does not.  The saving is on rewrites only, which
is the common case: ``suploc pipeline`` writes into a fixed output
directory, so every re-run overwrites the last run's files.  A new file
costs the same as before.  The bytes, the permission bits (0o666 under the
umask, as ``open(path, "w")`` gives) and the inode of a file are those of a
truncating write.  A reader during the write may see a partly written file,
as before; now its tail may still hold the old file's bytes.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from .automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    RabinBuchiAutomaton,
    Rows,
    StarAutomaton,
    explore,
)

AnyAutomaton = Union[StarAutomaton, BuchiAutomaton, RabinBuchiAutomaton]

# the value of the ``type`` line, per automaton type
TYPE_NAMES = {StarAutomaton: "star", BuchiAutomaton: "buchi", RabinBuchiAutomaton: "rabin-buchi"}


class ParseError(AutomatonError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_automaton(text: str) -> tuple[str, AnyAutomaton]:
    """The name and automaton of a text in the format above.  Every line is
    checked as it is read, so the rows go to `from_rows` as they are; a
    line other than ``trans`` or ``buchi`` may not repeat."""
    name = kind = initial = None
    alphabet: Optional[Alphabet] = None
    position: dict[str, int] = {}  # of the declared events
    header_lines: dict[str, int] = {}  # where each header line was read
    rows: Rows = {}  # per state, in order of first mention
    unordered: set[str] = set()  # states whose trans lines left alphabet order
    buchi: Optional[set[str]] = None
    pair: Optional[tuple[frozenset[str], frozenset[str]]] = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key, args = fields[0], fields[1:]
        if key == "trans":
            if len(args) != 3:
                raise ParseError(line_no, "trans takes: src event dst")
            src, event, dst = args
            if alphabet is None:
                raise ParseError(line_no, "'trans' line before the 'events' line")
            p = position.get(event)
            if p is None:
                raise ParseError(line_no, f"unknown event {event!r}")
            row = rows.setdefault(src, {})
            if event in row:
                raise ParseError(line_no, f"nondeterministic transition at {src!r} on {event!r}")
            if row and p < position[next(reversed(row))]:
                unordered.add(src)
            row[event] = dst
            rows.setdefault(dst, {})
            continue
        if key == "automaton":
            if len(args) != 1:
                raise ParseError(line_no, "automaton takes exactly one name")
            name = args[0]
        elif key == "type":
            if len(args) != 1 or args[0] not in TYPE_NAMES.values():
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
                for bad in ("/", "\0"):
                    if bad in label:
                        raise ParseError(line_no, f"event label {label!r} may not contain {bad!r}")
                evs.append(label)
                if flag == "c":
                    ctrl.append(label)
            try:
                alphabet = Alphabet.make(evs, ctrl)
            except AutomatonError as exc:
                raise ParseError(line_no, str(exc)) from exc
            position = alphabet.position
        elif key == "initial":
            if len(args) != 1:
                raise ParseError(line_no, "initial takes exactly one state")
            initial = args[0]
            rows.setdefault(initial, {})
        elif key == "buchi":
            buchi = set(args) if buchi is None else buchi | set(args)
            for s in args:
                rows.setdefault(s, {})
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
                rows.setdefault(s, {})
            pair = (frozenset(r_states), frozenset(i_states))
        else:
            raise ParseError(line_no, f"unknown key {key!r}")
        if key in header_lines:
            raise ParseError(line_no, f"repeated {key!r} line (first on line {header_lines[key]})")
        if key != "buchi":
            header_lines[key] = line_no

    for key in ("automaton", "type", "events", "initial"):
        if key not in header_lines:
            raise ParseError(0, f"missing {key!r} line")
    if kind == "star" and (buchi is not None or pair is not None):
        raise ParseError(0, "star automata carry no acceptance lines")
    if kind == "buchi" and buchi is None:
        raise ParseError(0, "buchi automata need a 'buchi' line")
    if kind == "rabin-buchi" and (buchi is None or pair is None):
        raise ParseError(0, "rabin-buchi automata need 'buchi' and 'rabin' lines")

    for q in unordered:
        rows[q] = dict(sorted(rows[q].items(), key=lambda move: position[move[0]]))
    core = StarAutomaton.from_rows(alphabet, rows, initial)
    if kind == "star":
        return name, core
    if kind == "buchi":
        return name, BuchiAutomaton(core, frozenset(buchi))
    return name, RabinBuchiAutomaton(core, frozenset(buchi), (pair,))


def _bfs_numbered(core: StarAutomaton) -> bool:
    """Whether `core` already carries the canonical numbering: its states
    are the ints 0..n-1 in that order, 0 is initial, and the breadth-first
    walk from 0 along the rows meets every state, in the order of its
    number."""
    rows = core.rows
    if type(core.initial) is not int or core.initial != 0 \
            or any(type(q) is not int or q != i for i, q in enumerate(rows)):
        return False
    met = 1  # states met so far: 0..met-1
    for i, row in enumerate(rows.values()):
        if i >= met:  # the walk ends before state i
            return False
        for t in row.values():
            if t == met:
                met += 1
            elif t > met:
                return False
    return True


def _canonical(aut: AnyAutomaton):
    """Renumber states densely in BFS order, mapping acceptance sets along.

    An automaton whose numbering is already that one (`_bfs_numbered`: the
    states are 0..n-1, 0 is initial and the BFS from 0 meets them in that
    order, as every automaton the library builds with `explore`) is returned
    with its acceptance sets as they are; any other one is explored."""
    core = aut if isinstance(aut, StarAutomaton) else aut.core
    if _bfs_numbered(core):
        def mapped(states):
            return states
    else:
        order, rows = explore(core.initial, core.moves)
        num = {q: i for i, q in enumerate(order)}
        core = StarAutomaton.from_rows(core.alphabet, rows, 0)

        def mapped(states):
            return frozenset(num[q] for q in states if q in num)
    if isinstance(aut, StarAutomaton):
        return core, None, None
    if isinstance(aut, BuchiAutomaton):
        return core, mapped(aut.accepting), None
    return core, mapped(aut.buchi), tuple((mapped(r), mapped(i)) for r, i in aut.rabin_pairs)


def serialize_automaton(name: str, aut: AnyAutomaton) -> str:
    core, buchi, pairs = _canonical(aut)
    evs = " ".join(
        f"{e}:{'c' if e in core.alphabet.controllable else 'u'}" for e in core.alphabet.events
    )
    out = [f"automaton {name}\ntype {TYPE_NAMES[type(aut)]}\nevents {evs}\ninitial {core.initial}\n"]
    rows = core.rows
    for q in core.states:
        out += [f"trans {q} {e} {t}\n" for e, t in rows[q].items()]
    if buchi is not None:
        out.append("buchi " + " ".join(str(q) for q in sorted(buchi)) + "\n")
    if pairs is not None:
        (r, i), = pairs
        out.append("rabin R " + " ".join(str(q) for q in sorted(r))
                   + " ; I " + " ".join(str(q) for q in sorted(i)) + "\n")
    return "".join(out)


def load_automaton(path) -> tuple[str, AnyAutomaton]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_automaton(fh.read())


def write_text(path, text: str) -> None:
    """Write `text` to `path` as UTF-8, in place: the file is created when
    missing, written over from its start and then cut to the new length
    (see the module docstring).  When the write fails part-way, the file is
    cut where the failure left it, so it holds a prefix of `text`, as a
    truncating write would leave it."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    # mode "w" on a descriptor neither truncates nor reopens the file
    with open(fd, "w", encoding="utf-8") as fh:
        try:
            fh.write(text)
            fh.flush()
        finally:
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def save_automaton(path, name: str, aut: AnyAutomaton) -> None:
    write_text(path, serialize_automaton(name, aut))


def to_dot(name: str, aut: AnyAutomaton) -> str:
    """GraphViz rendering; Buchi states are doubled, Rabin membership is
    annotated on the node label."""
    core, buchi, pairs = _canonical(aut)
    out = [f'digraph "{name}" {{\n  rankdir=LR;\n  node [shape=circle];\n'
           '  __init [shape=point];\n']
    for q in core.states:
        label = str(q)
        attrs = []
        if buchi is not None and q in buchi:
            attrs.append("shape=doublecircle")
        if pairs is not None:
            tags = [tag for tag, part in zip(("R1", "I1"), pairs[0]) if q in part]
            if tags:
                label += "\\n" + ",".join(tags)
        attrs.insert(0, f'label="{label}"')
        out.append(f'  "{q}" [{", ".join(attrs)}];\n')
    out.append(f'  __init -> "{core.initial}";\n')
    rows = core.rows
    for q in core.states:
        out += [f'  "{q}" -> "{t}" [label="{e}"];\n' for e, t in rows[q].items()]
    out.append("}\n")
    return "".join(out)
