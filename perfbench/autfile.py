"""Writer for the line-oriented ``.aut`` text format, owned by the benchmark.

The benchmark's input generators write their automata with this module, not
with ``suploc.textio``, so the inputs stay fixed when the library's
serializer changes.  Transitions are emitted state by state in the order the
generator lists its states, and event by event in alphabet order; that is
the layout ``suploc.textio.serialize_automaton`` gives a BFS-numbered
automaton, so a generator that numbers its states breadth-first writes the
same bytes as the library would.
"""

from __future__ import annotations

import json
import os


def aut_text(name, kind, events, controllable, initial, trans, states,
             buchi=None, comment=()):
    """Text of one automaton.

    `trans` maps (state, event) to the target state; `states` fixes the order
    in which rows are written.  `comment` lines go first, each behind '# '.
    """
    lines = [f"# {c}" for c in comment]
    lines.append(f"automaton {name}")
    lines.append(f"type {kind}")
    lines.append("events " + " ".join(
        f"{e}:{'c' if e in controllable else 'u'}" for e in events))
    lines.append(f"initial {initial}")
    for q in states:
        for e in events:
            t = trans.get((q, e))
            if t is not None:
                lines.append(f"trans {q} {e} {t}")
    if buchi is not None:
        lines.append("buchi " + " ".join(str(q) for q in sorted(buchi)))
    return "\n".join(lines) + "\n"


def pipeline_config(plant_components, safety_specs, legal_spec, minimal_spec,
                    alphabet_from, output_dir="out"):
    """Text of a ``suploc pipeline`` configuration file."""
    cfg = {
        "plant_components": list(plant_components),
        "safety_specs": list(safety_specs),
        "legal_spec": legal_spec,
        "minimal_spec": minimal_spec,
        "alphabet_from": alphabet_from,
        "output_dir": output_dir,
    }
    return json.dumps(cfg, indent=2) + "\n"


def write_model(directory, files: dict[str, str]) -> None:
    """Write {file name: text} into `directory`."""
    os.makedirs(directory, exist_ok=True)
    for fname, text in files.items():
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
