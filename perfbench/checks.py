"""Correctness checks of the benchmark's outputs, independent of ``suploc.verify``.

* `lockstep` walks two synchronous products together and compares the
  enabled-event sets at every jointly reached state; equal sets everywhere
  means equal (prefix-closed) languages, since all automata are
  deterministic.
* `controllable_inside` checks that a supervisor only enables what the
  plant allows and never disables an uncontrollable event the plant allows.
* `round_trip` checks that parsing a written artifact gives back the
  automaton that was written, up to the names of its states.
* `corpus_identity` and `cli_identity` check that the benchmark's inputs and
  pipeline match the bundled corpus and ``suploc pipeline``.

Each check returns None when it passes and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from collections import deque

import suploc.cli as cli
import suploc.textio as textio
from suploc.automata import BuchiAutomaton, StarAutomaton

from . import pipeline
from .factory import factory

CORPUS = os.path.join("corpus", "small-factory")


def _joint_enabled(autos, vec, events):
    return frozenset(e for e in events
                     if all((q, e) in a.transitions for a, q in zip(autos, vec)))


def _step(autos, vec, e):
    return tuple(a.transitions[(q, e)] for a, q in zip(autos, vec))


def lockstep(left: list[StarAutomaton], right: list[StarAutomaton], events):
    """Compare the languages of the products of `left` and of `right`."""
    start = (tuple(a.initial for a in left), tuple(a.initial for a in right))
    seen = {start: ()}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        lv, rv = pair
        le, re_ = _joint_enabled(left, lv, events), _joint_enabled(right, rv, events)
        if le != re_:
            word = " ".join(seen[pair]) or "(empty string)"
            return (f"after {word}: enabled {sorted(le)} on one side, "
                    f"{sorted(re_)} on the other")
        for e in sorted(le, key=events.index):
            nxt = (_step(left, lv, e), _step(right, rv, e))
            if nxt not in seen:
                seen[nxt] = seen[pair] + (e,)
                queue.append(nxt)
    return None


def controllable_inside(context: list[StarAutomaton], sup: StarAutomaton,
                        uncontrollable, events):
    """Walk the product of `context` and `sup`: `sup` may enable only what
    `context` allows and must keep every uncontrollable event it allows."""
    start = tuple(a.initial for a in context) + (sup.initial,)
    autos = context + [sup]
    seen = {start: ()}
    queue = deque([start])
    while queue:
        vec = queue.popleft()
        allowed = _joint_enabled(context, vec[:-1], events)
        enabled = frozenset(e for e in events if (vec[-1], e) in sup.transitions)
        word = " ".join(seen[vec]) or "(empty string)"
        if not enabled <= allowed:
            return f"after {word}: enables {sorted(enabled - allowed)} the plant does not allow"
        lost = (allowed - enabled) & uncontrollable
        if lost:
            return f"after {word}: disables uncontrollable {sorted(lost)}"
        for e in sorted(enabled, key=events.index):
            nxt = _step(autos, vec, e)
            if nxt not in seen:
                seen[nxt] = seen[vec] + (e,)
                queue.append(nxt)
    return None


def _layers(aut):
    """(core, acceptance sets) of any automaton type."""
    if isinstance(aut, StarAutomaton):
        return aut, ()
    if isinstance(aut, BuchiAutomaton):
        return aut.core, (aut.accepting,)
    sets = [aut.buchi]
    for r, i in aut.rabin_pairs:
        sets += [r, i]
    return aut.core, tuple(sets)


def isomorphic(a, b) -> bool:
    """Same type, alphabet, reachable structure and acceptance sets."""
    if type(a) is not type(b):
        return False
    (ca, sa), (cb, sb) = _layers(a), _layers(b)
    if ca.alphabet != cb.alphabet or len(sa) != len(sb):
        return False
    events = ca.alphabet.events
    fwd, back = {ca.initial: cb.initial}, {cb.initial: ca.initial}
    queue = deque([ca.initial])
    while queue:
        x = queue.popleft()
        y = fwd[x]
        if any((x in s) != (y in t) for s, t in zip(sa, sb)):
            return False
        for e in events:
            tx, ty = ca.transitions.get((x, e)), cb.transitions.get((y, e))
            if (tx is None) != (ty is None):
                return False
            if tx is None:
                continue
            if tx in fwd or ty in back:
                if fwd.get(tx) != ty or back.get(ty) != tx:
                    return False
                continue
            fwd[tx], back[ty] = ty, tx
            queue.append(tx)
    return True


def round_trip(path: str, name: str, aut):
    with open(path, "r", encoding="utf-8") as fh:
        pname, parsed = textio.parse_automaton(fh.read())
    if pname != name:
        return f"{os.path.basename(path)}: parsed name {pname!r}, wrote {name!r}"
    if not isomorphic(aut, parsed):
        return f"{os.path.basename(path)}: parse(serialize(x)) differs from x"
    return None


def check_outcome(out: pipeline.Outcome, out_dir: str, *, expect_admitted: bool):
    """All checks of one pipeline run; None or the first failure."""
    if expect_admitted and out.verdict != pipeline.ADMITTED:
        return f"verdict {out.verdict}, expected {pipeline.ADMITTED}"
    for fname, (name, aut) in sorted(out.artifacts.items()):
        reason = round_trip(os.path.join(out_dir, fname), name, aut)
        if reason:
            return reason
    if out.verdict != pipeline.ADMITTED:
        return None
    al = out.plant.alphabet
    events = al.events
    plant, star, omega = out.plant.core, out.sup.automaton, out.supw.automaton
    reason = controllable_inside([plant], star, al.uncontrollable, events)
    if reason:
        return "SUP* against the plant: " + reason
    reason = controllable_inside([plant, star], omega, al.uncontrollable, events)
    if reason:
        return "SUPw against plant x SUP*: " + reason
    if not (out.report.finite_ok and out.report.infinite_ok):
        return (f"equivalence report finite_ok={out.report.finite_ok} "
                f"infinite_ok={out.report.infinite_ok}")
    reason = lockstep([plant] + [c.automaton for c in out.controllers],
                      [plant, star, omega], events)
    if reason:
        return "plant x controllers against plant x SUP* x SUPw: " + reason
    return None


def artifact_hashes(out: pipeline.Outcome, out_dir: str) -> dict[str, str]:
    """sha256 of every serialized supervisor and controller."""
    hashes = {}
    for fname in sorted(out.artifacts):
        if fname in ("plant.aut", "legal_product.aut"):
            continue
        with open(os.path.join(out_dir, fname), "rb") as fh:
            hashes[fname] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def artifact_bytes(out: pipeline.Outcome, out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in out.artifacts)


def corpus_identity(root: str):
    """factory(2) writes the corpus files byte for byte, the legal
    specification excepted (see perfbench/factory.py)."""
    for fname, text in sorted(factory(2).items()):
        if fname == "maxspec.aut":
            continue
        with open(os.path.join(root, CORPUS, fname), "r", encoding="utf-8") as fh:
            if fh.read() != text:
                return f"factory(2) {fname} differs from {CORPUS}/{fname}"
    return None


def cli_identity(root: str, work: str):
    """The benchmark pipeline's artifacts on the corpus equal those of ``suploc
    pipeline`` run in-process on a copy of the corpus."""
    copy = os.path.join(work, "corpus-copy")
    shutil.copytree(os.path.join(root, CORPUS), copy,
                    ignore=shutil.ignore_patterns("out"))
    code = cli.main(["--quiet", "pipeline", os.path.join(copy, "pipeline.cfg"),
                     "--lassos", str(pipeline.LASSO_BUDGET), "--seed", str(pipeline.LASSO_SEED)])
    if code != cli.EXIT_OK:
        return f"suploc pipeline exited {code} on the corpus copy"
    mine = os.path.join(work, "corpus-bench")
    out = pipeline.run_pipeline(os.path.join(root, CORPUS, "pipeline.cfg"), mine)
    for fname in sorted(out.artifacts):
        with open(os.path.join(copy, "out", fname), "rb") as a, \
                open(os.path.join(mine, fname), "rb") as b:
            if a.read() != b.read():
                return f"{fname}: benchmark bytes differ from suploc pipeline"
    cli_controllers = sorted(os.listdir(os.path.join(copy, "out", "controllers")))
    mine_controllers = sorted(os.listdir(os.path.join(mine, "controllers")))
    if [f for f in cli_controllers if f.endswith(".aut")] != mine_controllers:
        return "the benchmark writes another set of controllers than suploc pipeline"
    return None
