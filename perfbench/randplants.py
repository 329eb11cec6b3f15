"""Seeded random synthesis instances for the ``random-small`` workload.

Each instance is a small pipeline input over the events e0..e3, two of them
controllable:

* a plant component over all events, 2 to 4 states;
* a fairness assumption: a total 2-state Buchi automaton over 2 or more
  events, which leaves the finite behaviour alone and constrains liveness;
* a safety specification over 2 or more events, 2 or 3 states;
* a total legal Buchi specification over all events, 2 or 3 states, redrawn
  until it has a reachable accepting cycle (a non-empty omega-language);
* a minimal acceptable behaviour: one ultimately periodic word found by a
  random walk through plant x fairness x safety x legal whose cycle visits
  an accepting state of both the fairness and the legal automaton.

The word is legal and physically possible, yet the synthesis may refuse it:
an empty SUP*, an initial state the controllability game loses, or a failed
existence check.  All three occur in every batch.  Sizes are kept small so
that no single instance dominates a batch.  The generator depends on
nothing in ``suploc``.
"""

from __future__ import annotations

import random

from .autfile import aut_text, pipeline_config

EVENTS = ("e0", "e1", "e2", "e3")
N_CONTROLLABLE = 2
MAX_PLANT_STATES = 4
FAIR_STATES = 2
MAX_SPEC_STATES = 3
MAX_LEGAL_STATES = 3
PLANT_DENSITY = 0.7  # share of the free (state, event) slots given a transition
SPEC_DENSITY = 0.95
WALK_ATTEMPTS = 40
WALK_STEPS = 16


class _Aut:
    """A deterministic automaton as the generator builds it."""

    def __init__(self, events, n_states, trans, accepting=None):
        self.events = tuple(events)
        self.states = tuple(range(n_states))
        self.trans = trans
        self.accepting = accepting

    def step(self, q, e):
        """Next state, None when `e` is blocked; events outside the automaton's
        own alphabet leave it in place."""
        if e not in self.events:
            return q
        return self.trans.get((q, e))

    def text(self, name, controllable):
        kind = "star" if self.accepting is None else "buchi"
        return aut_text(name, kind, self.events, controllable, 0, self.trans, self.states,
                        buchi=self.accepting)


def _random_aut(rng, events, n_states, density, accepting=False):
    """Random deterministic automaton whose states are all reachable from 0;
    `density` 1 makes it total.  With `accepting`, 1 to n-1 states accept."""
    trans = {}
    for i in range(1, n_states):
        while True:
            src = rng.randrange(i)
            free = [e for e in events if (src, e) not in trans]
            if free:
                break
        trans[(src, rng.choice(free))] = i
    for q in range(n_states):
        for e in events:
            if (q, e) not in trans and rng.random() < density:
                trans[(q, e)] = rng.randrange(n_states)
    acc = None
    if accepting:
        acc = frozenset(rng.sample(range(n_states), rng.randint(1, n_states - 1)))
    return _Aut(events, n_states, trans, acc)


def _sub_alphabet(rng):
    chosen = set(rng.sample(EVENTS, rng.randint(2, len(EVENTS))))
    return tuple(e for e in EVENTS if e in chosen)


def _reach(aut, start):
    seen = set()
    stack = [start]
    while stack:
        q = stack.pop()
        for e in aut.events:
            t = aut.trans.get((q, e))
            if t is not None and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _has_accepting_cycle(aut):
    reach = _reach(aut, 0) | {0}
    return any(a in _reach(aut, a) for a in aut.accepting & reach)


def _walk_lasso(rng, parts, fair, legal):
    """A lasso (stem, cycle) through the synchronous product of `parts`
    whose cycle visits accepting states of `fair` and `legal`, or None."""
    fi, li = parts.index(fair), parts.index(legal)
    for _ in range(WALK_ATTEMPTS):
        vec = tuple(0 for _ in parts)
        seen = {vec: 0}
        path = [vec]
        word = []
        for _ in range(WALK_STEPS):
            moves = []
            for e in EVENTS:
                nxt = tuple(p.step(q, e) for p, q in zip(parts, vec))
                if None not in nxt:
                    moves.append((e, nxt))
            if not moves:
                break
            e, vec = rng.choice(moves)
            word.append(e)
            if vec in seen:
                k = seen[vec]
                cyc = path[k + 1:] + [vec]
                if any(v[fi] in fair.accepting for v in cyc) and \
                        any(v[li] in legal.accepting for v in cyc):
                    return word[:k], word[k:]
                break
            seen[vec] = len(path)
            path.append(vec)
    return None


def _lasso_text(stem, cycle, controllable):
    n, m = len(stem), len(cycle)
    trans = {(i, e): i + 1 for i, e in enumerate(stem)}
    for i, e in enumerate(cycle):
        trans[(n + i, e)] = n + (i + 1) % m
    return aut_text("minimal", "buchi", EVENTS, controllable, 0, trans, range(n + m),
                    buchi=range(n, n + m))


def instance(rng: random.Random) -> dict[str, str]:
    """{file name: text} for one random pipeline input, ``pipeline.cfg``
    included."""
    while True:
        ctrl = frozenset(rng.sample(EVENTS, N_CONTROLLABLE))
        plant = _random_aut(rng, EVENTS, rng.randint(2, MAX_PLANT_STATES), PLANT_DENSITY)
        fair = _random_aut(rng, _sub_alphabet(rng), FAIR_STATES, 1.0, accepting=True)
        spec = _random_aut(rng, _sub_alphabet(rng), rng.randint(2, MAX_SPEC_STATES),
                           SPEC_DENSITY)
        legal = _random_aut(rng, EVENTS, rng.randint(2, MAX_LEGAL_STATES), 1.0,
                            accepting=True)
        if not _has_accepting_cycle(legal):
            continue
        lasso = _walk_lasso(rng, [plant, fair, spec, legal], fair, legal)
        if lasso is None:
            continue
        return {
            "plant.aut": plant.text("plant", ctrl),
            "fair.aut": fair.text("fair", ctrl),
            "spec.aut": spec.text("spec", ctrl),
            "legal.aut": legal.text("legal", ctrl),
            "minimal.aut": _lasso_text(*lasso, ctrl),
            "pipeline.cfg": pipeline_config(
                ["plant.aut", "fair.aut"], ["spec.aut"], "legal.aut", "minimal.aut",
                "minimal.aut"),
        }


def batch(seed: int, count: int) -> list[dict[str, str]]:
    """`count` instances drawn from one generator seeded with `seed`."""
    rng = random.Random(seed)
    return [instance(rng) for _ in range(count)]
