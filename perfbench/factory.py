"""The n-machine factory: a scalable model family for the benchmark.

Machines M1..Mn each start a job (a_i, controllable) and deposit it into a
one-slot buffer (b_i, uncontrollable); the piece leaves buffer i by g_i
(uncontrollable).  A deposit into a full slot is physically possible and
loses the piece, which the buffer specifications rule out.  The plant is
the machines, the buffers and a removal-fairness assumption per buffer; the
safety specifications are the buffer specifications and an n-way mutex on
the machines.  The legal specification asks every machine to start
infinitely often, tracked round-robin; the minimal acceptable behaviour
runs the n routines a_i b_i g_i in strict round-robin, routine 1 first.

At n=2 every file but the legal specification is byte-identical to the
bundled corpus (``corpus/small-factory``).  The corpus ``maxspec.aut`` is an
alternation tracker instead of a round-robin tracker; it states the same
liveness, but its legal product has 27 states and its SUPw 36, where the
round-robin tracker gives 14 and 19.

This generator belongs to the benchmark, so the benchmark's inputs do not
move when the library's own models change.
"""

from __future__ import annotations

from .autfile import aut_text, pipeline_config


def events(n: int) -> tuple[str, ...]:
    return tuple(f"{x}{i}" for i in range(1, n + 1) for x in ("a", "b", "g"))


def controllable(n: int) -> frozenset[str]:
    return frozenset(f"a{i}" for i in range(1, n + 1))


def _machine(i):
    a, b = f"a{i}", f"b{i}"
    return aut_text(
        f"m{i}", "star", (a, b), {a}, 0, {(0, a): 1, (1, b): 0}, (0, 1),
        comment=[f"machine {i}: starts a job ({a}), deposits into buffer {i} ({b})"])


def _buffer(i):
    b, g = f"b{i}", f"g{i}"
    return aut_text(
        f"b{i}", "star", (b, g), (), 0, {(0, b): 1, (1, b): 1, (1, g): 0}, (0, 1),
        comment=[f"one-slot buffer {i}: a deposit into a full slot is lost (self-loop)"])


def _removal_fairness(i):
    b, g = f"b{i}", f"g{i}"
    return aut_text(
        f"f{i}", "buchi", (b, g), (), 0,
        {(0, b): 1, (0, g): 0, (1, b): 1, (1, g): 0}, (0, 1), buchi={0},
        comment=[f"removal fairness: every deposit into buffer {i} is eventually removed"])


def _buffer_spec(i):
    b, g = f"b{i}", f"g{i}"
    return aut_text(
        f"bufspec{i}", "star", (b, g), (), 0, {(0, b): 1, (0, g): 0, (1, g): 0}, (0, 1),
        comment=[f"overflow prevention: deposits into buffer {i} are separated by removals"])


def _mutex(n):
    evs = tuple(f"{x}{i}" for i in range(1, n + 1) for x in ("a", "b"))
    trans = {}
    for i in range(1, n + 1):
        trans[(0, f"a{i}")] = i
        trans[(i, f"b{i}")] = 0
    other = "the other machine" if n == 2 else "another machine"
    return aut_text(
        "muxspec", "star", evs, controllable(n), 0, trans, range(n + 1),
        comment=[f"shared resource: no start while {other} is working"])


def _round_robin_starts(n):
    """Legal spec: state k < n waits for a_(k+1), other events leave it in
    place; a_n enters the accepting state n, which closes the round and
    falls back to 0 on the next event that is not a1."""
    evs = events(n)
    trans = {}
    for k in range(n):
        for e in evs:
            trans[(k, e)] = k
        trans[(k, f"a{k + 1}")] = k + 1
    for e in evs:
        trans[(n, e)] = 0
    trans[(n, "a1")] = 1 if n > 1 else n
    return aut_text(
        "maxspec", "buchi", evs, controllable(n), 0, trans, range(n + 1), buchi={n},
        comment=["legal liveness: every machine starts infinitely often",
                 "(round-robin start tracker: state k waits for the start of",
                 "machine k+1; the accepting state is entered when the last",
                 "machine starts and closes the round)"])


def _round_robin_routines(n):
    evs = events(n)
    trans = {(k, e): (k + 1) % len(evs) for k, e in enumerate(evs)}
    order = "alternation of the two routines" if n == 2 else f"round-robin of the {n} routines"
    return aut_text(
        "minspec", "buchi", evs, controllable(n), 0, trans, range(len(evs)), buchi={0},
        comment=[f"minimal acceptable liveness: strict {order},", "routine 1 first"])


def factory(n: int) -> dict[str, str]:
    """{file name: text} for the n-machine factory, ``pipeline.cfg`` included."""
    if n < 1:
        raise ValueError("a factory needs at least one machine")
    rng = range(1, n + 1)
    files = {}
    for i in rng:
        files[f"m{i}.aut"] = _machine(i)
    for i in rng:
        files[f"b{i}.aut"] = _buffer(i)
    for i in rng:
        files[f"f{i}.aut"] = _removal_fairness(i)
    for i in rng:
        files[f"bufspec{i}.aut"] = _buffer_spec(i)
    files["muxspec.aut"] = _mutex(n)
    files["maxspec.aut"] = _round_robin_starts(n)
    files["minspec.aut"] = _round_robin_routines(n)
    files["pipeline.cfg"] = pipeline_config(
        [f"{x}{i}.aut" for x in ("m", "b", "f") for i in rng],
        [f"bufspec{i}.aut" for i in rng] + ["muxspec.aut"],
        "maxspec.aut", "minspec.aut", "minspec.aut")
    return files
