"""Benchmark of the suploc synthesis pipeline, stage by stage.

    python3 perfbench/run.py --workload factory-n4 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 0

It finds the repository from its own location.  It generates the workload's inputs from
the seed, runs the pipeline on them single-threaded for about --seconds
seconds, checks every output, and prints each metric by name with its unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run wraps the library's
public functions in spans and reports the per-layer metrics instead.  See
perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import sys

# the benchmark writes no bytecode into the checkout
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
SRC = os.path.join(ROOT, "src")
# never created: pointing the bytecode cache here makes every import of
# suploc compile its sources, so set-up time does not depend on caches
NO_PYCACHE = os.path.join(OUT, "no-pycache")

SETUP_REPEATS = 6
RANDOM_COUNT = 1200

WORKLOADS = {
    "factory-n4": {"factory": 4},
    "random-small": {"random": RANDOM_COUNT},
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "controller_states": "count",
}

# per-layer metric -> unit; `_s` metrics are seconds per iteration
PER_LAYER = {
    "automata.compose_s": "s",
    "automata.plant_states": "count",
    "automata.plant_transitions": "count",
    "automata.plant_accepting": "count",
    "automata.self_s": "s",
    "safety.sup_con_star_s": "s",
    "safety.sup_star_states": "count",
    "safety.controlled_plant_s": "s",
    "safety.closed_accepting": "count",
    "safety.sup_star_empty": "count",
    "safety.self_s": "s",
    "omegasynth.build_rabin_buchi_s": "s",
    "omegasynth.legal_product_states": "count",
    "omegasynth.legal_product_buchi": "count",
    "omegasynth.controllability_subset_s": "s",
    "omegasynth.controllable_states": "count",
    "omegasynth.pruned_states": "count",
    "omegasynth.refined_states": "count",
    "omegasynth.existence_s": "s",
    "omegasynth.assemble_fomega_s": "s",
    "omegasynth.sup_omega_states": "count",
    "omegasynth.sup_omega_transitions": "count",
    "omegasynth.initial_lost": "count",
    "omegasynth.existence_failed": "count",
    "omegasynth.self_s": "s",
    "localization.localize_all_s": "s",
    "localization.profile_s": "s",
    "localization.build_congruence_s": "s",
    "localization.build_congruence_calls": "count",
    "localization.build_local_controller_s": "s",
    "localization.controllers": "count",
    "localization.self_s": "s",
    "verify.check_infinite_equivalence_s": "s",
    "verify.check_finite_equivalence_s": "s",
    "verify.lassos_checked": "count",
    "verify.self_s": "s",
    "textio.parse_s": "s",
    "textio.save_s": "s",
    "textio.bytes_written": "count",
    "textio.self_s": "s",
    "pipeline.admitted": "count",
    "pipeline.self_s": "s",
    "pipeline.wall_s": "s",
    "bench.trace_overhead_s": "s",
}

LAYERS = ("automata", "safety", "omegasynth", "localization", "verify", "textio")

# per-layer time metric -> the spans whose inclusive time it sums
SPAN_SUMS = {
    "safety.sup_con_star_s": ("safety.sup_con_star",),
    "safety.controlled_plant_s": ("safety.controlled_plant",),
    "omegasynth.build_rabin_buchi_s": ("omegasynth.build_rabin_buchi",),
    "omegasynth.controllability_subset_s": ("omegasynth.controllability_subset",),
    "omegasynth.existence_s": ("omegasynth.inf_closure", "omegasynth.existence_check"),
    "omegasynth.assemble_fomega_s": ("omegasynth.assemble_fomega",),
    "localization.localize_all_s": ("localization.localize_all",),
    "localization.profile_s": ("localization.profile_safety", "localization.profile_liveness"),
    "localization.build_congruence_s": ("localization.build_congruence",),
    "localization.build_local_controller_s": ("localization.build_local_controller",),
    "verify.check_infinite_equivalence_s": ("verify.check_infinite_equivalence",),
    "verify.check_finite_equivalence_s": ("verify.check_finite_equivalence",),
    "textio.parse_s": ("textio.load_automaton",),
    "textio.save_s": ("textio.save_automaton",),
}


class Refused(Exception):
    """The benchmark cannot run here; no result is printed."""


def check_checkout() -> None:
    for rel in (os.path.join("src", "suploc", "__init__.py"),
                os.path.join("corpus", "small-factory", "pipeline.cfg")):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise Refused(f"{rel} not found under {ROOT}; run from a suploc checkout")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if declared != END_TO_END or layered != PER_LAYER:
            raise Refused("BENCHMARK.json metrics differ from those perfbench/run.py reports")
        if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
            raise Refused("BENCHMARK.json workloads differ from those perfbench/run.py runs")


def import_suploc() -> None:
    """Import suploc afresh, compiling its sources."""
    for name in [m for m in sys.modules if m == "suploc" or m.startswith("suploc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    saved, sys.pycache_prefix = sys.pycache_prefix, NO_PYCACHE
    try:
        for name in ("suploc", "suploc.textio", "suploc.cli"):
            importlib.import_module(name)
    finally:
        sys.pycache_prefix = saved


def generate(workload: dict, seed: int) -> dict[str, dict[str, str]]:
    """{input directory: {file name: text}} of the workload."""
    if "factory" in workload:
        from perfbench.factory import factory
        return {"model": factory(workload["factory"])}
    from perfbench.randplants import batch
    return {f"r{i:04d}": files for i, files in enumerate(batch(seed, workload["random"]))}


def set_up(workload: dict, seed: int) -> tuple[float, dict]:
    """Import suploc afresh and generate the inputs' text; returns the time
    taken and the inputs."""
    t0 = time.perf_counter()
    import_suploc()
    model = generate(workload, seed)
    return time.perf_counter() - t0, model


def write_inputs(model: dict, work: str) -> list[str]:
    """Write the inputs; returns their configuration paths.  This is not
    part of set-up time: file creation on a shared disk is far noisier than
    the work measured."""
    from perfbench.autfile import write_model
    inputs = os.path.join(work, "inputs")
    for sub, files in model.items():
        write_model(os.path.join(inputs, sub), files)
    return [os.path.join(inputs, sub, "pipeline.cfg") for sub in sorted(model)]


class Iteration:
    """One pass over all of a workload's inputs."""

    def __init__(self):
        self.wall = 0.0
        self.runs = 0
        self.failures: list[str] = []
        self.counts: Counter = Counter()
        self.hashes: dict[str, str] = {}
        self.span_range = (0, 0)
        self.peak_rss_mb = 0.0


def count_outcome(counts: Counter, out, out_dir: str) -> None:
    from perfbench import checks, pipeline
    counts["controller_states"] += pipeline.controller_states(out)
    counts["textio.bytes_written"] += checks.artifact_bytes(out, out_dir)
    counts["pipeline.admitted"] += out.verdict == pipeline.ADMITTED
    counts["safety.sup_star_empty"] += out.verdict == pipeline.SUP_STAR_EMPTY
    counts["omegasynth.initial_lost"] += out.verdict == pipeline.INITIAL_LOST
    counts["omegasynth.existence_failed"] += out.verdict == pipeline.EXISTENCE_FAILED
    plant = out.plant.core
    counts["automata.plant_states"] += len(plant.states)
    counts["automata.plant_transitions"] += plant.n_transitions()
    counts["automata.plant_accepting"] += len(out.plant.accepting)
    if out.closed is not None:
        counts["safety.sup_star_states"] += len(out.closed.core.states)
        counts["safety.closed_accepting"] += len(out.closed.accepting)
    if out.product is not None:
        core, subset = out.product.core, out.ctr.subset
        counts["omegasynth.legal_product_states"] += len(core.states)
        counts["omegasynth.legal_product_buchi"] += len(out.product.buchi)
        counts["omegasynth.controllable_states"] += len(subset)
        counts["omegasynth.pruned_states"] += len(core.states) - len(subset)
        counts["omegasynth.refined_states"] += sum(
            1 for q in subset if frozenset(core.enabled(q)) != out.ctr.phi[q])
    if out.supw is not None:
        counts["omegasynth.sup_omega_states"] += len(out.supw.automaton.states)
        counts["omegasynth.sup_omega_transitions"] += out.supw.automaton.n_transitions()
    counts["localization.controllers"] += len(out.controllers)
    if out.report is not None:
        counts["verify.lassos_checked"] += out.report.checked_lassos


def run_iteration(configs, work, expect_admitted, reference, tracer=None):
    """Run the pipeline on every input.  Only the pipeline calls are timed.
    Each output is checked before the next run overwrites it: every run
    writes into the same directory, as repeated ``suploc pipeline`` runs
    do, because creating thousands of files on a shared disk is far noisier
    than rewriting them.  The first iteration (`reference` None) is checked
    in full; later ones must write the same bytes."""
    from perfbench import checks, pipeline
    it = Iteration()
    out_dir = os.path.join(work, "out")
    start_span = len(tracer.spans) if tracer else 0
    for i, cfg in enumerate(configs):
        it.runs += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = pipeline.run_pipeline(cfg, out_dir)
            else:
                with tracer.root():
                    out = pipeline.run_pipeline(cfg, out_dir)
        except Exception as exc:  # a raising instance counts as failed; go on
            it.wall += time.perf_counter() - t0
            it.failures.append(f"{cfg}: {type(exc).__name__}: {exc}")
            continue
        it.wall += time.perf_counter() - t0
        prefix = "" if len(configs) == 1 else f"r{i:04d}/"
        hashes = {prefix + k: v for k, v in checks.artifact_hashes(out, out_dir).items()}
        if reference is None:
            reason = checks.check_outcome(out, out_dir, expect_admitted=expect_admitted)
        else:
            same = all(reference.get(k) == v for k, v in hashes.items())
            reason = None if same else "artifacts differ from the first iteration"
        if reason:
            it.failures.append(f"{cfg}: {reason}")
        it.hashes.update(hashes)
        count_outcome(it.counts, out, out_dir)
    if tracer:
        it.span_range = (start_span, len(tracer.spans))
    it.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return it


def measure(configs, work, workload, budget, reference, tracer=None):
    """Iterations until the next one would end past `budget` seconds; at
    least one."""
    expect_admitted = "factory" in workload
    iters = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        iters.append(run_iteration(configs, work, expect_admitted, reference, tracer))
        if reference is None:
            reference = iters[0].hashes
        now = time.perf_counter()
        if now - start + (now - t0) > budget:
            return iters


def layer_metrics(it: Iteration, spans, own) -> dict[str, float]:
    from perfbench.spans import ROOT as ROOT_SPAN
    incl: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_by_layer: dict[str, float] = defaultdict(float)
    compose = wall = 0.0
    for idx in range(*it.span_range):
        name, start, end, parent = spans[idx]
        layer = name.split(".")[0]
        self_by_layer[layer] += own[idx]
        if name == ROOT_SPAN:
            wall += end - start
            continue
        incl[name] += end - start
        calls[name] += 1
        if layer == "automata" and spans[parent][0] == ROOT_SPAN:
            compose += end - start
    m = {name: sum(incl[s] for s in parts) for name, parts in SPAN_SUMS.items()}
    m["automata.compose_s"] = compose
    m["localization.build_congruence_calls"] = calls["localization.build_congruence"]
    for layer in LAYERS + (ROOT_SPAN,):
        m[f"{layer}.self_s"] = self_by_layer[layer]
    m["pipeline.wall_s"] = wall
    return m


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    workload = WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        # Set-up runs half of its repeats before the measuring and half
        # after it, so that its median spans the machine's speed swings.
        import_suploc()  # loads the standard modules suploc needs, untimed
        setup_times = []
        for _ in range(SETUP_REPEATS // 2):
            dt, model = set_up(workload, seed)
            setup_times.append(dt)
        configs = write_inputs(model, work)
        # checks and pipeline import suploc, so they are first imported here,
        # after set-up has imported it for the last time
        from perfbench import checks, spans

        self_failures = []
        for reason in (checks.corpus_identity(ROOT), checks.cli_identity(ROOT, work)):
            if reason:
                self_failures.append("self-check: " + reason)

        budget = seconds / 2 if trace else seconds
        plain = measure(configs, work, workload, budget, None)
        reference = plain[0].hashes
        traced = []
        tracer = None
        if trace:
            tracer = spans.Tracer()
            patches = spans.install(tracer)
            try:
                traced = measure(configs, work, workload, budget, reference, tracer)
            finally:
                spans.uninstall(patches)
        else:
            while len(setup_times) < SETUP_REPEATS:
                setup_times.append(set_up(workload, seed)[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    iters = plain + traced
    failures = self_failures + [f for it in iters for f in it.failures]
    attempted = sum(it.runs for it in iters)
    failed = sum(len(it.failures) for it in iters)
    plain_wall = statistics.median([it.wall for it in plain])
    first = plain[0].counts
    if trace:
        own = spans.self_times(tracer.spans)
        per_iter = [layer_metrics(it, tracer.spans, own) for it in traced]
        values = {k: statistics.median([m[k] for m in per_iter]) for k in per_iter[0]}
        values.update({k: first[k] for k in PER_LAYER if k not in values})
        values["bench.trace_overhead_s"] = statistics.median([it.wall for it in traced]) - plain_wall
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": plain_wall,
            # after the first iteration, so the number of iterations does
            # not move it
            "peak_rss_mb": plain[0].peak_rss_mb,
            "controller_states": first["controller_states"],
        }
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    digest = hashlib.sha256(json.dumps(plain[0].hashes, sort_keys=True).encode()).hexdigest()
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "setup_times_s": setup_times,
        "walls_s": {"untraced": [it.wall for it in plain], "traced": [it.wall for it in traced]},
        "verdicts": {k: first[k] for k in ("pipeline.admitted", "safety.sup_star_empty",
                                            "omegasynth.initial_lost",
                                            "omegasynth.existence_failed")},
        "fail_frac": failed / attempted,
        "failures": failures[:50],
        "sha256_digest": digest,
        "sha256": plain[0].hashes,
        "result": result,
    }
    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(stem + ".spans.json")
    return record, failures


def report_lines(record: dict) -> list[str]:
    res = record["result"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  iterations "
             f"{record['iterations']['untraced']} untraced, {record['iterations']['traced']} traced"]
    wall = res["metrics"].get("pipeline.wall_s", {}).get("value")
    for k, m in res["metrics"].items():
        share = ""
        if wall and k.endswith(".self_s"):
            share = f"  ({100 * m['value'] / wall:.1f}% of traced wall)"
        lines.append(f"  {k:40s} {m['value']:>14.6g} {m['unit']}{share}")
    lines.append(f"  {'fail_frac':40s} {record['fail_frac']:>14.6g} ratio "
                 f"({res['failed']} of {res['attempted']})")
    verdicts = ", ".join(f"{k.split('.')[-1]} {v}" for k, v in record["verdicts"].items())
    lines.append(f"  verdicts (per iteration): {verdicts}")
    lines.append(f"  sha256 of supervisors and controllers: {record['sha256_digest']}")
    for f in record["failures"][:10]:
        lines.append(f"  FAILED {f}")
    return lines


def run_all(args) -> int:
    """Each workload in a fresh process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 and not lines:
            raise Refused(f"{name}: exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"] and proc.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        check_checkout()
        if args.workload == "all":
            return run_all(args)
        sys.path[:0] = [ROOT, SRC]
        record, failures = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report_lines(record)))
    print(json.dumps(record["result"]))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
