"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines for passing
criteria too.  Every expected value is asserted exactly as stated.  Criteria
2-4 check properties decided by exact language comparison or by the
independent oracles of `tests/oracles.py`.  CHANGES.md holds the analysis
behind them: the enumeration of every memoryless pattern map on the factory's
legal product, and why criterion 2 fails (the product's Buchi layer is not
language-exact).
"""

import random
import time

from harness import (
    brute_force_min_congruence,
    lemma1_harness,
    random_alphabet,
    random_pipeline,
    random_single_pair,
    random_star_automaton,
)
from oracles import (
    disabling_states,
    joint_states,
    language_equal_upto,
    pattern_map_wins_on,
    piecewise_supervisor,
    restorable_drops,
    winning_region_by_enumeration,
)
from suploc.automata import (
    BuchiAutomaton,
    StarAutomaton,
    all_accepting,
    buchi_intersection,
)
from suploc.localization import (
    Kind,
    LocalController,
    Part,
    build_congruence,
    localize_all,
    profile_liveness,
)
from suploc.omega import clo_automaton, omega_contained_single_pair
from suploc.omegasynth import (
    assemble_fomega,
    build_rabin_buchi,
    controllability_subset,
)
from suploc.safety import controlled_plant, sup_con_star
from suploc.verify import check_finite_equivalence, check_infinite_equivalence
from suploc.localization import EnableDisableProfile, check_congruence


def report(num, title, budget, t0, checks):
    elapsed = time.time() - t0
    ok = all(c[1] for c in checks) and elapsed <= budget
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {title}  ({elapsed:.2f}s / {budget}s)"
    print("\n" + line)
    for label, good, got in checks:
        print(f"    {'ok      ' if good else 'MISMATCH'} {label}: {got}")
    assert ok, line + "  " + "; ".join(
        f"{label}={got}" for label, good, got in checks if not good)


def test_criterion_01_safety_supervisor(sf):
    t0 = time.time()
    sup = sup_con_star(sf["plant"], sf["spec"])
    closed = controlled_plant(sf["plant"], sup)
    checks = [
        ("states == 8", len(sup.automaton.states) == 8, len(sup.automaton.states)),
        ("transitions == 14", sup.automaton.n_transitions() == 14,
         sup.automaton.n_transitions()),
        ("|B_X*| == 5", len(closed.accepting) == 5, len(closed.accepting)),
    ]
    report(1, "safety supervisor 8/14, marking 5", 1.0, t0, checks)


def test_criterion_02_legal_product(sf):
    t0 = time.time()
    prod = build_rabin_buchi(sf["closed"], sf["maxspec"])
    r, _i = prod.single_pair()
    # the Buchi layer must accept exactly plant ^ lim(SUP*) ^ clo(E_l)
    layer = BuchiAutomaton(prod.core, prod.buchi)
    exact = buchi_intersection(
        buchi_intersection(sf["plant"], all_accepting(sf["sup"].automaton)),
        clo_automaton(sf["maxspec"]))
    sound, extra = omega_contained_single_pair(layer, exact)
    complete, missing = omega_contained_single_pair(exact, layer)
    checks = [
        ("states == 27", len(prod.core.states) == 27, len(prod.core.states)),
        ("Buchi layer <= plant ^ lim(SUP*) ^ clo(E_l)", sound, extra),
        ("Buchi layer >= plant ^ lim(SUP*) ^ clo(E_l)", complete, missing),
        ("|R_1| == 4", len(r) == 4, len(r)),
    ]
    report(2, "three-layer legal product 27 states, exact Buchi layer, |R_1| 4",
           1.0, t0, checks)


def _maximality_violations(prod, alphabet, phi, region):
    """Dropped controllable events that phi could restore and still win."""
    return [(q, e) for q, e in restorable_drops(prod, alphabet, phi, region)
            if pattern_map_wins_on(prod, alphabet, {**phi, q: phi[q] | {e}}, region)]


def test_criterion_03_controllability(sf):
    t0 = time.time()
    prod, alphabet = sf["prod"], sf["plant"].alphabet
    ctr = controllability_subset(prod, alphabet)
    core = prod.core
    refined = {q: set(core.enabled(q)) - ctr.phi[q]
               for q in ctr.subset if ctr.phi[q] != frozenset(core.enabled(q))}
    unc = alphabet.uncontrollable
    drops = restorable_drops(prod, alphabet, ctr.phi, ctr.subset)
    restorable = _maximality_violations(prod, alphabet, ctr.phi, ctr.subset)
    checks = [
        ("C == all 27 states", ctr.subset == frozenset(core.states), len(ctr.subset)),
        ("phi wins from every state of C",
         pattern_map_wins_on(prod, alphabet, ctr.phi, ctr.subset),
         f"{len(refined)} states refined"),
        ("phi maximal: restoring any dropped event loses",
         not restorable, restorable or f"{len(drops)} drops"),
        ("no uncontrollable dropped",
         all(not (evs & unc) for evs in refined.values()), sorted(refined)),
    ]
    report(3, "controllability subset and maximal winning pattern map", 5.0, t0, checks)


# strings of this length reach every SUPw state of the factory (the deepest
# needs 9 events); criterion 4 checks that coverage
ORACLE_LEN = 14


def test_criterion_04_liveness_supervisor(sf):
    t0 = time.time()
    prod, ctr, alphabet = sf["prod"], sf["ctr"], sf["plant"].alphabet
    supw = assemble_fomega(sf["asup"], ctr, sf["minimal"], existence_verified=True)
    states = set(supw.automaton.states)
    oracle = piecewise_supervisor(sf["asup"], ctr.subset, ctr.phi, sf["minimal"], ORACLE_LEN)
    joint = joint_states(supw.automaton, prod.core, ORACLE_LEN)
    lifted = frozenset(x for x, q in joint if q in prod.buchi)
    phi_ok = pattern_map_wins_on(prod, alphabet, ctr.phi, ctr.subset) and \
        not _maximality_violations(prod, alphabet, ctr.phi, ctr.subset)
    dis, want = {}, {}
    for alpha in ("a1", "a2"):
        prof = profile_liveness(sf["closed"], supw, alpha, Part.NONE)
        dis[alpha] = {x for x, v in prof.disable.items() if v}
        want[alpha] = disabling_states(supw.automaton, sf["closed"].core, alpha, ORACLE_LEN)
    checks = [
        ("built on a maximal winning pattern map", phi_ok, phi_ok),
        (f"L(SUP^w) == piecewise supervisor (strings <= {ORACLE_LEN})",
         language_equal_upto(supw.automaton, oracle, ORACLE_LEN),
         len(supw.automaton.states)),
        ("one product state per SUP^w state",
         {x for x, _q in joint} == states and len(joint) == len(states), len(joint)),
        ("B_X^w == product Buchi layer lifted", supw.buchi_lift == lifted,
         (len(supw.buchi_lift), len(lifted))),
        ("a1 disablement == enumerated", dis["a1"] == want["a1"],
         (len(dis["a1"]), len(want["a1"]))),
        ("a2 disablement == enumerated", dis["a2"] == want["a2"],
         (len(dis["a2"]), len(want["a2"]))),
    ]
    report(4, "liveness supervisor == piecewise oracle, lifted marking, disablement",
           5.0, t0, checks)


def test_criterion_05_localization_shape(sf):
    t0 = time.time()
    controllers = localize_all(sf["plant"], sf["sup"], sf["closed"], sf["supw"])
    safety = [c for c in controllers if c.kind is Kind.SAFETY]
    live = [c for c in controllers if c.kind is Kind.LIVENESS]
    c1_sizes = [len(c.automaton.states) for c in live if c.part is Part.C1]
    checks = [
        ("2 safety controllers", len(safety) == 2, len(safety)),
        ("4 liveness controllers", len(live) == 4, len(live)),
        ("on-track controllers collapse to 1 state",
         c1_sizes == [1, 1], c1_sizes),
    ]
    report(5, "localization arity and on-track collapse", 5.0, t0, checks)


def test_criterion_06_finite_equivalence_and_mutations(sf):
    t0 = time.time()
    base = check_finite_equivalence(sf["plant"], sf["sup"], sf["supw"], sf["controllers"])
    undetected = []
    total = 0
    for idx, victim in enumerate(sf["controllers"]):
        for key in sorted(victim.automaton.transitions.keys(),
                          key=lambda k: (str(k[0]), k[1])):
            total += 1
            trans = {k: v for k, v in victim.automaton.transitions.items() if k != key}
            mutated = LocalController(
                StarAutomaton(victim.automaton.alphabet, victim.automaton.states,
                              victim.automaton.initial, trans),
                victim.event, victim.kind, victim.part)
            controllers = list(sf["controllers"])
            controllers[idx] = mutated
            rep = check_finite_equivalence(sf["plant"], sf["sup"], sf["supw"], controllers)
            if rep.finite_ok:
                undetected.append((idx, key))
    checks = [
        ("collective == supervised behavior", base.finite_ok, base.sub_results),
        (f"all {total} single-transition deletions detected",
         not undetected, undetected or total),
    ]
    report(6, "finite control equivalence + mutation robustness", 5.0, t0, checks)


def test_criterion_07_infinite_equivalence(sf):
    t0 = time.time()
    rep = check_infinite_equivalence(
        sf["plant"], sf["sup"], sf["supw"], sf["controllers"],
        lasso_budget=500, seed=2026, max_cycle=12)
    checks = [
        ("tier-1 certification", rep.sub_results["tier1"] is True,
         rep.sub_results["tier1"]),
        ("500 lassos, zero tier-2 disagreements",
         rep.checked_lassos == 500 and rep.sub_results["tier2_disagreements"] == 0,
         rep.sub_results["tier2_disagreements"]),
        ("infinite behaviors equivalent", bool(rep.infinite_ok), rep.infinite_ok),
    ]
    report(7, "infinite control equivalence (two tiers)", 30.0, t0, checks)


def _split_obeys_bound(closed, supw, alphabet):
    # mirror localize_all: scoped merging starts from the undivided partition
    bad = []
    for alpha in sorted(alphabet.controllable):
        undivided = profile_liveness(closed, supw, alpha, Part.NONE)
        cu = build_congruence(supw.automaton, undivided)
        for part in (Part.C1, Part.C2):
            prof = profile_liveness(closed, supw, alpha, part)
            cong = build_congruence(supw.automaton, prof, seed=cu)
            if len(cong.cells) > len(cu.cells):
                bad.append((alpha, part.value, len(cong.cells), len(cu.cells)))
    return bad


def test_criterion_08_part_split_bound(sf):
    t0 = time.time()
    violations = _split_obeys_bound(sf["closed"], sf["supw"], sf["plant"].alphabet)
    rng = random.Random(808)
    built = 0
    attempts = 0
    while built < 20 and attempts < 800:
        attempts += 1
        inst = random_pipeline(rng)
        if inst is None:
            continue
        built += 1
        violations += _split_obeys_bound(inst["closed"], inst["supw"], inst["alphabet"])
    checks = [
        ("factory + 20 random pipelines checked", built == 20, built),
        ("no controller exceeds the undivided localization",
         not violations, violations or "0 violations"),
    ]
    report(8, "part-split state-count bound", 120.0, t0, checks)


def test_criterion_09_oracle_agreement():
    t0 = time.time()
    rng = random.Random(909)
    mismatches = []
    for trial in range(50):
        al = random_alphabet(rng)
        a = random_single_pair(rng, al, rng.randint(2, 6))
        fx = controllability_subset(a, al).subset
        bf = winning_region_by_enumeration(a, al)
        if fx != bf:
            mismatches.append(trial)
    cong_bad = []
    for trial in range(50):
        al = random_alphabet(rng, 3)
        aut = random_star_automaton(rng, al, rng.randint(2, 8))
        alpha = sorted(al.controllable)[0]
        enable = {x: (x, alpha) in aut.transitions for x in aut.states}
        disable = {x: (not enable[x]) and rng.random() < 0.4 for x in aut.states}
        prof = EnableDisableProfile(alpha, enable, disable)
        greedy = build_congruence(aut, prof)
        if not check_congruence(aut, prof, greedy):
            cong_bad.append(("invalid", trial))
            continue
        best = brute_force_min_congruence(aut, prof)
        if len(greedy.cells) < len(best.cells):
            cong_bad.append(("below-minimum", trial))
    checks = [
        ("game == brute force on 50 instances", not mismatches, mismatches or 50),
        ("greedy congruence valid and >= brute minimum on 50 profiles",
         not cong_bad, cong_bad or 50),
    ]
    report(9, "oracle agreement (controllability, congruence)", 300.0, t0, checks)


def test_criterion_10_lemma1_harness():
    t0 = time.time()
    out = lemma1_harness(trials=100, seed=1010, lassos=50)
    checks = [
        ("100 pairs x 50 lassos", out["checked_lassos"] == 5000, out["checked_lassos"]),
        ("zero biconditional violations", out["violations"] == 0, out["violations"]),
    ]
    report(10, "limit distributes over intersection (harness)", 60.0, t0, checks)
