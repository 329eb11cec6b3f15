"""Supervisor synthesis and per-event localization for discrete-event
systems with infinite behavior."""

from .automata import (
    Alphabet,
    AutomatonError,
    BuchiAutomaton,
    LassoVerdict,
    LassoWord,
    RabinBuchiAutomaton,
    StarAutomaton,
    all_accepting,
    buchi_intersection,
    buchi_lift,
    lasso_in_star,
    reachable_trim,
    run_lasso,
    run_star,
    sync_product,
    totalize,
)
from .localization import (
    ControlCongruence,
    EnableDisableProfile,
    Kind,
    LocalController,
    Part,
    build_congruence,
    build_local_controller,
    consistent,
    localize_all,
    profile_liveness,
    profile_safety,
)
from .omega import (
    StarLanguageHandle,
    clo_automaton,
    is_deadlock_free,
    omega_contained_single_pair,
    pre_automaton,
    star_contained,
    star_equal,
)
from .omegasynth import (
    ControllabilityResult,
    OmegaSupervisor,
    assemble_fomega,
    build_rabin_buchi,
    controllability_subset,
    existence_check,
    inf_closure,
    restrict_sup,
)
from .safety import (
    SafetySupervisor,
    check_star_controllability,
    controlled_plant,
    sup_con_star,
)
from .verify import (
    EquivalenceReport,
    VerificationError,
    brute_force_controllability,
    brute_force_min_congruence,
    check_finite_equivalence,
    check_infinite_equivalence,
    lemma1_harness,
)
