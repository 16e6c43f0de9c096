"""The executable formal model of Arora & Kulkarni's theory.

This package implements Section 2 of the paper — programs, state
predicates, specifications, faults, and the three fault-tolerance classes
— together with the detector (Section 3) and corrector (Section 4)
component specifications and their checkers.

The public names re-exported here form the library's primary API; see the
README quickstart and :mod:`repro.programs.memory_access` for worked
usage.
"""

from .action import Action, Statement, assign, choose, skip
from .computation import Computation, enumerate_computations, random_computation
from .corrector import (
    corrects_spec,
    is_corrector,
    is_failsafe_tolerant_corrector,
    is_masking_tolerant_corrector,
    is_nonmasking_tolerant_corrector,
)
from .detector import (
    detects_spec,
    is_detector,
    is_failsafe_tolerant_detector,
    is_masking_tolerant_detector,
    is_nonmasking_tolerant_detector,
)
from .exploration import (
    Edge,
    TransitionSystem,
    clear_all_caches,
    clear_system_cache,
    explored_system,
)
from .fairness import (
    check_converges_to,
    check_leads_to,
    fair_recurrent_sccs,
    strongly_connected_components,
)
from .faults import FaultClass, crash_variable, perturb_variable, set_variable
from .kernels import (
    CodeReach,
    KernelError,
    Plan,
    census_start_codes,
    clear_kernel_caches,
    explore_code_shard,
    explore_codes,
    get_backend,
    merge_code_reaches,
    resolved_backend,
    set_backend,
)
from .invariants import (
    is_detection_predicate,
    largest_invariant_for_safety,
    reachable_invariant,
    weakest_detection_predicate,
)
from .predicate import FALSE, TRUE, EvaluatorMemo, Predicate, var_eq, var_in, var_ne
from .program import Program
from .refinement import (
    refines_program,
    refines_spec,
    start_states_of,
    system_from,
    violates_spec,
)
from .results import CheckResult, Counterexample, all_of
from .specification import (
    LeadsTo,
    Spec,
    SpecComponent,
    StateInvariant,
    TransitionInvariant,
    closure_spec,
    converges_spec,
    generalized_pair,
    invariant_spec,
    maintains,
)
from .state import BOTTOM, Schema, State, StateInterner, Variable, state_space
from .symmetry import (
    Canonicalizer,
    ReplicaSymmetry,
    RingRotation,
    Symmetry,
    SymmetryError,
    ValueRotation,
)
from .multitolerance import ToleranceRequirement, is_multitolerant
from .tolerance import (
    check_implication,
    is_failsafe_tolerant,
    is_masking_tolerant,
    is_nonmasking_tolerant,
    is_tolerant,
    semantic_tolerance_check,
)

__all__ = [
    # state & predicates
    "BOTTOM", "Schema", "State", "StateInterner", "Variable", "state_space",
    "Predicate", "EvaluatorMemo", "TRUE", "FALSE", "var_eq", "var_ne", "var_in",
    # actions & programs
    "Action", "Statement", "assign", "choose", "skip", "Program",
    # exploration & fairness
    "TransitionSystem", "Edge",
    "strongly_connected_components", "fair_recurrent_sccs",
    "check_leads_to", "check_converges_to",
    # specifications
    "Spec", "SpecComponent", "StateInvariant", "TransitionInvariant", "LeadsTo",
    "closure_spec", "generalized_pair", "converges_spec", "invariant_spec",
    "maintains",
    # computations
    "Computation", "enumerate_computations", "random_computation",
    # refinement
    "refines_spec", "refines_program", "violates_spec",
    "start_states_of", "system_from",
    "explored_system", "clear_system_cache", "clear_all_caches",
    # batch kernels
    "Plan", "KernelError", "CodeReach", "explore_codes",
    "explore_code_shard", "census_start_codes", "merge_code_reaches",
    "set_backend", "get_backend", "resolved_backend", "clear_kernel_caches",
    # symmetry
    "Symmetry", "SymmetryError", "ReplicaSymmetry", "RingRotation",
    "ValueRotation", "Canonicalizer",
    # faults & tolerance
    "FaultClass", "perturb_variable", "set_variable", "crash_variable",
    "check_implication",
    "is_failsafe_tolerant", "is_nonmasking_tolerant", "is_masking_tolerant",
    "is_tolerant", "semantic_tolerance_check",
    "ToleranceRequirement", "is_multitolerant",
    # detectors & correctors
    "detects_spec", "is_detector",
    "is_failsafe_tolerant_detector", "is_masking_tolerant_detector",
    "is_nonmasking_tolerant_detector",
    "corrects_spec", "is_corrector",
    "is_failsafe_tolerant_corrector", "is_masking_tolerant_corrector",
    "is_nonmasking_tolerant_corrector",
    # invariants
    "reachable_invariant", "largest_invariant_for_safety",
    "weakest_detection_predicate", "is_detection_predicate",
    # results
    "CheckResult", "Counterexample", "all_of",
]
