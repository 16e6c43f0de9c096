"""Invariants and detection predicates.

Two calculations underpin both the theory (Section 3.2) and the synthesis
methods (the companion work [4]):

1. **Invariant computation.**  An invariant of ``p`` for SPEC is a
   predicate ``S`` such that ``p`` refines SPEC from ``S``.  One
   canonical invariant is the set of states reachable from designated
   start states (:func:`reachable_invariant`); the paper notes that
   *larger* invariants are often methodologically preferable, and
   :func:`largest_invariant_for_safety` computes the largest predicate
   from which a safety specification is refined (greatest fixpoint:
   remove bad states and states with an escaping transition until
   stable).

2. **Weakest detection predicates.**  Theorem 3.3 shows that for each
   action there exists a predicate from which executing the action
   maintains SPEC; :func:`weakest_detection_predicate` computes the
   *weakest* one for transition-level safety specs: the set of states
   where the state itself is unobjectionable and every successor the
   action can produce keeps the specification.  Detection predicates are
   closed under disjunction and weakening-into (if ``X ⇒ sf`` and ``sf``
   is a detection predicate, so is ``X``) — properties the test suite
   validates directly.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Set

from .action import Action
from .exploration import TransitionSystem, explored_system
from .predicate import Predicate
from .program import Program
from .regions import Region, StateIndex, largest_closed_subset_bits, universe_index
from .specification import Spec, StateInvariant, TransitionInvariant
from .state import State

__all__ = [
    "reachable_invariant",
    "largest_invariant_for_safety",
    "weakest_detection_predicate",
    "is_detection_predicate",
]


def reachable_invariant(
    program: Program,
    start_states: Iterable[State],
    name: str = "reach",
) -> Predicate:
    """The predicate "reachable from ``start_states`` under ``program``".

    Always closed in the program, hence an invariant candidate.
    """
    ts = explored_system(program, tuple(start_states))
    return Predicate.from_states(ts.states, name=name)


def _safety_checks(spec: Spec):
    """Extract (state predicate, transition relation) checkers from the
    safety components of a component-form spec."""
    state_checks: List[Callable[[State], bool]] = []
    transition_checks: List[Callable[[State, State], bool]] = []
    for component in spec.components:
        if isinstance(component, StateInvariant):
            # raw predicate function: these checks run per state per
            # sweep in every synthesis pass, so skip the __call__ frame
            state_checks.append(component.predicate.fn)
        elif isinstance(component, TransitionInvariant):
            transition_checks.append(component.relation)
        elif component.kind == "safety":  # pragma: no cover - future kinds
            raise TypeError(
                f"unsupported safety component {type(component).__name__}"
            )
    return state_checks, transition_checks


def _successors_allowed(
    state: State,
    successors: Iterable[State],
    state_checks: Sequence[Callable[[State], bool]],
    transition_checks: Sequence[Callable[[State, State], bool]],
    forbidden=None,
) -> bool:
    """The "every successor is allowed" scan shared by the detection-
    predicate calculations here and by ``synthesis/weakest.py``: every
    successor must be an allowed state, reached by an allowed
    transition, and (when ``forbidden`` is given — any container with
    membership) outside the forbidden region."""
    for successor in successors:
        if forbidden is not None and successor in forbidden:
            return False
        if not all(check(successor) for check in state_checks):
            return False
        if not all(check(state, successor) for check in transition_checks):
            return False
    return True


def largest_invariant_for_safety(
    program: Program,
    spec: Spec,
    name: Optional[str] = None,
) -> Predicate:
    """Greatest fixpoint: the largest predicate ``S`` such that ``S`` is
    closed in ``program`` and every computation from ``S`` satisfies the
    safety part of ``spec``.

    Computed over the full state space: start from the states that are
    not themselves bad, then remove states having some transition that
    is bad or leaves the current set.  (Transitions *leaving* the
    candidate set must be removed because closure of ``S`` is part of
    the paper's definition of refinement from ``S``.)  The fixpoint runs
    as one backward closure along the program's indexed edge arrays —
    O(V+E) — instead of rescanning the candidate set until stable.
    """
    state_checks, transition_checks = _safety_checks(spec.safety_part())
    index = universe_index(program) or StateIndex(program.states())
    good_bits = _passing_bits(index, state_checks)
    closed_bits = largest_closed_subset_bits(
        index, [index.action_edges(a) for a in program.actions], good_bits,
        transition_checks,
    )
    return Region(index, closed_bits).to_predicate(
        name or f"gfp_safe({spec.name})"
    )


def _passing_bits(index: StateIndex, state_checks) -> int:
    """Bits of the index states passing every state check."""
    if not state_checks:
        return index.full_bits
    buf = bytearray((index.n + 7) >> 3)
    for i, state in enumerate(index.states):
        if all(check(state) for check in state_checks):
            buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def weakest_detection_predicate(
    action: Action,
    spec: Spec,
    states: Iterable[State],
    name: Optional[str] = None,
) -> Predicate:
    """The weakest detection predicate of ``action`` for the safety part
    of ``spec`` (Theorem 3.3 / the *detection predicate* definition).

    A state belongs iff it is not itself bad and every successor the
    action can produce from it is an allowed state reached by an allowed
    transition.  States where the action is disabled belong trivially
    (executing a disabled action is a no-op in guarded-command
    semantics, so it vacuously maintains the specification).
    """
    state_checks, transition_checks = _safety_checks(spec.safety_part())
    good: List[State] = []
    for state in states:
        if not all(check(state) for check in state_checks):
            continue
        if _successors_allowed(
            state, action.successors(state), state_checks, transition_checks
        ):
            good.append(state)
    return Predicate.from_states(
        good, name=name or f"wdp({action.name},{spec.name})"
    )


def is_detection_predicate(
    predicate: Predicate,
    action: Action,
    spec: Spec,
    states: Iterable[State],
) -> bool:
    """True iff executing ``action`` in any state satisfying ``predicate``
    maintains the safety part of ``spec``."""
    state_checks, transition_checks = _safety_checks(spec.safety_part())
    for state in states:
        if not predicate(state):
            continue
        if not all(check(state) for check in state_checks):
            return False
        if not _successors_allowed(
            state, action.successors(state), state_checks, transition_checks
        ):
            return False
    return True
