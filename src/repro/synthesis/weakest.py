"""Weakest-precondition machinery for synthesis.

Two region computations drive the synthesis algorithms:

- :func:`fault_unsafe_region` — the set ``ms`` of states from which the
  *fault actions alone* can violate the safety specification.  No
  program restriction can help once the state is in ``ms`` (the program
  cannot prevent fault steps), so a fail-safe program must never enter
  it.  Seeded with the bad states and the sources of bad fault
  transitions, then closed backward along the reversed fault edges by
  :func:`~repro.core.regions.closure_mask` — each fault edge is
  examined once (the set-based version rescanned the whole universe
  per pass, O(|S|²·|F|)).
- :func:`safe_action_predicate` — the weakest predicate under which
  executing a given action neither violates safety directly nor enters
  ``ms``.  This is the *detection predicate* the synthesized detector
  checks before permitting the action (Theorem 3.3 guarantees its
  existence; here we additionally close it under fault reachability).

Both read a :class:`~repro.core.regions.StateIndex`'s per-action edge
arrays, and evaluate the specification's checks only on edges whose
source is still undecided; the synthesis pipelines pass the program's
shared universe index so successor relations and safety sweeps are
computed once per space, not once per call.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Set

from ..core.action import Action
from ..core.faults import FaultClass
from ..core.invariants import (
    _passing_bits,
    _safety_checks,
    _successors_allowed,
)
from ..core.predicate import Predicate
from ..core.regions import (
    StateIndex,
    _pack_bits,
    _unpack_bits,
    closure_mask,
    iter_bits,
    mark_failing_sources,
    predecessor_csr,
)
from ..core.specification import Spec
from ..core.state import State

__all__ = ["fault_unsafe_region", "safe_action_predicate"]


def fault_unsafe_region(
    faults: FaultClass,
    spec: Spec,
    states: Iterable[State],
) -> Set[State]:
    """The states from which fault actions alone can violate safety.

    Seed: states that are themselves bad, plus sources of bad fault
    transitions.  Fixpoint: any state with a fault edge into the region
    joins it (backward closure along the reversed fault edges).
    """
    state_checks, transition_checks = _safety_checks(spec.safety_part())
    index = StateIndex(states)
    unsafe_bits = _fault_unsafe_bits(
        index, faults.actions, state_checks, transition_checks
    )
    index_states = index.states
    return {index_states[i] for i in iter_bits(unsafe_bits, index.n)}


def _fault_unsafe_bits(
    index: StateIndex,
    fault_actions: Sequence[Action],
    state_checks: Sequence[Callable[[State], bool]],
    transition_checks: Sequence[Callable[[State, State], bool]],
) -> int:
    """Bits of the paper's ``ms`` region over ``index``.

    The seed is the bad states and the sources of bad (or
    index-escaping-into-badness) fault transitions; one closure along
    the reversed fault edges completes it.
    """
    states = index.states
    region = ~_unpack_bits(_passing_bits(index, state_checks), index.n)
    edges = [index.action_edges(action) for action in fault_actions]
    for src, dst, extern in edges:
        mark_failing_sources(states, src, dst, transition_checks, region)
        for u, outside in extern.items():
            # successors beyond the given universe still count as
            # violations when they are bad states or bad transitions
            # (matching the set-based semantics exactly); a *good*
            # out-of-universe successor can never be in the region
            if not region[u] and not _successors_allowed(
                states[u], outside, state_checks, transition_checks
            ):
                region[u] = True
    indptr, preds = predecessor_csr(edges, index.n)
    return _pack_bits(closure_mask(indptr, preds, region))


def safe_action_predicate(
    action: Action,
    spec: Spec,
    unsafe: Set[State],
    states: Iterable[State],
    name: str = "",
) -> Predicate:
    """The weakest detection predicate for ``action`` that also avoids
    the fault-unsafe region.

    A state qualifies iff it is outside ``unsafe`` and every successor
    the action can produce is an allowed state, reached by an allowed
    transition, outside ``unsafe``.
    """
    state_checks, transition_checks = _safety_checks(spec.safety_part())
    index = StateIndex(states)
    good_bits = _safe_action_bits(
        index, action, index.region_of(unsafe).bits, state_checks,
        transition_checks, extern_unsafe=unsafe,
    )
    index_states = index.states
    return Predicate.from_states(
        (index_states[i] for i in iter_bits(good_bits, index.n)),
        name=name or f"safe({action.name})",
    )


def _safe_action_bits(
    index: StateIndex,
    action: Action,
    unsafe_bits: int,
    state_checks: Sequence[Callable[[State], bool]],
    transition_checks: Sequence[Callable[[State, State], bool]],
    extern_unsafe=None,
) -> int:
    """Bits of the safe-execution predicate of ``action``: sources
    outside ``unsafe`` all of whose successors are allowed and outside
    ``unsafe``.  One pass over the action's edges: an edge into
    ``unsafe`` rules its source out at once, and the checks run only on
    the edges of sources still in."""
    states = index.states
    src, dst, extern = index.action_edges(action)
    unsafe = _unpack_bits(unsafe_bits, index.n)
    bad = unsafe.copy()
    bad[src[unsafe[dst]]] = True
    checks = [
        (lambda source, target, check=check: check(target))
        for check in state_checks
    ] + list(transition_checks)
    mark_failing_sources(states, src, dst, checks, bad)
    for u, outside in extern.items():
        if not bad[u] and not _successors_allowed(
            states[u], outside, state_checks, transition_checks,
            forbidden=extern_unsafe,
        ):
            bad[u] = True
    return _pack_bits(~bad)
