"""Fail-safe synthesis: add detectors to a fault-intolerant program.

Given a program ``p``, a specification, and a fault-class ``F``,
:func:`add_failsafe` produces a program ``p'`` in which every action of
``p`` is restricted (``sf ∧ ac``, the paper's ∧-composition) to a
detection predicate ``sf`` computed so that

- executing the action never violates the safety specification, and
- execution never enters the region from which faults alone can violate
  it (:func:`~repro.synthesis.weakest.fault_unsafe_region`).

The result is fail-safe F-tolerant by construction: from any state the
restricted program can reach, no program or fault step violates safety.
The certifying invariant is the largest predicate closed in ``p'`` from
which safety holds outside the fault-unsafe region, and the certifying
fault-span is the reachable set of ``p' [] F`` from it.

The detectors added here are exactly the ones Theorem 3.4 says must
exist in any fail-safe tolerant refinement: each restricted action
``sf ∧ g --> st`` *is* a detector with witness ``sf ∧ g`` and detection
predicate ``sf``.

The whole pipeline runs over the program's shared full-space
:class:`~repro.core.regions.StateIndex`: the ``ms`` region and the
per-action safe predicates are single indexed passes, the certifying
invariant is one backward closure (the two greatest fixpoints of the
set-based formulation — largest safe invariant, then closure outside
``ms`` — coincide with the single fixpoint seeded by their
conjunction), and the restricted actions' edges are the base actions'
edge arrays masked by their detection predicates instead of
re-evaluating any statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.exploration import TransitionSystem
from ..core.faults import FaultClass
from ..core.invariants import _passing_bits, _safety_checks
from ..core.predicate import Predicate
from ..core.program import Program
from ..core.regions import (
    Region,
    StateIndex,
    _unpack_bits,
    largest_closed_subset_bits,
    universe_index,
)
from ..core.results import CheckResult
from ..core.specification import Spec
from ..core.tolerance import is_failsafe_tolerant
from .weakest import _fault_unsafe_bits, _safe_action_bits

__all__ = ["FailsafeSynthesis", "add_failsafe"]


@dataclass(frozen=True)
class FailsafeSynthesis:
    """Output of :func:`add_failsafe`."""

    program: Program                       #: the synthesized p'
    detection_predicates: Dict[str, Predicate]  #: per original action
    unsafe: Predicate                      #: ms — fault-unsafe region
    invariant: Predicate                   #: certifying invariant S'
    span: Predicate                        #: certifying fault-span T'

    def verify(self, faults: FaultClass, spec: Spec) -> CheckResult:
        """Re-check the synthesized program's fail-safe tolerance."""
        return is_failsafe_tolerant(
            self.program, faults, spec, self.invariant, self.span
        )


# add_failsafe is a pure function of its (immutable) arguments, and the
# masking pipeline re-runs it on the same triple the caller typically
# just synthesized — memoize per argument identity.  Cleared with the
# state caches so benchmark repetitions stay honest.
_FAILSAFE_MEMO: Dict[tuple, FailsafeSynthesis] = {}
_FAILSAFE_MEMO_MAXSIZE = 32

Program.register_cache_clearer(_FAILSAFE_MEMO.clear)


def add_failsafe(
    program: Program,
    faults: FaultClass,
    spec: Spec,
    name: Optional[str] = None,
) -> FailsafeSynthesis:
    """Synthesize a fail-safe F-tolerant version of ``program``.

    Raises ``ValueError`` if the synthesized invariant is empty (no
    state from which the program both is safe and stays safe — the
    specification is unimplementable for this program and fault-class).
    """
    key = (program, faults, spec, name)
    cached = _FAILSAFE_MEMO.get(key)
    if cached is not None:
        return cached
    result = _add_failsafe(program, faults, spec, name)
    _FAILSAFE_MEMO[key] = result
    if len(_FAILSAFE_MEMO) > _FAILSAFE_MEMO_MAXSIZE:
        _FAILSAFE_MEMO.pop(next(iter(_FAILSAFE_MEMO)))
    return result


def _add_failsafe(
    program: Program,
    faults: FaultClass,
    spec: Spec,
    name: Optional[str],
) -> FailsafeSynthesis:
    index = universe_index(program) or StateIndex(program.states())
    state_checks, transition_checks = _safety_checks(spec.safety_part())

    unsafe_bits = _fault_unsafe_bits(
        index, faults.actions, state_checks, transition_checks
    )
    unsafe = Region(index, unsafe_bits).to_predicate("ms")

    detection: Dict[str, Predicate] = {}
    restricted = []
    edges = []
    for action in program.actions:
        safe_bits = _safe_action_bits(
            index, action, unsafe_bits, state_checks, transition_checks
        )
        predicate = Region(index, safe_bits).to_predicate(
            f"sf({action.name})"
        )
        detection[action.name] = predicate
        restricted.append(action.restrict(predicate))
        # ``sf ∧ g --> st`` has exactly the base action's successors at
        # states where ``sf`` holds and none elsewhere
        src, dst, extern = index.action_edges(action)
        sf = _unpack_bits(safe_bits, index.n)
        keep = sf[src]
        edges.append((src[keep], dst[keep], {
            u: out for u, out in extern.items() if sf[u]
        }))

    synthesized = program.with_actions(
        restricted, name=name or f"failsafe({program.name})"
    )

    invariant = _failsafe_invariant(
        index, synthesized, spec, edges, unsafe_bits, state_checks,
        transition_checks,
    )
    invariant_states = list(index.satisfying(invariant))
    if not invariant_states:
        raise ValueError(
            f"fail-safe synthesis for {program.name!r} yields an empty "
            f"invariant: the specification cannot be maintained under "
            f"{faults.name}"
        )
    span_ts = TransitionSystem(
        synthesized, invariant_states, fault_actions=list(faults.actions)
    )
    span = Predicate.from_states(span_ts.states, name="T'")
    return FailsafeSynthesis(
        program=synthesized,
        detection_predicates=detection,
        unsafe=unsafe,
        invariant=invariant,
        span=span,
    )


def _failsafe_invariant(
    index: StateIndex,
    synthesized: Program,
    spec: Spec,
    edges,
    unsafe_bits: int,
    state_checks,
    transition_checks,
) -> Predicate:
    """The largest invariant certifying the synthesis: safe states
    outside the fault-unsafe region, closed under the restricted
    program (whose action edges are ``edges``), from which the liveness
    part of the specification also holds (tolerance still requires full
    SPEC in the absence of faults).

    The set-based construction took the largest safe invariant and then
    re-closed its intersection with ``¬ms``; both greatest fixpoints
    compose into a single one (gfp of a monotone operator restricted to
    a smaller seed), so one backward pass seeded with
    ``safe ∧ ¬ms`` suffices.
    """
    good_bits = _passing_bits(index, state_checks) & ~unsafe_bits
    closed = Region(index, largest_closed_subset_bits(
        index, edges, good_bits, transition_checks
    ))
    good_set = closed.to_set()

    if good_set:
        from ..core.fairness import liveness_violating_states
        from ..core.specification import LeadsTo

        liveness = [
            c for c in spec.liveness_part().components
            if isinstance(c, LeadsTo)
        ]
        if liveness:
            # started from the region: its states in universe order
            ts = TransitionSystem(synthesized, closed)
            for component in liveness:
                good_set -= liveness_violating_states(
                    ts, component.source, component.target
                )
    return Predicate.from_states(good_set, name="S'")
