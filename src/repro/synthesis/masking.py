"""Masking synthesis: detectors + correctors together.

Masking tolerance decomposes into fail-safe plus nonmasking
(Theorem 5.2), and the companion method synthesizes it accordingly:

1. run the fail-safe synthesis — restrict every program action to its
   detection predicate so the perturbed program can never violate
   safety;
2. add correctors that converge the restricted program from its
   fault-span back to its invariant — but, unlike the plain nonmasking
   case, each corrector action is itself passed through the same
   detection filter, so recovery never violates safety either (the
   paper's "masking tolerant corrector");
3. re-verify: safety over all edges from the span, convergence to the
   invariant, and the liveness components of the specification.

:func:`add_masking` implements the pipeline and returns the composed
program with its certifying predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.action import Action
from ..core.exploration import TransitionSystem
from ..core.faults import FaultClass
from ..core.invariants import _safety_checks
from ..core.predicate import Predicate
from ..core.program import Program
from ..core.regions import Region, StateIndex, universe_index
from ..core.results import CheckResult
from ..core.specification import Spec
from ..core.tolerance import is_masking_tolerant
from .failsafe import FailsafeSynthesis, add_failsafe
from .nonmasking import reset_corrector
from .weakest import _safe_action_bits

__all__ = ["MaskingSynthesis", "add_masking"]


@dataclass(frozen=True)
class MaskingSynthesis:
    """Output of :func:`add_masking`."""

    program: Program
    failsafe_stage: FailsafeSynthesis
    correctors: Sequence[Action]
    invariant: Predicate
    span: Predicate

    def verify(self, faults: FaultClass, spec: Spec) -> CheckResult:
        """Re-check the synthesized program's masking tolerance."""
        return is_masking_tolerant(
            self.program, faults, spec, self.invariant, self.span
        )


def add_masking(
    program: Program,
    faults: FaultClass,
    spec: Spec,
    correctors: Optional[Sequence[Action]] = None,
    name: Optional[str] = None,
) -> MaskingSynthesis:
    """Synthesize a masking F-tolerant version of ``program``.

    ``correctors`` may supply problem-specific recovery actions;
    otherwise a generic reset corrector over the fail-safe stage's span
    is used.  Every corrector is restricted to its own safe-execution
    predicate, making recovery itself safe.
    """
    stage = add_failsafe(program, faults, spec)
    index = universe_index(program) or StateIndex(program.states())
    state_checks, transition_checks = _safety_checks(spec.safety_part())
    # ms as bits on the shared index (memoized per predicate object, so
    # this sweep is shared with any earlier interrogation)
    unsafe_bits = index.region_bits(stage.unsafe)

    if correctors is None:
        correctors = [
            reset_corrector(
                stage.program, stage.invariant, stage.span, name="reset"
            )
        ]
    safe_correctors: List[Action] = []
    for corrector in correctors:
        safe_bits = _safe_action_bits(
            index, corrector, unsafe_bits, state_checks, transition_checks
        )
        predicate = Region(index, safe_bits).to_predicate(
            f"sf({corrector.name})"
        )
        safe_correctors.append(corrector.restrict(predicate))

    composed = Program(
        variables=stage.program.variables,
        actions=list(stage.program.actions) + safe_correctors,
        name=name or f"masking({program.name})",
    )

    # The span may grow: corrector edges can pass through states the
    # fail-safe program alone never visited.  Recompute it.
    invariant_states = list(index.satisfying(stage.invariant))
    ts = TransitionSystem(
        composed, invariant_states, fault_actions=list(faults.actions)
    )
    span = Predicate.from_states(ts.states, name="T'")
    return MaskingSynthesis(
        program=composed,
        failsafe_stage=stage,
        correctors=tuple(safe_correctors),
        invariant=stage.invariant,
        span=span,
    )
