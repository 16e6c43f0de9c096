"""Correctors (Section 4).

``Z corrects X`` is the problem specification consisting of all sequences
satisfying the three detector conditions **plus**:

- **Convergence** — eventually the *correction predicate* ``X`` holds and
  continues to hold; moreover ``X`` is closed along the sequence (once
  true it stays true).

A program ``c`` *is a corrector* for ``Z corrects X`` from ``U`` iff it
refines this specification from ``U``.  Note the paper's remark: the
witness ``Z`` need not equal ``X`` — in masking designs ``Z`` is an
atomically checkable stand-in for a correction predicate that cannot be
checked atomically.  When ``Z = X`` the definition reduces to
Arora–Gouda closure-and-convergence.

Tolerant correctors are defined like tolerant detectors (see
:mod:`repro.core.detector`): each check is the Section 2.4 tolerance
certificate of :func:`corrects_spec`, with a fault-span ``T ⇐ U``.

Well-known instances — voters, error-correction codes, reset procedures,
rollback/rollforward recovery, exception handlers, recovery-block
alternates — are provided as program factories in
:mod:`repro.components`.
"""

from __future__ import annotations

from typing import Optional

from .faults import FaultClass
from .predicate import Predicate, TRUE
from .program import Program
from .refinement import refines_spec
from .results import CheckResult
from .specification import LeadsTo, Spec, TransitionInvariant
from .detector import _tolerant_component, detects_spec

__all__ = [
    "corrects_spec",
    "is_corrector",
    "is_nonmasking_tolerant_corrector",
    "is_masking_tolerant_corrector",
    "is_failsafe_tolerant_corrector",
]


def corrects_spec(witness: Predicate, correction: Predicate) -> Spec:
    """The problem specification ``Z corrects X`` (Section 4.1):
    Convergence ∧ Safeness ∧ Progress ∧ Stability."""
    convergence_closure = TransitionInvariant(
        lambda s, t, x=correction: (not x(s)) or x(t),
        name=f"Convergence(closure): cl({correction.name})",
        predicates=(correction,),
    )
    convergence_reach = LeadsTo(
        TRUE,
        correction,
        name=f"Convergence(reach): true leads-to {correction.name}",
    )
    detector_part = detects_spec(witness, correction)
    return Spec(
        [convergence_closure, convergence_reach] + list(detector_part.components),
        name=f"'{witness.name} corrects {correction.name}'",
    )


def is_corrector(
    component: Program,
    witness: Predicate,
    correction: Predicate,
    from_: Predicate,
) -> CheckResult:
    """``witness corrects correction in component from from_``."""
    return refines_spec(component, corrects_spec(witness, correction), from_)


def is_nonmasking_tolerant_corrector(
    component: Program,
    faults: FaultClass,
    witness: Predicate,
    correction: Predicate,
    from_: Predicate,
    span: Predicate,
    recovered: Optional[Predicate] = None,
) -> CheckResult:
    """Nonmasking tolerant corrector: refines ``Z corrects X`` from ``U``
    and, under the faults, every computation has a suffix refining it —
    certified through convergence to a closed recovery predicate (default
    ``from_``) from which the corrector spec holds again (the shape used
    in Theorem 4.3)."""
    return _tolerant_component(
        "nonmasking", "corrector", component, faults,
        corrects_spec(witness, correction), from_, span, recovered,
    )


def is_masking_tolerant_corrector(
    component: Program,
    faults: FaultClass,
    witness: Predicate,
    correction: Predicate,
    from_: Predicate,
    span: Predicate,
) -> CheckResult:
    """Masking tolerant corrector: the full ``Z corrects X``
    specification survives the faults from the span ``T``.

    Note (Theorem 5.5's caveat): masking *tolerant* correctors extracted
    from masking tolerant programs need only be masking *tolerant* in the
    sense that **program** actions never violate Stability/Convergence —
    fault actions may.  That weaker claim is exactly
    :func:`is_nonmasking_tolerant_corrector`; this function checks the
    strong version where the whole spec survives the faults.
    """
    return _tolerant_component(
        "masking", "corrector", component, faults,
        corrects_spec(witness, correction), from_, span,
    )


def is_failsafe_tolerant_corrector(
    component: Program,
    faults: FaultClass,
    witness: Predicate,
    correction: Predicate,
    from_: Predicate,
    span: Predicate,
) -> CheckResult:
    """Fail-safe tolerant corrector: only the safety part of ``Z corrects
    X`` (closure of X, Safeness, Stability) need survive the faults."""
    return _tolerant_component(
        "failsafe", "corrector", component, faults,
        corrects_spec(witness, correction), from_, span,
    )
