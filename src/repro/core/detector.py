"""Detectors (Section 3).

``Z detects X`` is the problem specification consisting of all sequences
satisfying:

- **Safeness** — whenever the *witness* ``Z`` holds, the *detection
  predicate* ``X`` holds (``Z ⇒ X`` at every state);
- **Progress** — whenever ``X`` holds, eventually ``Z`` holds or ``X``
  is falsified;
- **Stability** — once ``Z`` holds it stays true unless ``X`` is
  falsified (the generalized pair ``({Z}, {Z ∨ ¬X})``).

A program ``d`` *is a detector* for ``Z detects X`` from ``U`` iff it
refines this specification from ``U``.  Note the paper's remark: the
detection predicate is **not** required to be closed — in nonmasking
designs ``X`` often means "something bad happened" and is deliberately
falsified later by a corrector.

A *fail-safe / nonmasking / masking F-tolerant* detector for ``Z detects
X`` from ``U`` meets Section 2.4's definition with ``Z detects X`` as the
specification: it refines the specification from ``U``, and with a
fault-span ``T ⇐ U`` the system ``d [] F`` refines from ``T`` the safety
part of the specification (fail-safe), some suffix of it (nonmasking),
or all of it (masking).  Each check is therefore the tolerance
certificate of :mod:`repro.core.tolerance` applied to
:func:`detects_spec`, answered from the certificate store when one is
active.  A nonmasking claim may name a *recovery predicate* other than
``U``: the certificate is then taken from it, next to the fault-free
refinement from ``U`` and ``U ⇒ T``.

Well-known instances — comparators, error-detection codes, watchdogs,
snapshot procedures, acceptance tests, exception conditions — are
provided as program factories in :mod:`repro.components`.
"""

from __future__ import annotations

from typing import Optional

from .faults import FaultClass
from .predicate import Predicate
from .program import Program
from .refinement import refines_spec
from .results import CheckResult, all_of
from .specification import LeadsTo, Spec, StateInvariant, TransitionInvariant
from .tolerance import check_implication, is_nonmasking_tolerant, is_tolerant

__all__ = [
    "detects_spec",
    "is_detector",
    "is_failsafe_tolerant_detector",
    "is_masking_tolerant_detector",
    "is_nonmasking_tolerant_detector",
]


def detects_spec(witness: Predicate, detection: Predicate) -> Spec:
    """The problem specification ``Z detects X`` (Section 3.1)."""
    safeness = StateInvariant(
        witness.implies(detection),
        name=f"Safeness: {witness.name} ⇒ {detection.name}",
    )
    progress = LeadsTo(
        detection,
        witness | ~detection,
        name=f"Progress: {detection.name} leads-to ({witness.name} ∨ ¬{detection.name})",
    )
    stability = TransitionInvariant(
        lambda s, t, z=witness, x=detection: (not z(s)) or z(t) or not x(t),
        name=f"Stability: ({{{witness.name}}},{{{witness.name} ∨ ¬{detection.name}}})",
        predicates=(witness, detection),
    )
    return Spec(
        [safeness, progress, stability],
        name=f"'{witness.name} detects {detection.name}'",
    )


def is_detector(
    component: Program,
    witness: Predicate,
    detection: Predicate,
    from_: Predicate,
) -> CheckResult:
    """``witness detects detection in component from from_``: the
    component refines ``Z detects X`` from ``U``."""
    return refines_spec(component, detects_spec(witness, detection), from_)


def _tolerant_component(
    kind: str,
    noun: str,
    component: Program,
    faults: FaultClass,
    spec: Spec,
    from_: Predicate,
    span: Predicate,
    recovered: Optional[Predicate] = None,
) -> CheckResult:
    """``component`` is a ``kind`` F-tolerant ``noun`` (detector or
    corrector) for ``spec`` from ``from_``: the ``kind`` tolerance
    certificate with fault-span ``span``.  A nonmasking claim whose
    recovery predicate is not ``from_`` certifies convergence to it
    instead, beside refinement from ``from_`` and ``from_ ⇒ span``."""
    label = "fail-safe" if kind == "failsafe" else kind
    what = (
        f"{component.name} is a {label} {faults.name}-tolerant {noun} "
        f"for {spec.name} from {from_.name}"
    )
    if recovered is None or recovered is from_:
        obligations = [is_tolerant(kind, component, faults, spec, from_, span)]
    else:
        obligations = [
            refines_spec(component, spec, from_),
            check_implication(component, from_, span),
            is_nonmasking_tolerant(component, faults, spec, recovered, span),
        ]
    return all_of(obligations, description=what)


def is_failsafe_tolerant_detector(
    component: Program,
    faults: FaultClass,
    witness: Predicate,
    detection: Predicate,
    from_: Predicate,
    span: Predicate,
) -> CheckResult:
    """Fail-safe tolerant detector: refines ``Z detects X`` from ``U``
    and keeps Safeness + Stability (the safety part) under the faults
    from the span ``T``."""
    return _tolerant_component(
        "failsafe", "detector", component, faults,
        detects_spec(witness, detection), from_, span,
    )


def is_masking_tolerant_detector(
    component: Program,
    faults: FaultClass,
    witness: Predicate,
    detection: Predicate,
    from_: Predicate,
    span: Predicate,
) -> CheckResult:
    """Masking tolerant detector: the full ``Z detects X`` specification
    (Safeness, Progress, Stability) survives the faults from ``T``."""
    return _tolerant_component(
        "masking", "detector", component, faults,
        detects_spec(witness, detection), from_, span,
    )


def is_nonmasking_tolerant_detector(
    component: Program,
    faults: FaultClass,
    witness: Predicate,
    detection: Predicate,
    from_: Predicate,
    span: Predicate,
    recovered: Optional[Predicate] = None,
) -> CheckResult:
    """Nonmasking tolerant detector: every fault-perturbed computation has
    a suffix refining ``Z detects X``.

    Certified via a *recovery predicate* (default: ``from_``): the
    perturbed system converges to it, it is closed in the component, and
    the component refines the detector spec from it.
    """
    return _tolerant_component(
        "nonmasking", "detector", component, faults,
        detects_spec(witness, detection), from_, span, recovered,
    )
