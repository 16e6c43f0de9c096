"""Fault-tolerance checking (Section 2.4).

``p`` is *masking / nonmasking / fail-safe F-tolerant to SPEC from S``
iff (a) ``p`` refines SPEC from S, and (b) there is a predicate ``T ⇐ S``
(the fault-span) such that ``p [] F`` refines the corresponding
*tolerance specification* of SPEC from T:

- masking: SPEC itself;
- fail-safe: the smallest safety specification containing SPEC;
- nonmasking: ``(true)*SPEC`` (some suffix lies in SPEC).

The checkers here take the invariant ``S`` and the fault-span ``T``
explicitly — the paper's definitions are parameterized the same way, and
supplying the witnesses is what makes each claim a *certificate* rather
than a search problem.  (Use :mod:`repro.core.invariants` to compute
candidate invariants/spans when you do want the search.)

Checking strategy per class (all exact on finite systems):

- **fail-safe**: ``T`` closed in ``p [] F``; safety components of SPEC
  hold over every reachable edge (program and fault edges alike).
- **nonmasking**: ``T`` closed in ``p [] F``; every computation
  converges — ``true leads-to S`` over the fault-aware graph (fairness on
  program edges, per Assumption 2) with ``S`` closed in ``p``; and ``p``
  refines SPEC from ``S``.  Convergence to S plus suffix closure of SPEC
  yields the ``(true)*SPEC`` membership, exactly the argument of
  Theorem 4.3.
- **masking**: the fail-safe obligations *plus* the nonmasking
  obligations — this is the decomposition proved by Theorem 5.2 and
  Lemma 5.1 (a prefix that maintains SPEC fused with a suffix in SPEC is
  in SPEC).  Additionally every liveness component of SPEC is checked
  directly on the fault-aware graph.

A bounded *semantic* validator based on explicit computation enumeration
is provided for cross-checking the certificate-based answers on small
models (used heavily in the test suite).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .computation import enumerate_computations
from .exploration import TransitionSystem
from .fairness import check_leads_to
from .faults import FaultClass
from .predicate import Predicate, TRUE
from .program import Program
from .refinement import _certificates, refines_spec, start_states_of
from .regions import first_bit, paused_gc, universe_index
from .results import CheckResult, Counterexample, all_of
from .specification import Spec
from .state import State

__all__ = [
    "check_implication",
    "is_failsafe_tolerant",
    "is_nonmasking_tolerant",
    "is_masking_tolerant",
    "is_tolerant",
    "semantic_tolerance_check",
]


def check_implication(
    program: Program, antecedent: Predicate, consequent: Predicate
) -> CheckResult:
    """Check ``antecedent ⇒ consequent`` over the full state space.

    Decided on the program's shared universe index when the space is
    materializable: both sides become memoized bitsets and the check is
    one ``a & ~c`` big-int operation (the witness, when any, is the
    first counterexample in enumeration order, as before).
    """
    what = f"{antecedent.name} ⇒ {consequent.name}"
    index = universe_index(program)
    if index is not None:
        gap = index.region_bits(antecedent) & ~index.region_bits(consequent)
        if gap:
            return CheckResult.failed(
                what,
                counterexample=Counterexample(
                    kind="state", states=(index.states[first_bit(gap)],)
                ),
            )
        return CheckResult.passed(what)
    for state in program.states():
        if antecedent(state) and not consequent(state):
            return CheckResult.failed(
                what,
                counterexample=Counterexample(kind="state", states=(state,)),
            )
    return CheckResult.passed(what)


def _require_symmetric_checkable(
    program: Program,
    spec: Spec,
    invariant: Predicate,
    span: Predicate,
) -> None:
    """Refuse symmetric checking unless every predicate the certificate
    consults is invariant under the program's declared group.

    Quotient verdicts equal full-graph verdicts only when the start set
    and every consulted predicate are unions of orbits.  The sweep here
    is a sampled refusal heuristic (see
    :meth:`~repro.core.symmetry.Symmetry.require_predicate_invariant`);
    declarations themselves are validated exhaustively by lint rule
    DC106 and the parity test suite.  Raises
    :class:`~repro.core.symmetry.SymmetryError`.
    """
    symmetry = program.symmetry
    if symmetry is None:
        from .symmetry import SymmetryError

        raise SymmetryError(
            f"symmetric tolerance check requested but {program.name!r} "
            f"declares no symmetry group"
        )
    variables = program.variables
    what = f"symmetric check of {program.name}"
    symmetry.require_predicate_invariant(invariant, variables, what)
    symmetry.require_predicate_invariant(span, variables, what)
    symmetry.require_spec_invariant(spec, variables, what)


def _cached_obligation(
    certs,
    symmetric: bool,
    tag: str,
    program: Program,
    faults,
    predicates,
    spec,
    extra,
    compute,
) -> CheckResult:
    """Replay one obligation from the certificate store when a store is
    active, else compute it (and record it).  Symmetric checks always
    compute — quotient verdicts are validated by their own parity suite
    and are cheap relative to full graphs."""
    if certs is None or symmetric:
        return compute()
    return certs.cached_obligation(
        tag, program, faults, predicates, spec, extra, compute
    )


def _common_obligations(
    program: Program,
    faults: FaultClass,
    spec: Spec,
    invariant: Predicate,
    span: Predicate,
    symmetric: bool = False,
) -> Iterable[CheckResult]:
    """Obligations shared by all three tolerance classes: refinement in
    the absence of faults, ``S ⇒ T``, and ``T`` closed in ``p [] F``."""
    yield refines_spec(program, spec, invariant, symmetric=symmetric)
    # S ⇒ T is a full-space implication — exact and orbit-agnostic, so
    # it runs identically in symmetric mode (and is too cheap to cache)
    yield check_implication(program, invariant, span)
    span_what = f"{span.name} closed in {program.name} [] {faults.name}"
    yield faults.system(program, span, symmetric=symmetric).is_closed(
        span, include_faults=True, description=span_what
    )


def is_failsafe_tolerant(
    program: Program,
    faults: FaultClass,
    spec: Spec,
    invariant: Predicate,
    span: Predicate,
    symmetric: bool = False,
) -> CheckResult:
    """``program`` is fail-safe F-tolerant to ``spec`` from ``invariant``
    with fault-span ``span``.

    ``symmetric=True`` discharges every graph obligation on the quotient
    system under the program's declared symmetry (after verifying that
    the spec, invariant, and span are group-invariant — the check is
    refused with :class:`~repro.core.symmetry.SymmetryError` otherwise).
    """
    if symmetric:
        _require_symmetric_checkable(program, spec, invariant, span)
    what = (
        f"{program.name} is fail-safe {faults.name}-tolerant to {spec.name} "
        f"from {invariant.name} (span {span.name})"
    )
    certs = _certificates()
    cert_key = None
    if certs is not None:
        cert_key = certs.certificate_key(
            "failsafe", program, faults, spec, invariant, span, symmetric
        )
        cached = certs.lookup_certificate(cert_key)
        if cached is not None:
            return cached
    with paused_gc():
        obligations = list(_common_obligations(
            program, faults, spec, invariant, span, symmetric=symmetric,
        ))
        safety = spec.safety_part()
        safety_what = (
            f"{program.name} [] {faults.name} refines "
            f"{safety.name} from {span.name}"
        )
        obligations.append(_cached_obligation(
            certs, symmetric, "safety", program, faults, [span], safety,
            safety_what,
            lambda: safety.check(
                faults.system(program, span, symmetric=symmetric),
                description=safety_what,
            ),
        ))
        result = all_of(obligations, description=what)
    if cert_key is not None:
        certs.record_certificate(cert_key, result)
    return result


def is_nonmasking_tolerant(
    program: Program,
    faults: FaultClass,
    spec: Spec,
    invariant: Predicate,
    span: Predicate,
    symmetric: bool = False,
) -> CheckResult:
    """``program`` is nonmasking F-tolerant to ``spec`` from
    ``invariant`` with fault-span ``span``.

    Convergence is certified to the supplied invariant: every fault-
    perturbed computation must re-enter ``invariant`` (and stay, since
    the invariant is closed), after which suffix closure of the
    specification gives the ``(true)*SPEC`` membership.

    ``symmetric=True`` runs on the quotient system (see
    :func:`is_failsafe_tolerant`).
    """
    if symmetric:
        _require_symmetric_checkable(program, spec, invariant, span)
    what = (
        f"{program.name} is nonmasking {faults.name}-tolerant to {spec.name} "
        f"from {invariant.name} (span {span.name})"
    )
    certs = _certificates()
    cert_key = None
    if certs is not None:
        cert_key = certs.certificate_key(
            "nonmasking", program, faults, spec, invariant, span, symmetric
        )
        cached = certs.lookup_certificate(cert_key)
        if cached is not None:
            return cached
    with paused_gc():
        obligations = list(_common_obligations(
            program, faults, spec, invariant, span, symmetric=symmetric,
        ))
        inv_what = f"{invariant.name} closed in {program.name}"
        obligations.append(faults.system(
            program, span, symmetric=symmetric
        ).is_closed(invariant, include_faults=False, description=inv_what))
        converge_what = (
            f"every computation of {program.name} [] {faults.name} "
            f"from {span.name} converges to {invariant.name}"
        )
        obligations.append(_cached_obligation(
            certs, symmetric, "leads_to", program, faults,
            [TRUE, invariant, span], None, converge_what,
            lambda: check_leads_to(
                faults.system(program, span, symmetric=symmetric),
                TRUE,
                invariant,
                description=converge_what,
            ),
        ))
        result = all_of(obligations, description=what)
    if cert_key is not None:
        certs.record_certificate(cert_key, result)
    return result


def is_masking_tolerant(
    program: Program,
    faults: FaultClass,
    spec: Spec,
    invariant: Predicate,
    span: Predicate,
    symmetric: bool = False,
) -> CheckResult:
    """``program`` is masking F-tolerant to ``spec`` from ``invariant``
    with fault-span ``span``: ``p [] F`` refines SPEC itself from the
    span — the safety part holds over every edge (program and fault
    alike) and every liveness component is discharged on the fault-aware
    graph.

    Note this is the paper's *definition* (Section 2.4), which does not
    require the perturbed system to converge back to the invariant —
    e.g. TMR masks a corrupted input without ever repairing it.  The
    convergence-based *sufficient* certificate of Theorem 5.2 lives in
    :func:`repro.theory.masking.theorem_5_2`.

    ``symmetric=True`` runs on the quotient system (see
    :func:`is_failsafe_tolerant`).
    """
    if symmetric:
        _require_symmetric_checkable(program, spec, invariant, span)
    what = (
        f"{program.name} is masking {faults.name}-tolerant to {spec.name} "
        f"from {invariant.name} (span {span.name})"
    )
    certs = _certificates()
    cert_key = None
    if certs is not None:
        cert_key = certs.certificate_key(
            "masking", program, faults, spec, invariant, span, symmetric
        )
        cached = certs.lookup_certificate(cert_key)
        if cached is not None:
            return cached
    with paused_gc():
        obligations = list(_common_obligations(
            program, faults, spec, invariant, span, symmetric=symmetric,
        ))
        safety = spec.safety_part()
        safety_what = (
            f"{program.name} [] {faults.name} refines "
            f"{safety.name} from {span.name}"
        )
        obligations.append(_cached_obligation(
            certs, symmetric, "safety", program, faults, [span], safety,
            safety_what,
            lambda: safety.check(
                faults.system(program, span, symmetric=symmetric),
                description=safety_what,
            ),
        ))
        for component in spec.liveness_part().components:
            obligations.append(_cached_obligation(
                certs, symmetric, "liveness", program, faults, [span],
                Spec((component,), name=f"{spec.name}/{component.name}"),
                None,
                lambda component=component: component.check(
                    faults.system(program, span, symmetric=symmetric)
                ),
            ))
        result = all_of(obligations, description=what)
    if cert_key is not None:
        certs.record_certificate(cert_key, result)
    return result


def is_tolerant(
    kind: str,
    program: Program,
    faults: FaultClass,
    spec: Spec,
    invariant: Predicate,
    span: Predicate,
    symmetric: bool = False,
) -> CheckResult:
    """Dispatch on tolerance class name: ``"failsafe"``, ``"nonmasking"``,
    or ``"masking"``."""
    checkers = {
        "failsafe": is_failsafe_tolerant,
        "nonmasking": is_nonmasking_tolerant,
        "masking": is_masking_tolerant,
    }
    try:
        checker = checkers[kind]
    except KeyError:
        raise ValueError(
            f"unknown tolerance kind {kind!r}; expected one of {sorted(checkers)}"
        ) from None
    return checker(program, faults, spec, invariant, span, symmetric=symmetric)


def semantic_tolerance_check(
    kind: str,
    program: Program,
    faults: FaultClass,
    spec: Spec,
    span: Predicate,
    start_states: Optional[Sequence[State]] = None,
    max_length: int = 10,
    max_faults: int = 2,
) -> CheckResult:
    """Bounded ground-truth validation by explicit enumeration.

    Enumerates every computation of ``program [] faults`` (length ≤
    ``max_length``, ≤ ``max_faults`` fault steps) from each start state in
    ``span`` and evaluates the tolerance specification directly on the
    sequences:

    - ``failsafe``: safety part of the spec on every (even truncated)
      sequence;
    - ``masking``: the full spec on complete sequences, the safety part on
      truncated ones;
    - ``nonmasking``: some suffix of every complete sequence satisfies the
      spec (truncated sequences are inconclusive and skipped).

    Exponential in ``max_length`` — use tiny models.
    """
    what = f"semantic {kind} tolerance of {program.name} wrt {spec.name}"
    if start_states is None:
        start_states = start_states_of(program, span)
    safety = spec.safety_part()
    for start in start_states:
        for computation in enumerate_computations(
            program, start, max_length=max_length,
            fault_actions=list(faults.actions), max_faults=max_faults,
        ):
            sequence = computation.states
            if kind == "failsafe":
                ok = safety.holds_on(sequence, complete=computation.complete)
            elif kind == "masking":
                ok = (
                    spec.holds_on(sequence, complete=True)
                    if computation.complete
                    else safety.holds_on(sequence, complete=False)
                )
            elif kind == "nonmasking":
                if not computation.complete:
                    continue
                ok = spec.holds_on_some_suffix(sequence, complete=True)
            else:
                raise ValueError(f"unknown tolerance kind {kind!r}")
            if not ok:
                return CheckResult.failed(
                    what,
                    counterexample=Counterexample(
                        kind="trace",
                        states=sequence,
                        actions=computation.actions,
                        note=f"enumerated computation violates {kind} spec",
                    ),
                )
    return CheckResult.passed(what)
