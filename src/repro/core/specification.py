"""Problem specifications as conjunctions of checkable components.

Section 2.2 defines a problem specification as a suffix-closed,
fusion-closed set of state sequences, and recalls the Alpern–Schneider
result that any such set is the intersection of a *safety* specification
and a *liveness* specification.  This module makes that decomposition the
concrete representation:

- a :class:`Spec` is a conjunction of :class:`SpecComponent` objects;
- safety components are :class:`StateInvariant` ("no bad state") and
  :class:`TransitionInvariant` ("no bad transition") — Lemma 3.2 of the
  paper proves that for fusion+suffix-closed safety specifications,
  violation is detectable from the last state (or last transition) alone,
  so this pair of shapes is *exactly* the representable class;
- the liveness component is :class:`LeadsTo` ("every ``source`` state is
  eventually followed by a ``target`` state"), which expresses the
  paper's Progress and Convergence obligations and `converges to`.

Every component supports two semantics, kept deliberately in sync:

1. **graph checking** against a :class:`TransitionSystem`
   (:meth:`SpecComponent.check`), used by the refinement/tolerance
   machinery; and
2. **explicit sequence evaluation** (:meth:`SpecComponent.holds_on`),
   used by the bounded computation enumerator for cross-validation, and
   by :func:`maintains` for the paper's *maintains* relation on prefixes.

Factories for the paper's named specification forms are provided:
:func:`closure_spec` (``cl(S)``), :func:`generalized_pair`
(``({S},{R})``), :func:`converges_spec` (``S converges to R``), and
:func:`invariant_spec`.

The three **tolerance specifications** of Section 2.4 are derived here:

- masking tolerance spec of SPEC = SPEC itself (:meth:`Spec.masking`);
- fail-safe tolerance spec = the smallest safety spec containing SPEC,
  i.e. the safety components (:meth:`Spec.safety_part`);
- nonmasking tolerance spec = ``(true)*SPEC`` — sequences with a suffix
  in SPEC (:meth:`Spec.eventually`, a wrapper evaluated over suffixes in
  sequence semantics and via convergence certificates in graph
  semantics, see :mod:`repro.core.tolerance`).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .exploration import TransitionSystem
from .fairness import check_leads_to
from .predicate import Predicate, TRUE
from .results import CheckResult, Counterexample, all_of
from .state import State

__all__ = [
    "SpecComponent",
    "StateInvariant",
    "TransitionInvariant",
    "LeadsTo",
    "Spec",
    "closure_spec",
    "generalized_pair",
    "converges_spec",
    "invariant_spec",
    "maintains",
]


class SpecComponent:
    """Base class for specification components.

    ``kind`` is ``"safety"`` or ``"liveness"``; subclasses implement both
    graph checking and explicit sequence evaluation.
    """

    kind: str = "safety"

    def __init__(self, name: str):
        self.name = name

    def check(self, ts: TransitionSystem) -> CheckResult:  # pragma: no cover
        raise NotImplementedError

    def holds_on(self, sequence: Sequence[State], complete: bool = True) -> bool:
        """Evaluate on an explicit sequence.

        ``complete=True`` means the sequence is an entire (finite maximal)
        computation; ``complete=False`` means it is a truncated prefix, in
        which case liveness obligations that are still pending are judged
        optimistically (they could be met later).
        """
        raise NotImplementedError  # pragma: no cover

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class StateInvariant(SpecComponent):
    """Safety: every state of every computation satisfies ``predicate``."""

    kind = "safety"

    def __init__(self, predicate: Predicate, name: Optional[str] = None):
        super().__init__(name or f"always {predicate.name}")
        self.predicate = predicate

    def check(self, ts: TransitionSystem) -> CheckResult:
        predicate = self.predicate.fn
        for state in ts.states:
            if not predicate(state):
                return CheckResult.failed(
                    self.name,
                    counterexample=Counterexample(
                        kind="state", states=(state,),
                        note=f"state violates {self.predicate.name}",
                    ),
                )
        return CheckResult.passed(self.name)

    def holds_on(self, sequence: Sequence[State], complete: bool = True) -> bool:
        return all(self.predicate(s) for s in sequence)


class TransitionInvariant(SpecComponent):
    """Safety: every adjacent pair of states satisfies ``relation``.

    ``relation(s, s')`` must be true for each step ``s -> s'``.  This is
    the fusion-closed transition-level safety shape that Lemma 3.2
    justifies.

    ``predicates`` optionally lists the predicates ``relation`` reads;
    it joins the spec's store key and lets tools enumerate the
    predicates a spec consults.  It is a declaration, not inferred.
    """

    kind = "safety"

    def __init__(
        self,
        relation: Callable[[State, State], bool],
        name: str = "transition invariant",
        predicates: Optional[Sequence[Predicate]] = None,
    ):
        super().__init__(name)
        self.relation = relation
        self.predicates = None if predicates is None else tuple(predicates)

    def check(self, ts: TransitionSystem) -> CheckResult:
        for source, action_name, target in ts.all_edges(include_faults=True):
            if not self.relation(source, target):
                return CheckResult.failed(
                    self.name,
                    counterexample=Counterexample(
                        kind="transition",
                        states=(source, target),
                        actions=(action_name,),
                        note=f"step violates {self.name}",
                    ),
                )
        return CheckResult.passed(self.name)

    def holds_on(self, sequence: Sequence[State], complete: bool = True) -> bool:
        return all(
            self.relation(sequence[i], sequence[i + 1])
            for i in range(len(sequence) - 1)
        )


class LeadsTo(SpecComponent):
    """Liveness: every ``source`` state is eventually followed (possibly
    immediately) by a ``target`` state."""

    kind = "liveness"

    def __init__(self, source: Predicate, target: Predicate,
                 name: Optional[str] = None):
        super().__init__(name or f"{source.name} leads-to {target.name}")
        self.source = source
        self.target = target

    def check(self, ts: TransitionSystem) -> CheckResult:
        return check_leads_to(ts, self.source, self.target, description=self.name)

    def holds_on(self, sequence: Sequence[State], complete: bool = True) -> bool:
        pending = False
        for state in sequence:
            if self.target(state):
                pending = False
            if self.source(state) and not self.target(state):
                pending = True
        if pending and complete:
            return False
        return True


class Spec:
    """A problem specification: a named conjunction of components."""

    def __init__(self, components: Iterable[SpecComponent], name: str = "SPEC"):
        self.components: Tuple[SpecComponent, ...] = tuple(components)
        self.name = name

    # -- structure -----------------------------------------------------------
    def conjoin(self, other: "Spec", name: Optional[str] = None) -> "Spec":
        """Intersection of two specifications."""
        return Spec(
            self.components + other.components,
            name=name or f"({self.name} ∩ {other.name})",
        )

    def safety_part(self) -> "Spec":
        """The smallest safety specification containing this spec — the
        paper's ``SSPEC`` and its *fail-safe tolerance specification*.

        For specs in component form this is the conjunction of the safety
        components (the Alpern–Schneider decomposition is built in).
        """
        return Spec(
            [c for c in self.components if c.kind == "safety"],
            name=f"safety({self.name})",
        )

    def liveness_part(self) -> "Spec":
        return Spec(
            [c for c in self.components if c.kind == "liveness"],
            name=f"liveness({self.name})",
        )

    def masking(self) -> "Spec":
        """Masking tolerance specification of SPEC is SPEC (Section 2.4)."""
        return self

    # -- graph semantics -------------------------------------------------------
    def check(self, ts: TransitionSystem,
              description: Optional[str] = None) -> CheckResult:
        """Check that every computation recorded in ``ts`` is in the spec."""
        what = description or f"{ts.program.name} refines {self.name}"
        return all_of((c.check(ts) for c in self.components), description=what)

    # -- sequence semantics ----------------------------------------------------
    def holds_on(self, sequence: Sequence[State], complete: bool = True) -> bool:
        """Membership of an explicit sequence in the specification."""
        return all(c.holds_on(sequence, complete) for c in self.components)

    def holds_on_some_suffix(self, sequence: Sequence[State],
                             complete: bool = True) -> bool:
        """Membership in ``(true)*SPEC`` — the *nonmasking tolerance
        specification* (Section 2.4): some suffix lies in the spec."""
        return any(
            self.holds_on(sequence[i:], complete) for i in range(len(sequence))
        )

    def maintains_prefix(self, prefix: Sequence[State]) -> bool:
        """The paper's *maintains*: the prefix can be extended to a
        sequence in the spec.  For the representable class this holds iff
        no safety component is already violated (liveness obligations can
        always be discharged in the future)."""
        return all(
            c.holds_on(prefix, complete=False)
            for c in self.components
            if c.kind == "safety"
        )

    def __repr__(self) -> str:
        kinds = ", ".join(c.name for c in self.components)
        return f"Spec({self.name!r}: {kinds})"


def maintains(prefix: Sequence[State], spec: Spec) -> bool:
    """Module-level alias for :meth:`Spec.maintains_prefix` matching the
    paper's ``α maintains SPEC`` phrasing."""
    return spec.maintains_prefix(prefix)


# -- named specification forms (Section 2.2) -----------------------------------

def closure_spec(predicate: Predicate) -> Spec:
    """``cl(S)``: once ``S`` holds it holds forever."""
    return Spec(
        [
            TransitionInvariant(
                lambda s, t, p=predicate: (not p(s)) or p(t),
                name=f"cl({predicate.name})",
                predicates=(predicate,),
            )
        ],
        name=f"cl({predicate.name})",
    )


def generalized_pair(source: Predicate, target: Predicate) -> Spec:
    """The generalized pair ``({S}, {R})``: whenever ``S`` holds at a
    state, ``R`` holds at the next state."""
    return Spec(
        [
            TransitionInvariant(
                lambda s, t, a=source, b=target: (not a(s)) or b(t),
                name=f"({{{source.name}}},{{{target.name}}})",
                predicates=(source, target),
            )
        ],
        name=f"({{{source.name}}},{{{target.name}}})",
    )


def converges_spec(origin: Predicate, goal: Predicate) -> Spec:
    """``S converges to R``: ``cl(S) ∩ cl(R)`` plus *S leads-to R*."""
    return (
        closure_spec(origin)
        .conjoin(closure_spec(goal))
        .conjoin(
            Spec([LeadsTo(origin, goal)], name=f"{origin.name}↝{goal.name}"),
            name=f"{origin.name} converges-to {goal.name}",
        )
    )


def invariant_spec(predicate: Predicate) -> Spec:
    """The spec "every state satisfies ``predicate``" (a pure safety spec
    convenient for acceptance-test style obligations)."""
    return Spec(
        [StateInvariant(predicate)], name=f"invariant({predicate.name})"
    )
