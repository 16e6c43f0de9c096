"""Interference between base-program and component actions.

The paper's composition theorems (3.6, 4.3, 5.5) require that an added
detector or corrector does not *interfere* with the base program: inside
the invariant the component must not move the state (its job is done
there), and outside it the component must not race the base program on
shared variables in a way that invalidates the base program's reasoning.

Two complementary rules over two classes of composed actions:

- **correctors** — actions whose job is done inside the invariant
  (reset-style correctors, Section 5): they must not move any invariant
  state.  ``DC203`` (error): **semantic interference** — a corrector
  action, evaluated from first principles, moves some invariant state.
  This is the check :func:`repro.synthesis.nonmasking.add_nonmasking`
  performs at composition time, generalized to any declared corrector
  and run without composing; one diagnostic per offending action, with
  the total offending-state count.
- **components** — detectors and inline correctors that legitimately
  execute inside the invariant (a detector setting its witness, TMR's
  majority-vote correctors): the strict condition would be a false
  positive, so they only get the advisory race audit.
- ``DC201`` / ``DC202`` (warning / info): **frame races** — a composed
  action's write set intersects a base action's write set (write-write,
  DC201) or read set (write-read, DC202).  Computed from the symbolic
  analyzer's **exact IR frames** when the action's plan compiled,
  else from declared frames, else inferred by probing.  A shared
  variable is how correctors do their job (they fix the base program's
  variables), so overlap alone is not a bug — which is why these are
  advisory and why both rules are **skipped** when DC203 was checked
  exhaustively and found nothing: the paper's interference condition
  has then been verified directly, and the syntactic overlap adds no
  information.

When both actions of a racing pair carry compiled plans, the guard
solver additionally checks **pair disjointness**: if the two guards can
never hold in the same state, the actions are never simultaneously
enabled, the race cannot happen, and the pair is dropped from the
advisory with an ``interference`` proof recorded instead — the paper's
interference-freedom side condition discharged statically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.action import Action
from ..core.predicate import Predicate
from ..core.state import State, Variable
from .diagnostics import Diagnostic, Proof, Severity
from .frames import infer_frame
from .probe import ProbeSet, raw_successors

__all__ = ["check_interference", "interference_diagnostics_for_states"]

RULE = "interference"


def interference_diagnostics_for_states(
    components: Sequence[Action],
    invariant: Predicate,
    states: Sequence[State],
    target: str = "",
    exhaustive: bool = True,
    use_memo: bool = False,
) -> List[Diagnostic]:
    """``DC203`` diagnostics: component actions that move an invariant
    state, aggregated over *all* components and *all* states.

    This is the shared engine behind the lint rule and the synthesis
    check in :mod:`repro.synthesis.nonmasking`.  ``use_memo=True`` goes
    through :meth:`Action.successors` (appropriate at composition time,
    where the memoized relation is what the composed program will run
    with); the linter passes ``False`` to probe from first principles.
    """
    diagnostics: List[Diagnostic] = []
    invariant_fn = invariant.fn
    for component in components:
        example: Optional[Tuple[State, State]] = None
        offending = 0
        for state in states:
            if not invariant_fn(state):
                continue
            successors = (
                component.successors(state) if use_memo
                else raw_successors(component, state)
            )
            moved = False
            for successor in successors:
                if successor != state:
                    moved = True
                    if example is None:
                        example = (state, successor)
            if moved:
                offending += 1
        if example is not None:
            state, successor = example
            more = f" ({offending} invariant states affected)" if offending > 1 else ""
            diagnostics.append(Diagnostic(
                code="DC203",
                severity=Severity.ERROR,
                rule=RULE,
                message=(
                    f"corrector {component.name!r} interferes: it moves "
                    f"invariant state {state!r} to {successor!r}{more}"
                ),
                target=target,
                action=component.name,
                evidence=f"{state!r} -> {successor!r}",
                hint=f"strengthen the guard of {component.name!r} with "
                     f"¬({invariant.name})",
                sampled=not exhaustive,
            ))
    return diagnostics


def _frame_of(
    action: Action,
    variables: Sequence[Variable],
    probe: ProbeSet,
    pair_budget: int,
    exact_frames: Optional[Dict[str, Tuple[frozenset, frozenset]]] = None,
) -> Tuple[frozenset, frozenset, bool]:
    """``(reads, writes, exact)`` — the symbolic analyzer's exact IR
    frame when available, else the declared frame, else an inferred one.

    If the action is not even total (its guard/statement raises — the
    frame and guard rules report that as ``DC001``), fall back to the
    most conservative frame rather than crashing this rule.
    """
    if exact_frames is not None and action.name in exact_frames:
        reads, writes = exact_frames[action.name]
        return reads, writes, True
    if action.reads is not None and action.writes is not None:
        return action.reads, action.writes, False
    try:
        reads, writes, _ = infer_frame(
            action, variables, probe, pair_budget=pair_budget
        )
    except Exception:
        names = frozenset(v.name for v in variables)
        return names, names, False
    return reads, writes, False


def check_interference(
    base_actions: Sequence[Action],
    correctors: Sequence[Action],
    variables: Sequence[Variable],
    probe: ProbeSet,
    components: Sequence[Action] = (),
    invariant: Optional[Predicate] = None,
    invariant_states: Optional[Sequence[State]] = None,
    invariant_exhaustive: bool = True,
    target: str = "",
    pair_budget: int = 500,
    exact_frames: Optional[Dict[str, Tuple[frozenset, frozenset]]] = None,
    guards: Optional[Dict[str, Tuple]] = None,
    solver=None,
    proofs_out: Optional[List[Proof]] = None,
) -> List[Diagnostic]:
    """All interference diagnostics (see module docstring).

    ``correctors`` get the strict semantic rule (DC203) plus the race
    audit; ``components`` only the race audit.  ``invariant_states`` is
    the state set for the semantic check; when the caller enumerated it
    from the full space, pass ``invariant_exhaustive=True`` and a clean
    result suppresses the advisory frame-race rules.

    ``exact_frames`` / ``guards`` / ``solver`` come from the symbolic
    pass: exact IR frames replace declared/inferred ones, and a racing
    pair whose plan guards the ``solver`` proves disjoint is dropped
    (with a :class:`Proof` appended to ``proofs_out``).
    """
    diagnostics: List[Diagnostic] = []
    guards = guards or {}
    semantic_clean = False
    if invariant is not None and invariant_states is not None:
        semantic = interference_diagnostics_for_states(
            correctors, invariant, invariant_states,
            target=target, exhaustive=invariant_exhaustive,
        )
        diagnostics.extend(semantic)
        semantic_clean = not semantic and invariant_exhaustive

    if semantic_clean:
        return diagnostics

    def disjoint(component: Action, base: Action) -> bool:
        if solver is None:
            return False
        left = guards.get(component.name)
        right = guards.get(base.name)
        if left is None or right is None:
            return False
        return solver.co_satisfiable(left, right) is False

    base_frames = [
        (action, *_frame_of(action, variables, probe, pair_budget,
                            exact_frames))
        for action in base_actions
    ]
    for component in list(correctors) + list(components):
        _, component_writes, component_exact = _frame_of(
            component, variables, probe, pair_budget, exact_frames
        )
        write_write = {}
        write_read = {}
        all_exact = component_exact
        disjoint_with: List[str] = []
        for base, base_reads, base_writes, base_exact in base_frames:
            ww = component_writes & base_writes
            wr = (component_writes & base_reads) - ww
            if (ww or wr) and disjoint(component, base):
                disjoint_with.append(base.name)
                continue
            if ww:
                write_write[base.name] = ww
                all_exact = all_exact and base_exact
            if wr:
                write_read[base.name] = wr
                all_exact = all_exact and base_exact
        if disjoint_with and proofs_out is not None:
            proofs_out.append(Proof(
                rule=RULE,
                method="solver",
                detail=(
                    f"guard of {component.name!r} is disjoint from "
                    f"{sorted(disjoint_with)}: the actions are never "
                    f"simultaneously enabled, so their frame overlap "
                    f"cannot race"
                ),
                target=target,
                action=component.name,
            ))
        if write_write:
            shared = sorted(set().union(*write_write.values()))
            diagnostics.append(Diagnostic(
                code="DC201",
                severity=Severity.WARNING,
                rule=RULE,
                message=(
                    f"component {component.name!r} writes variable(s) "
                    f"{shared} also written by base action(s) "
                    f"{sorted(write_write)} and interference freedom "
                    f"was not proven"
                ),
                target=target,
                action=component.name,
                variables=tuple(shared),
                hint="provide the invariant so the semantic check (DC203) "
                     "can run exhaustively, or verify the composition",
                sampled=not probe.exhaustive and not all_exact,
            ))
        if write_read:
            shared = sorted(set().union(*write_read.values()))
            diagnostics.append(Diagnostic(
                code="DC202",
                severity=Severity.INFO,
                rule=RULE,
                message=(
                    f"component {component.name!r} writes variable(s) "
                    f"{shared} read by base action(s) {sorted(write_read)}"
                ),
                target=target,
                action=component.name,
                variables=tuple(shared),
                hint="expected when the component repairs the base "
                     "program's state; listed for audit",
                sampled=not probe.exhaustive and not all_exact,
            ))
    return diagnostics
