"""Refinement: programs against specifications and against programs.

Section 2.2.1 defines ``p' refines SPEC from S`` as: *S is closed in p'*,
and every computation of ``p'`` starting in ``S`` projects into ``SPEC``.
On finite-state programs with component-form specifications this is
decidable, and :func:`refines_spec` decides it by exploring the reachable
transition system from the states satisfying ``S``.

``p' refines p from S`` (program-to-program refinement) is richer: the
projection of every ``p'``-computation on ``p``'s variables must itself
be a *computation* of ``p`` — i.e. every projected step is a step of
``p``, the projected sequence is maximal, and it is fair.
:func:`refines_program` decides this with four sub-checks:

1. **closure** — S is closed in ``p'``;
2. **simulation** — every reachable ``p'``-step from S either leaves
   ``p``'s variables unchanged (a stutter; only allowed when some step of
   ``p'`` will later change them, see 4) or projects to a step of some
   ``p``-action enabled at the projected state;
3. **maximality** — ``p'`` never deadlocks in a state whose projection
   still enables a ``p``-action (the projected sequence would fail
   p-maximality);
4. **non-divergence and projected fairness** — no fair computation of
   ``p'`` stutters forever while a ``p``-action remains enabled, and in
   every fair-recurrent SCC of ``p'`` each ``p``-action enabled
   throughout is actually simulated inside the SCC.  Both are decided at
   SCC granularity with the weak-fairness characterization of
   :mod:`repro.core.fairness`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .exploration import TransitionSystem, system_from
from .fairness import _fair_recurrent_component_ids
from .predicate import Predicate
from .regions import _np, system_index
from .program import Program
from .results import CheckResult, Counterexample, all_of
from .specification import Spec
from .state import State

__all__ = ["start_states_of", "system_from", "refines_spec", "refines_program",
           "violates_spec"]


def _certificates():
    """The certificate-store verdict layer, or ``None`` when no store is
    active (or the store package failed to import) — callers then simply
    compute.  Imported lazily so the core has no hard dependency on
    :mod:`repro.store`."""
    try:
        from ..store import backend as store_backend

        if store_backend.active_store() is None:
            return None
        from ..store import certificates

        return certificates
    except Exception:
        return None


def start_states_of(program: Program, predicate: Predicate) -> List[State]:
    """All states of ``program`` satisfying ``predicate`` (the paper's
    ``p | S`` start set), enumerated over the full state space (and
    memoized per (program, predicate) — see ``Program.states_satisfying``)."""
    return program.states_satisfying(predicate)


def refines_spec(
    program: Program,
    spec: Spec,
    from_: Predicate,
    fault_actions: Sequence = (),
    ts: Optional[TransitionSystem] = None,
    description: Optional[str] = None,
    symmetric: bool = False,
) -> CheckResult:
    """Decide ``program refines spec from from_`` (Section 2.2.1).

    When ``fault_actions`` is nonempty this decides refinement of the
    composed system ``program [] F`` — safety components are checked over
    program *and* fault edges, liveness over program edges only
    (Assumption 2: finitely many fault occurrences).

    A prebuilt ``ts`` may be supplied to avoid re-exploration; it must
    have been built from ``from_`` with the same fault actions.

    ``symmetric=True`` decides the check over the quotient system; the
    verdict equals the full-system one provided ``spec`` and ``from_``
    are invariant under the declared group (the tolerance checkers
    validate this before opting in).
    """
    what = description or (
        f"{program.name}"
        + (" [] F" if fault_actions else "")
        + f" refines {spec.name} from {from_.name}"
    )
    if ts is not None:
        return _refines_spec_body(
            program, spec, from_, fault_actions, symmetric, what, ts=ts
        )

    def compute() -> CheckResult:
        return _refines_spec_body(
            program, spec, from_, fault_actions, symmetric, what
        )

    certs = None if symmetric else _certificates()
    if certs is None:
        return compute()
    try:
        family = certs.ObligationFamily(
            "refines_spec", program, tuple(fault_actions), [from_],
            spec=spec, extra=what,
        )
    except Exception:
        return compute()
    return certs.cached_obligation(family, compute)


def _refines_spec_body(
    program: Program,
    spec: Spec,
    from_: Predicate,
    fault_actions: Sequence,
    symmetric: bool,
    what: str,
    ts: Optional[TransitionSystem] = None,
) -> CheckResult:
    if ts is None:
        ts = system_from(program, from_, fault_actions, symmetric=symmetric)
    closed = ts.is_closed(from_, include_faults=False,
                          description=f"{from_.name} closed in {program.name}")
    if not closed:
        return CheckResult.failed(f"{what}: {closed.description}",
                                  counterexample=closed.counterexample)
    body = spec.check(ts, description=what)
    return body


def violates_spec(
    program: Program,
    spec: Spec,
    from_: Predicate,
    fault_actions: Sequence = (),
) -> CheckResult:
    """The paper's *violates*: passes iff refinement does **not** hold.

    The returned result's counterexample (when available from the failed
    refinement check) is attached as the witness of violation.
    """
    refinement = refines_spec(program, spec, from_, fault_actions)
    if refinement.ok:
        return CheckResult.failed(
            f"{program.name} violates {spec.name} from {from_.name}",
            details="program actually refines the specification",
        )
    return CheckResult(
        ok=True,
        description=f"{program.name} violates {spec.name} from {from_.name}",
        details=refinement.description,
        counterexample=refinement.counterexample,
    )


def refines_program(
    refined: Program,
    base: Program,
    from_: Predicate,
    allow_stuttering: bool = True,
    check_fairness: bool = True,
    ts: Optional[TransitionSystem] = None,
) -> CheckResult:
    """Decide ``refined refines base from from_`` (program refinement).

    See the module docstring for exactly what is checked.  ``refined``
    must contain every variable of ``base``.
    """
    what = f"{refined.name} refines {base.name} from {from_.name}"
    base_vars = set(base.variable_names)
    missing = base_vars - set(refined.variable_names)
    if missing:
        return CheckResult.failed(
            what, details=f"refined program lacks base variables {sorted(missing)}"
        )

    if ts is None:
        ts = system_from(refined, from_)

    closed = ts.is_closed(from_, include_faults=False)
    if not closed:
        return CheckResult.failed(f"{what}: closure", counterexample=closed.counterexample)

    # 2. simulation of every projected step
    for source in ts.states:
        base_source = source.project(base_vars)
        for action_name, target in ts.program_edges_from(source):
            base_target = target.project(base_vars)
            if base_target == base_source:
                if allow_stuttering:
                    continue
                return CheckResult.failed(
                    what,
                    counterexample=Counterexample(
                        kind="transition", states=(source, target),
                        actions=(action_name,),
                        note="stuttering step not allowed",
                    ),
                )
            if not _is_base_step(base, base_source, base_target):
                return CheckResult.failed(
                    what,
                    counterexample=Counterexample(
                        kind="transition", states=(source, target),
                        actions=(action_name,),
                        note=(
                            f"projected step {base_source!r} -> {base_target!r} "
                            f"is not a step of {base.name}"
                        ),
                    ),
                )

    # 3. maximality of the projection
    for state in ts.states:
        if ts.program.is_deadlocked(state):
            projected = state.project(base_vars)
            enabled = [a.name for a in base.actions if a.enabled(projected)]
            if enabled:
                return CheckResult.failed(
                    what,
                    counterexample=Counterexample(
                        kind="state", states=(state,),
                        note=(
                            f"{refined.name} deadlocks but base actions "
                            f"{enabled} are enabled in the projection "
                            f"(projected computation not maximal)"
                        ),
                    ),
                )

    if check_fairness:
        fairness = _check_projected_liveness(ts, base, base_vars, what)
        if not fairness:
            return fairness

    return CheckResult.passed(what)


# -- internals ---------------------------------------------------------------

def _is_base_step(base: Program, source: State, target: State) -> bool:
    """True iff some action of ``base`` can take ``source`` to ``target``."""
    for action in base.actions:
        if target in action.successors(source):
            return True
    return False


def _check_projected_liveness(
    ts: TransitionSystem, base: Program, base_vars: Set[str], what: str
) -> CheckResult:
    """Maximality and fairness of the projection, at SCC granularity.

    A fair computation of the refined program can linger forever exactly
    in the fair-recurrent SCCs of its transition graph.  For each such
    SCC ``C`` the projected state sequence must still be a fair maximal
    computation of the base program, which fails in two ways:

    1. **divergence past a deadlock** — the projection of ``C`` is a
       single base state ``u`` at which no base action is enabled: the
       projected sequence repeats a deadlocked state forever, which no
       execution of the base program produces (an infinite repetition of
       ``u`` requires a base action that maps ``u`` to ``u``);
    2. **unfair projection** — some base action is enabled at the
       projection of *every* state of ``C`` yet no internal edge of ``C``
       can be explained as an execution of that action (note that an edge
       whose projection leaves the base state unchanged *does* simulate a
       base action that can self-loop there).

    The test is at SCC granularity: a fair run confined to a strict
    subset of an SCC is attributed to the SCC as a whole.  This is exact
    whenever enabledness of each base action is uniform across the SCC —
    which holds in all programs in this library — and is otherwise a
    sound violation-finding approximation (documented in DESIGN.md).

    The SCCs are searched on state ids, and a failure's witness is the
    component's first state in ``ts.states`` order.
    """
    index = system_index(ts)
    states = index.states
    _, src, dst, _, _ = index._edge_csr(False)
    for component in _fair_recurrent_component_ids(
        ts, index, index.full_bits
    ):
        witness = states[min(component)]
        projected = {u: states[u].project(base_vars) for u in component}
        if len(set(projected.values())) == 1:
            if not any(a.enabled(projected[component[0]])
                       for a in base.actions):
                return CheckResult.failed(
                    what,
                    counterexample=Counterexample(
                        kind="lasso", states=(witness,), loop_index=0,
                        note=(
                            "projection stutters forever at a state where "
                            f"{base.name} is deadlocked (projected sequence "
                            "is not maximal)"
                        ),
                    ),
                )
        inside = _np.zeros(index.n, dtype=bool)
        inside[component] = True
        internal = inside[src] & inside[dst]
        steps = [
            (projected[u], projected[v])
            for u, v in zip(src[internal].tolist(), dst[internal].tolist())
        ]
        for base_action in base.actions:
            if not all(base_action.enabled(s) for s in projected.values()):
                continue
            if not any(t in base_action.successors(s) for s, t in steps):
                return CheckResult.failed(
                    what,
                    counterexample=Counterexample(
                        kind="lasso", states=(witness,), loop_index=0,
                        note=(
                            f"base action {base_action.name!r} continuously "
                            f"enabled in projection but never simulated in a "
                            f"fair cycle (projection unfair)"
                        ),
                    ),
                )
    return CheckResult.passed(what)
