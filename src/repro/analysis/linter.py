"""The linter driver: one target in, one :class:`LintReport` out.

A :class:`LintTarget` names a program plus the optional semantic
context the rules can exploit — spec, invariant, fault-span, fault
class, start set, and a declared split of the actions into base program
vs detector/corrector components.  :func:`lint` runs every applicable
rule over a shared probe set and applies the target's suppressions.

Nothing here explores a transition system: every rule evaluates guards,
statements, and predicates pointwise on the probe states — except the
symbolic pass (:mod:`repro.analysis.symbolic`), which *proves* frame
and guard properties of actions built from a Plan IR by exact
enumeration over the plan's few support variables.  Planned
actions therefore get proofs regardless of space size, while unplanned
actions keep the differential probe.  That split is what makes ``repro
lint`` cheap enough to run on every catalogue entry in CI while
`repro verify` remains the (exhaustive, expensive) certificate.

When a certificate store is active (``repro lint --store``), whole
reports and per-action symbolic analyses are content-addressed through
:mod:`repro.analysis.lint_store`: a warm run replays everything, and
editing one action re-analyzes exactly that action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.action import Action
from ..core.faults import FaultClass
from ..core.predicate import Predicate
from ..core.program import Program
from ..core.specification import Spec
from ..core.state import Schema, State
from .diagnostics import LintReport, Proof, Suppression
from .frames import check_frames
from .guards import check_guards
from .interference import check_interference
from .probe import build_probe
from .specs import check_closure, check_spec
from .symbolic import ActionAnalysis, GuardSolver, analyze_action
from .symmetry_lint import check_symmetry
from . import lint_store

__all__ = ["LintConfig", "LintTarget", "lint", "lint_program"]


@dataclass(frozen=True)
class LintConfig:
    """Tunable budgets for one lint run.

    The defaults keep a full-catalogue run in CI territory: spaces up to
    ``probe_limit`` states are enumerated (rule results are proofs
    there); larger spaces are sampled with ``seed``; differential frame
    probing spends at most ``pair_budget`` perturbation pairs per
    action, trying at most ``alt_limit`` alternative values per
    variable; closure sweeps stop after ``closure_limit`` in-predicate
    states.

    The symbolic pass has its own budgets: ``solver_budget`` caps the
    support-product size the guard solver and frame-table enumerate
    exactly (beyond it the solver falls back to value-set abstraction
    and frames fall back to probing).  ``symbolic=False`` disables the
    pass entirely (every action takes the differential-probe path).
    """

    probe_limit: int = 4096
    pair_budget: int = 2000
    alt_limit: int = 3
    closure_limit: int = 2048
    invariant_limit: int = 1 << 16
    symmetry_limit: int = 256
    seed: int = 0
    suggest_frames: bool = False
    symbolic: bool = True
    solver_budget: int = 1 << 16


@dataclass(frozen=True)
class LintTarget:
    """One lintable program with its semantic context.

    ``correctors`` names the actions (of ``program``) added as
    reset-style correctors: their job is done inside the invariant, so
    they get the strict semantic interference rule (``DC203``).
    ``components`` names other composed detector/corrector actions —
    ones that legitimately execute inside the invariant (detectors
    setting a witness, TMR's majority vote) — which only get the
    advisory race audit.  Both classes are exempt from the
    start-set-disjointness advisory (``DC302``): being disabled inside
    the invariant is their design.
    """

    name: str
    program: Program
    spec: Optional[Spec] = None
    invariant: Optional[Predicate] = None
    span: Optional[Predicate] = None
    faults: Optional[FaultClass] = None
    start: Optional[Predicate] = None
    correctors: Tuple[str, ...] = ()
    components: Tuple[str, ...] = ()
    suppressions: Tuple[Suppression, ...] = ()

    def _named(self, names: frozenset) -> Tuple[Action, ...]:
        return tuple(a for a in self.program.actions if a.name in names)

    def corrector_actions(self) -> Tuple[Action, ...]:
        return self._named(frozenset(self.correctors))

    def component_actions(self) -> Tuple[Action, ...]:
        return self._named(frozenset(self.components))

    def base_actions(self) -> Tuple[Action, ...]:
        names = frozenset(self.correctors) | frozenset(self.components)
        return tuple(a for a in self.program.actions if a.name not in names)


def _invariant_states(
    target: LintTarget, config: LintConfig, probe
) -> Tuple[Sequence[State], bool]:
    """The invariant states for the semantic interference rule, and
    whether they are the *complete* set (full-space enumeration)."""
    program = target.program
    if program.state_count() <= config.invariant_limit:
        return program.states_satisfying(target.invariant), True
    fn = target.invariant.fn
    return [s for s in probe.states if fn(s)], False


def _symbolic_pass(
    target: LintTarget,
    config: LintConfig,
    report: LintReport,
    fault_actions: Tuple[Action, ...],
) -> Dict[str, ActionAnalysis]:
    """Run (or replay) the symbolic analyzer over every planned action.

    Returns the analyses by action name; downstream rules consult them
    to skip work the analyzer already decided exactly.
    """
    program = target.program
    variables = program.variables
    schema = Schema.of(tuple(v.name for v in variables))
    analyses: Dict[str, ActionAnalysis] = {}
    labeled = [(a, "action") for a in program.actions]
    labeled += [(a, "fault action") for a in fault_actions]
    for action, kind in labeled:
        if getattr(action, "plan", None) is None or action._base is not None:
            continue
        analysis = lint_store.lookup_analysis(
            action, variables, kind, config, target=target.name
        )
        if analysis is None:
            analysis = analyze_action(
                action, variables, schema,
                target=target.name, kind=kind, config=config,
            )
            lint_store.record_analysis(
                action, variables, kind, config, analysis
            )
        analyses[action.name] = analysis
        report.extend(analysis.diagnostics)
        report.add_proofs(analysis.proofs)
    return analyses


def lint(target: LintTarget, config: Optional[LintConfig] = None) -> LintReport:
    """Run every applicable rule over ``target``."""
    config = config or LintConfig()

    cached = lint_store.lookup_report(target, config)
    if cached is not None:
        return cached

    program = target.program
    probe = build_probe(
        program.variables, limit=config.probe_limit, seed=config.seed
    )
    report = LintReport(target=target.name)

    fault_actions: Tuple[Action, ...] = (
        tuple(target.faults.actions) if target.faults is not None else ()
    )

    # symbolic pass over the Plan IR: exact frames and guard verdicts
    # for every action whose plan compiles
    analyses: Dict[str, ActionAnalysis] = {}
    if config.symbolic:
        analyses = _symbolic_pass(target, config, report, fault_actions)

    # frame soundness — program actions and fault actions alike (fault
    # actions run through the same successor machinery when explored).
    # Actions whose plan compiled were already judged exactly by the
    # symbolic pass; the probe adds nothing.
    for action in program.actions + fault_actions:
        if action._base is not None:
            # a restricted action ``Z ∧ ac`` delegates to its base
            # action's memo; it carries no frame of its own to validate
            continue
        analysis = analyses.get(action.name)
        if analysis is not None and analysis.compiled and analysis.covers_frames:
            continue
        report.extend(check_frames(
            action, program.variables, probe,
            target=target.name,
            suggest=config.suggest_frames,
            pair_budget=config.pair_budget,
            alt_limit=config.alt_limit,
        ))

    # guard satisfiability — symbolic verdicts (proven satisfiable /
    # dead / stutter) replace the probe scan where available
    facts = {
        name: analysis.guard_facts()
        for name, analysis in analyses.items()
        if analysis.compiled
    }
    start = target.start if target.start is not None else target.invariant
    report.extend(check_guards(
        program.actions, probe,
        target=target.name,
        start=start,
        component_names=target.correctors + target.components,
        facts=facts,
    ))
    if fault_actions:
        report.extend(check_guards(
            fault_actions, probe,
            target=target.name,
            kind="fault action",
            facts=facts,
        ))

    # symmetry-declaration soundness (DC106) — only fires when the
    # program declares a group; quotient exploration trusts the claim
    if program.symmetry is not None:
        report.extend(check_symmetry(
            program, probe,
            target=target.name,
            faults=target.faults,
            limit=config.symmetry_limit,
        ))

    # spec well-formedness
    if target.spec is not None:
        report.extend(check_spec(target.spec, probe, target=target.name))
    report.extend(check_closure(
        program.actions, probe,
        invariant=target.invariant,
        span=target.span,
        fault_actions=fault_actions,
        target=target.name,
        closure_limit=config.closure_limit,
    ))

    # interference between base and composed corrector/component actions
    correctors = target.corrector_actions()
    components = target.component_actions()
    if correctors or components:
        if target.invariant is not None:
            states, exhaustive = _invariant_states(target, config, probe)
        else:
            states, exhaustive = None, False
        exact_frames = {
            name: (analysis.reads, analysis.writes)
            for name, analysis in analyses.items()
            if analysis.compiled and analysis.reads is not None
        }
        guards = {
            action.name: action.plan.guard
            for action in program.actions
            if analyses.get(action.name) is not None
            and analyses[action.name].compiled
        }
        solver = None
        if guards:
            solver = GuardSolver(
                {v.name: tuple(v.domain) for v in program.variables},
                budget=config.solver_budget,
            )
        interference_proofs: List[Proof] = []
        report.extend(check_interference(
            target.base_actions(), correctors, program.variables, probe,
            components=components,
            invariant=target.invariant,
            invariant_states=states,
            invariant_exhaustive=exhaustive,
            target=target.name,
            pair_budget=min(config.pair_budget, 500),
            exact_frames=exact_frames,
            guards=guards,
            solver=solver,
            proofs_out=interference_proofs,
        ))
        report.add_proofs(interference_proofs)

    report.apply_suppressions(target.suppressions)
    lint_store.record_report(target, config, report)
    return report


def lint_program(program: Program, **context) -> LintReport:
    """Convenience wrapper: lint a bare program.

    ``context`` accepts the :class:`LintTarget` fields (``spec``,
    ``invariant``, ``span``, ``faults``, ``start``, ``correctors``,
    ``components``, ``suppressions``) plus ``config``.
    """
    config = context.pop("config", None)
    target = LintTarget(name=program.name, program=program, **context)
    return lint(target, config=config)
