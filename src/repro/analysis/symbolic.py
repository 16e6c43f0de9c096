"""Symbolic analysis over the Plan IR: proofs, not probes.

The differential rules in :mod:`repro.analysis.frames` and
:mod:`repro.analysis.guards` evaluate actions pointwise over a probe
set, so on spaces above the probe limit a clean result is *evidence*.
Actions that carry a :class:`~repro.core.kernels.Plan` admit something
strictly better: the plan is a finite syntax tree over finite domains,
so frame soundness, guard satisfiability, and stutter-freedom are all
**decidable by exact enumeration over the plan's support variables** —
a handful of variables regardless of how many the program has.  This
module implements that decision procedure and the glue that turns its
verdicts into diagnostics and :class:`~.diagnostics.Proof` records:

- :class:`GuardSolver` — a finite-domain constraint solver for the plan
  guard grammar (``eq/ne/majority/count/and/or/not``).  Small expressions get
  an exact truth table over their support product; oversized ones fall
  back to a three-valued value-set abstraction that still proves many
  unsatisfiability/tautology facts.  Used for dead guards (``DC301``
  proven), dead or tautological *sub*-expressions (``DC501``/``DC502``),
  and guard-pair disjointness (race-freedom in
  :mod:`repro.analysis.interference`).
- :func:`plan_frame_table` — a joint guard+effect table over the plan's
  support, from which the **exact** reads/writes frame of the plan
  falls out (the same carried/masked contract the differential probe
  checks, decided rather than sampled).
- :func:`analyze_action` — the per-action driver: the plan must
  compile for the program's schema (``DC512`` otherwise), then frame
  and guard verdicts come from the IR.  A planned action's guard,
  statement and frame are derived from its plan, so there is no second
  description to validate the plan against; the frame verdict checks
  the derivation itself (the derived frame must cover the exact one).

Every verdict is deterministic in the action's content, which is what
lets :mod:`repro.analysis.lint_store` cache analyses in the
content-addressed certificate store and replay them across processes.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.action import Action
from ..core.kernels import (
    COMPARISONS,
    Plan,
    guard_support,
    plan_support,
    plan_targets,
    row_effects,
    row_guard,
    row_kernel,
)
from ..core.state import Variable
from .diagnostics import Diagnostic, Proof, Severity

__all__ = [
    "ANALYZER_VERSION",
    "GuardSolver",
    "GuardFacts",
    "ActionAnalysis",
    "analyze_action",
    "clear_symbolic_caches",
]

#: bumped on any behaviour change of the analyzer; folded into lint
#: certificate keys so stored analyses never survive a rule change
ANALYZER_VERSION = 2

RULE_FRAMES = "frame-soundness"
RULE_GUARDS = "guard-satisfiability"
RULE_COMPILE = "plan-compilation"


# -- the finite-domain guard solver --------------------------------------------

#: (domains signature, expr) -> (names, assignments, truth) | None
_TRUTH_TABLES: Dict[Tuple, Optional[Tuple]] = {}


class GuardSolver:
    """Exact satisfiability/tautology/disjointness for plan guards.

    ``domains`` maps every variable name to its declared domain tuple.
    Expressions whose support product fits under ``budget`` states get a
    memoized truth table — satisfiability, tautology, and witnesses are
    then decided exactly.  Larger expressions fall back to a
    three-valued abstract evaluation over per-variable value sets, which
    returns a definite verdict when it can and ``None`` when it cannot;
    callers treat ``None`` as "fall back to probing".
    """

    def __init__(self, domains: Dict[str, Tuple], budget: int = 1 << 16):
        self.domains = domains
        self.budget = budget
        self._signature = tuple(sorted(
            (name, tuple(domain)) for name, domain in domains.items()
        ))

    # -- exact enumeration -------------------------------------------------
    def table(self, expr: Tuple) -> Optional[Tuple]:
        """``(names, assignments, truth)`` over the expression's support
        product, or ``None`` when a support variable has no domain or
        the product exceeds the budget."""
        key = (self._signature, expr)
        found = _TRUTH_TABLES.get(key, _TRUTH_TABLES)
        if found is not _TRUTH_TABLES:
            return found
        result = self._build_table(expr)
        _TRUTH_TABLES[key] = result
        return result

    def _build_table(self, expr: Tuple) -> Optional[Tuple]:
        names = tuple(sorted(guard_support(expr)))
        domains = []
        size = 1
        for name in names:
            domain = self.domains.get(name)
            if not domain:
                return None
            domains.append(tuple(domain))
            size *= len(domain)
            if size > self.budget:
                return None
        fn = row_guard(expr, {name: i for i, name in enumerate(names)})
        assignments = tuple(itertools.product(*domains)) if names else ((),)
        truth = tuple(bool(fn(values)) for values in assignments)
        return (names, assignments, truth)

    # -- verdicts ----------------------------------------------------------
    def satisfiable(self, expr: Tuple) -> Optional[bool]:
        table = self.table(expr)
        if table is not None:
            return any(table[2])
        return self._abstract(expr, None)

    def tautological(self, expr: Tuple) -> Optional[bool]:
        table = self.table(expr)
        if table is not None:
            return all(table[2])
        verdict = self._abstract(expr, None)
        return None if verdict is None else verdict

    def witness(self, expr: Tuple) -> Optional[Dict[str, object]]:
        """A satisfying partial assignment (support variables only), or
        ``None`` when unsatisfiable/undecided."""
        table = self.table(expr)
        if table is None:
            return None
        names, assignments, truth = table
        for values, value in zip(assignments, truth):
            if value:
                return dict(zip(names, values))
        return None

    def co_satisfiable(self, left: Tuple, right: Tuple) -> Optional[bool]:
        """Can both guards hold in one state?  ``False`` is a proof the
        guarded actions are never simultaneously enabled."""
        return self.satisfiable(("and", left, right))

    # -- three-valued value-set abstraction --------------------------------
    def _abstract(self, expr: Tuple, env: Optional[Dict]) -> Optional[bool]:
        if env is None:
            env = {
                name: frozenset(domain)
                for name, domain in self.domains.items()
            }
        op = expr[0]
        if op == "true":
            return True
        if op in ("eq_const", "ne_const"):
            dom = env.get(expr[1])
            if dom is None:
                return None
            holds = expr[2] in dom
            if not holds:
                return op == "ne_const"
            if len(dom) == 1:
                return op == "eq_const"
            return None
        if op in ("eq_var", "ne_var"):
            a, b = env.get(expr[1]), env.get(expr[2])
            if a is None or b is None:
                return None
            if not (a & b):
                return op == "ne_var"
            if len(a) == 1 and len(b) == 1 and a == b:
                return op == "eq_var"
            return None
        if op == "all_ne_const":
            verdicts = [
                self._abstract(("ne_const", name, expr[2]), env)
                for name in expr[1]
            ]
            if any(v is False for v in verdicts):
                return False
            if all(v is True for v in verdicts):
                return True
            return None
        if op in ("eq_majority", "ne_majority"):
            definite = sum(
                1 for name in expr[2] if env.get(name) == frozenset((1,))
            )
            possible = sum(
                1 for name in expr[2]
                if env.get(name) is not None and 1 in env[name]
            )
            k = expr[3]
            if 2 * definite > k:
                majority: Optional[int] = 1
            elif 2 * possible <= k:
                majority = 0
            else:
                return None
            comparison = "eq_const" if op == "eq_majority" else "ne_const"
            return self._abstract((comparison, expr[1], majority), env)
        if op == "count":
            # the count lies between the operands that surely hold and
            # those that may hold; decided when every count in that
            # range compares alike
            verdicts = [self._abstract(sub, env) for sub in expr[1]]
            low = sum(1 for v in verdicts if v is True)
            high = low + sum(1 for v in verdicts if v is None)
            test = COMPARISONS[expr[2]]
            outcomes = {test(n, expr[3]) for n in range(low, high + 1)}
            return outcomes.pop() if len(outcomes) == 1 else None
        if op == "not":
            verdict = self._abstract(expr[1], env)
            return None if verdict is None else not verdict
        verdicts = [self._abstract(sub, env) for sub in expr[1:]]
        if op == "and":
            if any(v is False for v in verdicts):
                return False
            if all(v is True for v in verdicts):
                return True
            return None
        if any(v is True for v in verdicts):
            return True
        if all(v is False for v in verdicts):
            return False
        return None


def _render_assignment(names: Sequence[str], values: Sequence) -> str:
    if not names:
        return "any state"
    body = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    return f"{body} (other variables arbitrary)"


# -- exact plan frames ---------------------------------------------------------

@dataclass(frozen=True)
class PlanTable:
    """A joint guard+effect evaluation over the plan's support product.

    ``rows`` holds, for every assignment of the support variables, the
    guard's verdict and the post-states of the support variables — one
    per value of a ``set_any`` choice, in its order, else one (effects
    never touch anything outside the support, so this is the plan's
    complete behaviour up to carried variables).
    """

    names: Tuple[str, ...]
    assignments: Tuple[Tuple, ...]
    enabled: Tuple[bool, ...]
    finals: Tuple[Optional[Tuple[Tuple, ...]], ...]


def plan_frame_table(
    plan: Plan, domains: Dict[str, Tuple], budget: int = 1 << 16
) -> Optional[PlanTable]:
    """The plan's behaviour table, or ``None`` when a support variable
    has no domain or the support product exceeds ``budget``."""
    names = tuple(sorted(plan_support(plan)))
    doms = []
    size = 1
    for name in names:
        domain = domains.get(name)
        if not domain:
            return None
        doms.append(tuple(domain))
        size *= len(domain)
        if size > budget:
            return None
    index = {name: i for i, name in enumerate(names)}
    guard = row_guard(plan.guard, index)
    effects = row_effects(plan, index)
    assignments = tuple(itertools.product(*doms)) if names else ((),)
    enabled: List[bool] = []
    finals: List[Optional[Tuple[Tuple, ...]]] = []
    for values in assignments:
        if guard(values):
            enabled.append(True)
            finals.append(effects(values))
        else:
            enabled.append(False)
            finals.append(None)
    return PlanTable(names, assignments, tuple(enabled), tuple(finals))


def _exact_writes(table: PlanTable) -> Dict[str, int]:
    """``variable -> witness row index`` for every variable some
    successor of an enabled row observably changes."""
    writes: Dict[str, int] = {}
    for row, (values, on, finals) in enumerate(
        zip(table.assignments, table.enabled, table.finals)
    ):
        if not on:
            continue
        for final in finals:
            for position, name in enumerate(table.names):
                if name not in writes and final[position] != values[position]:
                    writes[name] = row
    return writes


def _exact_reads(
    table: PlanTable, writes: FrozenSet[str]
) -> Dict[str, Tuple[int, int]]:
    """``variable -> (row a, row b)`` witness pairs for every variable
    the plan's behaviour depends on.

    Two assignments differing only in ``v`` must exhibit the same
    behaviour for ``v`` to be unread: equal guard verdicts and, when
    enabled, equal successor sequences — compared under the memo's
    contract (``v`` written: full post-states match; ``v`` unwritten:
    post-states match outside ``v``, the old value merely rides along).
    """
    reads: Dict[str, Tuple[int, int]] = {}
    for position, name in enumerate(table.names):
        masked = name not in writes

        def behaviour(row: int) -> Tuple:
            finals = table.finals[row]
            if finals is None:
                return (False, None)
            if masked:
                finals = tuple(
                    final[:position] + final[position + 1:]
                    for final in finals
                )
            return (True, finals)

        groups: Dict[Tuple, int] = {}
        for row, values in enumerate(table.assignments):
            group = values[:position] + values[position + 1:]
            first = groups.setdefault(group, row)
            if first != row and behaviour(first) != behaviour(row):
                reads[name] = (first, row)
                break
    return reads


# -- per-action analysis -------------------------------------------------------

@dataclass(frozen=True)
class GuardFacts:
    """Proven facts :func:`check_guards` can consume instead of probing.

    ``None`` fields are *undecided* (fall back to probing); boolean
    fields are proofs either way.
    """

    satisfiable: Optional[bool] = None
    changes_state: Optional[bool] = None


@dataclass(frozen=True)
class ActionAnalysis:
    """Everything the symbolic analyzer established about one action.

    ``status`` is one of ``unplanned`` (no plan — nothing to analyze),
    ``uncompilable`` (plan does not fit the schema, DC512), or
    ``compiled``.  ``reads``/``writes`` are the plan's exact frame when
    the support table fit the budget; ``covers_frames`` /
    ``covers_guards`` tell the linter whether the probe-based rules may
    be skipped for this action.
    """

    action: str
    status: str
    diagnostics: Tuple[Diagnostic, ...] = ()
    proofs: Tuple[Proof, ...] = ()
    reads: Optional[FrozenSet[str]] = None
    writes: Optional[FrozenSet[str]] = None
    satisfiable: Optional[bool] = None
    changes_state: Optional[bool] = None
    covers_frames: bool = False
    covers_guards: bool = False

    @property
    def compiled(self) -> bool:
        return self.status == "compiled"

    def guard_facts(self) -> GuardFacts:
        return GuardFacts(
            satisfiable=self.satisfiable,
            changes_state=self.changes_state,
        )


#: action -> {analysis key: ActionAnalysis}
_ANALYSES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def clear_symbolic_caches() -> None:
    """Drop memoized truth tables and per-action analyses.  Wired into
    :func:`repro.core.exploration.clear_all_caches` so cold runs redo
    symbolic work like any other cache miss."""
    _TRUTH_TABLES.clear()
    _ANALYSES.clear()


def _subexpression_diagnostics(
    solver: GuardSolver,
    guard: Tuple,
    action: Action,
    target: str,
    root_satisfiable: Optional[bool],
) -> List[Diagnostic]:
    """``DC501`` (dead sub-expression) / ``DC502`` (tautological
    sub-expression or non-literal tautological guard).

    Walks top-down and does not descend into an already-flagged
    sub-expression, so one dead disjunct yields one finding, not one
    per literal inside it.  A tautological operand of a ``count`` is
    not flagged: it adds one to the count, so it does constrain the
    guard.
    """
    diagnostics: List[Diagnostic] = []
    flagged: set = set()

    def visit(expr: Tuple, is_root: bool, counted: bool = False) -> None:
        op = expr[0]
        if op == "true" or expr in flagged:
            return
        if not is_root or op in ("and", "or", "not", "count"):
            satisfiable = solver.satisfiable(expr)
            if satisfiable is False and not is_root and root_satisfiable:
                flagged.add(expr)
                diagnostics.append(Diagnostic(
                    code="DC501",
                    severity=Severity.WARNING,
                    rule=RULE_GUARDS,
                    message=(
                        f"guard sub-expression {expr!r} of action "
                        f"{action.name!r} is unsatisfiable: the branch "
                        f"is dead code"
                    ),
                    target=target,
                    action=action.name,
                    hint="check the comparison against the variable "
                         "domains; an always-false conjunct usually "
                         "means a typo",
                ))
                return
            if not counted and solver.tautological(expr) is True:
                flagged.add(expr)
                where = "guard" if is_root else "guard sub-expression"
                diagnostics.append(Diagnostic(
                    code="DC502",
                    severity=Severity.INFO,
                    rule=RULE_GUARDS,
                    message=(
                        f"{where} {expr!r} of action {action.name!r} is "
                        f"tautological"
                        + ("" if is_root else
                           "; it never constrains the guard")
                    ),
                    target=target,
                    action=action.name,
                    hint="drop the redundant test (or write ('true',) "
                         "if the action is meant to be always enabled)",
                ))
                return
        if op in ("and", "or"):
            for sub in expr[1:]:
                visit(sub, False)
        elif op == "not":
            visit(expr[1], False)
        elif op == "count":
            for sub in expr[1]:
                visit(sub, False, counted=True)

    visit(guard, True)
    return diagnostics


def _frame_diagnostics(
    action: Action,
    table: PlanTable,
    satisfiable: bool,
    target: str,
) -> Tuple[List[Diagnostic], List[Proof], FrozenSet[str], FrozenSet[str]]:
    """DC101/DC102 from the plan table: the action's frame (derived
    from its plan) must cover the exact frame the table exhibits."""
    diagnostics: List[Diagnostic] = []
    proofs: List[Proof] = []
    write_rows = _exact_writes(table)
    exact_writes = frozenset(write_rows)
    read_rows = _exact_reads(table, exact_writes)
    exact_reads = frozenset(read_rows)
    targets = frozenset(plan_targets(action.plan))

    def row_evidence(row: int) -> str:
        return _render_assignment(table.names, table.assignments[row])

    for name in sorted(exact_writes - action.writes):
        diagnostics.append(Diagnostic(
            code="DC102",
            severity=Severity.ERROR,
            rule=RULE_FRAMES,
            message=(
                f"action {action.name!r} writes {name!r} which is "
                f"outside its declared writes frame (proven from the "
                f"plan IR)"
            ),
            target=target,
            action=action.name,
            variables=(name,),
            evidence=row_evidence(write_rows[name]),
            hint=f"add {name!r} to writes",
        ))

    for name in sorted(exact_reads - action.reads):
        row_a, row_b = read_rows[name]
        a = table.assignments[row_a]
        b = table.assignments[row_b]
        position = table.names.index(name)
        diagnostics.append(Diagnostic(
            code="DC101",
            severity=Severity.ERROR,
            rule=RULE_FRAMES,
            message=(
                f"action {action.name!r} depends on {name!r} which is "
                f"outside its declared reads frame: "
                f"{name}={a[position]!r} vs {name}={b[position]!r} "
                f"behave differently (proven from the plan IR)"
            ),
            target=target,
            action=action.name,
            variables=(name,),
            evidence=row_evidence(row_a),
            hint=f"add {name!r} to reads",
        ))

    # a variable declared written but never assigned by an effect is not
    # overwritten when the action fires: the memo would mask it, yet the
    # old value survives into the successor — the masked-perturbation
    # violation, decided statically
    if satisfiable:
        for name in sorted(
            (action.writes - action.reads) - targets - exact_reads
        ):
            diagnostics.append(Diagnostic(
                code="DC101",
                severity=Severity.ERROR,
                rule=RULE_FRAMES,
                message=(
                    f"action {action.name!r} declares {name!r} written "
                    f"but no effect ever assigns it: the successor memo "
                    f"would mask a variable that is carried through "
                    f"(proven from the plan IR)"
                ),
                target=target,
                action=action.name,
                variables=(name,),
                hint=f"drop {name!r} from writes (or add an effect that "
                     f"assigns it)",
            ))

    if not any(d.severity is Severity.ERROR for d in diagnostics):
        proofs.append(Proof(
            rule=RULE_FRAMES,
            method="ir-exact",
            detail=(
                f"declared frame covers the exact IR frame "
                f"(reads={sorted(exact_reads)}, "
                f"writes={sorted(exact_writes)}) on the full space"
            ),
            target=target,
            action=action.name,
        ))
    return diagnostics, proofs, exact_reads, exact_writes


def analyze_action(
    action: Action,
    variables: Sequence[Variable],
    schema,
    target: str = "",
    kind: str = "action",
    config=None,
) -> ActionAnalysis:
    """The full symbolic verdict for one action (memoized).

    Actions without a plan (or whose plan does not compile) come back
    with ``covers_frames``/``covers_guards`` False and the linter falls
    back to the differential probe for them.
    """
    from .linter import LintConfig

    config = config or LintConfig()
    plan = getattr(action, "plan", None)
    if plan is None or getattr(action, "_base", None) is not None:
        return ActionAnalysis(action=action.name, status="unplanned")

    domains = {v.name: tuple(v.domain) for v in variables}
    memo_key = (
        schema, tuple(sorted(domains.items())), target, kind,
        config.solver_budget,
    )
    per_action = _ANALYSES.get(action)
    if per_action is None:
        per_action = _ANALYSES[action] = {}
    found = per_action.get(memo_key)
    if found is not None:
        return found

    analysis = _analyze_uncached(
        action, plan, variables, schema, domains, target, kind, config
    )
    per_action[memo_key] = analysis
    return analysis


def _analyze_uncached(
    action: Action,
    plan: Plan,
    variables: Sequence[Variable],
    schema,
    domains: Dict[str, Tuple],
    target: str,
    kind: str,
    config,
) -> ActionAnalysis:
    diagnostics: List[Diagnostic] = []
    proofs: List[Proof] = []

    if row_kernel(action, schema, domains) is None:
        diagnostics.append(Diagnostic(
            code="DC512",
            severity=Severity.WARNING,
            rule=RULE_COMPILE,
            message=(
                f"plan of {kind} {action.name!r} does not compile for "
                f"this schema; kernels fall back to interpretation and "
                f"nothing was proven about it"
            ),
            target=target,
            action=action.name,
            hint="the plan names an unknown variable or a value outside "
                 "its domain; fix the plan or the declared domains",
        ))
        return ActionAnalysis(
            action=action.name, status="uncompilable",
            diagnostics=tuple(diagnostics),
        )

    solver = GuardSolver(domains, budget=config.solver_budget)
    satisfiable = solver.satisfiable(plan.guard)

    if satisfiable is False:
        diagnostics.append(Diagnostic(
            code="DC301",
            severity=Severity.ERROR,
            rule=RULE_GUARDS,
            message=(
                f"guard of {kind} {action.name!r} is unsatisfiable: "
                f"the action is dead code (proven from the plan IR)"
            ),
            target=target,
            action=action.name,
            hint="check the guard against the variable domains",
        ))
    elif satisfiable is True:
        witness = solver.witness(plan.guard)
        detail = "guard is satisfiable"
        if witness is not None:
            detail += ": " + _render_assignment(
                tuple(witness), tuple(witness.values())
            )
        proofs.append(Proof(
            rule=RULE_GUARDS,
            method="solver",
            detail=detail,
            target=target,
            action=action.name,
        ))
    diagnostics.extend(_subexpression_diagnostics(
        solver, plan.guard, action, target, satisfiable
    ))

    table = plan_frame_table(plan, domains, budget=config.solver_budget)
    reads: Optional[FrozenSet[str]] = None
    writes: Optional[FrozenSet[str]] = None
    changes_state: Optional[bool] = None
    covers_frames = False
    if table is not None:
        changes_state = any(
            on and any(final != values for final in finals)
            for values, on, finals in zip(
                table.assignments, table.enabled, table.finals
            )
        )
        if satisfiable and changes_state is False:
            diagnostics.append(Diagnostic(
                code="DC303",
                severity=Severity.INFO,
                rule=RULE_GUARDS,
                message=(
                    f"{kind} {action.name!r} is enabled but never "
                    f"changes the state (proven from the plan IR: "
                    f"self-loops only)"
                ),
                target=target,
                action=action.name,
                hint="a pure stutter action; drop it unless the "
                     "self-loop is intentional",
            ))
        frame_diags, frame_proofs, reads, writes = _frame_diagnostics(
            action, table, bool(satisfiable), target
        )
        diagnostics.extend(frame_diags)
        proofs.extend(frame_proofs)
        covers_frames = True

    return ActionAnalysis(
        action=action.name,
        status="compiled",
        diagnostics=tuple(diagnostics),
        proofs=tuple(proofs),
        reads=reads,
        writes=writes,
        satisfiable=satisfiable,
        changes_state=changes_state,
        covers_frames=covers_frames,
        covers_guards=satisfiable is not None,
    )
