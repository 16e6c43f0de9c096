"""Content-addressed lint certificates.

Two granularities, mirroring the closure-row scheme in
:mod:`repro.store.certificates`:

- **whole-report certificates** — keyed by the complete lint target
  (program, spec, invariant, span, faults, start, component split,
  suppressions) plus the lint configuration.  A hit replays the entire
  :class:`~.diagnostics.LintReport` without touching a single rule.
- **per-action analysis certificates** — keyed by one action's own
  material (for planned actions the fingerprint covers the plan tuples)
  plus the variable declarations and the symbolic-analyzer budgets.
  Editing one action invalidates exactly that action's certificate; the
  others replay, so incremental re-lints scale with the size of the
  edit, not the program.

Both key families fold in :data:`~.symbolic.ANALYZER_VERSION`, so a
rule change orphans every stored verdict (the salt already covers the
engine and package versions).  All store traffic is best-effort: any
backend or pickling failure falls back to a cold computation.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from ..store import backend as store_backend
from ..store import keys as store_keys
from .diagnostics import LintReport
from .symbolic import ANALYZER_VERSION, ActionAnalysis

__all__ = [
    "lint_config_material",
    "lint_target_material",
    "lookup_report",
    "record_report",
    "lookup_analysis",
    "record_analysis",
]


def lint_config_material(config) -> Tuple:
    """Every budget/flag of a :class:`~.linter.LintConfig`, by field
    name, so adding a knob automatically re-keys stored reports."""
    return (
        "lint-config",
        tuple(
            (f.name, getattr(config, f.name))
            for f in dataclasses.fields(config)
        ),
    )


def _optional(material_fn, value) -> Optional[Tuple]:
    return None if value is None else material_fn(value)


def lint_target_material(target) -> Tuple:
    return (
        "lint-target",
        target.name,
        store_keys.program_material(target.program),
        _optional(store_keys.spec_material, target.spec),
        _optional(store_keys.predicate_material, target.invariant),
        _optional(store_keys.predicate_material, target.span),
        _optional(store_keys.faults_material, target.faults),
        _optional(store_keys.predicate_material, target.start),
        tuple(target.correctors),
        tuple(target.components),
        tuple(
            (s.code, s.action, s.justification)
            for s in target.suppressions
        ),
    )


def _report_key(target, config) -> str:
    return store_keys.digest("lint-report", (
        lint_target_material(target),
        lint_config_material(config),
        ANALYZER_VERSION,
    ))


def _analysis_key(action, variables, kind: str, config) -> str:
    return store_keys.digest("lint-action", (
        store_keys.action_material(action),
        tuple(store_keys._variable_material(v) for v in variables),
        kind,
        config.solver_budget,
        ANALYZER_VERSION,
    ))


def lookup_report(target, config) -> Optional[LintReport]:
    store = store_backend.active_store()
    if store is None:
        return None
    try:
        payload = store.get(_report_key(target, config))
        if payload is None:
            return None
        report = store_backend.loads(payload)
    except Exception:
        return None
    if not isinstance(report, LintReport):
        return None
    store_backend.record_event("lint_report_hits")
    return report


def record_report(target, config, report: LintReport) -> None:
    store = store_backend.active_store()
    if store is None:
        return
    try:
        store.put(_report_key(target, config), store_backend.dumps(report))
    except Exception:
        pass


def _retarget(analysis: ActionAnalysis, target: str) -> ActionAnalysis:
    """Analysis certificates are shared across targets (the key covers
    only the action and its variable context), so the target label is
    re-stamped at replay time."""
    return dataclasses.replace(
        analysis,
        diagnostics=tuple(
            dataclasses.replace(d, target=target)
            for d in analysis.diagnostics
        ),
        proofs=tuple(
            dataclasses.replace(p, target=target)
            for p in analysis.proofs
        ),
    )


def lookup_analysis(
    action, variables, kind: str, config, target: str = ""
) -> Optional[ActionAnalysis]:
    store = store_backend.active_store()
    if store is None:
        return None
    try:
        payload = store.get(_analysis_key(action, variables, kind, config))
        if payload is None:
            return None
        analysis = store_backend.loads(payload)
    except Exception:
        return None
    if not isinstance(analysis, ActionAnalysis):
        return None
    store_backend.record_event("lint_action_hits")
    return _retarget(analysis, target)


def record_analysis(
    action, variables, kind: str, config, analysis: ActionAnalysis
) -> None:
    store = store_backend.active_store()
    if store is None:
        return
    try:
        store.put(
            _analysis_key(action, variables, kind, config),
            store_backend.dumps(_retarget(analysis, "")),
        )
    except Exception:
        pass
