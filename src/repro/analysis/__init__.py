"""Static analysis for guarded-command programs (``repro lint``).

A rule-based linter that checks program, fault-class, and component
definitions *without* exhaustive state-space exploration: every rule
evaluates guards, statements, and predicates pointwise over a bounded
probe set (exhaustive for small spaces, seeded-sampled otherwise) and
emits structured :class:`~repro.analysis.diagnostics.Diagnostic`\\ s
with stable codes.

Rules and code ranges:

- ``DC0xx`` — totality: guards/statements that raise during probing.
- ``DC1xx`` — declaration soundness: ``reads``/``writes`` frames
  validated by differential probing (:mod:`repro.analysis.frames`) — a
  wrong frame silently corrupts the successor memo introduced in the
  perf core, which is exactly the class of bug a test suite built on
  the same memo cannot see — and symmetry declarations validated the
  same way (``DC106``, :mod:`repro.analysis.symmetry_lint`): a group
  element that is not an automorphism of ``p [] F`` silently merges
  inequivalent states in quotient exploration.
- ``DC2xx`` — interference (:mod:`repro.analysis.interference`):
  the paper's interference-freedom condition checked semantically for
  declared correctors, plus an advisory read/write race audit.
- ``DC3xx`` — guard satisfiability (:mod:`repro.analysis.guards`):
  dead guards, actions never enabled from the start set, pure
  stutterers.
- ``DC4xx`` — spec well-formedness (:mod:`repro.analysis.specs`):
  representable safety shapes (Lemma 3.2), satisfiability, and the
  invariant/span closure preconditions every tolerance definition
  assumes.
- ``DC5xx`` — symbolic findings over the Plan IR
  (:mod:`repro.analysis.symbolic`): dead/tautological guard
  sub-expressions (``DC501``/``DC502``) and plans that do not compile
  for the program's schema (``DC512``).

Actions built from a Plan IR are analyzed *symbolically*: their frame
(``DC1xx``) and guard (``DC3xx``) verdicts are proofs over the full
space regardless of its size, recorded as
:class:`~repro.analysis.diagnostics.Proof` values on the report.  With
a certificate store active (``repro lint --store``), whole reports and
per-action analyses replay content-addressed
(:mod:`repro.analysis.lint_store`).

Entry points: :func:`lint` / :func:`lint_program` for one target, the
:data:`LINT_CATALOGUE` for the bundled programs, and ``repro lint`` on
the command line.
"""

from .diagnostics import (
    Diagnostic,
    InterferenceError,
    LintReport,
    Proof,
    Severity,
    Suppression,
)
from .catalogue import (
    EXEMPT_MODULES,
    LINT_CATALOGUE,
    CatalogueCoverageError,
    all_lint_targets,
    lint_entry,
    lint_targets,
    uncovered_modules,
)
from .frames import (
    check_frames,
    format_frame,
    infer_frame,
    infer_predicate_reads,
)
from .guards import check_guards
from .interference import (
    check_interference,
    interference_diagnostics_for_states,
)
from .linter import LintConfig, LintTarget, lint, lint_program
from .probe import ProbeSet, build_probe, raw_successors
from .reporters import (
    render_json,
    render_sarif,
    render_text,
    summarize,
    worst_severity,
)
from .specs import check_closure, check_spec
from .symbolic import (
    ActionAnalysis,
    GuardSolver,
    analyze_action,
    clear_symbolic_caches,
)
from .symmetry_lint import check_symmetry

__all__ = [
    "Diagnostic", "Severity", "Suppression", "LintReport", "Proof",
    "InterferenceError",
    "LintConfig", "LintTarget", "lint", "lint_program",
    "LINT_CATALOGUE", "lint_targets", "all_lint_targets",
    "lint_entry", "uncovered_modules", "EXEMPT_MODULES",
    "CatalogueCoverageError",
    "check_frames", "infer_frame", "infer_predicate_reads", "format_frame",
    "check_guards", "check_interference",
    "interference_diagnostics_for_states",
    "check_spec", "check_closure", "check_symmetry",
    "ActionAnalysis", "GuardSolver", "analyze_action",
    "clear_symbolic_caches",
    "ProbeSet", "build_probe", "raw_successors",
    "render_text", "render_json", "render_sarif", "summarize",
    "worst_severity",
]
