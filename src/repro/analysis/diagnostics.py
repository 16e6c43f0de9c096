"""Structured diagnostics for the static linter.

Every rule in :mod:`repro.analysis` reports its findings as
:class:`Diagnostic` values — a stable code (``DC101``), a severity, the
program/action the finding is about, a human-readable message, and a fix
hint — collected into a :class:`LintReport`.  The shape is deliberately
close to what compiler front-ends emit: stable codes make findings
greppable and suppressible, severities drive exit codes, and the whole
report serializes to JSON for tooling.

Code blocks (the "DC" is for detector/corrector):

- ``DC0xx`` — the analysis itself failed (a guard or statement raised);
- ``DC1xx`` — frame soundness (``reads``/``writes`` declarations);
- ``DC2xx`` — interference between base and component actions;
- ``DC3xx`` — guard satisfiability / enabledness;
- ``DC4xx`` — specification and invariant well-formedness;
- ``DC5xx`` — symbolic findings over the Plan IR (dead/tautological
  guard sub-expressions, plans that do not compile).

Alongside findings, rules that *prove* a property (rather than sampling
evidence for it) record a :class:`Proof` — which rule, for which
action, by what method.  Proofs are the positive complement of
diagnostics: a clean report with a frame-soundness proof for every
planned action is a theorem about the program, not an absence of
observations.

:class:`InterferenceError` lives here (rather than in the synthesis
layer) so that :mod:`repro.synthesis.nonmasking` can raise an exception
carrying structured diagnostics without creating an import cycle:
``analysis.diagnostics`` imports nothing from the rest of the library.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Severity",
    "Diagnostic",
    "Proof",
    "Suppression",
    "LintReport",
    "InterferenceError",
]


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering supports ``max``/threshold checks."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule.

    Attributes
    ----------
    code:
        Stable rule code (``DC101``); documented in
        ``docs/static_analysis.md``.
    severity:
        :class:`Severity` — only ``ERROR`` findings fail ``--strict``.
    rule:
        Short rule family name (``frame-soundness``, ``interference``, …).
    message:
        Human-readable finding, self-contained (includes names/values).
    target:
        The lint target (program/model) the finding belongs to.
    action:
        The offending action's name, when the finding is about one.
    variables:
        The variables involved (frame violations, conflicts).
    hint:
        A suggested fix, when the rule can compute one.
    evidence:
        Rendering of a concrete counterexample (state / state pair).
    sampled:
        True when the rule probed a sample rather than the full space —
        a clean sampled probe is evidence, not a proof.
    suppressed:
        Set by :meth:`LintReport.apply_suppressions`; a suppressed
        finding stays in the report (with its justification) but does
        not count toward :meth:`LintReport.errors`.
    justification:
        The suppression's justification, when suppressed.
    """

    code: str
    severity: Severity
    rule: str
    message: str
    target: str = ""
    action: Optional[str] = None
    variables: Tuple[str, ...] = ()
    hint: Optional[str] = None
    evidence: Optional[str] = None
    sampled: bool = False
    suppressed: bool = False
    justification: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "code": self.code,
            "severity": str(self.severity),
            "rule": self.rule,
            "message": self.message,
            "target": self.target,
        }
        if self.action is not None:
            data["action"] = self.action
        if self.variables:
            data["variables"] = sorted(self.variables)
        if self.hint is not None:
            data["hint"] = self.hint
        if self.evidence is not None:
            data["evidence"] = self.evidence
        if self.sampled:
            data["sampled"] = True
        if self.suppressed:
            data["suppressed"] = True
            data["justification"] = self.justification
        return data

    def format(self) -> str:
        location = self.target
        if self.action is not None:
            location = f"{location}::{self.action}" if location else self.action
        head = f"{self.code} {self.severity:<7} {location}: {self.message}"
        if self.suppressed:
            head += f"  [suppressed: {self.justification}]"
        elif self.hint:
            head += f"  (hint: {self.hint})"
        return head

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class Proof:
    """A positive, machine-checked fact established during linting.

    Attributes
    ----------
    rule:
        The rule family the proof belongs to (``frame-soundness``,
        ``guard-satisfiability``, ``interference``).
    method:
        How it was established: ``ir-exact`` (exhaustive enumeration
        over the plan's support variables), ``exhaustive`` (full
        state-space sweep), ``decomposed`` (per-variable symbolic
        decomposition on an oversized space — sound for the plan,
        sampled for the action), or ``solver`` (finite-domain
        constraint solving).
    detail:
        Human-readable statement of what was proven, self-contained.
    """

    rule: str
    method: str
    detail: str
    target: str = ""
    action: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "rule": self.rule,
            "method": self.method,
            "detail": self.detail,
            "target": self.target,
        }
        if self.action is not None:
            data["action"] = self.action
        return data

    def format(self) -> str:
        location = self.target
        if self.action is not None:
            location = f"{location}::{self.action}" if location else self.action
        return f"proof  {self.rule} [{self.method}] {location}: {self.detail}"

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class Suppression:
    """An explicit, justified waiver for one diagnostic code.

    ``action=None`` suppresses the code for the whole target.  A
    justification is mandatory: the point of a suppression is to record
    *why* the finding is acceptable, next to the program it concerns.
    """

    code: str
    justification: str
    action: Optional[str] = None

    def matches(self, diagnostic: Diagnostic) -> bool:
        if self.code != diagnostic.code:
            return False
        return self.action is None or self.action == diagnostic.action


@dataclass
class LintReport:
    """All diagnostics produced for one lint target."""

    target: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    proofs: List[Proof] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def add_proofs(self, proofs: Iterable[Proof]) -> None:
        self.proofs.extend(proofs)

    def proofs_for(self, rule: str, action: Optional[str] = None) -> List[Proof]:
        return [
            p for p in self.proofs
            if p.rule == rule and (action is None or p.action == action)
        ]

    def errors(self) -> List[Diagnostic]:
        """Unsuppressed error-severity findings (what ``--strict`` gates on)."""
        return [
            d for d in self.diagnostics
            if d.severity is Severity.ERROR and not d.suppressed
        ]

    def warnings(self) -> List[Diagnostic]:
        return [
            d for d in self.diagnostics
            if d.severity is Severity.WARNING and not d.suppressed
        ]

    @property
    def ok(self) -> bool:
        return not self.errors()

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def apply_suppressions(self, suppressions: Sequence[Suppression]) -> None:
        """Mark matching diagnostics suppressed (in place)."""
        if not suppressions:
            return
        updated: List[Diagnostic] = []
        for diagnostic in self.diagnostics:
            for suppression in suppressions:
                if suppression.matches(diagnostic):
                    diagnostic = replace(
                        diagnostic,
                        suppressed=True,
                        justification=suppression.justification,
                    )
                    break
            updated.append(diagnostic)
        self.diagnostics[:] = updated

    def to_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "proofs": [p.to_dict() for p in self.proofs],
            "summary": {
                "errors": len(self.errors()),
                "warnings": len(self.warnings()),
                "total": len(self.diagnostics),
                "suppressed": sum(1 for d in self.diagnostics if d.suppressed),
                "proven": len(self.proofs),
            },
        }


class InterferenceError(ValueError):
    """A component provably interferes with the base program.

    Raised by :func:`repro.synthesis.nonmasking.add_nonmasking` (and
    usable by any composition pass) with the *complete* list of
    interference diagnostics, so a user fixing a model sees every
    offending corrector in one run instead of one per run.  Subclasses
    ``ValueError`` for backward compatibility with callers that caught
    the old single-offender error.
    """

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics: Tuple[Diagnostic, ...] = tuple(diagnostics)
        super().__init__(
            "\n".join(d.message for d in self.diagnostics)
            or "interference detected"
        )
