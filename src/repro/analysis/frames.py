"""Frame soundness: validating ``reads``/``writes`` declarations.

Since PR 3, :class:`repro.core.action.Action` accepts a frame
declaration and uses it to collapse successor computation across states
that agree outside ``writes - reads``.  The contract (see the comment in
``Action.__init__``) is threefold:

1. ``reads`` covers every variable whose value can influence the guard
   or the successor set;
2. ``writes`` covers every variable the statement may change;
3. every variable in ``writes - reads`` is *overwritten regardless of
   its current value* — the memo masks those variables, so two states
   differing only there must have identical successor sets.

A wrong declaration does not crash anything: it silently corrupts the
transition relation, which for a verification library is the worst
possible failure mode.  This rule validates the contract by
**differential probing**: evaluate the action from first principles
(:func:`repro.analysis.probe.raw_successors`) on a probe set, then
perturb one variable at a time and compare successor sets.

- ``DC102`` (error): a successor differs from its source on a variable
  outside ``writes``.
- ``DC101`` (error): perturbing a variable outside ``reads`` changed
  the successor set — for ``v ∈ writes`` the sets must be identical
  (the memo masks ``v``); for ``v ∉ writes`` they must be identical
  after carrying the perturbed value through.
- ``DC105`` (error): the frame names a variable the program lacks.
- ``DC104`` (warning): only one of ``reads``/``writes`` declared — the
  memo needs both, so a partial declaration buys nothing.
- ``DC103`` (info): no frame declared; with ``suggest=True`` the hint
  carries an inferred minimal frame.
- ``DC001`` (error): the guard or statement raised during probing.

A violation found on *any* schema-consistent valuation is an error even
when that valuation is unreachable: the memo keys on valuations, not on
reachability, so the declaration must hold on the full space.  On an
exhaustive probe a clean single-variable sweep is a complete check (any
two states differ by a chain of single-variable changes); on a sampled
probe it is evidence, and the diagnostics say so.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from ..core.action import Action
from ..core.state import State, Variable
from .diagnostics import Diagnostic, Severity
from .probe import ProbeSet, raw_successors

__all__ = [
    "check_frames", "infer_frame", "infer_predicate_reads",
    "format_frame",
]

RULE = "frame-soundness"


def format_frame(reads: Iterable[str], writes: Iterable[str]) -> str:
    fmt = lambda names: "{%s}" % ", ".join(repr(n) for n in sorted(names))
    return f"reads={fmt(reads)}, writes={fmt(writes)}"


class _ProbeFailure(Exception):
    """Internal: guard/statement raised; carries the DC001 diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


class _ActionProbe:
    """Successor sets of one action over a probe set, with perturbation.

    Wraps :func:`raw_successors` with a values-tuple-keyed cache (probe
    pairs revisit the same perturbed valuations) and converts evaluation
    exceptions into a single ``DC001`` diagnostic.
    """

    def __init__(self, action: Action, target: str):
        self.action = action
        self.target = target
        self._cache: Dict[Tuple, Tuple[State, ...]] = {}

    def successors(self, state: State) -> Tuple[State, ...]:
        key = state.values_tuple
        found = self._cache.get(key)
        if found is None:
            try:
                found = raw_successors(self.action, state)
            except Exception as exc:
                raise _ProbeFailure(Diagnostic(
                    code="DC001",
                    severity=Severity.ERROR,
                    rule=RULE,
                    message=(
                        f"guard or statement of {self.action.name!r} raised "
                        f"{type(exc).__name__}: {exc}"
                    ),
                    target=self.target,
                    action=self.action.name,
                    evidence=repr(state),
                    hint="guards and statements must be total on the full "
                         "Cartesian state space",
                )) from exc
            self._cache[key] = found
        return found


def _alternatives(domain: Sequence, current, limit: int) -> List:
    """Up to ``limit`` other domain values to perturb a variable to."""
    others = [value for value in domain if value != current]
    return others[:limit] if limit and len(others) > limit else others


def _perturbation_agrees(
    probe: _ActionProbe,
    state: State,
    successors: Tuple[State, ...],
    variable: str,
    alternative,
    carried: bool,
) -> bool:
    """Does perturbing ``variable`` leave the successor set unchanged?

    ``carried=False`` (``variable ∈ writes``): the memo masks the
    variable, so the sets must match exactly.  ``carried=True``
    (``variable ∉ writes``): an unread, unwritten variable rides along
    unchanged, so the sets must match after substituting the perturbed
    value into each successor.
    """
    perturbed = state.assign_one(variable, alternative)
    actual = probe.successors(perturbed)
    if carried:
        expected = frozenset(
            t.assign_one(variable, alternative) for t in successors
        )
    else:
        expected = frozenset(successors)
    return frozenset(actual) == expected


def check_frames(
    action: Action,
    variables: Sequence[Variable],
    probe: ProbeSet,
    target: str = "",
    suggest: bool = False,
    pair_budget: int = 2000,
    alt_limit: int = 3,
) -> List[Diagnostic]:
    """All frame diagnostics for one action (see module docstring)."""
    variable_names = frozenset(v.name for v in variables)
    domains = {v.name: v.domain for v in variables}
    diagnostics: List[Diagnostic] = []

    if action.reads is None and action.writes is None:
        hint = None
        if suggest:
            try:
                reads, writes, complete = infer_frame(
                    action, variables, probe,
                    pair_budget=pair_budget, alt_limit=alt_limit,
                )
                hint = "declare " + format_frame(reads, writes)
                if not complete:
                    hint += " (inferred from a sample; verify by hand)"
            except _ProbeFailure as failure:
                return [failure.diagnostic]
        return [Diagnostic(
            code="DC103",
            severity=Severity.INFO,
            rule=RULE,
            message=(
                f"action {action.name!r} declares no reads/writes frame; "
                "the successor memo stays off"
            ),
            target=target,
            action=action.name,
            hint=hint or "run with --suggest-frames to infer one",
            sampled=not probe.exhaustive,
        )]

    if action.reads is None or action.writes is None:
        missing = "reads" if action.reads is None else "writes"
        return [Diagnostic(
            code="DC104",
            severity=Severity.WARNING,
            rule=RULE,
            message=(
                f"action {action.name!r} declares "
                f"{'writes' if missing == 'reads' else 'reads'} but not "
                f"{missing}; the successor memo needs both and is disabled"
            ),
            target=target,
            action=action.name,
            hint=f"declare {missing} as well (or drop the frame entirely)",
        )]

    unknown = (action.reads | action.writes) - variable_names
    if unknown:
        diagnostics.append(Diagnostic(
            code="DC105",
            severity=Severity.ERROR,
            rule=RULE,
            message=(
                f"frame of {action.name!r} names unknown variable(s) "
                f"{sorted(unknown)}"
            ),
            target=target,
            action=action.name,
            variables=tuple(sorted(unknown)),
            hint="frames may only name the program's variables",
        ))

    action_probe = _ActionProbe(action, target)
    try:
        # -- write check: successors may only differ inside ``writes`` ----
        write_violations: Dict[str, str] = {}
        successor_table: List[Tuple[State, Tuple[State, ...]]] = []
        for state in probe.states:
            successors = action_probe.successors(state)
            successor_table.append((state, successors))
            for successor in successors:
                for name in variable_names:
                    if name in write_violations or name in action.writes:
                        continue
                    if state[name] != successor[name]:
                        write_violations[name] = (
                            f"{state!r} -> {successor!r}"
                        )
        for name in sorted(write_violations):
            diagnostics.append(Diagnostic(
                code="DC102",
                severity=Severity.ERROR,
                rule=RULE,
                message=(
                    f"action {action.name!r} writes {name!r} which is "
                    f"outside its declared writes frame"
                ),
                target=target,
                action=action.name,
                variables=(name,),
                evidence=write_violations[name],
                hint=f"add {name!r} to writes",
                sampled=not probe.exhaustive,
            ))

        # -- read check: perturbing an undeclared variable must not
        #    change the successor set (DC101) ----------------------------
        candidates = sorted(
            (variable_names - action.reads) - set(write_violations)
        )
        truncated = not probe.exhaustive
        if candidates:
            per_variable = max(1, pair_budget // len(candidates))
            for name in candidates:
                carried = name not in action.writes
                domain = domains[name]
                violation = None
                pairs = 0
                for state, successors in successor_table:
                    if violation is not None:
                        break
                    if pairs >= per_variable:
                        truncated = True  # budget ran out before the states did
                        break
                    alts = _alternatives(domain, state[name], alt_limit)
                    if len(domain) - 1 > len(alts):
                        truncated = True
                    for alternative in alts:
                        pairs += 1
                        if not _perturbation_agrees(
                            action_probe, state, successors,
                            name, alternative, carried,
                        ):
                            violation = (state, alternative)
                            break
                if violation is not None:
                    state, alternative = violation
                    effect = (
                        "changes the carried-through successor set"
                        if carried else
                        "changes the successor set the memo would share"
                    )
                    diagnostics.append(Diagnostic(
                        code="DC101",
                        severity=Severity.ERROR,
                        rule=RULE,
                        message=(
                            f"action {action.name!r} depends on {name!r} "
                            f"which is outside its declared reads frame: "
                            f"setting {name}={alternative!r} {effect}"
                        ),
                        target=target,
                        action=action.name,
                        variables=(name,),
                        evidence=repr(state),
                        hint=f"add {name!r} to reads",
                        sampled=truncated,
                    ))
    except _ProbeFailure as failure:
        diagnostics.append(failure.diagnostic)

    return diagnostics


def infer_predicate_reads(
    predicate,
    variables: Sequence[Variable],
    states: Iterable[State],
    alt_limit: int = 3,
) -> FrozenSet[str]:
    """The variables ``predicate`` observably depends on, by probing.

    Same differential idea as the action frame check, applied to a
    boolean function of the state: a variable is *read* iff perturbing
    it (to up to ``alt_limit`` other domain values) flips the
    predicate's value at some probe state.  On an exhaustive probe with
    an unbounded ``alt_limit`` this is exact; on a sample it is a lower
    bound — callers that need soundness (e.g. the monitoring runtime's
    incremental evaluation, which *skips* detectors whose read frame
    misses an event's writes) should pass the full state space.

    Used by :meth:`repro.monitoring.DetectorBank` to derive detector
    read-frames when none are declared.
    """
    domains = {v.name: v.domain for v in variables}
    reads = set()
    probe_states = list(states)
    for name, domain in domains.items():
        if len(domain) < 2:
            continue
        for state in probe_states:
            value = bool(predicate(state))
            flipped = False
            for alternative in _alternatives(domain, state[name], alt_limit):
                if bool(predicate(state.assign_one(name, alternative))) != value:
                    flipped = True
                    break
            if flipped:
                reads.add(name)
                break
    return frozenset(reads)




def infer_frame(
    action: Action,
    variables: Sequence[Variable],
    probe: ProbeSet,
    pair_budget: int = 2000,
    alt_limit: int = 3,
) -> Tuple[FrozenSet[str], FrozenSet[str], bool]:
    """Infer a minimal sound ``(reads, writes)`` frame by probing.

    Returns ``(reads, writes, complete)`` where ``complete`` is True iff
    the probe was exhaustive and no budget truncation occurred — only
    then is the inferred frame a proof rather than a best guess.  May
    raise the internal probe-failure exception if the action is not
    total; :func:`check_frames` converts that into ``DC001``.
    """
    variable_names = [v.name for v in variables]
    domains = {v.name: v.domain for v in variables}
    action_probe = _ActionProbe(action, "")

    writes = set()
    successor_table: List[Tuple[State, Tuple[State, ...]]] = []
    for state in probe.states:
        successors = action_probe.successors(state)
        successor_table.append((state, successors))
        for successor in successors:
            for name in variable_names:
                if name not in writes and state[name] != successor[name]:
                    writes.add(name)

    reads = set()
    complete = probe.exhaustive
    per_variable = max(1, pair_budget // max(1, len(variable_names)))
    for name in variable_names:
        carried = name not in writes
        domain = domains[name]
        dependent = False
        pairs = 0
        for state, successors in successor_table:
            if dependent:
                break
            if pairs >= per_variable:
                complete = False  # budget ran out before the states did
                break
            alts = _alternatives(domain, state[name], alt_limit)
            if len(domain) - 1 > len(alts):
                complete = False
            for alternative in alts:
                pairs += 1
                if not _perturbation_agrees(
                    action_probe, state, successors, name, alternative, carried
                ):
                    dependent = True
                    break
        if dependent:
            reads.add(name)

    return frozenset(reads), frozenset(writes), complete
