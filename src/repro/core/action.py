"""Guarded-command actions.

An action (Section 2.1) has a unique name and the form::

    <name> :: <guard>  -->  <statement>

The guard is a boolean expression over program variables (a
:class:`~repro.core.predicate.Predicate` here) and the statement atomically
updates zero or more variables.

Statements may be *deterministic* (one successor state) or
*nondeterministic* (a set of successor states).  Nondeterminism is needed
to model Byzantine behaviour — the paper's ``BYZ.j`` action lets a
Byzantine process "change its decision arbitrarily" — so an action's
semantics here is a function from a state to the tuple of possible next
states.

Helper constructors:

- :func:`assign` builds the common "set these variables to these values /
  expressions" statement.
- :func:`choose` builds a nondeterministic statement from alternatives.
- :meth:`Action.restrict` implements the paper's ``Z ∧ ac`` notation:
  strengthening the guard of an action by a state predicate.

An action is best written as data: ``Action(name, plan=Plan(guard,
effects))`` (see :mod:`repro.core.kernels`).  The plan is then the
action's only description — its guard, statement and ``reads``/
``writes`` frame are all derived from it, and the batch kernels compile
it to whole-frontier evaluators.  Plans say deterministic assignments,
one nondeterministic choice of a variable's value (``set_any``, the
Byzantine lies) and threshold guards (``count``, e.g. "exactly one
token"); lambda guards and statements stay for what the grammar cannot
say (a maximum or an argmin, a choice that depends on the state).
"""

from __future__ import annotations

import operator
import weakref
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .kernels import Plan, plan_reads, plan_targets, render_guard, row_effects
from .predicate import EvaluatorMemo, Predicate
from .state import State, _state_of

__all__ = ["Statement", "Action", "assign", "choose", "skip"]

#: A statement maps a state to one successor (deterministic) or to an
#: iterable of successors (nondeterministic).
Statement = Callable[[State], Union[State, Iterable[State]]]


def assign(**updates: Union[Hashable, Callable[[State], Hashable]]) -> Statement:
    """Deterministic multiple-assignment statement.

    Values may be constants or callables evaluated on the *initial* state,
    matching the paper's atomic-update semantics (all right-hand sides read
    the pre-state)::

        assign(x=1, y=lambda s: s["x"] + 1)   # y gets old x + 1
    """

    if len(updates) == 1:
        # single-variable updates are the overwhelmingly common action
        # shape; resolve the name once and skip the kwargs packing
        [(name, value)] = updates.items()
        if callable(value):
            def statement(state: State) -> State:
                return state.assign_one(name, value(state))
        else:
            def statement(state: State) -> State:
                return state.assign_one(name, value)
        return statement

    def statement(state: State) -> State:
        resolved: Dict[str, Hashable] = {}
        for name, value in updates.items():
            resolved[name] = value(state) if callable(value) else value
        return state.assign(**resolved)

    return statement


def choose(*alternatives: Statement) -> Statement:
    """Nondeterministic choice among statements.

    Executing the action may produce any successor produced by any
    alternative.  Used for Byzantine actions and abstract environments.
    """

    def statement(state: State) -> Tuple[State, ...]:
        successors = []
        for alternative in alternatives:
            result = alternative(state)
            if isinstance(result, State):
                successors.append(result)
            else:
                successors.extend(result)
        return tuple(successors)

    return statement


def skip() -> Statement:
    """The statement that changes nothing (a stutter step)."""
    return lambda state: state


def _plan_statement(plan: Plan) -> Statement:
    """The statement a plan's effects describe — one successor, or one
    per value of its ``set_any`` choice — compiled once per schema."""
    compiled = EvaluatorMemo()

    def statement(state: State) -> Tuple[State, ...]:
        schema = state._schema
        apply = compiled.get(schema)
        if apply is None:
            apply = compiled[schema] = row_effects(plan, schema.index)
        return tuple([
            _state_of(schema, values) for values in apply(state._values)
        ])

    return statement


class Action:
    """A named guarded command.

    Parameters
    ----------
    name:
        Unique action name within a program.
    guard:
        Predicate enabling the action (Section 2.1 *Enabled*).
    statement:
        Deterministic or nondeterministic statement (see module docs).
    reads, writes:
        Optional frame of a guard/statement action (see ``__init__``).
    plan:
        A :class:`~repro.core.kernels.Plan`: the whole description of
        the action.  The guard, statement and frame are
        derived from it, so passing any of them as well raises
        :class:`TypeError`.
    """

    __slots__ = ("name", "guard", "statement", "reads", "writes", "plan",
                 "_successors", "_class_memo", "_base", "_restriction",
                 "__weakref__")

    #: per-action successor memo stops growing past this many states
    SUCCESSOR_CACHE_LIMIT = 1 << 18

    #: every live action, so :meth:`clear_successor_caches` can reach the
    #: per-action memos (weak references: registration does not extend
    #: any action's lifetime)
    _instances: "weakref.WeakSet[Action]" = None  # set below

    def __init__(
        self,
        name: str,
        guard: Predicate = None,
        statement: Statement = None,
        reads: Optional[Iterable[str]] = None,
        writes: Optional[Iterable[str]] = None,
        plan: Plan = None,
    ):
        if plan is not None:
            if any(x is not None for x in (guard, statement, reads, writes)):
                raise TypeError(
                    f"action {name!r}: a plan derives the guard, statement "
                    f"and reads/writes frame; pass plan= alone"
                )
            guard = Predicate(expr=plan.guard, name=render_guard(plan.guard))
            statement = _plan_statement(plan)
            reads, writes = plan_reads(plan), plan_targets(plan)
        elif guard is None or statement is None:
            raise TypeError(
                f"action {name!r} needs plan=, or a guard and a statement"
            )
        self.name = name
        self.guard = guard
        self.statement = statement
        #: the :class:`repro.core.kernels.Plan` the action was built
        #: from, or ``None`` for guard/statement actions, which take the
        #: interpreted ``successors`` path everywhere
        self.plan = plan
        #: The frame: ``reads`` covers every variable the guard or the
        #: statement's right-hand sides consult; ``writes`` every
        #: variable the statement may change.  Derived from the plan
        #: (guard support plus effect sources; effect targets) for
        #: planned actions, optionally declared for the others.
        #: When both are known, two states that agree outside
        #: ``writes - reads`` provably have identical successor sets, so
        #: the successor memo collapses them to one statement evaluation
        #: (a big win for actions that overwrite a large-domain variable
        #: they never read, e.g. nondeterministic domain sweeps).  A
        #: declaration is trusted, not checked on the exploration path:
        #: a wrong one silently corrupts the transition relation —
        #: declare only what the action text makes obvious.
        self.reads = frozenset(reads) if reads is not None else None
        self.writes = frozenset(writes) if writes is not None else None
        #: state -> tuple of successors.  Guards and statements are pure
        #: functions of the state (guarded-command semantics), so the
        #: transition relation of an action never changes and the
        #: synthesis/verification passes that sweep the same state space
        #: several times can replay it.  The cache dies with the action.
        self._successors: Dict[State, Tuple[State, ...]] = {}
        #: schema -> (key getter, {key: successors}); see reads/writes
        self._class_memo: Optional[Dict[object, Tuple]] = (
            {} if self.reads is not None and self.writes is not None
            else None
        )
        #: set by :meth:`restrict`: the unrestricted action and the
        #: restricting predicate, letting ``successors`` consult the
        #: base action's memo instead of re-running the statement
        self._base: "Action" = None
        self._restriction: Predicate = None
        Action._instances.add(self)

    def enabled(self, state: State) -> bool:
        """True iff the guard holds at ``state``."""
        # calling the predicate's function directly skips one call frame;
        # guards run once per (state, action) pair during exploration
        return bool(self.guard.fn(state))

    def successors(self, state: State) -> Tuple[State, ...]:
        """All states reachable by executing this action at ``state``.

        Returns the empty tuple when the action is disabled.  A
        deterministic statement yields a 1-tuple.  Results are memoized
        per state (actions are pure, see ``__init__``).
        """
        cache = self._successors
        found = cache.get(state)
        if found is not None:
            return found
        if self._base is not None:
            # restricted action: ``(Z ∧ g) --> st`` produces exactly the
            # base action's successors where Z holds and none elsewhere,
            # so reuse the base memo instead of re-running the statement
            result = (
                self._base.successors(state)
                if self._restriction.fn(state)
                else ()
            )
        elif self._class_memo is not None:
            result = self._class_successors(state)
        elif not self.guard.fn(state):
            result: Tuple[State, ...] = ()
        else:
            raw = self.statement(state)
            result = (raw,) if isinstance(raw, State) else tuple(raw)
        if len(cache) < self.SUCCESSOR_CACHE_LIMIT:
            cache[state] = result
        return result

    def _class_successors(self, state: State) -> Tuple[State, ...]:
        """Successor computation through the reads/writes declaration.

        States that agree on every variable outside ``writes - reads``
        have the same successor set: the overwritten variables do not
        influence the guard or the written values (they are not read)
        and do not survive into the successors (they are written)."""
        schema = state.schema
        plan = self._class_memo.get(schema)
        if plan is None:
            masked = self.writes - self.reads
            kept = tuple(
                i for i, name in enumerate(schema.names)
                if name not in masked
            )
            if len(kept) == len(schema.names):
                plan = (None, None)     # nothing masked: no sharing here
            else:
                plan = (operator.itemgetter(*kept) if kept else None, {})
            self._class_memo[schema] = plan
        getter, table = plan
        if table is None:
            if not self.guard.fn(state):
                return ()
            raw = self.statement(state)
            return (raw,) if isinstance(raw, State) else tuple(raw)
        key = getter(state.values_tuple) if getter is not None else ()
        found = table.get(key)
        if found is None:
            if not self.guard.fn(state):
                found = ()
            else:
                raw = self.statement(state)
                found = (raw,) if isinstance(raw, State) else tuple(raw)
            table[key] = found
        return found

    def restrict(self, predicate: Predicate) -> "Action":
        """The paper's ``Z ∧ ac``: the action ``Z ∧ g --> st``.

        A planned action restricted by an expression predicate is
        planned too — its guard is the conjunction, so its frame and
        kernels derive as for any plan.  Any other restriction delegates
        to this action's successor memo where ``Z`` holds."""
        if self.plan is not None and predicate.expr is not None:
            return Action(self.name, plan=Plan(
                ("and", predicate.expr, self.plan.guard), self.plan.effects
            ))
        restricted = Action(
            name=self.name,
            guard=predicate & self.guard,
            statement=self.statement,
        )
        restricted._base = self
        restricted._restriction = predicate
        return restricted

    def renamed(self, name: str) -> "Action":
        """A copy of this action under a different name."""
        if self.plan is not None:
            return Action(name, plan=self.plan)
        return Action(
            name=name, guard=self.guard, statement=self.statement,
            reads=self.reads, writes=self.writes,
        )

    def preserves(self, predicate: Predicate, states: Iterable[State]) -> bool:
        """Section 2.3 *Preserves*: executing the action in any state (from
        ``states``) where ``predicate`` holds yields only states where it
        holds."""
        for state in states:
            if not predicate(state):
                continue
            for successor in self.successors(state):
                if not predicate(successor):
                    return False
        return True

    @classmethod
    def clear_successor_caches(cls) -> None:
        """Drop every live action's successor and equivalence-class
        memos.  These are per-action (not process-global), so
        ``clear_system_cache`` cannot reach them; benchmark cold-start
        paths call this through
        :func:`repro.core.exploration.clear_all_caches`."""
        for action in list(cls._instances):
            action._successors.clear()
            if action._class_memo is not None:
                action._class_memo.clear()

    def __repr__(self) -> str:
        return f"Action({self.name} :: {self.guard.name} --> ...)"


Action._instances = weakref.WeakSet()


def _unique_names(actions: Sequence[Action]) -> None:
    names = [a.name for a in actions]
    if len(set(names)) != len(names):
        seen, dupes = set(), set()
        for name in names:
            (dupes if name in seen else seen).add(name)
        raise ValueError(f"duplicate action names: {sorted(dupes)}")
