"""Faults as state-perturbing actions (Section 2.3).

A *fault-class* for a program ``p`` is just a set of actions over the
variables of ``p``.  This uniform representation covers stuck-at, crash,
fail-stop, omission, timing, and Byzantine faults alike; what varies is
only which perturbations the actions encode.

:class:`FaultClass` bundles the fault actions with a name and offers the
standard constructions:

- :meth:`FaultClass.system` builds the transition system of ``p [] F``
  from a predicate (fault edges marked, per Assumption 2 liveness is
  later judged on program edges only);
- :meth:`FaultClass.check_span` checks the paper's *F-span* condition
  (``S ⇒ T``, ``T`` closed in ``p``, every action of ``F`` preserves
  ``T``);
- factory helpers build common fault shapes: :func:`perturb_variable`
  (transient corruption of one variable to arbitrary domain values),
  :func:`set_variable` (a specific perturbation), and
  :func:`crash_variable` (latch a boolean "down" flag).
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

from .action import Action, assign
from .exploration import DEFAULT_MAX_STATES, TransitionSystem, system_from
from .kernels import Plan
from .predicate import Predicate, TRUE, var_ne
from .program import Program
from .results import CheckResult
from .state import State, Variable

__all__ = [
    "FaultClass",
    "perturb_variable",
    "set_variable",
    "crash_variable",
]


class FaultClass:
    """A named set of fault actions for some program."""

    def __init__(self, actions: Iterable[Action], name: str = "F"):
        self.actions: Tuple[Action, ...] = tuple(actions)
        self.name = name

    def __iter__(self):
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def union(self, other: "FaultClass", name: Optional[str] = None) -> "FaultClass":
        """Combine two fault-classes (tolerating multiple fault types)."""
        return FaultClass(
            self.actions + other.actions, name=name or f"({self.name} ∪ {other.name})"
        )

    def system(
        self,
        program: Program,
        from_: Predicate,
        max_states: int = DEFAULT_MAX_STATES,
        symmetric: bool = False,
    ) -> TransitionSystem:
        """The reachable transition system of ``program [] F`` from the
        states of ``program`` satisfying ``from_``.

        Memoized end to end (:func:`~repro.core.exploration.system_from`):
        the start set is the predicate's memoized universe region and
        the exploration comes from the shared system LRU, so the
        repeated ``faults.system(p, span)`` calls inside a tolerance
        certificate all resolve to one explored graph.

        ``symmetric=True`` builds the quotient system under the program's
        declared symmetry; the caller is responsible for ``from_`` being
        a union of orbits (the tolerance checkers validate this).
        """
        return system_from(
            program, from_, self.actions, max_states, symmetric
        )

    def check_span(
        self,
        program: Program,
        span: Predicate,
        invariant: Predicate,
    ) -> CheckResult:
        """Check that ``span`` is an F-span of ``program`` from
        ``invariant`` (Section 2.3)."""
        ts = self.system(program, span)
        return ts.is_fault_span(span, invariant)

    def __repr__(self) -> str:
        return f"FaultClass({self.name!r}, {len(self.actions)} actions)"


# -- common fault shapes -------------------------------------------------------

def perturb_variable(
    variable: Variable,
    guard: Predicate = TRUE,
    name: Optional[str] = None,
) -> FaultClass:
    """Transient fault: set ``variable`` to any other value of its domain.

    One fault action per target value, so model checking sees each
    perturbation as a distinct fault edge.  A singleton domain yields an
    empty class: the only candidate action (``v ≠ x --> v := x`` with
    ``x`` the sole value) would be dead code.

    With the default ``TRUE`` guard the actions are plans (frame and
    kernels derived); a caller-supplied guard may be any predicate, so
    those actions are interpreted and declare no frame.
    """
    actions: List[Action] = []
    if len(variable.domain) < 2:
        return FaultClass(
            actions, name=name or f"perturb({variable.name})"
        )
    for value in variable.domain:
        action_name = f"fault_{variable.name}_to_{value!r}"
        if guard is TRUE:
            action = Action(action_name, plan=Plan(
                ("ne_const", variable.name, value),
                [("set_const", variable.name, value)],
            ))
        else:
            action = Action(
                action_name,
                guard & var_ne(variable.name, value),
                assign(**{variable.name: value}),
            )
        actions.append(action)
    return FaultClass(actions, name=name or f"perturb({variable.name})")


def set_variable(
    variable_name: str,
    value: Hashable,
    guard: Predicate = TRUE,
    name: Optional[str] = None,
) -> FaultClass:
    """Fault that sets one variable to one specific value (e.g. a page
    fault removing an entry, a stuck-at fault).

    With the default ``TRUE`` guard the action is a plan that reads
    nothing and unconditionally overwrites its target, the ideal frame
    shape for the successor memo; a caller-supplied guard makes it an
    interpreted action without a frame.
    """
    action_name = f"fault_set_{variable_name}_{value!r}"
    if guard is TRUE:
        action = Action(action_name, plan=Plan(
            ("true",), [("set_const", variable_name, value)]
        ))
    else:
        action = Action(
            action_name, guard, assign(**{variable_name: value})
        )
    return FaultClass(
        [action], name=name or f"set({variable_name}:={value!r})"
    )


def crash_variable(flag_name: str, name: Optional[str] = None) -> FaultClass:
    """Crash fault: latch the boolean ``flag_name`` to True, permanently
    marking a process as down (the process's actions should be guarded by
    ``¬flag``).

    The plan's guard is ``flag == False`` — exactly ``not flag`` over
    the boolean (or 0/1) domains crash flags use."""
    return FaultClass(
        [
            Action(f"crash_{flag_name}", plan=Plan(
                ("eq_const", flag_name, False),
                [("set_const", flag_name, True)],
            ))
        ],
        name=name or f"crash({flag_name})",
    )
