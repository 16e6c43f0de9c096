"""Leader election with a re-election corrector.

Another application from the paper's catalogue.  ``n`` processes with
distinct identifiers are arranged in a line; each holds a candidate
leader ``ldr{i}``.  The election rule is max-propagation: a process
adopts the largest identifier among its own id and its neighbours'
candidates.  The legitimate states have every candidate equal to the
maximum identifier.

A transient fault corrupts candidate variables to arbitrary (existing)
identifiers.  The program as a whole is a **corrector of its own
invariant** — max-propagation is monotone toward the true maximum and
converges from *any* state, so the system is nonmasking tolerant with
fault-span ``true`` (self-stabilizing leader election).

The detector flavour is also present: the predicate "my candidate is at
least as large as my neighbours'" is each action's guard complement —
an action fires exactly when local inconsistency is *detected*.  The
actions take a maximum, which the plan grammar cannot say, so they are
code; the predicates are expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core import (
    Action,
    FaultClass,
    LeadsTo,
    Predicate,
    Program,
    Spec,
    TRUE,
    Variable,
    assign,
    perturb_variable,
)

__all__ = ["LeaderElectionModel", "build"]


@dataclass(frozen=True)
class LeaderElectionModel:
    """All artifacts of the leader-election application."""

    ids: Tuple[int, ...]
    program: Program
    spec: Spec
    invariant: Predicate     #: every candidate equals max(ids)
    faults: FaultClass       #: transient candidate corruption


def build(ids: Sequence[int] = (3, 1, 2)) -> LeaderElectionModel:
    """Construct the leader-election family for processes with the given
    distinct identifiers (line topology, in the given order)."""
    ids = tuple(ids)
    if len(set(ids)) != len(ids):
        raise ValueError("identifiers must be distinct")
    if len(ids) < 2:
        raise ValueError("need at least two processes")
    size = len(ids)
    leader = max(ids)
    domain = sorted(ids)

    variables = [Variable(f"ldr{i}", domain) for i in range(size)]

    def local_max(state, i: int) -> int:
        candidates = [ids[i], state[f"ldr{i}"]]
        if i > 0:
            candidates.append(state[f"ldr{i - 1}"])
        if i < size - 1:
            candidates.append(state[f"ldr{i + 1}"])
        return max(candidates)

    actions: List[Action] = []
    for i in range(size):
        neighbourhood = {
            f"ldr{j}" for j in (i - 1, i, i + 1) if 0 <= j < size
        }
        actions.append(
            Action(
                f"elect{i}",
                Predicate(
                    lambda s, i=i: s[f"ldr{i}"] < local_max(s, i),
                    name=f"ldr{i} below local max",
                ),
                assign(**{f"ldr{i}": lambda s, i=i: local_max(s, i)}),
                reads=neighbourhood, writes={f"ldr{i}"},
            )
        )
    program = Program(variables, actions, name=f"leader_election({ids})")

    elected = Predicate(
        expr=("and", *(("eq_const", f"ldr{i}", leader) for i in range(size))),
        name="everyone elects the maximum id",
    )
    spec = Spec(
        [LeadsTo(TRUE, elected, name="a unique leader is eventually elected")],
        name="SPEC_elect",
    )

    faults = FaultClass(
        [
            action
            for i in range(size)
            for action in perturb_variable(program.variable(f"ldr{i}"))
        ],
        name="transient candidate corruption",
    )

    return LeaderElectionModel(
        ids=ids,
        program=program,
        spec=spec,
        invariant=elected.rename("S_elect"),
        faults=faults,
    )
