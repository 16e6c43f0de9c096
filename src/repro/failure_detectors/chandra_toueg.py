"""A heartbeat failure detector, model-checked as a detector.

One monitored process and one watchdog, in the interleaving model:

- ``heartbeat``: the monitored process (while not crashed) raises the
  ``alive`` bit;
- ``consume``: the watchdog sees the bit, clears it, resets its miss
  counter, and retracts any suspicion;
- ``count``: the watchdog, not seeing the bit, counts a miss;
- ``suspect``: at ``limit`` consecutive misses the watchdog suspects
  the process.

The fault-class is the crash (latching ``crashed``; heartbeats stop).

Mechanically verified claims (see the tests):

1. **It is a detector** of the timeout predicate: ``suspect detects
   (missed ≥ limit)`` holds — the failure detector is literally an
   instantiation of the paper's detector component.
2. **Completeness**: ``crashed leads-to suspected`` in the presence of
   the crash fault — Progress with respect to the "process is down"
   detection predicate.
3. **Strong accuracy fails**: ``suspect detects crashed`` violates
   Safeness — the model checker produces the classic asynchrony
   counterexample in which the watchdog counts misses while the slow
   process is merely between heartbeats.  A perfect failure detector is
   unimplementable in this model, exactly Chandra–Toueg's motivation
   for the ◇-hierarchy.
4. **Eventual accuracy**: a false suspicion is eventually retracted
   (``suspect ∧ ¬crashed leads-to ¬suspect ∨ crashed``) — the ◇-style
   guarantee the heartbeat detector does offer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import (
    Action,
    FaultClass,
    Plan,
    Predicate,
    Program,
    Variable,
    crash_variable,
)

__all__ = ["FailureDetectorModel", "build"]


@dataclass(frozen=True)
class FailureDetectorModel:
    """All artifacts of the heartbeat failure-detector model."""

    limit: int
    program: Program
    crashed: Predicate      #: the Chandra–Toueg detection predicate
    suspected: Predicate    #: the witness
    timed_out: Predicate    #: missed ≥ limit — the implementable predicate
    from_: Predicate        #: bookkeeping consistency to verify from
    faults: FaultClass      #: the crash


def build(limit: int = 2) -> FailureDetectorModel:
    """Construct the heartbeat failure-detector model."""
    if limit < 1:
        raise ValueError("limit must be positive")
    variables = [
        Variable("crashed", [False, True]),
        Variable("alive", [False, True]),
        Variable("missed", list(range(limit + 1))),
        Variable("suspect", [False, True]),
    ]

    crashed = Predicate(expr=("eq_const", "crashed", True), name="crashed")
    silent = ("eq_const", "alive", False)
    suspected = Predicate(expr=("eq_const", "suspect", True), name="suspect")
    # missed ranges over 0..limit, so missed ≥ limit is missed = limit
    timed_out = Predicate(
        expr=("eq_const", "missed", limit), name=f"missed≥{limit}"
    )

    program = Program(
        variables,
        [
            Action("heartbeat", plan=Plan(
                ("and", ("not", crashed.expr), silent),
                [("set_const", "alive", True)],
            )),
            Action("consume", plan=Plan(
                ("not", silent),
                [("set_const", "alive", False), ("set_const", "missed", 0),
                 ("set_const", "suspect", False)],
            )),
            Action("count", plan=Plan(
                ("and", silent, ("not", timed_out.expr)),
                # missed < limit under the guard, so missed + 1 never wraps
                [("inc_mod", "missed", "missed", limit + 1)],
            )),
            Action("suspect", plan=Plan(
                ("and", timed_out.expr, ("not", suspected.expr)),
                [("set_const", "suspect", True)],
            )),
        ],
        name=f"heartbeat_fd(limit={limit})",
    )

    return FailureDetectorModel(
        limit=limit,
        program=program,
        crashed=crashed,
        suspected=suspected,
        timed_out=timed_out,
        from_=suspected.implies(timed_out).rename("U(suspect⇒timeout)"),
        faults=crash_variable("crashed", name="crash"),
    )
