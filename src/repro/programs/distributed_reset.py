"""Distributed reset — a distributed corrector [10].

The paper's application list includes *distributed reset*: a wave
protocol that restores a global invariant by re-initializing every
process.  Here is a line-topology session-number reset in the style of
Arora–Gouda:

- every process ``i`` holds application state ``x{i}`` (0 is the clean
  value), a request bit ``req{i}``, and a session number ``sn{i}``;
- a process whose state is corrupt raises its request bit (the
  *detector* part — local detection of the correction predicate's
  violation);
- request bits propagate toward the root (process 0);
- the root answers a request by starting a new session: it increments
  its session number (mod K) and cleans its own state;
- a non-root process that sees its parent in a newer session *adopts*
  it: copies the session number and resets its state — the reset wave
  sweeping down the line (the *corrector* part).

The fault corrupts application state (and may spuriously raise request
bits).  The composed system is **nonmasking tolerant**: from any such
perturbation the wave restores "all states clean" — verified as
convergence to the invariant.  Session numbers themselves are assumed
uncorrupted (bounded-session distributed reset under session corruption
requires the full machinery of [10]; see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core import (
    Action,
    FaultClass,
    LeadsTo,
    Plan,
    Predicate,
    Program,
    Spec,
    TRUE,
    Variable,
)

__all__ = ["DistributedResetModel", "build"]


@dataclass(frozen=True)
class DistributedResetModel:
    """All artifacts of the distributed-reset application."""

    size: int
    sessions: int
    program: Program
    spec: Spec
    invariant: Predicate   #: all clean, no requests, sessions agree
    span: Predicate        #: sessions consistent (x/req arbitrary)
    faults: FaultClass     #: state corruption + spurious requests


def build(size: int = 3, sessions: int = 2) -> DistributedResetModel:
    """Construct the distributed-reset family: ``size`` processes on a
    line with session numbers mod ``sessions``."""
    if size < 2:
        raise ValueError("need at least two processes")
    if sessions < 2:
        raise ValueError("need at least two session numbers")

    variables: List[Variable] = []
    for i in range(size):
        variables.append(Variable(f"x{i}", [0, 1]))
        variables.append(Variable(f"req{i}", [False, True]))
        variables.append(Variable(f"sn{i}", list(range(sessions))))

    def x_clean(i: int) -> Tuple:
        return ("eq_const", f"x{i}", 0)

    def req(i: int, value: bool = True) -> Tuple:
        return ("eq_const", f"req{i}", value)

    actions: List[Action] = []
    for i in range(size):
        # detector: locally corrupt state raises the request bit
        actions.append(Action(f"request{i}", plan=Plan(
            ("and", ("not", x_clean(i)), req(i, False)),
            [("set_const", f"req{i}", True)],
        )))
    for i in range(1, size):
        # requests propagate toward the root
        actions.append(Action(f"forward{i}", plan=Plan(
            ("and", req(i), req(i - 1, False)),
            [("set_const", f"req{i - 1}", True)],
        )))
    # The root starts a new session — but only once the previous wave
    # has completed (all sessions agree).  Without this guard the root
    # can keep flipping its session number while a lagging process is
    # only intermittently able to adopt, and weak fairness alone does
    # not force the wave to finish (a genuine livelock the model checker
    # exhibits if the conjunct is dropped).  In [10] this completion
    # test is a diffusing computation; at this abstraction it is a
    # global guard.
    wave_done = tuple(("eq_var", f"sn{i}", "sn0") for i in range(1, size))
    actions.append(Action("reset_root", plan=Plan(
        ("and", req(0), *wave_done),
        [("inc_mod", "sn0", "sn0", sessions), ("set_const", "x0", 0),
         ("set_const", "req0", False)],
    )))
    for i in range(1, size):
        # the wave: adopt the parent's newer session, clean up
        actions.append(Action(f"adopt{i}", plan=Plan(
            ("ne_var", f"sn{i}", f"sn{i - 1}"),
            [("copy", f"sn{i}", f"sn{i - 1}"), ("set_const", f"x{i}", 0),
             ("set_const", f"req{i}", False)],
        )))
    program = Program(variables, actions, name=f"distributed_reset(n={size})")

    clean = Predicate(
        expr=("and", *(("and", x_clean(i), req(i, False))
                       for i in range(size)), *wave_done),
        name="all clean, sessions agree",
    )
    spec = Spec(
        [
            LeadsTo(
                TRUE,
                Predicate(expr=("and", *(x_clean(i) for i in range(size))),
                          name="all states clean"),
                name="every corruption is eventually reset",
            )
        ],
        name="SPEC_reset",
    )

    # sessions form a "prefix" pattern on a line after any run of the
    # wave: each process's session equals its parent's or the parent is
    # one step ahead (mod K); x/req arbitrary.
    span = Predicate(
        expr=("and", *(
            ("or", ("eq_var", f"sn{i}", f"sn{i - 1}"), *(
                ("and", ("eq_const", f"sn{i - 1}", v),
                 ("eq_const", f"sn{i}", (v - 1) % sessions))
                for v in range(sessions)
            ))
            for i in range(1, size)
        )),
        name="T_reset (session prefix pattern)",
    )

    fault_actions: List[Action] = []
    for i in range(size):
        fault_actions.append(Action(f"corrupt_x{i}", plan=Plan(
            x_clean(i), [("set_const", f"x{i}", 1)],
        )))
        fault_actions.append(Action(f"spurious_req{i}", plan=Plan(
            req(i, False), [("set_const", f"req{i}", True)],
        )))

    return DistributedResetModel(
        size=size,
        sessions=sessions,
        program=program,
        spec=spec,
        invariant=clean.rename("S_reset"),
        span=span,
        faults=FaultClass(fault_actions, name="state corruption"),
    )
