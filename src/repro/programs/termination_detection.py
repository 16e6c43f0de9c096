"""Termination detection — a pure detector application.

Termination detection is the canonical example of a *detector* whose
detection predicate is a global, stable property: "every process is
idle".  The paper's introduction lists it among the applications of the
component-based design method; here we build a small scan-based
detector and verify it against the ``Z detects X`` specification.

The underlying computation: ``n`` processes, each ``active`` or idle.
An active process may *activate* another process (spawn work) or
*deactivate* itself.  Since only active processes activate others,
termination ("all idle") is stable — exactly the closed detection
predicate of the Chandy–Misra style detects relation the paper's remark
mentions.

The detector: a scanner sweeps the processes with a cursor ``idx``.  Any
activation raises a global ``dirty`` bit; the scanner restarts (and
clears ``dirty``) whenever it sees an active process or the dirty bit,
advances past idle processes otherwise, and claims termination (witness
``done``) only after a complete clean sweep.  The ``dirty`` bit is what
makes the claim sound: without it, a process behind the cursor could be
re-activated by one ahead of it and the scanner would wrongly report
termination — the test suite demonstrates this classic bug on the
``unsound`` variant.

Faults: a *spurious activation* perturbs an idle process to active
without raising ``dirty`` (e.g. a duplicated message).  The sound
detector is **not** tolerant to it — its Safeness can be violated —
which the model checker exhibits; this mirrors the paper's point that
tolerance is always relative to a fault-class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core import (
    Action,
    FaultClass,
    Plan,
    Predicate,
    Program,
    Spec,
    Variable,
    detects_spec,
)

__all__ = ["TerminationModel", "build"]


@dataclass(frozen=True)
class TerminationModel:
    """All artifacts of the termination-detection application."""

    size: int
    detector: Program        #: computation ‖ sound scanner
    unsound: Program         #: computation ‖ scanner without the dirty bit
    terminated: Predicate    #: X — every process idle
    done: Predicate          #: Z — the scanner's claim
    from_: Predicate         #: U — scanner bookkeeping is consistent
    spec: Spec               #: 'done detects terminated'
    faults: FaultClass       #: spurious activation


def build(size: int = 3) -> TerminationModel:
    """Construct the termination-detection family for ``size``
    processes."""
    if size < 2:
        raise ValueError("need at least two processes")
    variables = [Variable(f"active{i}", [False, True]) for i in range(size)]
    variables += [
        Variable("idx", list(range(size + 1))),
        Variable("dirty", [False, True]),
        Variable("done", [False, True]),
    ]

    def active(i: int, value: bool = True) -> Tuple:
        return ("eq_const", f"active{i}", value)

    def at_cursor(indices, value: bool = True) -> Tuple:
        """``active{idx} = value`` with the cursor at one of ``indices``:
        an ``or`` over the values of ``idx``."""
        return ("or", *(
            ("and", ("eq_const", "idx", i), active(i, value))
            for i in indices
        ))

    computation: List[Action] = []
    for i in range(size):
        computation.append(Action(f"deactivate{i}", plan=Plan(
            active(i), [("set_const", f"active{i}", False)],
        )))
        for j in range(size):
            if j == i:
                continue
            computation.append(Action(f"activate{i}_{j}", plan=Plan(
                ("and", active(i), active(j, False)),
                [("set_const", f"active{j}", True),
                 ("set_const", "dirty", True)],
            )))

    def scanner(sound: bool) -> List[Action]:
        suffix = "" if sound else "_unsound"
        # restart when there is progress to undo (idx > 0 or the dirty
        # bit up) and a reason to: an active process at the cursor or,
        # for the sound scanner, the bit.  So the sound guard is "dirty,
        # or active at a cursor past 0" and never reads active0, while
        # the unsound one restarts at idx = 0 only with the bit up
        if sound:
            restart = ("or", ("eq_const", "dirty", True),
                       at_cursor(range(1, size)))
        else:
            restart = ("and", at_cursor(range(size)),
                       ("or", ("ne_const", "idx", 0),
                        ("eq_const", "dirty", True)))
        unless_dirty = (("eq_const", "dirty", False),) if sound else ()
        return [
            Action(f"scan_advance{suffix}", plan=Plan(
                ("and", at_cursor(range(size), False), *unless_dirty),
                # idx < size under the guard, so idx + 1 never wraps
                [("inc_mod", "idx", "idx", size + 1)],
            )),
            Action(f"scan_restart{suffix}", plan=Plan(
                restart,
                [("set_const", "idx", 0), ("set_const", "dirty", False)],
            )),
            Action(f"scan_report{suffix}", plan=Plan(
                ("and", ("eq_const", "idx", size), ("eq_const", "done", False),
                 *unless_dirty),
                [("set_const", "done", True)],
            )),
        ]

    detector = Program(
        variables, computation + scanner(sound=True),
        name=f"termination_detector(n={size})",
    )
    unsound = Program(
        variables, computation + scanner(sound=False),
        name=f"termination_detector_unsound(n={size})",
    )

    terminated = Predicate(
        expr=("and", *(active(i, False) for i in range(size))),
        name="terminated",
    )
    done = Predicate(expr=("eq_const", "done", True), name="done")
    # everything the cursor has passed was idle, unless an activation
    # has been flagged since the sweep began; a claim means termination
    prefix_clean = ("and", *(
        ("or", active(i, False), *(("eq_const", "idx", v)
                                   for v in range(i + 1)))
        for i in range(size)
    ))
    from_ = Predicate(
        expr=("and", ("or", ("eq_const", "dirty", True), prefix_clean),
              ("or", ("eq_const", "done", False), terminated.expr)),
        name="U_td",
    )

    return TerminationModel(
        size=size,
        detector=detector,
        unsound=unsound,
        terminated=terminated,
        done=done,
        from_=from_,
        spec=detects_spec(done, terminated),
        faults=FaultClass(
            [
                Action(f"spurious{i}", plan=Plan(
                    active(i, False), [("set_const", f"active{i}", True)],
                ))
                for i in range(size)
            ],
            name="spurious activation",
        ),
    )
