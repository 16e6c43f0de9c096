"""Barrier computation with a flag-repair corrector.

The first entry in the paper's application list (Section 1).  ``n``
processes repeatedly synchronize at a barrier:

- each process *arrives* (sets its program counter to ``arrived`` and
  raises its arrival flag);
- when every flag is up, the barrier *releases*: the round number flips
  and everyone goes back to ``working``.

The specification: (safety) the round advances only when every process
has actually arrived — no process is released while another is still
working; (liveness) rounds keep advancing.

The fault *loses an arrival flag* (the classic lost-notification
omission: the process has arrived, but its announcement is gone).  The
intolerant barrier then blocks forever — fail-safe, exactly like the
paper's ``pf``.  The tolerant barrier adds a **detector–corrector
pair** per process: the detection predicate is the local inconsistency
"arrived but flag down", and the corrector re-announces.  Re-announcing
is safe because the flag is only ever raised for a genuinely arrived
process, so the composed system is **masking** tolerant.

The witness invariant that makes the safety argument go through is
``a_i ⇒ pc_i = arrived`` — the flags never overclaim — which is closed
under the program *and* the fault (losing a flag cannot create an
overclaim).
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
    TransitionInvariant,
    Variable,
)

__all__ = ["BarrierModel", "build"]

WORKING = "working"
ARRIVED = "arrived"


@dataclass(frozen=True)
class BarrierModel:
    """All artifacts of the barrier application."""

    size: int
    intolerant: Program    #: barrier without the re-announce corrector
    tolerant: Program      #: with it
    spec: Spec
    invariant: Predicate   #: flags truthful, and flags mirror arrival
    span: Predicate        #: flags truthful (a flag may be lost)
    faults: FaultClass     #: arrival-flag loss


def build(size: int = 3) -> BarrierModel:
    """Construct the barrier family for ``size`` processes."""
    if size < 2:
        raise ValueError("need at least two processes")
    variables: List[Variable] = [Variable("round", [0, 1])]
    for i in range(size):
        variables.append(Variable(f"pc{i}", [WORKING, ARRIVED]))
        variables.append(Variable(f"a{i}", [False, True]))

    def all_arrived(state) -> bool:
        return all(state[f"pc{i}"] == ARRIVED for i in range(size))

    def flag(i: int, up: bool = True) -> Tuple:
        return ("eq_const", f"a{i}", up)

    def at_barrier(i: int) -> Tuple:
        return ("eq_const", f"pc{i}", ARRIVED)

    actions: List[Action] = []
    for i in range(size):
        actions.append(Action(f"arrive{i}", plan=Plan(
            ("eq_const", f"pc{i}", WORKING),
            [("set_const", f"pc{i}", ARRIVED), ("set_const", f"a{i}", True)],
        )))
    release = [("inc_mod", "round", "round", 2)]  # round := 1 - round
    for i in range(size):
        release.append(("set_const", f"pc{i}", WORKING))
        release.append(("set_const", f"a{i}", False))
    actions.append(Action("release", plan=Plan(
        ("and", *(flag(i) for i in range(size))), release,
    )))
    intolerant = Program(variables, actions, name=f"barrier(n={size})")

    correctors = [
        Action(f"re_announce{i}", plan=Plan(
            ("and", at_barrier(i), flag(i, False)),
            [("set_const", f"a{i}", True)],
        ))
        for i in range(size)
    ]
    tolerant = Program(
        variables, actions + correctors, name=f"barrier+corrector(n={size})"
    )

    never_early_release = TransitionInvariant(
        lambda s, t, arrived=all_arrived: (
            s["round"] == t["round"] or arrived(s)
        ),
        name="release only when everyone arrived",
    )
    spec = Spec(
        [never_early_release]
        + [
            LeadsTo(
                Predicate(expr=("eq_const", "round", r), name=f"round={r}"),
                Predicate(expr=("ne_const", "round", r), name=f"round≠{r}"),
                name=f"round {r} eventually completes",
            )
            for r in (0, 1)
        ],
        name="SPEC_barrier",
    )

    truthful = Predicate(
        expr=("and", *(("or", flag(i, False), at_barrier(i))
                       for i in range(size))),
        name="flags truthful",
    )
    mirrored = Predicate(
        expr=("and", *(("or", ("and", flag(i), at_barrier(i)),
                        ("and", flag(i, False), ("not", at_barrier(i))))
                       for i in range(size))),
        name="flags mirror arrival",
    )
    invariant = (truthful & mirrored).rename("S_barrier")
    span = truthful.rename("T_barrier")

    faults = FaultClass(
        [
            Action(f"lose_flag{i}", plan=Plan(
                flag(i), [("set_const", f"a{i}", False)],
            ))
            for i in range(size)
        ],
        name="arrival-flag loss",
    )

    return BarrierModel(
        size=size,
        intolerant=intolerant,
        tolerant=tolerant,
        spec=spec,
        invariant=invariant,
        span=span,
        faults=faults,
    )
