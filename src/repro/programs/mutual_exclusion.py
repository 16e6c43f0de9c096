"""Token-based mutual exclusion with a token-regeneration corrector.

One of the applications the paper's introduction credits to the
detector/corrector design method.  ``n`` processes circulate a token;
a process holding the token enters its critical section once, leaves,
and passes the token on — so at most one process is ever inside (the
safety half of mutual exclusion), and every process keeps re-acquiring
the token (the liveness half).

The fault *loses* the token in transit (it can only strike while the
holder is outside its critical section — a token being used is not "in
transit").  The corrector detects global token absence and regenerates
the token at process 0.  Because the regeneration guard is exactly "no
token exists", the corrector can never create a second token, so safety
survives the fault too: the composed system is **masking** tolerant to
token loss, while the intolerant ring is merely **fail-safe** tolerant
(it blocks forever once the token is lost but never violates
exclusion).

Variables per process: ``tok{i}`` (token held), ``cs{i}`` (inside the
critical section), ``done{i}`` (has used the critical section during
the current token hold — reset when the token is passed on).  The
``done`` flag makes each hold a bounded receive → CS → pass cycle, so
weak fairness alone guarantees circulation (without it a process could
re-enter its critical section forever and starve the pass action).
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
    StateInvariant,
    TRUE,
    Variable,
)

__all__ = ["MutexModel", "build"]


@dataclass(frozen=True)
class MutexModel:
    """All artifacts of the mutual-exclusion application."""

    size: int
    intolerant: Program    #: token ring without regeneration
    tolerant: Program      #: with the token-regeneration corrector
    corrector: Action      #: the regeneration action itself
    spec: Spec
    invariant: Predicate   #: exactly one token; cs/done only with it
    span: Predicate        #: at most one token; cs only with it
    no_token: Predicate    #: the corrector's trigger
    faults: FaultClass     #: token loss in transit
    # -- the multitolerant variant (paper §7's multitolerance programme) --
    multitolerant: Program      #: + one-token entry detector + dedup corrector
    spec_strong: Spec           #: spec + "everyone eventually enters the CS"
    duplication: FaultClass     #: a second token materializes
    span_duplication: Predicate #: ≤2 tokens, ≤1 CS, cs implies token


def build(size: int = 3) -> MutexModel:
    """Construct the mutual-exclusion family for ``size`` processes."""
    if size < 2:
        raise ValueError("need at least two processes")
    variables = [
        v
        for i in range(size)
        for v in (
            Variable(f"tok{i}", [False, True]),
            Variable(f"cs{i}", [False, True]),
            Variable(f"done{i}", [False, True]),
        )
    ]

    def flag(name: str, i: int, value: bool = True) -> Tuple:
        return ("eq_const", f"{name}{i}", value)

    tokens = tuple(flag("tok", i) for i in range(size))

    def tokens_are(cmp: str, k: int) -> Tuple:
        return ("count", tokens, cmp, k)

    actions: List[Action] = []
    for i in range(size):
        nxt = (i + 1) % size
        actions.append(Action(f"enter{i}", plan=Plan(
            ("and", flag("tok", i), flag("cs", i, False),
             flag("done", i, False)),
            [("set_const", f"cs{i}", True)],
        )))
        actions.append(Action(f"exit{i}", plan=Plan(
            ("and", flag("tok", i), flag("cs", i)),
            [("set_const", f"cs{i}", False), ("set_const", f"done{i}", True)],
        )))
        actions.append(Action(f"pass{i}", plan=Plan(
            ("and", flag("tok", i), flag("cs", i, False), flag("done", i)),
            [("set_const", f"tok{i}", False), ("set_const", f"done{i}", False),
             ("set_const", f"tok{nxt}", True)],
        )))
    intolerant = Program(variables, actions, name=f"mutex(n={size})")

    no_token = Predicate(expr=tokens_are("==", 0), name="no token")
    regenerate = Action("regenerate", plan=Plan(
        no_token.expr, [("set_const", "tok0", True)],
    ))
    tolerant = Program(
        variables, actions + [regenerate], name=f"mutex+corrector(n={size})"
    )

    exclusion = Predicate(
        expr=("count", tuple(flag("cs", i) for i in range(size)), "<=", 1),
        name="≤1 in critical section",
    )
    spec = Spec(
        [StateInvariant(exclusion, name="mutual exclusion")]
        + [
            LeadsTo(
                TRUE,
                Predicate(expr=flag("tok", i), name=f"tok{i}"),
                name=f"process {i} eventually acquires the token",
            )
            for i in range(size)
        ],
        name="SPEC_mutex",
    )

    def cs_implies_token(i: int) -> Tuple:
        return ("or", flag("cs", i, False), flag("tok", i))

    one_token = Predicate(expr=tokens_are("==", 1), name="exactly one token")
    holder_consistent = Predicate(
        expr=("and", *(
            ("and", cs_implies_token(i),
             ("or", flag("done", i, False), flag("tok", i)))
            for i in range(size)
        )),
        name="cs/done imply the token",
    )
    invariant = (one_token & holder_consistent).rename("S_mutex")
    at_most_one = Predicate(expr=tokens_are("<=", 1), name="≤1 token")
    cs_needs_token = Predicate(
        expr=("and", *(cs_implies_token(i) for i in range(size))),
        name="CS implies token",
    )
    span = (at_most_one & cs_needs_token).rename("T_mutex")

    faults = FaultClass(
        [
            Action(f"lose{i}", plan=Plan(
                ("and", flag("tok", i), flag("cs", i, False)),
                [("set_const", f"tok{i}", False),
                 ("set_const", f"done{i}", False)],
            ))
            for i in range(size)
        ],
        name="token loss",
    )

    # -- the multitolerant variant ------------------------------------------
    # A second fault-class: a spurious token materializes (duplication).
    # Tolerating it needs (a) a *detector* guarding critical-section
    # entry — enter only while exactly one token exists — and (b) a
    # *dedup corrector* that removes surplus tokens (sparing a holder
    # inside its critical section).  The entry detector is what makes
    # exclusion survive the duplication; without it two holders can sit
    # in their critical sections simultaneously.
    duplication = FaultClass(
        [
            Action(f"duplicate{i}", plan=Plan(
                ("and", one_token.expr, flag("tok", i, False)),
                [("set_const", f"tok{i}", True),
                 ("set_const", f"done{i}", False)],
            ))
            for i in range(size)
        ],
        name="token duplication",
    )

    def dedup_statement(state):
        holders = [i for i in range(size) if state[f"tok{i}"]]
        in_cs = [i for i in holders if state[f"cs{i}"]]
        keep = in_cs[0] if in_cs else min(holders)
        updates = {}
        for holder in holders:
            if holder != keep:
                updates[f"tok{holder}"] = False
                updates[f"done{holder}"] = False
        return state.assign(**updates)

    # which token dedup keeps depends on the state, so its statement is
    # code; done{keep} survives untouched, so the done-variables must
    # sit in *reads* (a masked variable must be overwritten regardless
    # of its current value, which done{keep} is not)
    all_tokens = frozenset(f"tok{i}" for i in range(size))
    dedup = Action(
        "dedup",
        Predicate(
            expr=("and", tokens_are(">=", 2), ("or", *(
                ("and", flag("tok", i), flag("cs", i, False))
                for i in range(size)
            ))),
            name="(≥2 tokens ∧ a holder is outside its CS)",
        ),
        dedup_statement,
        reads=all_tokens
        | frozenset(f"cs{i}" for i in range(size))
        | frozenset(f"done{i}" for i in range(size)),
        writes=all_tokens | frozenset(f"done{i}" for i in range(size)),
    )

    multitolerant_actions = []
    for action in actions:
        if action.name.startswith("enter"):
            multitolerant_actions.append(action.restrict(one_token))
        else:
            multitolerant_actions.append(action)
    multitolerant = Program(
        variables,
        multitolerant_actions + [regenerate.renamed("regenerate"), dedup],
        name=f"mutex+multitolerance(n={size})",
    )

    spec_strong = spec.conjoin(
        Spec(
            [
                LeadsTo(
                    TRUE,
                    Predicate(expr=flag("cs", i), name=f"cs{i}"),
                    name=f"process {i} eventually enters its critical section",
                )
                for i in range(size)
            ],
            name="CS liveness",
        ),
        name="SPEC_mutex+",
    )

    at_most_two = Predicate(expr=tokens_are("<=", 2), name="≤2 tokens")
    span_duplication = (
        at_most_two & cs_needs_token & exclusion
    ).rename("T_dup")

    return MutexModel(
        size=size,
        intolerant=intolerant,
        tolerant=tolerant,
        corrector=regenerate,
        spec=spec,
        invariant=invariant,
        span=span,
        no_token=no_token,
        faults=faults,
        multitolerant=multitolerant,
        spec_strong=spec_strong,
        duplication=duplication,
        span_duplication=span_duplication,
    )
