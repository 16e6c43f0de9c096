"""Dijkstra's K-state token ring — the paper's PVS case study [9].

Section 7 reports that the theory was used to mechanically prove
Dijkstra's self-stabilizing token ring correct in a compositional way.
Self-stabilization is exactly *nonmasking tolerance to transient state
corruption with fault-span true*: from any state whatsoever, the ring
converges to its invariant (exactly one token) and circulates the token
forever after.

The protocol (Dijkstra 1974): ``n`` processes in a ring, each holding a
counter ``x_i ∈ {0..K-1}`` with ``K ≥ n``:

- process 0 *has the token* iff ``x_0 = x_{n-1}``; its action is
  ``x_0 := (x_{n-1} + 1) mod K``;
- process ``i > 0`` *has the token* iff ``x_i ≠ x_{i-1}``; its action is
  ``x_i := x_{i-1}``.

The invariant is "exactly one process has the token"; the specification
is that invariant as a state property plus, for every process, "it
eventually holds the token" (token circulation).  The whole program is a
**corrector of its own invariant** with witness = correction predicate
(the Arora–Gouda closure-and-convergence special case the paper's
corrector remark mentions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

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
    ValueRotation,
    Variable,
    perturb_variable,
)

__all__ = ["TokenRingModel", "build", "has_token"]


def has_token(index: int, size: int) -> Predicate:
    """The token-holding predicate of process ``index`` in a ring of
    ``size`` processes."""
    if index == 0:
        return Predicate(expr=("eq_var", "x0", f"x{size - 1}"), name="token@0")
    return Predicate(
        expr=("ne_var", f"x{index}", f"x{index - 1}"), name=f"token@{index}"
    )


@dataclass(frozen=True)
class TokenRingModel:
    """All artifacts of the token-ring case study."""

    size: int
    k: int
    ring: Program
    spec: Spec
    invariant: Predicate          #: exactly one token
    tokens: Dict[int, Predicate]  #: per-process token predicate
    faults: FaultClass            #: transient corruption of any counter


def build(size: int = 4, k: int = None) -> TokenRingModel:
    """Construct the K-state token ring.

    ``k`` defaults to ``size``, Dijkstra's original bound.  The
    literature's refined bound — K ≥ n - 1 suffices — is what this
    builder enforces, and the ablation benchmark demonstrates both
    directions with the model checker: K = n - 1 stabilizes, K = n - 2
    admits a fair cycle that never reaches a one-token state.
    """
    if size < 2:
        raise ValueError("ring needs at least two processes")
    k = k if k is not None else size
    if k < size - 1 or k < 2:
        raise ValueError(
            "K must be at least n-1 for stabilization (ablation: smaller K "
            "yields a fair counterexample cycle)"
        )

    variables = [Variable(f"x{i}", list(range(k))) for i in range(size)]
    tokens = {i: has_token(i, size) for i in range(size)}

    # each move fires exactly when its process holds the token
    actions: List[Action] = [
        Action("move0", plan=Plan(
            tokens[0].expr, [("inc_mod", "x0", f"x{size - 1}", k)],
        ))
    ]
    for i in range(1, size):
        actions.append(Action(f"move{i}", plan=Plan(
            tokens[i].expr, [("copy", f"x{i}", f"x{i - 1}")],
        )))
    # The ring is NOT process-rotation symmetric — process 0 runs the
    # distinguished increment action (rotating processes maps move0's
    # edges to edges no action produces; lint rule DC106 flags exactly
    # that if you try).  The protocol's true symmetry is on *values*:
    # translating every counter by the same amount mod K commutes with
    # every action (x0 := x_{n-1}+1 and x_i := x_{i-1} are translation-
    # equivariant) and with every token predicate (all are (in)equality
    # comparisons between counters).  The quotient divides the space by
    # exactly K.
    symmetry = ValueRotation(tuple(f"x{i}" for i in range(size)), modulus=k)
    ring = Program(variables, actions, name=f"token_ring(n={size},K={k})",
                   symmetry=symmetry)

    one_token = Predicate(
        expr=("count", tuple(t.expr for t in tokens.values()), "==", 1),
        name="exactly one token",
    )
    spec = Spec(
        [StateInvariant(one_token, name="mutual exclusion of the token")]
        + [
            LeadsTo(TRUE, tokens[i], name=f"process {i} eventually holds the token")
            for i in range(size)
        ],
        name="SPEC_ring",
    )

    faults = FaultClass(
        [
            action
            for i in range(size)
            for action in perturb_variable(ring.variable(f"x{i}"))
        ],
        name="transient corruption",
    )

    return TokenRingModel(
        size=size,
        k=k,
        ring=ring,
        spec=spec,
        invariant=one_token.rename("S_ring"),
        tokens=tokens,
        faults=faults,
    )
