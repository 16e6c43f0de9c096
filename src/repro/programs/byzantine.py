"""Section 6.2: Byzantine agreement by detector + corrector.

The problem: a general ``g`` holds a binary value ``d.g``; every
non-general process ``j`` must eventually output a decision such that

1. (validity) if ``g`` is not Byzantine, every non-Byzantine output
   equals ``d.g``; and
2. (agreement) even if ``g`` is Byzantine, all non-Byzantine outputs are
   identical.

With four processes (``g`` plus three non-generals) at most one process
may be Byzantine (n = 3f + 1 with f = 1).  The paper derives the masking
program constructively:

- **IB** (fault-intolerant): each ``j`` copies ``d.g`` into ``d.j``
  (action ``IB1.j``), then outputs it (action ``IB2.j``).
- **BYZ.j**: following the paper, ``BYZ.j`` consists of (a) the action
  that latches ``b.j`` (entering Byzantine mode — at most one process
  may do so) and (b) actions that let a Byzantine process change its
  decision and output arbitrarily.  The *latch* is the fault; the
  arbitrary-behaviour actions appear **in the program composition**
  (``BYZ.g ‖ (‖ j : … ‖ BYZ.j)``), i.e. they execute under weak
  fairness like any program action.  A Byzantine write is an arbitrary
  *value* — ``⊥`` means "not yet written" and cannot be restored, just
  as a sent message cannot be unsent.
- **DB.j** (detector): detection predicate ``d.j = corrdecn`` (the
  correct decision — ``d.g`` when ``g`` is honest, else the majority of
  the non-general decisions); witness predicate "every non-general has
  copied a value and ``d.j`` equals their majority".  The fail-safe
  program restricts ``IB2.j`` to the witness (``DB.j ; IB2.j``).
- **CB.j** (corrector): same correction predicate; action ``CB1.j``
  overwrites a minority ``d.j`` with the majority once every
  non-general holds a value.
- The masking program is ``BYZ.g ‖ (‖ j : IB1.j ‖ DB.j;IB2.j ‖ CB.j ‖
  BYZ.j)`` — exactly the classical one-round Byzantine agreement for
  n = 4.

State variables: ``dg``/``bg`` for the general; per non-general ``j``:
``d{j}`` (copied decision, ``⊥`` initially), ``out{j}`` (the output,
``⊥`` until ``IB2.j`` fires), ``b{j}`` (Byzantine flag).

:func:`build_family` generalizes the construction to any odd number
``k`` of non-generals; :func:`build` is its paper instance, ``k = 3``.
Every action is a :class:`~repro.core.kernels.Plan` — the Byzantine
lies are nondeterministic ``set_any`` writes, one successor per value —
and every predicate is an expression in the same grammar: the witness
and detection predicates, the spec, the invariants, and the span, whose
"at most one Byzantine process" is a ``count`` term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

from ..core import (
    BOTTOM,
    Action,
    FaultClass,
    LeadsTo,
    Plan,
    Predicate,
    Program,
    ReplicaSymmetry,
    Spec,
    StateInvariant,
    TRUE,
    Variable,
)

__all__ = ["ByzantineModel", "build", "build_family", "majority", "corrdecn"]

NON_GENERALS: Tuple[int, ...] = (1, 2, 3)
VALUES: Tuple[int, ...] = (0, 1)


def majority(values: Sequence[Hashable]) -> Hashable:
    """The strict-majority value of an odd-length sequence."""
    counts: Dict[Hashable, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    best, best_count = max(counts.items(), key=lambda kv: kv[1])
    if best_count * 2 <= len(values):
        raise ValueError(f"no strict majority in {values!r}")
    return best


def corrdecn(state, non_generals: Sequence[int] = NON_GENERALS) -> Hashable:
    """The paper's *correct decision*: ``d.g`` when the general is
    honest, else the majority of the non-general copies (defined once
    every non-general holds a value)."""
    if not state["bg"]:
        return state["dg"]
    return majority([state[f"d{j}"] for j in non_generals])


@dataclass(frozen=True)
class ByzantineModel:
    """All artifacts of the Section 6.2 construction (f = 1)."""

    ib: Program              #: fault-intolerant agreement (no BYZ components)
    ib_with_byz: Program     #: IB ‖ BYZ — the intolerant program in the fault environment
    failsafe: Program        #: BYZ.g ‖ (‖j: IB1.j ‖ DB.j;IB2.j ‖ BYZ.j)
    masking: Program         #: BYZ.g ‖ (‖j: IB1.j ‖ DB.j;IB2.j ‖ CB.j ‖ BYZ.j)
    spec: Spec               #: validity ∧ agreement ∧ eventual output
    invariant_ib: Predicate  #: S for IB — nobody Byzantine, copies consistent
    invariant: Predicate     #: S for the guarded programs (outputs ⇒ all copied)
    span: Predicate          #: T — at most one Byzantine, outputs consistent
    faults: FaultClass       #: the b.j := true latches
    witnesses: Dict[int, Predicate]   #: DB.j witness per non-general
    detections: Dict[int, Predicate]  #: d.j = corrdecn per non-general


def initial_states(non_generals: Sequence[int] = NON_GENERALS) -> List:
    """The protocol's initial states: the general holds either value,
    nobody is Byzantine, nothing copied or output yet.  Exploration from
    these states covers exactly the protocol's runs — the scaling
    benchmarks use this (the full product space sweep that seeds
    span-based exploration is itself exponential in k)."""
    from ..core import State

    base = {"bg": False}
    for j in non_generals:
        base[f"d{j}"] = BOTTOM
        base[f"out{j}"] = BOTTOM
        base[f"b{j}"] = False
    return [State(dict(base, dg=value)) for value in VALUES]


def build() -> ByzantineModel:
    """The paper's instance: n = 4 (three non-generals), f = 1."""
    return build_family(NON_GENERALS)


def build_family(non_generals: Sequence[int] = NON_GENERALS) -> ByzantineModel:
    """Byzantine agreement generalized to ``k`` non-generals (k odd).

    The Section 6.2 construction — copy, guarded output, majority
    correction, ≤1 Byzantine latch — with the majority taken over ``k``
    copies.  With ``k = 3`` the artifacts carry the paper's names
    (``IB``, ``SPEC_byz``, ``T_byz``, ...); larger instances append
    ``(k=…)``.  They are the scaling story for symmetric exploration:
    the unreduced graph grows exponentially in ``k`` while the quotient
    grows polynomially (states are determined by *counts* of
    non-general configurations, not their assignment to processes).

    The model's programs declare ``S_k`` over the per-process
    ``(d, out, b)`` triples: permuting the triples permutes every per-j
    action onto its sibling and fixes the majority/witness/spec
    predicates (all functions of the multiset of copies).
    """
    ngs = tuple(non_generals)
    k = len(ngs)
    if k < 3 or k % 2 == 0:
        raise ValueError(
            "build_family needs an odd number of non-generals ≥ 3 "
            "(strict majority voting)"
        )
    if len(set(ngs)) != k:
        raise ValueError(f"duplicate non-general ids: {ngs}")
    suffix = "" if k == 3 else f"(k={k})"
    b_names = tuple(f"b{j}" for j in ngs)
    d_names = tuple(f"d{j}" for j in ngs)
    out_names = tuple(f"out{j}" for j in ngs)

    variables = [Variable("dg", VALUES), Variable("bg", [False, True])]
    for j in ngs:
        variables.append(Variable(f"d{j}", [BOTTOM, *VALUES]))
        variables.append(Variable(f"out{j}", [BOTTOM, *VALUES]))
        variables.append(Variable(f"b{j}", [False, True]))

    def witness_terms(j: int) -> Tuple[Tuple, ...]:
        """DB.j / CB.j witness: every non-general has copied a value and
        ``d.j`` equals their majority."""
        return (("all_ne_const", d_names, BOTTOM),
                ("eq_majority", f"d{j}", d_names, k))

    def ib_actions(j: int, guarded: bool) -> List[Action]:
        """``IB1.j`` and ``IB2.j``; with ``guarded=True`` the output
        action carries DB.j's witness (the fail-safe restriction
        ``DB.j ; IB2.j``)."""
        bn, dn, on = f"b{j}", f"d{j}", f"out{j}"
        output_guard = (("eq_const", bn, False), ("ne_const", dn, BOTTOM),
                        ("eq_const", on, BOTTOM))
        if guarded:
            output_guard += witness_terms(j)
        return [
            Action(f"IB1.{j}", plan=Plan(
                ("and", ("eq_const", bn, False), ("eq_const", dn, BOTTOM)),
                [("copy", dn, "dg")],
            )),
            Action(f"IB2.{j}", plan=Plan(
                ("and", *output_guard), [("copy", on, dn)],
            )),
        ]

    def cb_action(j: int) -> Action:
        """``CB1.j``: overwrite a minority copy with the majority once
        every non-general holds a value."""
        bn, dn = f"b{j}", f"d{j}"
        return Action(f"CB1.{j}", plan=Plan(
            ("and",
             ("eq_const", bn, False),
             ("all_ne_const", d_names, BOTTOM),
             ("ne_majority", dn, d_names, k)),
            [("set_majority", dn, d_names, k)],
        ))

    def byz_behaviour() -> List[Action]:
        """The arbitrary-behaviour halves of BYZ.g and BYZ.j — program
        actions, enabled while the respective Byzantine flag is up.
        Writes are arbitrary *values*: a Byzantine process may lie but
        cannot un-send (``⊥`` is never written).  Each lie is a
        ``set_any`` choice, one successor per value (the current one
        included, as a self-loop)."""
        def lie(name: str, flag: str, target: str) -> Action:
            return Action(name, plan=Plan(
                ("eq_const", flag, True), [("set_any", target, VALUES)],
            ))

        actions = [lie("BYZ.g.lie", "bg", "dg")]
        for j in ngs:
            actions.append(lie(f"BYZ.{j}.lie_d", f"b{j}", f"d{j}"))
            actions.append(lie(f"BYZ.{j}.lie_out", f"b{j}", f"out{j}"))
        return actions

    def fault_latches() -> FaultClass:
        """The fault-class proper: one latch per process, guarded so
        that at most one process ever turns Byzantine."""
        quiet = ("and", ("eq_const", "bg", False),
                 *(("eq_const", n, False) for n in b_names))
        actions = [Action("BYZ.g.enter", plan=Plan(
            quiet, [("set_const", "bg", True)]
        ))]
        for j in ngs:
            actions.append(Action(f"BYZ.{j}.enter", plan=Plan(
                quiet, [("set_const", f"b{j}", True)]
            )))
        return FaultClass(actions, name="BYZ (≤1 process)")

    def honest(j: int) -> Tuple:
        return ("eq_const", f"b{j}", False)

    def carries_dg(name: str) -> Tuple:
        """``name`` is ``⊥`` or ``d.g``."""
        return ("or", ("eq_const", name, BOTTOM), ("eq_var", name, "dg"))

    def honest_outputs(value) -> Tuple:
        """One guard per non-general: it is honest and outputs
        ``value`` (operands of a count)."""
        return tuple(
            ("and", honest(j), ("eq_const", f"out{j}", value)) for j in ngs
        )

    def spec() -> Spec:
        validity = ("or", ("eq_const", "bg", True), ("and", *(
            ("or", ("not", honest(j)), ("eq_const", f"out{j}", BOTTOM),
             ("eq_var", f"out{j}", "dg"))
            for j in ngs
        )))
        # over binary values, the honest outputs agree iff one of the
        # two values is output by no honest process
        agreement = ("or", *(
            ("count", honest_outputs(value), "==", 0) for value in VALUES
        ))
        all_decided = ("and", *(
            ("or", ("not", honest(j)), ("ne_const", f"out{j}", BOTTOM))
            for j in ngs
        ))
        return Spec(
            [
                StateInvariant(
                    Predicate(expr=validity, name="validity"),
                    name="validity",
                ),
                StateInvariant(
                    Predicate(expr=agreement, name="agreement"),
                    name="agreement",
                ),
                LeadsTo(
                    TRUE,
                    Predicate(expr=all_decided,
                              name="all honest processes decided"),
                    name="every honest process eventually outputs",
                ),
            ],
            name=f"SPEC_byz{suffix}",
        )

    # S_ib: nobody Byzantine, every copy/output either ⊥ or d.g
    invariant_ib = ("and", ("eq_const", "bg", False),
                    ("all_ne_const", b_names, True),
                    *(carries_dg(n) for n in d_names + out_names))
    # S_byz: S_ib, and any output implies every copy is present
    invariant = ("and", invariant_ib, ("or",
        ("and", *(("eq_const", n, BOTTOM) for n in out_names)),
        ("all_ne_const", d_names, BOTTOM),
    ))
    # T_byz: at most one Byzantine process; every honest output was
    # emitted under the witness — all copies present and the output
    # equals their (thereafter stable) majority; under an honest
    # general, honest copies and outputs carry only d.g
    span = ("and",
        ("count", (("eq_const", "bg", True),
                   *(("eq_const", n, True) for n in b_names)), "<=", 1),
        *(("or", ("not", honest(j)), ("eq_const", f"out{j}", BOTTOM),
           ("and", ("all_ne_const", d_names, BOTTOM),
            ("eq_majority", f"out{j}", d_names, k)))
          for j in ngs),
        ("or", ("eq_const", "bg", True),
         ("and", *(("or", ("not", honest(j)),
                    ("and", carries_dg(f"d{j}"), carries_dg(f"out{j}")))
                   for j in ngs))),
    )

    def witness(j: int) -> Predicate:
        return Predicate(
            expr=("and", *witness_terms(j)),
            name=f"W{j}: all copied ∧ d{j}=majority",
        )

    def detection(j: int) -> Predicate:
        """``d.j = corrdecn`` (false while the correct decision is still
        undefined)."""
        return Predicate(
            expr=("or",
                  ("and", ("eq_const", "bg", False), ("eq_var", f"d{j}", "dg")),
                  ("and", ("eq_const", "bg", True), *witness_terms(j))),
            name=f"X{j}: d{j}=corrdecn",
        )

    symmetry = ReplicaSymmetry.of_families(
        "d{i}", "out{i}", "b{i}", indices=ngs,
        name=f"S_{k} over non-generals",
        action_templates=(
            "IB1.{i}", "IB2.{i}", "CB1.{i}",
            "BYZ.{i}.lie_d", "BYZ.{i}.lie_out",
        ),
    )

    plain_ib = [a for j in ngs for a in ib_actions(j, guarded=False)]
    ib = Program(variables, plain_ib, name=f"IB{suffix}", symmetry=symmetry)
    behaviour = byz_behaviour()
    ib_with_byz = Program(variables, plain_ib + behaviour,
                          name=f"IB‖BYZ{suffix}", symmetry=symmetry)
    # one shared set of guarded IB actions: actions are immutable and
    # memoize their successors, so the masking program's exploration
    # replays the fail-safe program's evaluations instead of redoing them
    guarded_ib = [a for j in ngs for a in ib_actions(j, guarded=True)]
    failsafe = Program(variables, guarded_ib + behaviour,
                       name=f"IB1‖DB;IB2‖BYZ{suffix}", symmetry=symmetry)
    masking = Program(
        variables,
        guarded_ib + [cb_action(j) for j in ngs] + behaviour,
        name=f"IB1‖DB;IB2‖CB‖BYZ{suffix}", symmetry=symmetry,
    )

    return ByzantineModel(
        ib=ib,
        ib_with_byz=ib_with_byz,
        failsafe=failsafe,
        masking=masking,
        spec=spec(),
        invariant_ib=Predicate(expr=invariant_ib, name=f"S_ib{suffix}"),
        invariant=Predicate(expr=invariant, name=f"S_byz{suffix}"),
        span=Predicate(expr=span, name=f"T_byz{suffix}"),
        faults=fault_latches(),
        witnesses={j: witness(j) for j in ngs},
        detections={j: detection(j) for j in ngs},
    )
