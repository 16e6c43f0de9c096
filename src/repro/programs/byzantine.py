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
and the witness and detection predicates are expressions in the same
grammar; only the count predicates (spec, invariants, span) are written
as code.
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

    # binary strict majority of k odd copies: 1 iff more than half are 1
    # (callers guarantee no copy is ⊥)
    def majority_of(copies, k=k):
        return 1 if 2 * sum(copies) > k else 0

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

    bo_names = tuple(zip(b_names, out_names))

    def spec() -> Spec:
        def build_validity(index):
            bg_at, dg_at = index["bg"], index["dg"]
            pairs = tuple((index[b], index[o]) for b, o in bo_names)

            def fn(values, bg_at=bg_at, dg_at=dg_at, pairs=pairs):
                if values[bg_at]:
                    return True
                dg = values[dg_at]
                for bi, oi in pairs:
                    if values[bi]:
                        continue
                    out = values[oi]
                    if out is not BOTTOM and out != dg:
                        return False
                return True

            return fn

        def build_agreement(index):
            pairs = tuple((index[b], index[o]) for b, o in bo_names)

            def fn(values, pairs=pairs):
                seen = None
                for bi, oi in pairs:
                    if values[bi]:
                        continue
                    out = values[oi]
                    if out is BOTTOM:
                        continue
                    if seen is None:
                        seen = out
                    elif out != seen:
                        return False
                return True

            return fn

        def build_all_decided(index):
            pairs = tuple((index[b], index[o]) for b, o in bo_names)

            def fn(values, pairs=pairs):
                for bi, oi in pairs:
                    if not values[bi] and values[oi] is BOTTOM:
                        return False
                return True

            return fn

        return Spec(
            [
                StateInvariant(
                    Predicate(name="validity", values_builder=build_validity),
                    name="validity",
                ),
                StateInvariant(
                    Predicate(name="agreement",
                              values_builder=build_agreement),
                    name="agreement",
                ),
                LeadsTo(
                    TRUE,
                    Predicate(name="all honest processes decided",
                              values_builder=build_all_decided),
                    name="every honest process eventually outputs",
                ),
            ],
            name=f"SPEC_byz{suffix}",
        )

    def build_invariant_ib(index):
        """Nobody Byzantine, every copy/output either ``⊥`` or ``d.g``."""
        bg_at, dg_at = index["bg"], index["dg"]
        b_at = tuple(index[n] for n in b_names)
        do_at = tuple((index[d], index[o]) for d, o in zip(d_names, out_names))

        def fn(values, bg_at=bg_at, dg_at=dg_at, b_at=b_at, do_at=do_at):
            if values[bg_at]:
                return False
            for i in b_at:
                if values[i]:
                    return False
            honest = (BOTTOM, values[dg_at])
            for di, oi in do_at:
                if values[di] not in honest:
                    return False
                if values[oi] not in honest:
                    return False
            return True

        return fn

    def build_invariant(index):
        """S_ib, and any output implies every copy is present."""
        ib_fn = build_invariant_ib(index)
        out_at = tuple(index[n] for n in out_names)
        d_at = tuple(index[n] for n in d_names)

        def fn(values, ib_fn=ib_fn, out_at=out_at, d_at=d_at):
            if not ib_fn(values):
                return False
            for i in out_at:
                if values[i] is not BOTTOM:
                    break
            else:
                return True
            for i in d_at:
                if values[i] is BOTTOM:
                    return False
            return True

        return fn

    def build_span(index):
        """T_byz: at most one Byzantine process; every honest output was
        emitted under the witness — all copies present and the output
        equals their (thereafter stable) majority; under an honest
        general, honest copies and outputs carry only ``d.g``."""
        bg_at, dg_at = index["bg"], index["dg"]
        b_at = tuple(index[n] for n in b_names)
        d_at = tuple(index[n] for n in d_names)
        out_at = tuple(index[n] for n in out_names)
        bo_at = tuple(zip(b_at, out_at))
        bdo_at = tuple(zip(b_at, d_at, out_at))

        def fn(values, bg_at=bg_at, dg_at=dg_at, b_at=b_at, d_at=d_at,
               bo_at=bo_at, bdo_at=bdo_at):
            count = 1 if values[bg_at] else 0
            for i in b_at:
                if values[i]:
                    count += 1
            if count > 1:
                return False
            witness = None  # the stable majority, computed at most once
            for bi, oi in bo_at:
                if values[bi]:
                    continue
                out = values[oi]
                if out is BOTTOM:
                    continue
                if witness is None:
                    copies = [values[i] for i in d_at]
                    if BOTTOM in copies:
                        return False
                    witness = majority_of(copies)
                if out != witness:
                    return False
            if not values[bg_at]:
                honest = (BOTTOM, values[dg_at])
                for bi, di, oi in bdo_at:
                    if values[bi]:
                        continue
                    if values[di] not in honest:
                        return False
                    if values[oi] not in honest:
                        return False
            return True

        return fn

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
        invariant_ib=Predicate(name=f"S_ib{suffix}",
                               values_builder=build_invariant_ib),
        invariant=Predicate(name=f"S_byz{suffix}",
                            values_builder=build_invariant),
        span=Predicate(name=f"T_byz{suffix}", values_builder=build_span),
        faults=fault_latches(),
        witnesses={j: witness(j) for j in ngs},
        detections={j: detection(j) for j in ngs},
    )
