"""Section 6.1: triple modular redundancy by detector + corrector.

The input-output problem: three inputs ``x, y, z`` and one output
``out``.  In the absence of faults all inputs equal the uncorrupted
value; a fault may corrupt *one* input.  ``SPEC_io`` requires the output
to be assigned the value of an uncorrupted input (safety: ``out`` is
never set to a corrupted value; liveness: ``out`` is eventually set).

The paper derives the TMR system constructively:

- **IR** (fault-intolerant): ``out = ⊥ --> out := x``.
- **DR** (detector): detection predicate ``x = uncor``, witness
  predicate ``x = y ∨ x = z``.  The fail-safe program is the sequential
  composition ``DR ; IR`` — ``IR`` restricted to run only under the
  witness.
- **CR** (corrector): correction/witness predicate ``out = uncor``; two
  actions copy ``y`` (resp. ``z``) into the output when they are
  majority-confirmed.
- **TMR = DR;IR ‖ CR** is masking tolerant — and is exactly the
  classical triple-modular-redundancy voter, obtained by composition.

Modelling choices: the uncorrupted value is the ``build`` parameter
``uncor`` (the paper's ghost constant); the fault may corrupt any one
input, and "at most one corruption" is enforced by guarding each fault
action on all inputs being currently uncorrupted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence, Tuple

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
    TRUE,
    TransitionInvariant,
    Variable,
)

__all__ = ["TmrModel", "NmrModel", "build", "build_nmr"]


def _out_ok(uncor: Hashable) -> Predicate:
    return Predicate(
        expr=("or", ("eq_const", "out", BOTTOM), ("eq_const", "out", uncor)),
        name="out∈{⊥,uncor}",
    )


def _corrupted(names: Sequence[str], uncor: Hashable, cmp: str, k: int
               ) -> Tuple:
    """How many of the inputs ``names`` are corrupted, compared with
    ``k``."""
    return ("count", tuple(("ne_const", n, uncor) for n in names), cmp, k)


@dataclass(frozen=True)
class TmrModel:
    """All artifacts of the Section 6.1 construction."""

    uncor: Hashable
    ir: Program                #: fault-intolerant IR
    dr_ir: Program             #: fail-safe DR ; IR
    tmr: Program               #: masking DR ; IR ‖ CR
    cr: Program                #: the corrector component alone
    detector_eval: Program     #: the action-free program that evaluates DR's witness
    spec: Spec                 #: SPEC_io
    witness_dr: Predicate      #: x = y ∨ x = z
    detection_dr: Predicate    #: x = uncor
    witness_cr: Predicate      #: out = uncor
    invariant: Predicate       #: S — no input corrupted
    span: Predicate            #: T — at most one input corrupted
    span_inputs: Predicate     #: T over the inputs only (for the stateless detector)
    faults: FaultClass         #: corrupt one input


def build(uncor: Hashable = 1, corrupted: Hashable = 0) -> TmrModel:
    """Construct the TMR family with ``uncor`` as the good input value
    and ``corrupted`` as the value a fault writes."""
    if uncor == corrupted:
        raise ValueError("corrupted value must differ from the uncorrupted one")
    domain = [uncor, corrupted]
    x = Variable("x", domain)
    y = Variable("y", domain)
    z = Variable("z", domain)
    out = Variable("out", [BOTTOM, *domain])

    unset = ("eq_const", "out", BOTTOM)
    witness_dr = Predicate(
        expr=("or", ("eq_var", "x", "y"), ("eq_var", "x", "z")),
        name="x=y ∨ x=z",
    )
    detection_dr = Predicate(expr=("eq_const", "x", uncor), name="x=uncor")
    witness_cr = Predicate(expr=("eq_const", "out", uncor), name="out=uncor")

    ir = Program(
        variables=[x, y, z, out],
        actions=[Action("IR1", plan=Plan(unset, [("copy", "out", "x")]))],
        name="IR",
    )

    # DR ; IR — the detector restricts IR to its witness predicate.
    dr_ir = ir.restrict(witness_dr, name="DR;IR")

    def vote(name: str, first: str, second: str) -> Plan:
        """``out := name`` once ``first`` or ``second`` confirms it."""
        return Plan(
            ("and", unset, ("or", ("eq_var", name, first),
                            ("eq_var", name, second))),
            [("copy", "out", name)],
        )

    cr = Program(
        variables=[x, y, z, out],
        actions=[
            Action("CR1", plan=vote("y", "z", "x")),
            Action("CR2", plan=vote("z", "x", "y")),
        ],
        name="CR",
    )

    tmr = dr_ir.parallel(cr, name="DR;IR ‖ CR")
    # The composed voter is symmetric under every permutation of the
    # three inputs: swapping x and y maps IR1's guarded command to CR1's
    # and fixes CR2 (and so on for the other transpositions), so the
    # *action set* is closed under S_3 even though no single action is.
    # The components are not — IR reads only x, DR;IR's witness is
    # x-centric — which is why only the composition declares the group.
    tmr = tmr.with_symmetry(
        ReplicaSymmetry(
            (("x",), ("y",), ("z",)), name="S_3 over {x,y,z}",
            action_orbits=[("IR1", "CR1", "CR2")],
        )
    )

    # the paper's "program that merely evaluates the state predicate":
    # an action-free program over the inputs, whose every computation is
    # the single-state one — a stateless detector.
    detector_eval = Program(variables=[x, y, z], actions=[], name="DR")

    never_wrong = TransitionInvariant(
        lambda s, t, u=uncor: s["out"] == t["out"] or t["out"] == u,
        name="out never set to a corrupted value",
    )
    eventually_set = LeadsTo(
        TRUE,
        Predicate(expr=("eq_const", "out", uncor), name="out=uncor"),
        name="out eventually assigned an uncorrupted input",
    )
    spec = Spec([never_wrong, eventually_set], name="SPEC_io")

    inputs = ("x", "y", "z")
    all_good = Predicate(
        expr=("and", *(("eq_const", n, uncor) for n in inputs)),
        name="no input corrupted",
    )
    out_ok = _out_ok(uncor)
    invariant = (all_good & out_ok).rename("S_io")
    span_inputs = Predicate(
        expr=_corrupted(inputs, uncor, "<=", 1), name="≤1 input corrupted",
    )
    span = (span_inputs & out_ok).rename("T_io (≤1 corrupted)")

    faults = FaultClass(
        [
            Action(f"corrupt_{name}", plan=Plan(
                all_good.expr, [("set_const", name, corrupted)],
            ))
            for name in inputs
        ],
        name="one-input-corruption",
    )

    return TmrModel(
        uncor=uncor,
        ir=ir,
        dr_ir=dr_ir,
        tmr=tmr,
        cr=cr,
        detector_eval=detector_eval,
        spec=spec,
        witness_dr=witness_dr,
        detection_dr=detection_dr,
        witness_cr=witness_cr,
        invariant=invariant,
        span=span,
        span_inputs=span_inputs,
        faults=faults,
    )


@dataclass(frozen=True)
class NmrModel:
    """Artifacts of the N-modular-redundancy generalization."""

    uncor: Hashable
    replicas: int
    max_faults: int            #: f = (n-1)//2
    nmr: Program               #: the n-way voter (S_n-symmetric)
    spec: Spec
    invariant: Predicate       #: no input corrupted, out ∈ {⊥, uncor}
    span: Predicate            #: ≤ f inputs corrupted, out ∈ {⊥, uncor}
    faults: FaultClass         #: corrupt an input while < f are corrupted


def build_nmr(
    replicas: int = 5, uncor: Hashable = 1, corrupted: Hashable = 0
) -> NmrModel:
    """The n-way majority voter: TMR's construction scaled to ``n``
    replicas tolerating ``f = (n-1)//2`` corruptions.

    One vote action per replica copies its value to the output when at
    least ``f+1`` replicas agree with it — with ≤ f corruptions the
    uncorrupted value always has such a quorum and a corrupted one never
    does, so the voter is masking tolerant by the same argument as TMR.
    The replicas are fully interchangeable (every action/fault/predicate
    is a function of the multiset of input values), so the program
    declares the full symmetric group: the quotient identifies input
    vectors with equal corruption *counts*, collapsing the
    ``sum(C(n,j), j ≤ f)`` reachable input vectors to ``f+1`` orbits.
    """
    if replicas < 3 or replicas % 2 == 0:
        raise ValueError("NMR needs an odd number of replicas ≥ 3")
    if uncor == corrupted:
        raise ValueError("corrupted value must differ from the uncorrupted one")
    n = replicas
    quorum = (n - 1) // 2 + 1       # f + 1, a strict majority
    max_faults = n - quorum          # = f
    names = tuple(f"x{i}" for i in range(n))
    domain = [uncor, corrupted]
    variables = [Variable(name, domain) for name in names]
    out = Variable("out", [BOTTOM, *domain])

    actions = [
        Action(f"VOTE{i}", plan=Plan(
            ("and", ("eq_const", "out", BOTTOM),
             ("count", tuple(("eq_var", name, f"x{i}") for name in names),
              ">=", quorum)),
            [("copy", "out", f"x{i}")],
        ))
        for i in range(n)
    ]
    nmr = Program(
        [*variables, out],
        actions,
        name=f"NMR(n={n})",
        symmetry=ReplicaSymmetry(
            tuple((name,) for name in names), name=f"S_{n} over inputs",
            action_orbits=[tuple(f"VOTE{i}" for i in range(n))],
        ),
    )

    spec = Spec(
        [
            TransitionInvariant(
                lambda s, t, u=uncor: s["out"] == t["out"] or t["out"] == u,
                name="out never set to a corrupted value",
            ),
            LeadsTo(
                TRUE,
                Predicate(expr=("eq_const", "out", uncor), name="out=uncor"),
                name="out eventually assigned an uncorrupted input",
            ),
        ],
        name=f"SPEC_io(n={n})",
    )

    out_ok = _out_ok(uncor)
    invariant = (
        Predicate(
            expr=("and", *(("eq_const", name, uncor) for name in names)),
            name="no input corrupted",
        )
        & out_ok
    ).rename(f"S_io(n={n})")
    span = (
        Predicate(
            expr=_corrupted(names, uncor, "<=", max_faults),
            name=f"≤{max_faults} inputs corrupted",
        )
        & out_ok
    ).rename(f"T_io(n={n})")

    faults = FaultClass(
        [
            Action(f"corrupt_{name}", plan=Plan(
                _corrupted(names, uncor, "<", max_faults),
                [("set_const", name, corrupted)],
            ))
            for name in names
        ],
        name=f"≤{max_faults}-input-corruption",
    )

    return NmrModel(
        uncor=uncor,
        replicas=n,
        max_faults=max_faults,
        nmr=nmr,
        spec=spec,
        invariant=invariant,
        span=span,
        faults=faults,
    )
