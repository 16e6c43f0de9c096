"""The paper's running example: memory access (Sections 3.3, 4.3, 5.1).

A program obtains the value stored at a fixed address in memory.  The
fault-class is a *page fault* that removes the address (and its value)
from memory.  The paper builds three tolerant versions of the intolerant
program ``p``:

- ``pf`` (Figure 1) — **fail-safe**: a detector action sets the witness
  ``Z1`` once the address is observed in memory, and the access is
  restricted to execute only under ``Z1``.  Under a page fault the
  program may block, but it never assigns wrong data.
- ``pn`` (Figure 2) — **nonmasking**: a corrector action re-adds the
  missing entry (from the backing store).  Under a page fault the program
  may transiently assign wrong data, but eventually assigns the correct
  value.
- ``pm`` (Figure 3) — **masking**: corrector + detector.  Under a page
  fault the program neither assigns wrong data nor blocks forever.

Modelling choices (documented per DESIGN.md):

- ``MEM`` restricted to the single address is a variable ``mem`` whose
  value is the stored value or ``⊥`` (absent).  The backing store's
  correct value is the module parameter ``value`` (default 1), so
  ``mem ∈ {⊥, value}`` — the page fault removes the entry and the
  corrector restores the *correct* value, exactly the paper's
  ``MEM := MEM ∪ {⟨addr,-⟩}``.
- ``data ∈ {⊥} ∪ data_domain`` with ``data_domain`` ⊋ {value}, so a read
  of an absent entry can return an *arbitrary* (possibly wrong) value,
  matching the paper's semantics of reading a missing address.
- ``SPEC_mem`` is transition-level safety — *data is never set to an
  incorrect value* (a step may only change ``data`` to ``value``) — plus
  liveness — *data is eventually set to the correct value*.
- The page fault is guarded by ``¬Z1`` in the programs that have the
  witness variable: the paper introduces it as a fault whereby the entry
  is "initially removed", and the fault-span ``T = U1 = (Z1 ⇒ X1)`` is
  only closed under the fault when the fault cannot strike after the
  witness is set.  For ``p`` and ``pn`` (no witness variable) the fault
  may strike at any time.

The predicates follow the paper's figures: ``X1`` (detection predicate:
the address is currently in memory), ``Z1`` (witness), ``U1 = Z1 ⇒ X1``
(the fault-span), ``S = U1 ∧ X1`` (the invariant).
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
    Spec,
    TRUE,
    TransitionInvariant,
    Variable,
)

__all__ = ["MemoryAccessModel", "build"]


@dataclass(frozen=True)
class MemoryAccessModel:
    """All artifacts of the memory-access example, bundled.

    Attributes mirror the paper's names: programs ``p``/``pf``/``pn``/
    ``pm``; predicates ``X1``/``Z1``/``U1``; invariants and spans per
    program; the fault classes; and ``spec`` (``SPEC_mem``).
    """

    value: Hashable
    p: Program
    pf: Program
    pn: Program
    pm: Program
    spec: Spec
    X1: Predicate
    Z1: Predicate
    U1: Predicate
    S_p: Predicate
    S_pf: Predicate
    S_pn: Predicate
    S_pm: Predicate
    T_pf: Predicate
    T_pn: Predicate
    T_pm: Predicate
    fault_anytime: FaultClass
    fault_before_witness: FaultClass


def _read_statement(value_if_absent_domain: Sequence[Hashable]):
    """The paper's ``data := (val | ⟨addr,val⟩ ∈ MEM)``: deterministic
    when the entry is present, an arbitrary domain value when absent."""

    def statement(state):
        if state["mem"] is not BOTTOM:
            return state.assign(data=state["mem"])
        return state.assign_each("data", value_if_absent_domain)

    return statement


def build(
    value: Hashable = 1,
    data_domain: Sequence[Hashable] = (0, 1),
) -> MemoryAccessModel:
    """Construct the memory-access program family.

    Parameters
    ----------
    value:
        The correct value stored at the address (must be in
        ``data_domain``).
    data_domain:
        The values a read may return; must contain at least one wrong
        value for the fault to be observable.
    """
    if value not in data_domain:
        raise ValueError(f"value {value!r} must be inside data_domain")

    mem = Variable("mem", [BOTTOM, value])
    data = Variable("data", [BOTTOM, *data_domain])
    z1 = Variable("Z1", [False, True])

    present = ("ne_const", "mem", BOTTOM)
    unwitnessed = ("eq_const", "Z1", False)
    x1 = Predicate(expr=present, name="X1")
    z1_pred = Predicate(expr=("eq_const", "Z1", True), name="Z1")
    u1 = Predicate(expr=("or", unwitnessed, present), name="U1")
    read = _read_statement(data_domain)

    def detect() -> Plan:
        """``X1 ∧ ¬Z1 --> Z1 := true``: the detector sets the witness."""
        return Plan(("and", present, unwitnessed), [("set_const", "Z1", True)])

    def restore() -> Plan:
        """``¬X1 --> MEM := MEM ∪ {⟨addr, val⟩}``: the corrector."""
        return Plan(("eq_const", "mem", BOTTOM), [("set_const", "mem", value)])

    # -- the intolerant program p (Section 3.3) ---------------------------------
    # the read actions choose a value only when the entry is absent, so
    # they are code; they neither consult nor keep ``data`` (it is
    # overwritten wholesale), so declaring the frame lets the action
    # collapse successor computation across all ``data`` values
    p = Program(
        variables=[mem, data],
        actions=[
            Action("p1", TRUE, read, reads={"mem"}, writes={"data"})
        ],
        name="p",
    )

    # -- fail-safe pf (Figure 1) -------------------------------------------------
    pf = Program(
        variables=[mem, data, z1],
        actions=[
            Action("pf1", plan=detect()),
            Action(
                "pf2", z1_pred, read,
                reads={"mem", "Z1"}, writes={"data"},
            ),
        ],
        name="pf",
    )

    # -- nonmasking pn (Figure 2) -------------------------------------------------
    pn = Program(
        variables=[mem, data],
        actions=[
            Action("pn1", plan=restore()),
            Action("pn2", TRUE, read, reads={"mem"}, writes={"data"}),
        ],
        name="pn",
    )

    # -- masking pm (Figure 3) ---------------------------------------------------
    pm = Program(
        variables=[mem, data, z1],
        actions=[
            Action("pm1", plan=restore()),
            Action("pm2", plan=detect()),
            Action(
                "pm3", z1_pred, read,
                reads={"mem", "Z1"}, writes={"data"},
            ),
        ],
        name="pm",
    )

    # -- SPEC_mem ------------------------------------------------------------------
    never_wrong = TransitionInvariant(
        lambda s, t, v=value: s["data"] == t["data"] or t["data"] == v,
        name="data never set incorrectly",
    )
    eventually_correct = LeadsTo(
        TRUE,
        Predicate(expr=("eq_const", "data", value), name="data=val"),
        name="data eventually set to val",
    )
    spec = Spec([never_wrong, eventually_correct], name="SPEC_mem")

    # -- faults ---------------------------------------------------------------------
    fault_anytime = FaultClass(
        [Action("page_fault", plan=Plan(
            present, [("set_const", "mem", BOTTOM)],
        ))],
        name="page-fault",
    )
    fault_before_witness = FaultClass(
        [Action("page_fault", plan=Plan(
            ("and", present, unwitnessed), [("set_const", "mem", BOTTOM)],
        ))],
        name="page-fault(¬Z1)",
    )

    return MemoryAccessModel(
        value=value,
        p=p,
        pf=pf,
        pn=pn,
        pm=pm,
        spec=spec,
        X1=x1,
        Z1=z1_pred,
        U1=u1,
        S_p=x1.rename("S_p"),
        S_pf=(u1 & x1).rename("S_pf"),
        S_pn=x1.rename("S_pn"),
        S_pm=(u1 & x1).rename("S_pm"),
        T_pf=u1.rename("T_pf"),
        T_pn=TRUE.rename("T_pn"),
        T_pm=u1.rename("T_pm"),
        fault_anytime=fault_anytime,
        fault_before_witness=fault_before_witness,
    )
