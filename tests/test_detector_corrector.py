"""Unit tests for the detector and corrector component specifications."""

import pytest

from repro.core import (
    Action,
    FaultClass,
    Predicate,
    Program,
    TRUE,
    Variable,
    assign,
    corrects_spec,
    detects_spec,
    is_corrector,
    is_detector,
    is_failsafe_tolerant_corrector,
    is_failsafe_tolerant_detector,
    is_masking_tolerant_corrector,
    is_masking_tolerant_detector,
    is_nonmasking_tolerant_corrector,
    is_nonmasking_tolerant_detector,
)
from repro.core.faults import set_variable
from repro.core.predicate import FALSE
from repro.core.state import State


def flag_detector():
    """Raise z when x is set; x is stable here."""
    return Program(
        [Variable("x", [False, True]), Variable("z", [False, True])],
        [
            Action(
                "raise_z",
                Predicate(lambda s: s["x"] and not s["z"], "x ∧ ¬z"),
                assign(z=True),
            )
        ],
        name="flag_detector",
    )


X = Predicate(lambda s: s["x"], name="x")
Z = Predicate(lambda s: s["z"], name="z")
U = Z.implies(X).rename("z⇒x")


class TestSpecShape:
    def test_detects_spec_components(self):
        spec = detects_spec(Z, X)
        kinds = sorted(c.kind for c in spec.components)
        assert kinds == ["liveness", "safety", "safety"]

    def test_corrects_spec_extends_detects(self):
        spec = corrects_spec(Z, X)
        assert len(spec.components) == 5
        assert len(spec.liveness_part().components) == 2


class TestDetector:
    def test_flag_detector_is_detector(self):
        assert is_detector(flag_detector(), Z, X, U)

    def test_safeness_violation_caught(self):
        eager = Program(
            [Variable("x", [False, True]), Variable("z", [False, True])],
            [Action("raise_always", Predicate(lambda s: not s["z"], "¬z"),
                    assign(z=True))],
            name="eager",
        )
        result = is_detector(eager, Z, X, U)
        assert not result, "witnesses X even when X is false"

    def test_progress_violation_caught(self):
        lazy = Program(
            [Variable("x", [False, True]), Variable("z", [False, True])],
            [],
            name="lazy",
        )
        result = is_detector(lazy, Z, X, U)
        assert not result, "never raises the witness"

    def test_stability_violation_caught(self):
        flaky = Program(
            [Variable("x", [False, True]), Variable("z", [False, True])],
            [
                Action("raise_z", Predicate(lambda s: s["x"] and not s["z"]),
                       assign(z=True)),
                Action("drop_z", Predicate(lambda s: s["x"] and s["z"]),
                       assign(z=False)),
            ],
            name="flaky",
        )
        assert not is_detector(flaky, Z, X, U)


class TestCorrector:
    def corrector(self):
        """Truthify x, then witness it."""
        return Program(
            [Variable("x", [False, True]), Variable("z", [False, True])],
            [
                Action("fix_x", Predicate(lambda s: not s["x"], "¬x"),
                       assign(x=True)),
                Action("raise_z", Predicate(lambda s: s["x"] and not s["z"]),
                       assign(z=True)),
            ],
            name="fixer",
        )

    def test_is_corrector(self):
        assert is_corrector(self.corrector(), Z, X, U)

    def test_convergence_violation_caught(self):
        stuck = flag_detector()  # detects but never corrects
        assert not is_corrector(stuck, Z, X, U)

    def test_witness_equals_correction_special_case(self):
        """Z = X reduces to Arora-Gouda closure-and-convergence
        (the paper's corrector remark)."""
        fixer = Program(
            [Variable("x", [False, True])],
            [Action("fix", Predicate(lambda s: not s["x"], "¬x"),
                    assign(x=True))],
            name="ag_fixer",
        )
        assert is_corrector(fixer, X, X, TRUE)


class TestTolerantComponents:
    def faults(self):
        return set_variable("x", False, name="knock_down_x")

    def test_nonmasking_tolerant_corrector(self):
        fixer = Program(
            [Variable("x", [False, True]), Variable("z", [False, True])],
            [
                Action("fix_x", Predicate(lambda s: not s["x"], "¬x"),
                       assign(x=True, z=False)),
                Action("raise_z", Predicate(lambda s: s["x"] and not s["z"]),
                       assign(z=True)),
            ],
            name="fixer",
        )
        fault = FaultClass(
            [Action("knock", Predicate(lambda s: s["x"], "x"),
                    assign(x=False, z=False))],
            name="knock",
        )
        assert is_nonmasking_tolerant_corrector(
            fixer, fault, Z, X, from_=U, span=U, recovered=U,
        )

    def test_failsafe_tolerant_detector(self, memory):
        """pf's own claim, via the detector interface (Figure 1)."""
        assert is_failsafe_tolerant_detector(
            memory.pf, memory.fault_before_witness,
            witness=memory.Z1, detection=memory.X1,
            from_=memory.S_pf, span=memory.T_pf,
        )

    def test_pf_is_even_masking_tolerant_detector(self, memory):
        """Subtle but correct: the page fault falsifies X1 itself, so
        the detector's Progress obligation is discharged by ¬X1 — pf's
        *detector spec* survives the fault fully even though pf is not
        masking tolerant to SPEC_mem (the data is never delivered)."""
        assert is_masking_tolerant_detector(
            memory.pf, memory.fault_before_witness,
            witness=memory.Z1, detection=memory.X1,
            from_=memory.S_pf, span=memory.T_pf,
        )

    def test_masking_tolerant_detector_negative(self):
        """A fault that knocks the witness down while the detection
        predicate stays true breaks Stability under faults: fail-safe
        and masking tolerance of the detector spec both fail."""
        detector = flag_detector()
        fault = FaultClass(
            [Action("drop_witness", Predicate(lambda s: s["z"], "z"),
                    assign(z=False))],
            name="drop_witness",
        )
        assert not is_masking_tolerant_detector(
            detector, fault, witness=Z, detection=X, from_=U, span=U,
        )
        assert not is_failsafe_tolerant_detector(
            detector, fault, witness=Z, detection=X, from_=U, span=U,
        )

    def test_theorem_5_5_caveat_on_mutex(self, mutex):
        """Theorem 5.5's caveat, live: the masking tolerant *system*
        contains a corrector that is only nonmasking F-tolerant — the
        token-loss fault itself falsifies the correction predicate
        (Convergence closure breaks on the fault edge), so the masking
        F-tolerant corrector claim must fail while the fault-free and
        nonmasking claims hold."""
        one_token = Predicate(
            lambda s, n=mutex.size: sum(
                1 for i in range(n) if s[f"tok{i}"]
            ) == 1,
            name="one token",
        )
        assert is_corrector(
            mutex.tolerant, one_token, one_token, mutex.span
        )
        assert is_nonmasking_tolerant_corrector(
            mutex.tolerant, mutex.faults,
            witness=one_token, correction=one_token,
            from_=mutex.span, span=mutex.span, recovered=mutex.invariant,
        )
        assert not is_masking_tolerant_corrector(
            mutex.tolerant, mutex.faults,
            witness=one_token, correction=one_token,
            from_=mutex.span, span=mutex.span,
        )

    def test_failsafe_tolerant_corrector(self):
        """A fault that jams the repair action (without touching the
        correction predicate) leaves the safety half of the corrector
        spec intact but kills Convergence: fail-safe tolerant corrector
        holds, masking tolerant corrector does not."""
        program = Program(
            [
                Variable("x", [False, True]),
                Variable("z", [False, True]),
                Variable("stuck", [False, True]),
            ],
            [
                Action(
                    "fix_x",
                    Predicate(lambda s: not s["x"] and not s["stuck"],
                              "¬x ∧ ¬stuck"),
                    assign(x=True),
                ),
                Action("raise_z", Predicate(lambda s: s["x"] and not s["z"]),
                       assign(z=True)),
            ],
            name="jammable_fixer",
        )
        jam = FaultClass(
            [Action("jam", Predicate(lambda s: not s["stuck"], "¬stuck"),
                    assign(stuck=True))],
            name="jam",
        )
        u = (Z.implies(X) & Predicate(lambda s: not s["stuck"], "¬stuck")).rename("U")
        span = Z.implies(X).rename("T")
        assert is_failsafe_tolerant_corrector(
            program, jam, witness=Z, correction=X, from_=u, span=span,
        )
        assert not is_masking_tolerant_corrector(
            program, jam, witness=Z, correction=X, from_=u, span=span,
        )

    def test_nonmasking_tolerant_detector(self, memory):
        """pm's detector recovers after faults stop: nonmasking
        tolerant detector of X1 with witness Z1."""
        assert is_nonmasking_tolerant_detector(
            memory.pm, memory.fault_before_witness,
            witness=memory.Z1, detection=memory.X1,
            from_=memory.S_pm, span=memory.T_pm, recovered=memory.S_pm,
        )


class TestEmptySpan:
    """A tolerant component's fault-span must contain its start set
    (``T ⇐ U``, Section 2.4): an empty span certifies nothing."""

    @pytest.mark.parametrize("check,program,invariant", [
        (is_failsafe_tolerant_detector, "pf", "S_pf"),
        (is_masking_tolerant_detector, "pf", "S_pf"),
        (is_nonmasking_tolerant_detector, "pm", "S_pm"),
        (is_failsafe_tolerant_corrector, "pm", "S_pm"),
        (is_masking_tolerant_corrector, "pm", "S_pm"),
        (is_nonmasking_tolerant_corrector, "pm", "S_pm"),
    ], ids=lambda value: getattr(value, "__name__", value))
    def test_false_span_is_refuted(self, memory, check, program, invariant):
        result = check(
            getattr(memory, program), memory.fault_before_witness,
            memory.Z1, memory.X1, getattr(memory, invariant), span=FALSE,
        )
        assert not result
        assert result.counterexample.kind == "state"

    def test_shrinking_the_span_does_not_certify(self, memory):
        """pm is no fail-safe tolerant corrector for 'Z1 corrects X1':
        the page fault falsifies X1 inside T_pm.  An empty span must
        not turn that refuted claim into a certified one."""
        args = (memory.pm, memory.fault_before_witness, memory.Z1,
                memory.X1, memory.S_pm)
        assert not is_failsafe_tolerant_corrector(*args, span=memory.T_pm)
        assert not is_failsafe_tolerant_corrector(*args, span=FALSE)
