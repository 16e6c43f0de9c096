"""Tests for fail-safe / nonmasking / masking synthesis (Question 2)."""

import pytest

from repro import synthesis
from repro.core import (
    Action,
    FaultClass,
    Predicate,
    Program,
    TRUE,
    Variable,
    assign,
)
from repro.core.state import State
from repro.synthesis.weakest import fault_unsafe_region, safe_action_predicate


class TestFaultUnsafeRegion:
    def test_backward_closure_over_fault_edges(self, memory):
        states = list(memory.p.states())
        region = fault_unsafe_region(
            memory.fault_anytime, memory.spec, states
        )
        # no state is *itself* bad (safety is transition-level) and the
        # page fault alone never writes data — the region is empty.
        assert region == set()

    def test_seeded_by_bad_fault_transitions(self):
        spec_monotone = __import__(
            "repro.core.specification", fromlist=["Spec", "TransitionInvariant"]
        )
        from repro.core.specification import Spec, TransitionInvariant

        spec = Spec(
            [TransitionInvariant(lambda s, t: t["x"] >= s["x"], "monotone")],
            name="monotone",
        )
        fault = FaultClass(
            [Action("zap", Predicate(lambda s: s["x"] == 2, "x=2"), assign(x=0))],
            name="zap",
        )
        states = [State(x=v) for v in (0, 1, 2)]
        region = fault_unsafe_region(fault, spec, states)
        assert region == {State(x=2)}

    def test_multi_step_fault_escalation(self):
        from repro.core.specification import Spec, StateInvariant

        spec = Spec(
            [StateInvariant(Predicate(lambda s: s["x"] != 3, "x≠3"))], name="x≠3"
        )
        fault = FaultClass(
            [Action("bump", Predicate(lambda s: s["x"] in (1, 2)),
                    assign(x=lambda s: s["x"] + 1))],
            name="bump",
        )
        states = [State(x=v) for v in range(4)]
        region = fault_unsafe_region(fault, spec, states)
        assert region == {State(x=1), State(x=2), State(x=3)}, (
            "faults can chain 1 -> 2 -> 3"
        )


class TestAddFailsafe:
    def test_memory_example(self, memory):
        result = synthesis.add_failsafe(memory.p, memory.fault_anytime, memory.spec)
        assert result.verify(memory.fault_anytime, memory.spec)

    def test_synthesized_actions_are_restrictions(self, memory):
        result = synthesis.add_failsafe(memory.p, memory.fault_anytime, memory.spec)
        assert [a.name for a in result.program.actions] == [
            a.name for a in memory.p.actions
        ]
        # restricted guards are never weaker
        for original, restricted in zip(memory.p.actions, result.program.actions):
            for state in memory.p.states():
                if restricted.enabled(state):
                    assert original.enabled(state)

    def test_tmr_example(self, tmr_model):
        result = synthesis.add_failsafe(
            tmr_model.ir, tmr_model.faults, tmr_model.spec
        )
        assert result.verify(tmr_model.faults, tmr_model.spec)
        # the synthesized guard includes the paper's witness x=y ∨ x=z
        restricted = result.program.action("IR1")
        for state in tmr_model.ir.states():
            if restricted.enabled(state) and tmr_model.span(state):
                assert tmr_model.witness_dr(state)

    def test_liveness_system_starts_from_the_universe_region(
        self, monkeypatch
    ):
        """The system the certifying invariant's leads-to pruning
        explores starts from the closed region itself, in universe
        order; a set of States would start it in hash order, which
        varies with ``PYTHONHASHSEED`` (``BOTTOM`` hashes by
        identity)."""
        from repro.core.regions import Region, universe_index
        from repro.programs import memory_access
        from repro.synthesis import failsafe

        # a fresh model: add_failsafe memoizes per argument identity
        m = memory_access.build(value=1, data_domain=tuple(range(8)))
        built = []
        real = failsafe.TransitionSystem

        def spy(program, start_states, *args, **kwargs):
            built.append((start_states, args, kwargs))
            return real(program, start_states, *args, **kwargs)

        monkeypatch.setattr(failsafe, "TransitionSystem", spy)
        result = synthesis.add_failsafe(m.p, m.fault_anytime, m.spec)
        liveness = [
            starts for starts, args, kwargs in built
            if not args and not kwargs.get("fault_actions")
        ]
        assert len(liveness) == 1
        (starts,) = liveness
        universe = universe_index(m.p)
        assert isinstance(starts, Region)
        assert starts.index is universe
        assert {s for s in universe.states if result.invariant(s)} == {
            s for s in universe.states if s["mem"] == 1 or s["data"] == 1
        }

    def test_unimplementable_spec_raises(self):
        from repro.core.specification import Spec, StateInvariant

        p = Program(
            [Variable("x", [0, 1])],
            [Action("set", TRUE, assign(x=1))],
            name="p",
        )
        spec = Spec(
            [StateInvariant(Predicate(lambda s: False, "false"))], name="impossible"
        )
        with pytest.raises(ValueError, match="empty"):
            synthesis.add_failsafe(p, FaultClass([], "none"), spec)


class TestResetCorrector:
    def test_targets_nearest_invariant_state(self, memory):
        corrector = synthesis.reset_corrector(memory.p, memory.S_pn, TRUE)
        bad = State(mem=__import__("repro").BOTTOM, data=1)
        (fixed,) = corrector.successors(bad)
        assert memory.S_pn(fixed)
        assert fixed["data"] == 1, "minimal change keeps data"

    def test_disabled_inside_invariant(self, memory):
        corrector = synthesis.reset_corrector(memory.p, memory.S_pn, TRUE)
        for state in memory.p.states():
            if memory.S_pn(state):
                assert not corrector.enabled(state)

    def test_empty_invariant_rejected(self, memory):
        with pytest.raises(ValueError, match="empty"):
            synthesis.reset_corrector(
                memory.p, Predicate(lambda s: False, "false"), TRUE
            )


class TestAddNonmasking:
    def test_generic_reset(self, memory):
        result = synthesis.add_nonmasking(
            memory.p, memory.fault_anytime, memory.S_pn, TRUE
        )
        assert result.verify(memory.fault_anytime, memory.spec)

    def test_user_supplied_corrector(self, memory):
        restore = Action(
            "restore",
            Predicate(lambda s: s["mem"] is __import__("repro").BOTTOM, "mem=⊥"),
            assign(mem=1),
        )
        result = synthesis.add_nonmasking(
            memory.p, memory.fault_anytime, memory.S_pn, TRUE,
            correctors=[restore],
        )
        assert result.verify(memory.fault_anytime, memory.spec)

    def test_interfering_corrector_rejected(self, memory):
        meddler = Action("meddle", TRUE, assign(data=0))
        with pytest.raises(ValueError, match="interferes"):
            synthesis.add_nonmasking(
                memory.p, memory.fault_anytime, memory.S_pn, TRUE,
                correctors=[meddler],
            )


class TestAddMasking:
    def test_memory_example(self, memory):
        result = synthesis.add_masking(memory.p, memory.fault_anytime, memory.spec)
        assert result.verify(memory.fault_anytime, memory.spec)

    def test_tmr_from_intolerant_ir(self, tmr_model):
        """The flagship synthesis claim of Section 6.1: masking TMR can
        be *calculated* from the bare intolerant program."""
        result = synthesis.add_masking(
            tmr_model.ir, tmr_model.faults, tmr_model.spec
        )
        assert result.verify(tmr_model.faults, tmr_model.spec)

    def test_correctors_pass_safety_filter(self, tmr_model):
        result = synthesis.add_masking(
            tmr_model.ir, tmr_model.faults, tmr_model.spec
        )
        from repro.core.invariants import _safety_checks

        state_checks, transition_checks = _safety_checks(
            tmr_model.spec.safety_part()
        )
        for corrector in result.correctors:
            for state in tmr_model.ir.states():
                for successor in corrector.successors(state):
                    assert all(c(state, successor) for c in transition_checks)
