"""Unit tests for fault-classes and fault spans."""

import pytest

from repro.core.action import Action, assign
from repro.core.faults import (
    FaultClass,
    crash_variable,
    perturb_variable,
    set_variable,
)
from repro.core.predicate import Predicate, TRUE
from repro.core.program import Program
from repro.core.state import State, Variable


def toggler():
    return Program(
        [Variable("x", [0, 1]), Variable("up", [False, True])],
        [
            Action(
                "toggle",
                Predicate(lambda s: not s["up"], "¬up"),
                assign(x=lambda s: 1 - s["x"]),
            )
        ],
        name="toggler",
    )


class TestFaultClass:
    def test_iteration_and_len(self):
        f = set_variable("x", 0)
        assert len(f) == 1
        assert [a.name for a in f] == ["fault_set_x_0"]

    def test_union(self):
        combined = set_variable("x", 0).union(crash_variable("up"))
        assert len(combined) == 2

    def test_system_marks_fault_edges(self):
        f = set_variable("x", 0)
        ts = f.system(toggler(), TRUE)
        fault_names = {
            name for s in ts.states for name, _ in ts.fault_edges_from(s)
        }
        assert fault_names == {"fault_set_x_0"}

    def test_check_span(self):
        f = crash_variable("up")
        result = f.check_span(
            toggler(),
            span=TRUE,
            invariant=Predicate(lambda s: not s["up"], "¬up"),
        )
        assert result

    def test_check_span_failure(self):
        f = crash_variable("up")
        not_up = Predicate(lambda s: not s["up"], "¬up")
        result = f.check_span(toggler(), span=not_up, invariant=not_up)
        assert not result, "the crash leaves ¬up"

    def test_check_span_tests_the_invariant_outside_the_span(self):
        """``S ⇒ T`` is checked over the whole state space: the system
        explored from the span never reaches x=1, where the invariant
        holds and the span does not."""
        zero = Predicate(lambda s: s["x"] == 0, "x=0")
        p = Program(
            [Variable("x", [0, 1, 2])],
            [Action("stay", zero, assign(x=0))],
            name="p",
        )
        never = FaultClass(
            [Action("f", Predicate(lambda s: False, "false"), assign(x=1))],
            name="F",
        )
        result = never.check_span(p, span=zero, invariant=TRUE)
        assert not result
        assert result.counterexample.kind == "state"
        assert result.counterexample.states == (State(x=1),)


class TestFaultShapes:
    def test_perturb_variable_hits_every_other_value(self):
        v = Variable("x", [0, 1, 2])
        f = perturb_variable(v)
        p = Program([v], [], name="empty")
        successors = set()
        for action in f:
            successors.update(t["x"] for t in action.successors(State(x=0)))
        assert successors == {1, 2}, "perturbation must change the value"

    def test_perturb_respects_guard(self):
        v = Variable("x", [0, 1])
        f = perturb_variable(v, guard=Predicate(lambda s: False, "never"))
        assert all(not a.successors(State(x=0)) for a in f)

    def test_set_variable(self):
        f = set_variable("x", 1)
        (action,) = f.actions
        assert action.successors(State(x=0)) == (State(x=1),)

    def test_crash_latches(self):
        f = crash_variable("up")
        (action,) = f.actions
        assert action.successors(State(up=False)) == (State(up=True),)
        assert action.successors(State(up=True)) == (), "already crashed"
