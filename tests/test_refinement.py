"""Unit tests for refinement checking."""

import os
import subprocess
import sys
import textwrap

from repro.core.action import Action, assign, skip
from repro.core.predicate import Predicate, TRUE
from repro.core.program import Program
from repro.core.refinement import (
    refines_program,
    refines_spec,
    start_states_of,
    system_from,
    violates_spec,
)
from repro.core.specification import LeadsTo, Spec, StateInvariant
from repro.core.state import State, Variable


def counter(limit=2, name="base"):
    return Program(
        [Variable("x", list(range(limit + 1)))],
        [
            Action(
                "inc",
                Predicate(lambda s, lim=limit: s["x"] < lim, f"x<{limit}"),
                assign(x=lambda s: s["x"] + 1),
            )
        ],
        name=name,
    )


class TestStartStates:
    def test_filtering(self, memory):
        states = start_states_of(memory.p, memory.S_p)
        assert states and all(memory.S_p(s) for s in states)

    def test_system_from(self):
        ts = system_from(counter(2), Predicate(lambda s: s["x"] == 0, "x=0"))
        assert len(ts.states) == 3


class TestRefinesSpec:
    def test_positive(self, memory):
        assert refines_spec(memory.p, memory.spec, memory.S_p)

    def test_closure_failure_detected(self):
        p = counter(2)
        low = Predicate(lambda s: s["x"] <= 1, "x≤1")
        spec = Spec([StateInvariant(TRUE)], name="trivial")
        result = refines_spec(p, spec, low)
        assert not result and "closed" in result.description

    def test_violates_is_negation(self, memory):
        assert not violates_spec(memory.p, memory.spec, memory.S_p)
        bad_spec = Spec(
            [StateInvariant(Predicate(lambda s: False, "false"))], name="impossible"
        )
        violation = violates_spec(memory.p, bad_spec, memory.S_p)
        assert violation
        assert violation.counterexample is not None

    def test_fault_actions_checked_for_safety(self, memory):
        # p alone is safe; with page faults it can read garbage.
        result = refines_spec(
            memory.p, memory.spec.safety_part(), memory.S_p,
            fault_actions=list(memory.fault_anytime.actions),
        )
        assert not result


class TestRefinesProgram:
    def test_paper_family(self, memory):
        assert refines_program(memory.pf, memory.p, memory.S_pf)
        assert refines_program(memory.pn, memory.p, memory.S_pn)
        assert refines_program(memory.pm, memory.p, memory.S_pm)
        assert refines_program(memory.pm, memory.pn, memory.S_pm)

    def test_missing_base_variables_rejected(self):
        base = counter()
        other = Program([Variable("y", [0, 1])], [], name="other")
        result = refines_program(other, base, TRUE)
        assert not result and "lacks base variables" in result.details

    def test_non_simulating_step_detected(self):
        base = counter(2)
        rogue = Program(
            [Variable("x", [0, 1, 2])],
            [Action("dec", Predicate(lambda s: s["x"] > 0, "x>0"),
                    assign(x=lambda s: s["x"] - 1))],
            name="rogue",
        )
        result = refines_program(rogue, base, TRUE)
        assert not result
        assert result.counterexample.kind == "transition"

    def test_premature_deadlock_detected(self):
        base = counter(2)
        lazy = Program(
            [Variable("x", [0, 1, 2])],
            [Action("inc_once", Predicate(lambda s: s["x"] == 0, "x=0"),
                    assign(x=1))],
            name="lazy",
        )
        result = refines_program(lazy, base, TRUE)
        assert not result
        assert "maximal" in (result.counterexample.note if result.counterexample else "")

    def test_divergent_stuttering_detected(self):
        base = counter(1)
        # spins on its own variable forever; the projection stutters at
        # x=0 where the base could (and under fairness must) move.
        spinner = Program(
            [Variable("x", [0, 1]), Variable("t", [0, 1])],
            [Action("spin", TRUE, assign(t=lambda s: 1 - s["t"]))],
            name="spinner",
        )
        result = refines_program(spinner, base, Predicate(lambda s: s["x"] == 0, "x=0"))
        assert not result
        assert result.counterexample.kind == "lasso"

    def test_stutter_past_base_deadlock_detected(self):
        base = counter(1)
        # base deadlocks at x=1 but the refined program ticks forever
        ticker = Program(
            [Variable("x", [0, 1]), Variable("t", [0, 1])],
            [
                Action("inc", Predicate(lambda s: s["x"] < 1, "x<1"),
                       assign(x=lambda s: s["x"] + 1)),
                Action("tick", Predicate(lambda s: s["x"] == 1, "x=1"),
                       assign(t=lambda s: 1 - s["t"])),
            ],
            name="ticker",
        )
        result = refines_program(ticker, base, TRUE)
        assert not result
        assert "deadlocked" in result.counterexample.note

    def test_self_loop_projection_is_allowed(self, memory):
        """pf2 rewrites data with the same value once stable — the
        projected no-change step is a genuine p step, not divergence."""
        assert refines_program(memory.pf, memory.p, memory.S_pf)

    def test_stuttering_disallowed_flag(self, memory):
        result = refines_program(
            memory.pf, memory.p, memory.S_pf, allow_stuttering=False
        )
        assert not result, "pf1 is a stutter on p's variables"

    def test_fairness_check_optional(self):
        base = counter(1)
        spinner = Program(
            [Variable("x", [0, 1]), Variable("t", [0, 1])],
            [Action("spin", TRUE, assign(t=lambda s: 1 - s["t"]))],
            name="spinner",
        )
        from_x0 = Predicate(lambda s: s["x"] == 0, "x=0")
        assert not refines_program(spinner, base, from_x0)
        assert refines_program(spinner, base, from_x0, check_fairness=False)


_SPINNER = textwrap.dedent("""
    from repro.core import Action, Predicate, Program, Variable, assign
    from repro.core.refinement import refines_program, system_from

    step = {"p": "q", "q": "r", "r": "s", "s": "p"}
    at_a = Predicate(lambda s: s["x"] == "a", "x=a")
    spinner = Program(
        [Variable("x", ["a", "b"]), Variable("t", list("pqrs"))],
        [Action("spin", at_a, assign(t=lambda s: step[s["t"]]))],
        name="spinner",
    )
    base = Program(
        [Variable("x", ["a", "b"])],
        [Action("go", at_a, assign(x="b"))],
        name="base",
    )
    result = refines_program(spinner, base, at_a)
    assert not result
    (witness,) = result.counterexample.states
    first = system_from(spinner, at_a).states[0]
    print(witness == first, witness["t"])
""")


class TestProjectedLivenessWitness:
    def test_witness_is_the_components_first_state(self):
        """A spinner cycling t through p, q, r, s never simulates the
        base's x=a --> x:=b, so its fair cycle is an unfair projection.
        The reported witness is the component's first state in
        exploration order, whatever the string hash seed."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.join(root, "src"))
            out = subprocess.run(
                [sys.executable, "-c", _SPINNER], env=env, check=True,
                capture_output=True, text=True,
            ).stdout.split()
            assert out == ["True", "p"], (seed, out)
