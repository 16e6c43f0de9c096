"""Unit tests for the weak-fairness liveness engine."""

from repro.core.action import Action, assign, choose
from repro.core.exploration import TransitionSystem
from repro.core.fairness import (
    check_converges_to,
    check_leads_to,
    fair_recurrent_sccs,
    liveness_violating_states,
    strongly_connected_components,
)
from repro.core.faults import set_variable
from repro.core.predicate import Predicate, TRUE
from repro.core.program import Program
from repro.core.state import State, Variable


def program(actions, domain=(0, 1, 2, 3), extra=()):
    variables = [Variable("x", list(domain))] + list(extra)
    return Program(variables, actions, name="toy")


X = lambda v: Predicate(lambda s, v=v: s["x"] == v, name=f"x={v}")  # noqa: E731


class TestSCC:
    def test_linear_graph_trivial_sccs(self):
        edges = {1: [2], 2: [3], 3: []}
        comps = strongly_connected_components([1, 2, 3], lambda n: edges[n])
        assert sorted(map(sorted, comps)) == [[1], [2], [3]]

    def test_cycle_detected(self):
        edges = {1: [2], 2: [1], 3: [1]}
        comps = strongly_connected_components([1, 2, 3], lambda n: edges[n])
        assert {frozenset(c) for c in comps} == {frozenset({1, 2}), frozenset({3})}

    def test_self_loop_is_singleton_scc(self):
        edges = {1: [1]}
        comps = strongly_connected_components([1], lambda n: edges[n])
        assert comps == [{1}]


class TestFairRecurrentSccs:
    def test_starved_action_disqualifies(self):
        # cycle 0<->1 via 'spin', while 'exit' is enabled everywhere and
        # leaves — weak fairness forces exit, so no fair cycle.
        spin = Action("spin", Predicate(lambda s: s["x"] < 2),
                      assign(x=lambda s: 1 - s["x"]))
        exit_ = Action("exit", Predicate(lambda s: s["x"] < 2), assign(x=2))
        p = program([spin, exit_])
        ts = TransitionSystem(p, [State(x=0)])
        region = {State(x=0), State(x=1)}
        assert fair_recurrent_sccs(ts, region) == []

    def test_intermittently_enabled_action_does_not_save(self):
        # 'exit' enabled only at x=1; a fair run may linger at the cycle
        # 0 -> 1 -> 0 because exit is not *continuously* enabled.
        spin = Action("spin", Predicate(lambda s: s["x"] < 2),
                      assign(x=lambda s: 1 - s["x"]))
        exit_ = Action("exit", X(1), assign(x=2))
        p = program([spin, exit_])
        ts = TransitionSystem(p, [State(x=0)])
        region = {State(x=0), State(x=1)}
        assert fair_recurrent_sccs(ts, region) == [region]

    def test_internal_edge_of_enabled_action_qualifies(self):
        spin = Action("spin", Predicate(lambda s: s["x"] < 2),
                      assign(x=lambda s: 1 - s["x"]))
        p = program([spin])
        ts = TransitionSystem(p, [State(x=0)])
        region = {State(x=0), State(x=1)}
        assert fair_recurrent_sccs(ts, region) == [region]


class TestLeadsTo:
    def test_straight_line_progress(self):
        inc = Action("inc", Predicate(lambda s: s["x"] < 3), assign(x=lambda s: s["x"] + 1))
        ts = TransitionSystem(program([inc]), [State(x=0)])
        assert check_leads_to(ts, X(0), X(3))

    def test_deadlock_violation_with_trace(self):
        inc = Action("inc", Predicate(lambda s: s["x"] < 2), assign(x=lambda s: s["x"] + 1))
        ts = TransitionSystem(program([inc]), [State(x=0)])
        result = check_leads_to(ts, X(0), X(3))
        assert not result
        assert result.counterexample.kind == "trace"
        assert result.counterexample.states[-1] == State(x=2)

    def test_fair_cycle_violation_with_lasso(self):
        spin = Action("spin", Predicate(lambda s: s["x"] < 2),
                      assign(x=lambda s: 1 - s["x"]))
        ts = TransitionSystem(program([spin]), [State(x=0)])
        result = check_leads_to(ts, X(0), X(2))
        assert not result
        assert result.counterexample.kind == "lasso"
        assert result.counterexample.loop_index is not None

    def test_fairness_forces_progress_out_of_cycle(self):
        spin = Action("spin", Predicate(lambda s: s["x"] < 2),
                      assign(x=lambda s: 1 - s["x"]))
        exit_ = Action("exit", Predicate(lambda s: s["x"] < 2), assign(x=2))
        ts = TransitionSystem(program([spin, exit_]), [State(x=0)])
        assert check_leads_to(ts, TRUE, X(2))

    def test_target_at_source_counts(self):
        inc = Action("inc", Predicate(lambda s: s["x"] < 1), assign(x=1))
        ts = TransitionSystem(program([inc]), [State(x=0)])
        assert check_leads_to(ts, X(0), X(0))

    def test_empty_source_region_passes(self):
        inc = Action("inc", Predicate(lambda s: s["x"] < 1), assign(x=1))
        ts = TransitionSystem(program([inc]), [State(x=0)])
        assert check_leads_to(ts, X(3), X(0))

    def test_fault_edges_carry_obligations(self):
        """An obligation raised at x=1 can be pushed by a fault to x=3
        (a dead end) — the checker must follow fault edges into the
        avoid-region."""
        inc = Action("inc", X(1), assign(x=2))
        fault = set_variable("x", 3, name="jump")
        ts = TransitionSystem(
            program([inc]), [State(x=1)], fault_actions=list(fault.actions)
        )
        result = check_leads_to(ts, X(1), X(2))
        assert not result, "fault can strand the obligation at x=3"

    def test_fault_edges_do_not_help_progress(self):
        """Only a fault edge reaches the target: progress must NOT count
        it, because nothing obliges faults to occur."""
        fault = set_variable("x", 2, name="help")
        spin = Action("spin", Predicate(lambda s: s["x"] < 2),
                      assign(x=lambda s: 1 - s["x"]))
        ts = TransitionSystem(
            program([spin]), [State(x=0)], fault_actions=list(fault.actions)
        )
        assert not check_leads_to(ts, X(0), X(2))


class TestConvergesTo:
    def test_paper_example_converges(self):
        inc = Action("inc", Predicate(lambda s: 0 < s["x"] < 3),
                     assign(x=lambda s: s["x"] + 1))
        ts = TransitionSystem(program([inc]), [State(x=1)])
        origin = Predicate(lambda s: s["x"] >= 1, "x≥1")
        goal = Predicate(lambda s: s["x"] == 3, "x=3")
        assert check_converges_to(ts, origin, goal)

    def test_origin_must_be_closed(self):
        dec = Action("dec", Predicate(lambda s: s["x"] > 0),
                     assign(x=lambda s: s["x"] - 1))
        ts = TransitionSystem(program([dec]), [State(x=2)])
        origin = Predicate(lambda s: s["x"] == 2, "x=2")
        assert not check_converges_to(ts, origin, X(0))


class TestLivenessViolatingStates:
    def test_identifies_dead_branch(self):
        # from x=0 choose x=1 (leads to 3) or x=2 (dead end)
        split = Action("split", X(0), choose(assign(x=1), assign(x=2)))
        go = Action("go", X(1), assign(x=3))
        ts = TransitionSystem(program([split, go]), [State(x=0)])
        bad = liveness_violating_states(ts, TRUE, X(3))
        assert State(x=2) in bad
        assert State(x=0) in bad, "x=0 can reach the dead end"
        assert State(x=1) not in bad
        assert State(x=3) not in bad

    def test_empty_when_all_converge(self):
        inc = Action("inc", Predicate(lambda s: s["x"] < 3),
                     assign(x=lambda s: s["x"] + 1))
        ts = TransitionSystem(program([inc]), [State(x=0)])
        assert liveness_violating_states(ts, TRUE, X(3)) == set()

    def test_danger_zone_stops_at_the_target(self):
        # x=0 -> x=1 -> x=2, a deadlock outside the target x=1: every
        # computation from the source x=0 passes the target first, so
        # the deadlock's danger zone must not extend through x=1
        inc = Action("inc", Predicate(lambda s: s["x"] < 2),
                     assign(x=lambda s: s["x"] + 1))
        ts = TransitionSystem(program([inc], domain=(0, 1, 2)), [State(x=0)])
        assert liveness_violating_states(ts, X(0), X(1)) == set()
        assert liveness_violating_states(ts, X(2), X(1)) == {
            State(x=0), State(x=1), State(x=2)
        }
