"""Parity: the indexed bitset fixpoints vs the set-based originals.

The region engine rewrote three fixpoints — the largest safe invariant,
the fault-unsafe region (the paper's ``ms``), and the liveness-violation
core — from set-scanning loops to bitset worklists over indexed
adjacency, and the State-hashing path search and Tarjan SCC search to
id-level ones.  These tests pin the *pre-rewrite implementations*
verbatim as oracles and check that the new engine computes identical
sets, paths and component lists on every bundled scenario.  If an
engine change alters any of these results, the parity failure localizes
it immediately.
"""

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np
import pytest

from repro.core.action import Action, assign
from repro.core.exploration import TransitionSystem
from repro.core.fairness import (
    fair_recurrent_sccs,
    liveness_violating_states,
    strongly_connected_components,
)
from repro.core.faults import FaultClass
from repro.core.invariants import _safety_checks, largest_invariant_for_safety
from repro.core.predicate import TRUE, Predicate
from repro.core.program import Program
from repro.core.regions import system_index
from repro.core.specification import (
    LeadsTo,
    Spec,
    StateInvariant,
    TransitionInvariant,
)
from repro.core.state import State, Variable
from repro.synthesis.weakest import fault_unsafe_region, safe_action_predicate


# -- the pre-rewrite implementations, pinned as oracles ---------------------

def _oracle_largest_invariant(program, spec) -> Set[State]:
    state_checks, transition_checks = _safety_checks(spec.safety_part())
    candidate: Set[State] = {
        s for s in program.states() if all(check(s) for check in state_checks)
    }
    changed = True
    while changed:
        changed = False
        to_remove: Set[State] = set()
        for state in candidate:
            for action in program.actions:
                for successor in action.successors(state):
                    if successor not in candidate or not all(
                        check(state, successor) for check in transition_checks
                    ):
                        to_remove.add(state)
                        break
                else:
                    continue
                break
        if to_remove:
            candidate -= to_remove
            changed = True
    return candidate


def _oracle_fault_unsafe(faults, spec, states) -> Set[State]:
    state_checks, transition_checks = _safety_checks(spec.safety_part())
    universe: List[State] = list(states)
    region: Set[State] = {
        s for s in universe if not all(check(s) for check in state_checks)
    }
    changed = True
    while changed:
        changed = False
        for state in universe:
            if state in region:
                continue
            for fault_action in faults.actions:
                doomed = False
                for successor in fault_action.successors(state):
                    if successor in region:
                        doomed = True
                        break
                    if not all(check(successor) for check in state_checks):
                        doomed = True
                        break
                    if not all(
                        check(state, successor) for check in transition_checks
                    ):
                        doomed = True
                        break
                if doomed:
                    region.add(state)
                    changed = True
                    break
    return region


def _oracle_sccs(nodes, edges_from) -> List[Set[State]]:
    nodes = list(nodes)
    index_of: Dict[State, int] = {}
    lowlink: Dict[State, int] = {}
    on_stack: Set[State] = set()
    stack: List[State] = []
    components: List[Set[State]] = []
    counter = [0]
    for root in nodes:
        if root in index_of:
            continue
        work = [(root, iter(edges_from(root)))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index_of:
                    index_of[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(edges_from(successor))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: Set[State] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def _oracle_fair_recurrent_sccs(ts, region) -> List[Set[State]]:
    def internal_successors(state):
        return [t for _, t in ts.program_edges_from(state) if t in region]

    recurrent: List[Set[State]] = []
    for component in _oracle_sccs(region, internal_successors):
        internal_edges = [
            (s, a, t)
            for s in component
            for a, t in ts.program_edges_from(s)
            if t in component
        ]
        if not internal_edges:
            continue
        internal_labels: FrozenSet[str] = frozenset(
            a for _, a, _ in internal_edges
        )
        fair = True
        for action in ts.program.actions:
            if all(action.enabled(s) for s in component):
                if action.name not in internal_labels:
                    fair = False
                    break
        if fair:
            recurrent.append(component)
    return recurrent


def _oracle_liveness_violating(ts, source, target) -> Set[State]:
    avoid_region: Set[State] = {s for s in ts.states if not target(s)}
    core: Set[State] = set()
    for component in _oracle_fair_recurrent_sccs(ts, avoid_region):
        core |= component
    for state in avoid_region:
        if ts.program.is_deadlocked(state):
            core.add(state)

    predecessors: Dict[State, List[State]] = {s: [] for s in ts.states}
    for state in ts.states:
        for _, nxt in ts.edges_from(state, include_faults=True):
            if nxt in predecessors:
                predecessors[nxt].append(state)

    danger: Set[State] = set(core)
    frontier = deque(core)
    while frontier:
        state = frontier.popleft()
        for previous in predecessors[state]:
            if previous in avoid_region and previous not in danger:
                danger.add(previous)
                frontier.append(previous)

    bad_sources = {s for s in danger if source(s)}
    violating: Set[State] = set(bad_sources)
    frontier = deque(bad_sources)
    while frontier:
        state = frontier.popleft()
        for previous in predecessors[state]:
            if previous not in violating:
                violating.add(previous)
                frontier.append(previous)
    return violating


def _oracle_find_path(
    ts, sources, goal, include_faults=True, within=None,
) -> Optional[Tuple[List[State], List[str]]]:
    # TransitionSystem.find_path before it searched the edge CSR
    parents: Dict[State, Optional[Tuple[State, str]]] = {}
    frontier: deque = deque()
    for source in sources:
        if within is not None and not within(source):
            continue
        if source not in parents:
            parents[source] = None
            frontier.append(source)
    while frontier:
        state = frontier.popleft()
        if goal(state):
            states: List[State] = [state]
            actions: List[str] = []
            current = state
            while parents[current] is not None:
                previous, action_name = parents[current]
                states.append(previous)
                actions.append(action_name)
                current = previous
            states.reverse()
            actions.reverse()
            return states, actions
        for action_name, nxt in ts.edges_from(state, include_faults):
            if within is not None and not within(nxt):
                continue
            if nxt not in parents:
                parents[nxt] = (state, action_name)
                frontier.append(nxt)
    return None


def _oracle_safe_action(action, spec, unsafe, states) -> Set[State]:
    # the per-state loop of safe_action_predicate before it read edge
    # arrays: every successor, inside the universe or not, must be
    # outside ``unsafe`` and pass the state and transition checks
    state_checks, transition_checks = _safety_checks(spec.safety_part())
    good: Set[State] = set()
    for state in states:
        if state in unsafe:
            continue
        for successor in action.successors(state):
            if (
                successor in unsafe
                or not all(check(successor) for check in state_checks)
                or not all(
                    check(state, successor) for check in transition_checks
                )
            ):
                break
        else:
            good.add(state)
    return good


def _assert_fair_recurrent_sccs_match(ts, spec) -> None:
    regions = [set(ts.states)] + [
        {s for s in ts.states if not c.target(s)}
        for c in spec.liveness_part().components
        if isinstance(c, LeadsTo)
    ]
    for region in regions:
        expected = {
            frozenset(c) for c in _oracle_fair_recurrent_sccs(ts, region)
        }
        computed = {frozenset(c) for c in fair_recurrent_sccs(ts, region)}
        assert computed == expected


def _spec_predicates(spec) -> List[Predicate]:
    predicates: List[Predicate] = []
    for c in spec.components:
        if isinstance(c, StateInvariant):
            predicates.append(c.predicate)
        elif isinstance(c, LeadsTo):
            predicates += [c.source, c.target]
        elif isinstance(c, TransitionInvariant):
            predicates += list(c.predicates or ())
    return list({id(p): p for p in predicates}.values())


def _assert_paths_match(ts, spec) -> int:
    """``find_path`` and ``SystemIndex.path`` against the oracle, to
    every spec predicate, its negation and the deadlocks, unrestricted
    or inside each leads-to's ``¬target``, with and without fault
    edges.  The searches start from the start states, from a sample of
    them one at a time, and from the sample reversed.  Returns the
    number of paths of two or more steps, so callers can see the
    searches went somewhere."""
    index = system_index(ts)
    dead = set(ts.deadlock_states())
    goals = [Predicate(lambda s: s in dead, name="deadlock")]
    for p in _spec_predicates(spec):
        goals += [p, ~p]
    withins = [None] + [
        ~c.target for c in spec.components if isinstance(c, LeadsTo)
    ]
    sample = list(ts.start_states[::max(1, len(ts.start_states) // 6)])
    source_lists = (
        [list(ts.start_states)] + [[s] for s in sample] + [sample[::-1]]
    )

    def mask(predicate):
        return np.array([bool(predicate(s)) for s in index.states])

    long_paths = 0
    for goal in goals:
        for within in withins:
            for faults in (True, False):
                for sources in source_lists:
                    expected = _oracle_find_path(
                        ts, sources, goal, faults, within
                    )
                    assert ts.find_path(sources, goal, faults, within) \
                        == expected
                    found = index.path(
                        [index.id_of[s] for s in sources], mask(goal),
                        None if within is None else mask(within), faults,
                    )
                    if expected is None:
                        assert found is None
                        continue
                    ids, actions = found
                    assert [index.states[u] for u in ids] == expected[0]
                    assert actions == expected[1]
                    long_paths += len(actions) >= 2
    return long_paths


def _assert_sccs_match(ts) -> None:
    for faults in (False, True):
        def successors(state, faults=faults):
            return [t for _, t in ts.edges_from(state, faults)]

        assert strongly_connected_components(ts.states, successors) == \
            _oracle_sccs(ts.states, successors)


# -- bundled scenarios ------------------------------------------------------

def _memory_access_cases():
    from repro.programs import memory_access

    m = memory_access.build()
    return [
        ("memory_access/p", m.p, m.fault_anytime, m.spec),
        ("memory_access/pf", m.pf, m.fault_before_witness, m.spec),
        ("memory_access/pn", m.pn, m.fault_anytime, m.spec),
        ("memory_access/pm", m.pm, m.fault_before_witness, m.spec),
    ]


def _small_cases():
    from repro.programs import (
        barrier,
        leader_election,
        mutual_exclusion,
        tmr,
        token_ring,
    )

    t = tmr.build()
    r = token_ring.build(4)
    x = mutual_exclusion.build(3)
    b = barrier.build(3)
    e = leader_election.build((3, 1, 2))
    return _memory_access_cases() + [
        ("tmr/tmr", t.tmr, t.faults, t.spec),
        ("tmr/dr_ir", t.dr_ir, t.faults, t.spec),
        ("token_ring", r.ring, r.faults, r.spec),
        ("mutual_exclusion", x.tolerant, x.faults, x.spec),
        ("barrier", b.tolerant, b.faults, b.spec),
        ("leader_election", e.program, e.faults, e.spec),
    ]


def _byzantine_cases():
    from repro.programs import byzantine

    b = byzantine.build()
    return [
        ("byzantine/failsafe", b.failsafe, b.faults, b.spec, b.span),
        ("byzantine/masking", b.masking, b.faults, b.spec, b.span),
    ]


_SMALL = _small_cases()
_BYZ = _byzantine_cases()


@pytest.mark.parametrize(
    "program,faults,spec",
    [case[1:] for case in _SMALL],
    ids=[case[0] for case in _SMALL],
)
class TestSmallScenarioParity:
    def test_largest_invariant(self, program, faults, spec):
        expected = _oracle_largest_invariant(program, spec)
        predicate = largest_invariant_for_safety(program, spec)
        computed = {s for s in program.states() if predicate(s)}
        assert computed == expected

    def test_fault_unsafe_region(self, program, faults, spec):
        states = list(program.states())
        expected = _oracle_fault_unsafe(faults, spec, states)
        computed = fault_unsafe_region(faults, spec, states)
        assert computed == expected

    def test_liveness_violating_states(self, program, faults, spec):
        leads_tos = [
            c for c in spec.liveness_part().components
            if isinstance(c, LeadsTo)
        ]
        if not leads_tos:
            pytest.skip("scenario has no leads-to component")
        ts = TransitionSystem(
            program,
            list(program.states()),
            fault_actions=list(faults.actions),
        )
        for component in leads_tos:
            expected = _oracle_liveness_violating(
                ts, component.source, component.target
            )
            computed = liveness_violating_states(
                ts, component.source, component.target
            )
            assert set(computed) == expected

    def test_safe_action_predicate(self, program, faults, spec):
        states = list(program.states())
        unsafe = _oracle_fault_unsafe(faults, spec, states)
        for action in program.actions:
            expected = _oracle_safe_action(action, spec, unsafe, states)
            predicate = safe_action_predicate(action, spec, unsafe, states)
            assert {s for s in states if predicate(s)} == expected

    def test_fair_recurrent_sccs(self, program, faults, spec):
        ts = TransitionSystem(
            program,
            list(program.states()),
            fault_actions=list(faults.actions),
        )
        _assert_fair_recurrent_sccs_match(ts, spec)

    def test_paths_and_sccs(self, program, faults, spec):
        ts = TransitionSystem(
            program,
            list(program.states()),
            fault_actions=list(faults.actions),
        )
        _assert_paths_match(ts, spec)
        _assert_sccs_match(ts)


@pytest.mark.parametrize(
    "program,faults,spec,span",
    [case[1:] for case in _BYZ],
    ids=[case[0] for case in _BYZ],
)
class TestByzantineParity:
    # The 23,328-state product space: too large for the quadratic
    # invariant oracle, but the worklist oracles stay linear enough.

    def test_fault_unsafe_region(self, program, faults, spec, span):
        states = list(program.states())
        expected = _oracle_fault_unsafe(faults, spec, states)
        computed = fault_unsafe_region(faults, spec, states)
        assert computed == expected

    def test_liveness_violating_states(self, program, faults, spec, span):
        ts = faults.system(program, span)
        component = next(
            c for c in spec.liveness_part().components
            if isinstance(c, LeadsTo)
        )
        expected = _oracle_liveness_violating(
            ts, component.source, component.target
        )
        computed = liveness_violating_states(
            ts, component.source, component.target
        )
        assert set(computed) == expected

    def test_fair_recurrent_sccs(self, program, faults, spec, span):
        _assert_fair_recurrent_sccs_match(faults.system(program, span), spec)

    def test_paths_and_sccs(self, program, faults, spec, span):
        ts = faults.system(program, span)
        assert _assert_paths_match(ts, spec)
        _assert_sccs_match(ts)


class TestSuccessorsOutsideTheIndex:
    """Edges that leave the indexed states: an action leaving its
    declared domain, and a fault leaving an explicit state list."""

    @staticmethod
    def _increment(name: str) -> Action:
        return Action(name, TRUE, assign(x=lambda s: s["x"] + 1))

    @staticmethod
    def _spec(bad: int) -> Spec:
        return Spec(
            [StateInvariant(Predicate(lambda s: s["x"] != bad, f"x≠{bad}"))],
            name=f"x≠{bad}",
        )

    def test_largest_invariant_with_an_action_leaving_the_domain(self):
        program = Program(
            [Variable("x", [0, 1, 2])], [self._increment("inc")], name="inc"
        )
        spec = self._spec(5)
        expected = _oracle_largest_invariant(program, spec)
        predicate = largest_invariant_for_safety(program, spec)
        computed = {s for s in program.states() if predicate(s)}
        assert computed == expected == set()

    @pytest.mark.parametrize("bad, unsafe", [(2, {0, 1}), (5, set())])
    def test_fault_unsafe_region_with_a_fault_leaving_the_list(
        self, bad, unsafe
    ):
        faults = FaultClass([self._increment("bump")], name="bump")
        spec = self._spec(bad)
        states = [State(x=0), State(x=1)]
        computed = fault_unsafe_region(faults, spec, states)
        assert computed == _oracle_fault_unsafe(faults, spec, states)
        assert computed == {State(x=v) for v in unsafe}

    def test_safe_action_predicate_with_unsafe_outside_the_list(self):
        action = self._increment("inc")
        spec = self._spec(5)
        states = [State(x=0), State(x=1)]
        unsafe = {State(x=2)}
        predicate = safe_action_predicate(action, spec, unsafe, states)
        computed = {s for s in states if predicate(s)}
        assert computed == _oracle_safe_action(action, spec, unsafe, states)
        assert computed == {State(x=0)}
