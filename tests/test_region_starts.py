"""Start sets ``p | T`` as universe regions.

Every certificate explores ``p [] F`` from the states satisfying a
predicate.  :func:`~repro.core.exploration.system_from` (and
``FaultClass.system``, which calls it) passes that start set as the
predicate's :class:`~repro.core.regions.Region` of the universe index:
the exploration memo keys it by its bits, and the columnar engine
takes its states and rank columns from the index, so no ``State`` is
hashed on the way.  These tests pin both halves of that: the hash
count, and that the region changes no graph against the explicit
state list of the same predicate, on either engine.
"""

from __future__ import annotations

import pytest

from repro.core import kernels
from repro.core.action import Action
from repro.core.exploration import (
    _SMALL_SPACE_STATES, clear_all_caches, explored_system,
)
from repro.core.faults import FaultClass
from repro.core.kernels import Plan, layout_for
from repro.core.predicate import Predicate, TRUE
from repro.core.program import Program
from repro.core.regions import system_index, universe_index
from repro.core.state import State, Variable
from repro.programs import byzantine, token_ring


@pytest.fixture(autouse=True)
def _cold():
    clear_all_caches()
    yield
    kernels.set_backend("auto")
    clear_all_caches()


def test_exploration_hashes_no_state(monkeypatch):
    """On the 5/4 token ring, building ``faults.system(ring, T)`` from
    cold caches and serving it again from the memo hash no State, for
    the ``TRUE`` span and for the invariant (a values-builder predicate
    whose system discovers new states).  The quotient hashes at most
    one State per start orbit representative cold, and none on a hit."""
    ring = token_ring.build(5, 4)
    calls = []
    original = State.__hash__

    def counting(state):
        calls.append(None)
        return original(state)

    monkeypatch.setattr(State, "__hash__", counting)
    for span, symmetric, cold_limit in (
        (TRUE, False, 0), (ring.invariant, False, 0), (TRUE, True, 256),
    ):
        clear_all_caches()
        counts = []
        for _ in range(2):
            del calls[:]
            system = ring.faults.system(ring.ring, span, symmetric=symmetric)
            counts.append(len(calls))
        assert counts[0] <= cold_limit and counts[1] == 0, (span, symmetric)
        assert system._state_cols is not None
        assert len(system.states) == (256 if symmetric else 1024)


def _mixed_program():
    """A 160-state program whose program and fault actions each
    interleave planned and lambda actions in declaration order."""
    variables = [Variable("x", range(20)), Variable("c", range(8))]
    program = Program(variables, [
        Action("tick", plan=Plan(
            ("ne_const", "c", 7), [("inc_mod", "c", "c", 8)],
        )),
        Action(
            "hop", Predicate(lambda s: s["c"] % 3 == 1, "c%3=1"),
            lambda s: s.assign(x=(s["x"] + 3) % 20),
        ),
        Action("wrap", plan=Plan(
            ("eq_const", "c", 7), [("set_const", "c", 0)],
        )),
    ], name="mixed")
    faults = FaultClass([
        Action("drop", plan=Plan(("true",), [("set_const", "x", 0)])),
        Action(
            "skew", Predicate(lambda s: s["x"] == 5, "x=5"),
            lambda s: (s.assign(c=0), s.assign(c=4)),
        ),
        Action("jump", plan=Plan(
            ("eq_const", "x", 0), [("set_any", "x", (7, 11))],
        )),
    ], name="mixed faults")
    return program, faults


def _case(name: str):
    """(program, faults, span, symmetric) of one parity case."""
    if name.startswith("ring"):
        ring = token_ring.build(5, 4)
        span = ring.invariant if name == "ring_invariant" else TRUE
        return ring.ring, ring.faults, span, name == "ring_quotient"
    if name == "byzantine_masking":
        byz = byzantine.build()
        return byz.masking, byz.faults, byz.span, False
    program, faults = _mixed_program()
    assert program.state_count() > _SMALL_SPACE_STATES
    span = Predicate(lambda s: s["x"] < 2 or s["c"] == 5, "x<2 ∨ c=5")
    return program, faults, span, False


def _fingerprint(system):
    program_ids, fault_ids, names_p, names_f = system._edge_arrays
    cols = system._state_cols
    return (
        system.states,
        system.start_states,
        tuple(part.tolist() for part in program_ids + fault_ids),
        (tuple(names_p), tuple(names_f)),
        None if cols is None else (
            cols[0].schema, cols[0].domains, cols[1].tolist()
        ),
    )


@pytest.mark.parametrize("backend", ["auto", "interpreted"])
@pytest.mark.parametrize("name", [
    "ring", "ring_invariant", "ring_quotient", "byzantine_masking", "mixed",
])
def test_region_start_sets_change_no_graph(name, backend):
    """``faults.system(p, span)`` (a universe region) and
    ``explored_system`` over ``p.states_satisfying(span)`` (the same
    states, listed) build one graph: states, start states, edge arrays
    and rank columns, on the columnar engine and on the oracle."""
    program, faults, span, symmetric = _case(name)
    kernels.set_backend(backend)
    by_region = faults.system(program, span, symmetric=symmetric)
    by_list = explored_system(
        program, program.states_satisfying(span), faults.actions,
        symmetric=symmetric,
    )
    assert by_region is not by_list
    assert _fingerprint(by_region) == _fingerprint(by_list)
    assert (by_region._state_cols is not None) is (backend == "auto")


@pytest.mark.parametrize("symmetric", [False, True])
def test_system_region_start_sets_change_no_graph(symmetric):
    """A region of a columnar-built system's index starts an
    exploration like a universe region: its states and rank columns
    come from the system (whose ids, from one start state under faults,
    are not the universe's), and the graph is the one its states,
    listed, give — on the unreduced ring and on its quotient."""
    ring = token_ring.build(5, 4)
    start = State({f"x{i}": i % 4 for i in range(5)})
    source = explored_system(ring.ring, [start], ring.faults.actions)
    assert source._state_cols is not None
    assert source.states != universe_index(ring.ring).states
    region = system_index(source).region(ring.invariant)
    by_region = explored_system(ring.ring, region, symmetric=symmetric)
    by_list = explored_system(ring.ring, list(region), symmetric=symmetric)
    assert by_region is not by_list
    assert _fingerprint(by_region) == _fingerprint(by_list)
    assert by_region._state_cols is not None


def test_universe_matrix_is_the_columns_of_its_states():
    """The universe rank matrix, built from the enumeration's digits,
    is the rank matrix of its states, for variables declared out of
    schema order over domains mixing strings, booleans and ints; and
    States built from columns keep each value's type."""
    variables = [
        Variable("zeta", ("a", "b", "c")),
        Variable("flag", (True, False)),
        Variable("mid", (3, 1, 2, 0)),
        Variable("alpha", ("x", 2, True)),
        Variable("bit", (False, True)),
        Variable("count", range(3)),
    ]
    program = Program(variables, [], name="mixed domains")
    index = universe_index(program)
    layout = layout_for(index.states[0].schema, program._domains)
    cols = index._columns()
    assert cols.tolist() == layout.columns_from_states(index.states).tolist()
    rebuilt = layout.states_from_columns(cols)
    assert [repr(s) for s in rebuilt] == [repr(s) for s in index.states]
    assert rebuilt == list(index.states)
    assert all(
        type(value) is type(want)
        for state, original in zip(rebuilt, index.states)
        for value, want in zip(state.values_tuple, original.values_tuple)
    )
