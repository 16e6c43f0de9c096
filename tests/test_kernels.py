"""Kernel/interpreted parity and code-space census pins.

The exploration core runs the same BFS through three engines — the
interpreted oracle, the columnar array engine (compiled kernels for
planned actions, interpreted successors for the rest), and the sharded
fork pool — with one contract: which engine ran must be unobservable
from the finished :class:`~repro.core.exploration.TransitionSystem`.
These tests pin that contract over the bundled program families
(programs *and* their fault builders), under symmetry quotients, and
for every worker count, by comparing full graph fingerprints (state
order, edge tuples, deadlocks) against the interpreted reference.

:func:`~repro.core.kernels.explore_codes` has no interpreted twin (it
exists for spaces where ``State`` objects are not an option), so it is
pinned two ways: exact closed-form census counts, and agreement with
the State-object explorer on instances small enough to run both.
"""

from __future__ import annotations

import pytest

from repro.core import kernels
from repro.core.action import Action
from repro.core.exploration import (
    _SMALL_SPACE_STATES,
    TransitionSystem,
    clear_all_caches,
    set_default_workers,
)
from repro.core.kernels import KernelError, Plan, explore_codes
from repro.core.predicate import TRUE, var_eq
from repro.core.program import Program
from repro.core.state import State, StateInterner, Variable, state_space
from repro.programs import byzantine, memory_access, tmr, token_ring


@pytest.fixture(autouse=True)
def _restore_kernel_globals():
    yield
    kernels.set_backend("auto")
    set_default_workers(None)
    clear_all_caches()


def _graph(ts: TransitionSystem):
    """Full fingerprint: state discovery order, per-state edge tuples
    (program and fault), and deadlocks.  Two systems with equal
    fingerprints are indistinguishable to every checker."""
    states = tuple(ts.states)
    return (
        states,
        tuple(tuple(ts.program_edges_from(s)) for s in states),
        tuple(tuple(ts.fault_edges_from(s)) for s in states),
        tuple(ts.deadlock_states()),
    )


def _counter_variables():
    """A 160-state space: above the interpreted engine's tiny-space limit."""
    return [Variable("c", range(8)), Variable("x", range(20))]


def _tick():
    """The planned action ``c != 7 --> c := c + 1``."""
    return Action(
        "tick", plan=Plan(("ne_const", "c", 7), [("inc_mod", "c", "c", 8)])
    )


def _scenarios():
    """(name, program, starts, faults, symmetric) over the bundled
    families plus one synthetic edge-order case: planned actions,
    unplanned actions (byzantine lies), fault builders, symmetry
    quotients, and dense and sorted code -> id maps are all
    represented."""
    ring = token_ring.build(4)
    yield (
        "token_ring",
        ring.ring,
        list(state_space(ring.ring.variables)),
        tuple(ring.faults.actions),
        False,
    )
    ring54 = token_ring.build(5, 4)
    yield (
        "token_ring_sym",
        ring54.ring,
        list(state_space(ring54.ring.variables)),
        tuple(ring54.faults.actions),
        True,
    )
    byz = byzantine.build()
    yield ("byzantine_ib", byz.ib, byzantine.initial_states(), (), False)
    yield (
        "byzantine_masking",
        byz.masking,
        byzantine.initial_states(),
        tuple(byz.faults.actions),
        False,
    )
    # S_3 quotient with unplanned lies plus faults, from the fault span
    # (starts in every orbit, many revisited)
    yield (
        "byzantine_masking_sym",
        byz.masking,
        [s for s in state_space(byz.masking.variables) if byz.span.fn(s)],
        tuple(byz.faults.actions),
        True,
    )
    # S_5 quotient, every action planned, a 7,558,272-code space: a
    # dense code -> id table
    ngs5 = (1, 2, 3, 4, 5)
    family5 = byzantine.build_family(ngs5)
    yield (
        "byzantine_family5_ib_sym",
        family5.ib,
        byzantine.initial_states(ngs5),
        tuple(family5.faults.actions),
        True,
    )
    # S_7 quotient, 15 of 44 actions unplanned lies, a 2,448,880,128-code
    # space: the sorted code -> id map, one column conversion of the
    # lies' successors per level, and their column canonicalization
    ngs7 = (1, 2, 3, 4, 5, 6, 7)
    family7 = byzantine.build_family(ngs7)
    yield (
        "byzantine_family7_masking_sym",
        family7.masking,
        byzantine.initial_states(ngs7),
        tuple(family7.faults.actions),
        True,
    )
    t = tmr.build()
    yield (
        "tmr",
        t.tmr,
        list(state_space(t.tmr.variables)),
        tuple(t.faults.actions),
        False,
    )
    mem = memory_access.build()
    yield (
        "memory_access",
        mem.p,
        list(state_space(mem.p.variables)),
        tuple(mem.fault_anytime.actions),
        False,
    )
    # an unplanned action declared before a planned one, whose statement
    # offers one successor twice: edges must keep declaration order,
    # statement order, and only the first of the repeated pair
    hop = Action("hop", TRUE, lambda s: (
        s.assign(x=(s["x"] + 1) % 20), s.assign(x=0),
        s.assign(x=(s["x"] + 1) % 20),
    ))
    yield (
        "hop_tick",
        Program(_counter_variables(), [hop, _tick()], name="hop_tick"),
        [State({"c": 0, "x": 0})],
        (),
        False,
    )


SCENARIOS = {name: rest for name, *rest in _scenarios()}


def _explored(name: str, backend: str, workers=None):
    program, starts, faults, symmetric = SCENARIOS[name]
    kernels.set_backend(backend)
    try:
        ts = TransitionSystem(
            program, starts, faults, symmetric=symmetric, workers=workers,
        )
    finally:
        kernels.set_backend("auto")
    # every engine leaves the dense-id rows SystemIndex and the store adopt
    assert ts._labeled_rows is not None
    return _graph(ts)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("backend", ["auto", "numpy"])
def test_kernel_backends_match_interpreted(name, backend):
    """Every compiled engine produces the interpreted engine's graph,
    bit for bit, on every bundled scenario."""
    assert _explored(name, backend) == _explored(name, "interpreted")


def test_unknown_backend_names_the_choices():
    with pytest.raises(ValueError, match="'auto', 'numpy', 'interpreted'"):
        kernels.set_backend("pure")
    assert kernels.get_backend() == "auto"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("workers", [1, 2, 8])
def test_sharded_graph_identical_for_any_worker_count(name, workers):
    """The fork-pool engine's merge is deterministic: on every bundled
    scenario, any worker count (including the degenerate 1) reproduces
    the in-process graph — with and without a symmetry quotient."""
    reference = _explored(name, "auto")
    assert _explored(name, "auto", workers=workers) == reference


def test_default_workers_applies_to_new_systems():
    program, starts, faults, _ = SCENARIOS["token_ring"]
    reference = _graph(TransitionSystem(program, starts, faults))
    set_default_workers(2)
    sharded = _graph(TransitionSystem(program, starts, faults))
    assert sharded == reference


# ---------------------------------------------------------------------------
# code-space census
# ---------------------------------------------------------------------------

def test_explore_codes_full_space_census():
    """The ``"all"`` selector synthesizes the whole code space as level
    zero: 4^5 = 1024 ring states, one level, and the program's exact
    edge count."""
    model = token_ring.build(5, 4)
    reach = explore_codes(model.ring, "all")
    assert (reach.states, reach.levels) == (4 ** 5, 1)
    ts = TransitionSystem(
        model.ring, list(state_space(model.ring.variables))
    )
    assert reach.edges == sum(
        len(ts.program_edges_from(s)) for s in ts.states
    )


def test_explore_codes_matches_state_explorer():
    """From the same starts and faults, the code-space census agrees
    with the State-object explorer on states and edges."""
    model = token_ring.build(5, 4)
    starts = [next(iter(state_space(model.ring.variables)))]
    faults = tuple(model.faults.actions)
    reach = explore_codes(model.ring, starts, faults)
    ts = TransitionSystem(model.ring, starts, faults)
    assert reach.states == len(ts.states)
    assert reach.edges == sum(
        len(ts.program_edges_from(s)) + len(ts.fault_edges_from(s))
        for s in ts.states
    )


def test_explore_codes_byzantine_family_census():
    """The k=3 agreement program from its initial states: 2·3^3 = 54
    protocol configurations (per general value, each non-general's
    (d, out) pair walks bottom-bottom, v-bottom, v-v)."""
    ngs = (1, 2, 3)
    model = byzantine.build_family(ngs)
    reach = explore_codes(model.ib, byzantine.initial_states(ngs))
    assert reach.states == 2 * 3 ** 3


def test_explore_codes_rejects_unknown_selector():
    model = token_ring.build(4)
    with pytest.raises(KernelError):
        explore_codes(model.ring, "everything")


def test_explore_codes_requires_plans():
    """No interpreted fallback: an unplanned action is a hard error,
    not a silent downgrade."""
    model = byzantine.build()  # BYZ lie actions are deliberately unplanned
    with pytest.raises(KernelError):
        explore_codes(model.masking, byzantine.initial_states())


# ---------------------------------------------------------------------------
# plan validation and cache hygiene
# ---------------------------------------------------------------------------

def test_malformed_plan_raises_kernel_error():
    """Plans validate their IR at construction — a typo'd op never
    reaches a kernel compiler."""
    with pytest.raises(KernelError):
        Plan(("no_such_op", "x0"), [("set_const", "x0", 0)])
    with pytest.raises(KernelError):
        Plan(("true",), [("no_such_effect", "x0", 0)])


def test_clear_all_caches_drains_kernel_memos():
    model = token_ring.build(4)
    schema = next(iter(state_space(model.ring.variables)))._schema
    layout = kernels.layout_for(schema, model.ring._domains)
    action = model.ring.actions[0]
    assert kernels.batch_kernel(action, layout) is not None
    assert kernels.code_kernel(action, layout) is not None
    assert kernels.row_kernel(action, schema, model.ring._domains) is not None
    assert len(kernels._BATCH_KERNELS) > 0
    assert len(kernels._CODE_KERNELS) > 0
    assert len(kernels._ROW_KERNELS) > 0
    clear_all_caches()
    assert len(kernels._BATCH_KERNELS) == 0
    assert len(kernels._CODE_KERNELS) == 0
    assert len(kernels._ROW_KERNELS) == 0
    assert len(kernels._LAYOUTS) == 0


# ---------------------------------------------------------------------------
# bulk interning
# ---------------------------------------------------------------------------

def test_interner_canonical_many_matches_scalar():
    states = list(state_space(token_ring.build(4).ring.variables))
    duplicated = states + [s.assign(**dict(s)) for s in states]
    one = StateInterner()
    many = StateInterner()
    scalar = [one.canonical(s) for s in duplicated]
    bulk = many.canonical_many(duplicated)
    assert [tuple(s.items()) for s in scalar] == [
        tuple(s.items()) for s in bulk
    ]
    assert len(one) == len(many) == len(states)
    # representatives are pointer-unique within each pool
    assert all(a is b for a, b in zip(bulk, many.canonical_many(duplicated)))


def test_canonicalizer_canonical_many_matches_scalar():
    model = token_ring.build(5, 4)
    states = list(state_space(model.ring.variables))
    scalar_c = model.ring.symmetry.canonicalizer(model.ring)
    bulk_c = model.ring.symmetry.canonicalizer(model.ring)
    scalar = [scalar_c.canonical(s) for s in states]
    bulk = bulk_c.canonical_many(states)
    assert [tuple(s.items()) for s in scalar] == [
        tuple(s.items()) for s in bulk
    ]
    assert len(scalar_c) == len(bulk_c)
    # a second bulk pass returns pooled representatives by identity
    assert all(a is b for a, b in zip(bulk, bulk_c.canonical_many(states)))


# ---------------------------------------------------------------------------
# columnar adoption
# ---------------------------------------------------------------------------

def test_columnar_engine_stashes_edge_arrays():
    """On an eligible scenario the all-array engine records the dense
    adjacency (``_edge_arrays``/``_labeled_rows``) that SystemIndex
    adopts instead of re-deriving ids from State-level edges."""
    from repro.core.regions import system_index

    model = token_ring.build(5, 4)
    kernels.set_backend("numpy")
    ts = TransitionSystem(
        model.ring,
        list(state_space(model.ring.variables)),
        tuple(model.faults.actions),
    )
    assert ts._edge_arrays is not None
    assert ts._labeled_rows is not None
    index = system_index(ts)
    assert index.n == len(ts.states)
    # the adopted CSR agrees with the State-level edge tables
    id_of = {s: i for i, s in enumerate(ts.states)}
    states = list(ts.states)
    for u, targets in enumerate(index.psucc):
        expected = list(dict.fromkeys(
            id_of[v] for _, v in ts.program_edges_from(states[u])
        ))
        assert list(targets) == expected


@pytest.mark.parametrize("name, columnar", [
    ("token_ring_sym", True),
    ("byzantine_family5_ib_sym", True),
    ("byzantine_masking_sym", True),
    ("byzantine_family7_masking_sym", True),
])
def test_quotients_take_the_array_engines(name, columnar):
    """Symmetric runs take the columnar engine under the same conditions
    as unreduced ones, with or without unplanned actions (the Byzantine
    lies) and with a dense or a sorted code -> id map."""
    program, starts, faults, symmetric = SCENARIOS[name]
    kernels.set_backend("numpy")
    ts = TransitionSystem(program, starts, faults, symmetric=symmetric)
    assert (ts._edge_arrays is not None) is columnar
    assert ts._labeled_rows is not None
    # representatives are pointer-unique: every edge target is the
    # registered state itself, whether the start pass or a code built it
    registered = {id(state) for state in ts.states}
    assert all(
        id(target) in registered
        for state in ts.states for _, target in ts.edges_from(state)
    )


def test_escaping_successor_restarts_interpreted(monkeypatch):
    """A successor the layout cannot hold abandons the array run: here an
    unplanned action writes ``x := 99`` outside ``x``'s domain, enabled
    only once the planned counter reaches level 3.  The registry resets
    and the interpreted engine rebuilds the oracle's graph."""
    spill = Action("spill", var_eq("c", 3), lambda s: s.assign(x=99))
    program = Program(_counter_variables(), [_tick(), spill], name="spill")
    assert program.state_count() > _SMALL_SPACE_STATES
    starts = [State({"c": 0, "x": 0})]
    kernels.set_backend("interpreted")
    reference = _graph(TransitionSystem(program, starts))
    resets = []
    register = TransitionSystem._register_starts
    monkeypatch.setattr(
        TransitionSystem, "_register_starts",
        lambda self: resets.append(len(self.states)) or register(self),
    )
    kernels.set_backend("numpy")
    ts = TransitionSystem(program, starts)
    assert ts._edge_arrays is None
    # registered once up front, then reset from the four states (c = 0..3)
    # the array run had registered when the spill escaped
    assert resets == [0, 4]
    assert _graph(ts) == reference
    assert State({"c": 3, "x": 99}) in ts.states


def test_interpreted_backend_never_calls_column_canonicalizers(monkeypatch):
    """The interpreted oracle canonicalizes state by state only."""
    from repro.core.symmetry import ReplicaSymmetry, RingRotation, ValueRotation

    def refuse(self, layout):
        raise AssertionError("column canonicalizer called")

    for cls in (ReplicaSymmetry, RingRotation, ValueRotation):
        monkeypatch.setattr(cls, "_compile_columns", refuse)
    for name, (_, _, _, symmetric) in sorted(SCENARIOS.items()):
        if symmetric:
            _explored(name, "interpreted")
