"""Kernel/interpreted parity and code-space census pins.

The exploration core runs the same BFS through two engines — the
interpreted oracle and the columnar array engine (compiled kernels for
planned actions, interpreted successors for the rest) — with one
contract: which engine ran must be unobservable from the finished
:class:`~repro.core.exploration.TransitionSystem`.  These tests pin
that contract over the bundled program families (programs *and* their
fault builders) and under symmetry quotients, by comparing full graph
fingerprints (state order, edge tuples, deadlocks, edge arrays) against
the interpreted reference; systems loaded or reassembled from the
certificate store must match a fresh exploration the same way.

:func:`~repro.core.kernels.explore_codes` has no interpreted twin (it
exists for spaces where ``State`` objects are not an option), so it is
pinned two ways: exact closed-form census counts, and agreement with
the State-object explorer on instances small enough to run both.
"""

from __future__ import annotations

import itertools
import sys
import threading

import numpy as np
import pytest

from repro.core import kernels
from repro.core.action import Action
from repro.core.exploration import (
    _SMALL_SPACE_STATES,
    TransitionSystem,
    clear_all_caches,
    clear_system_cache,
    explored_system,
)
from repro.core.kernels import KernelError, Plan, explore_codes
from repro.core.predicate import TRUE, var_eq
from repro.core.program import Program
from repro.core.state import (
    Schema, State, StateInterner, Variable, state_space,
)
from repro.core.symmetry import ValueRotation
from repro.programs import (
    byzantine, memory_access, tmr, token_ring, tree_maintenance,
)
from repro.store import backend as store_backend
from repro.store.backend import MemoryStore


@pytest.fixture(autouse=True)
def _restore_kernel_globals():
    yield
    kernels.set_backend("auto")
    clear_all_caches()


def _graph(ts: TransitionSystem):
    """Full fingerprint: state discovery order, per-state edge tuples
    (program and fault), deadlocks, and the edge arrays with the action
    names they index.  Two systems with equal fingerprints are
    indistinguishable to every checker."""
    states = tuple(ts.states)
    program_ids, fault_ids, names_p, names_f = ts._edge_arrays
    return (
        states,
        tuple(tuple(ts.program_edges_from(s)) for s in states),
        tuple(tuple(ts.fault_edges_from(s)) for s in states),
        tuple(ts.deadlock_states()),
        tuple(part.tolist() for part in program_ids + fault_ids),
        (tuple(names_p), tuple(names_f)),
    )


def _counter_variables():
    """A 160-state space: above the interpreted engine's tiny-space limit."""
    return [Variable("c", range(8)), Variable("x", range(20))]


def _tick():
    """The planned action ``c != 7 --> c := c + 1``."""
    return Action(
        "tick", plan=Plan(("ne_const", "c", 7), [("inc_mod", "c", "c", 8)])
    )


def _lambda_lies(program):
    """``program`` with every ``set_any`` action written as the lambda
    statement it replaced (same name, guard and frame), so the array
    engine runs it through its unplanned path."""
    actions = []
    for action in program.actions:
        op, target, *values = action.plan.effects[0]
        if op == "set_any":
            action = Action(
                action.name, action.guard,
                lambda s, target=target, values=values[0]:
                s.assign_each(target, values),
                reads=action.reads, writes=action.writes,
            )
        actions.append(action)
    return Program(
        program.variables, actions, name=f"{program.name} (lambda lies)",
        symmetry=program.symmetry,
    )


def _flip_program():
    """A 160-state counter under the Z_2 rotation of ``c``: ``flip``
    steps ``x`` and sets ``c`` to either value, so on the quotient both
    of its successors fall into one orbit."""
    flip = Action("flip", plan=Plan(
        ("ne_const", "x", 79),
        [("set_any", "c", (1, 0)), ("inc_mod", "x", "x", 80)],
    ))
    hold = Action("hold", plan=Plan(
        ("eq_const", "x", 79), [("set_const", "x", 0)],
    ))
    return Program(
        [Variable("c", (0, 1)), Variable("x", range(80))], [flip, hold],
        name="flip", symmetry=ValueRotation(("c",), 2),
    )


def _scenarios():
    """(name, program, starts, faults, symmetric) over the bundled
    families plus synthetic edge-order cases: planned actions (the
    Byzantine lies among them, as ``set_any`` choices), unplanned
    actions, fault builders, symmetry quotients, and dense and sorted
    code -> id maps are all represented."""
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
    # S_3 quotient with the lies plus faults, from the fault span
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
    # S_7 quotient, 15 of 44 actions set_any lies, a 2,448,880,128-code
    # space: the sorted code -> id map and one canonicalization of every
    # kernel's successors per level
    ngs7 = (1, 2, 3, 4, 5, 6, 7)
    family7 = byzantine.build_family(ngs7)
    yield (
        "byzantine_family7_masking_sym",
        family7.masking,
        byzantine.initial_states(ngs7),
        tuple(family7.faults.actions),
        True,
    )
    # the same quotient with the lies left as lambda statements: one
    # column conversion of their successors per level, their column
    # canonicalization, and the dedup of the orbits they repeat
    yield (
        "byzantine_family7_lambda_lies_sym",
        _lambda_lies(family7.masking),
        byzantine.initial_states(ngs7),
        tuple(family7.faults.actions),
        True,
    )
    # a planned choice whose two values share an orbit: the quotient
    # keeps the first edge of the pair
    yield ("flip_sym", _flip_program(), [State(c=0, x=0)], (), True)
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


def _explored(name: str, backend: str):
    program, starts, faults, symmetric = SCENARIOS[name]
    kernels.set_backend(backend)
    try:
        ts = TransitionSystem(program, starts, faults, symmetric=symmetric)
    finally:
        kernels.set_backend("auto")
    # every engine leaves the edge arrays SystemIndex and the store read
    assert ts._edge_arrays is not None
    return _graph(ts)


#: ``STACK_ROWS`` settings the parity tests run under: never stack
#: (every member group holds one member), the default, and always stack
#: (one group per family at every level size)
STACKINGS = (1, kernels.STACK_ROWS, 1 << 30)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("backend", ["auto"])
def test_kernel_backends_match_interpreted(name, backend, monkeypatch):
    """The compiled engine produces the interpreted engine's graph, bit
    for bit, on every bundled scenario, whether its action families
    expand member by member, stacked at the default size, or always
    stacked."""
    reference = _explored(name, "interpreted")
    for rows in STACKINGS:
        monkeypatch.setattr(kernels, "STACK_ROWS", rows)
        assert _explored(name, backend) == reference, rows


def test_unknown_backend_names_the_choices():
    with pytest.raises(ValueError, match="'auto', 'interpreted'"):
        kernels.set_backend("numpy")
    assert kernels.get_backend() == "auto"


@pytest.fixture
def memory_store():
    """An active in-memory certificate store, deactivated afterwards."""
    store = store_backend.set_active_store(MemoryStore())
    store_backend.reset_stats()
    yield store
    store_backend.set_active_store(None)
    store_backend.reset_stats()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_graph_artifact_loads_the_explored_graph(name, memory_store):
    """A system loaded from its whole-graph artifact has the fingerprint
    of a fresh exploration, on every scenario (quotients included)."""
    program, starts, faults, symmetric = SCENARIOS[name]
    fresh = _graph(
        TransitionSystem(program, starts, faults, symmetric=symmetric)
    )
    explored_system(program, starts, faults, symmetric=symmetric)
    clear_system_cache()
    store_backend.reset_stats()
    loaded = explored_system(program, starts, faults, symmetric=symmetric)
    assert store_backend.stats().get("graph_hits") == 1
    assert _graph(loaded) == fresh


def test_one_action_edit_reassembles_the_explored_graph(memory_store):
    """A closed system's per-action row artifacts reassemble the graph
    of a one-action edit (the edited action's rows are the only ones
    computed), with the fingerprint of a fresh exploration of the
    edited program."""
    program, starts, faults, _ = SCENARIOS["token_ring"]
    actions = list(program.actions)
    actions[1] = actions[1].restrict(var_eq("x0", 0))
    edited = Program(program.variables, actions, name=program.name)
    fresh = _graph(TransitionSystem(edited, starts, faults))
    explored_system(program, starts, faults)
    store_backend.reset_stats()
    reassembled = explored_system(edited, starts, faults)
    stats = store_backend.stats()
    assert stats.get("graph_reassembled") == 1
    assert stats.get("rows_computed") == 1
    assert _graph(reassembled) == fresh


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


@pytest.mark.parametrize("ngs", [(1, 2, 3), (1, 2, 3, 4, 5)])
def test_explore_codes_runs_the_lies(ngs):
    """With the lies planned, the masking program and its faults census
    in code space: the State-object explorer's states and edges."""
    model = byzantine.build_family(ngs)
    starts = byzantine.initial_states(ngs)
    faults = tuple(model.faults.actions)
    reach = explore_codes(model.masking, starts, faults)
    ts = TransitionSystem(model.masking, starts, faults)
    assert reach.states == len(ts.states)
    assert reach.edges == sum(
        len(ts.program_edges_from(s)) + len(ts.fault_edges_from(s))
        for s in ts.states
    )


def test_explore_codes_requires_plans():
    """No interpreted fallback: an unplanned action is a hard error,
    not a silent downgrade."""
    model = tree_maintenance.build()  # fix{i}: a lambda guard and statement
    starts = [next(iter(state_space(model.program.variables)))]
    with pytest.raises(KernelError, match="'fix1'"):
        explore_codes(model.program, starts)


def test_explore_codes_cap_counts_the_start_set():
    """1,024 start codes exceed a cap of 100 even though the census
    finds nothing beyond them — on a whole census and on a shard."""
    model = token_ring.build(5, 4)
    with pytest.raises(RuntimeError, match="max_states=100"):
        explore_codes(model.ring, "all", max_states=100)
    with pytest.raises(RuntimeError, match="max_states=100"):
        kernels.explore_code_shard(model.ring, range(1024), max_states=100)


def test_explore_codes_cap_refuses_an_all_space_before_allocating():
    """The k = 11 Byzantine space holds far more codes than memory: the
    cap refuses it instead of allocating ``0..space-1``."""
    model = byzantine.build_family(tuple(range(1, 12)))
    with pytest.raises(RuntimeError, match="max_states=1000"):
        explore_codes(model.ib, "all", max_states=1000)


def _census_cases():
    ring = token_ring.build(5, 4)
    ngs = (1, 2, 3)
    family = byzantine.build_family(ngs)
    return {
        "ring_all": (ring.ring, "all", ()),
        "ring_faults": (
            ring.ring, [next(iter(state_space(ring.ring.variables)))],
            tuple(ring.faults.actions),
        ),
        "byzantine_lies": (
            family.masking, byzantine.initial_states(ngs),
            tuple(family.faults.actions),
        ),
        "pick": (
            Program(_PICK_VARIABLES, [_pick()], name="pick"),
            [State(x=3, y=0), State(x=0, y=20)], (),
        ),
    }


@pytest.mark.parametrize(
    "case", ["ring_all", "ring_faults", "byzantine_lies", "pick"]
)
def test_census_agrees_over_dedup_paths_and_chunks(case, monkeypatch):
    """The byte bitmap and the sorted anti-join, with one frontier chunk
    or many, expanded on one, two or three worker threads, by families
    never, sometimes or always stacked, give the same states, levels,
    edges and reachable codes; so does the union of three shards."""
    program, starts, faults = _census_cases()[case]
    default_limit = kernels._BITMAP_SPACE_LIMIT
    default_chunk = kernels._FRONTIER_CHUNK
    start_codes = kernels.census_start_codes(program, starts)[1]
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
    try:
        for limit, chunk, workers, rows in itertools.product(
            (default_limit, 0), (default_chunk, 7), (1, 2, 3), STACKINGS
        ):
            monkeypatch.setattr(kernels, "STACK_ROWS", rows)
            monkeypatch.setattr(kernels, "_BITMAP_SPACE_LIMIT", limit)
            monkeypatch.setattr(kernels, "_FRONTIER_CHUNK", chunk)
            monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
            reach = explore_codes(program, starts, faults, collect_codes=True)
            results.append(
                (reach.states, reach.levels, reach.edges,
                 reach.codes.tolist())
            )
            thirds = np.linspace(0, len(start_codes), 4).astype(int)
            merged = kernels.merge_code_reaches(
                kernels.explore_code_shard(program, start_codes[lo:hi], faults)
                for lo, hi in zip(thirds[:-1], thirds[1:])
            )
            assert merged.states == reach.states
            assert merged.codes.tolist() == reach.codes.tolist()
    finally:
        sys.setswitchinterval(interval)
    assert all(result == results[0] for result in results)


def test_one_shard_merge_returns_its_codes_as_they_are():
    """A shard's codes are sorted and distinct, so merging one shard
    returns them as they are, with its own counts; merging one shard per
    start code gives the same census."""
    program, starts, faults = _census_cases()["byzantine_lies"]
    start_codes = kernels.census_start_codes(program, starts)[1]
    whole = kernels.explore_code_shard(program, start_codes, faults)
    merged = kernels.merge_code_reaches([whole])
    assert merged.codes is whole.codes
    assert (merged.states, merged.levels, merged.edges) == (
        whole.states, whole.levels, whole.edges
    )
    split = kernels.merge_code_reaches(
        kernels.explore_code_shard(program, start_codes[i:i + 1], faults)
        for i in range(len(start_codes))
    )
    assert len(start_codes) > 1
    assert split.states == merged.states
    assert split.codes.tolist() == merged.codes.tolist()


def test_census_threads_end_with_the_call(monkeypatch):
    """A kernel that raises in a worker thread raises the same exception
    from ``explore_codes``; no worker thread outlives a call, failed or
    not; and a census whose levels each fit one chunk starts none."""
    model = token_ring.build(5, 4)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(kernels, "_FRONTIER_CHUNK", 7)
    # a set, not ``active_count()``: a thread another test left behind
    # may end meanwhile
    before = set(threading.enumerate())
    boom = RuntimeError("kernel failed in a worker")
    expand = kernels._Family.expand

    def failing_expand(family, codes, cols, memo=None):
        if threading.current_thread() is not threading.main_thread():
            raise boom
        return expand(family, codes, cols, memo)

    with monkeypatch.context() as patch:
        patch.setattr(kernels._Family, "expand", failing_expand)
        with pytest.raises(RuntimeError) as raised:
            explore_codes(model.ring, "all")
    assert raised.value is boom
    assert set(threading.enumerate()) <= before

    reach = explore_codes(model.ring, "all")
    assert (reach.states, reach.levels) == (4 ** 5, 1)
    assert set(threading.enumerate()) <= before

    started = []
    start_thread = threading.Thread.start

    def counting_start(thread):
        if threading.current_thread() is threading.main_thread():
            started.append(thread)
        start_thread(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    explore_codes(model.ring, "all")  # 1,024 codes: many chunks of 7
    assert started
    started.clear()
    monkeypatch.setattr(kernels, "_FRONTIER_CHUNK", 1 << 15)
    ngs = (1, 2, 3)
    family = byzantine.build_family(ngs)
    reach = explore_codes(
        family.masking, byzantine.initial_states(ngs),
        tuple(family.faults.actions),
    )
    assert reach.levels > 1 and not started


@pytest.mark.parametrize("sizes", [
    (2, 3, 7, 40),
    (5,),
    (7, 40, 3) + (2,) * 52,  # 840 * 2^52: within a factor 2 of 2^62
])
def test_columns_from_codes_round_trips(sizes):
    """Unpacking random codes (and the extreme ones) to rank columns
    inverts :meth:`Layout.pack_columns`, and column j holds the rank of
    variable j's value in :meth:`Layout.unpack`."""
    domains = {
        f"v{i:02d}": tuple(range(size))[::-1]  # a rank is not its value
        for i, size in enumerate(sizes)
    }
    layout = kernels.layout_for(Schema.of(tuple(domains)), domains)
    assert layout is not None  # packs into 62-bit codes
    codes = np.concatenate((
        np.array([0, layout.space - 1], dtype=np.int64),
        np.random.default_rng(0).integers(0, layout.space, 300),
    ))
    cols = layout.columns_from_codes(codes)
    assert layout.pack_columns(cols).tolist() == codes.tolist()
    want = [
        [layout.ranks[j][value] for j, value in enumerate(layout.unpack(c))]
        for c in codes.tolist()
    ]
    assert cols.T.tolist() == want


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


@pytest.mark.parametrize("effects", [
    [("set_const", "x", 1), ("set_const", "x", 2)],
    [("set_any", "x", (0, 1)), ("copy", "x", "y")],
    [("inc_mod", "x", "y", 4), ("set_any", "x", (2,))],
])
def test_plan_assigning_a_variable_twice_is_refused(effects):
    """``x := 1; x := 2`` has no atomic meaning (the code kernel used to
    add both deltas and reach x = 3): refused, naming the variable."""
    with pytest.raises(KernelError, match="'x' twice"):
        Plan(("true",), effects)


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
# set_any: nondeterministic choice
# ---------------------------------------------------------------------------

_PICK_VARIABLES = [Variable("x", range(4)), Variable("y", range(40))]


def _pick():
    """``y != 39 --> x := any of (2, 0, 1); y := y + 1``."""
    return Action("pick", plan=Plan(
        ("ne_const", "y", 39),
        [("set_any", "x", (2, 0, 1)), ("inc_mod", "y", "y", 40)],
    ))


def _assert_evaluators_agree(action, variables):
    """The batch and code kernels give every state of ``variables`` the
    interpreted successors of ``action``, in order; returns them as
    (source index, code) pairs."""
    states = list(state_space(variables))
    layout = kernels.layout_for(
        states[0].schema, {v.name: tuple(v.domain) for v in variables}
    )
    cols = layout.columns_from_states(states)
    idx, out = kernels.batch_kernel(action, layout)(cols, {})
    code_idx, codes = kernels.code_kernel(action, layout)(
        layout.pack_columns(cols), cols, {}
    )
    interpreted = [
        (i, layout.pack_values(t.values_tuple))
        for i, s in enumerate(states) for t in action.successors(s)
    ]
    assert list(zip(idx.tolist(), layout.pack_columns(out).tolist())) \
        == interpreted
    assert list(zip(code_idx.tolist(), codes.tolist())) == interpreted
    return interpreted


def test_set_any_successors_follow_the_values_order():
    """One successor per value, in ``values`` order, each with the
    plan's other effects — the current value included, as a
    self-loop on ``x`` — on every evaluator."""
    action = _pick()
    state = State(x=0, y=5)
    want = tuple(State(x=v, y=6) for v in (2, 0, 1))
    assert action.successors(state) == want
    assert action.successors(State(x=0, y=39)) == ()
    domains = {v.name: tuple(v.domain) for v in _PICK_VARIABLES}
    row = kernels.row_kernel(action, state.schema, domains)
    assert row(state.values_tuple) == tuple(s.values_tuple for s in want)
    assert row(State(x=0, y=39).values_tuple) == ()
    assert len(_assert_evaluators_agree(action, _PICK_VARIABLES)) \
        == 3 * 4 * 39


@pytest.mark.parametrize("effects, match", [
    ([("set_any", "x", ())], "needs values"),
    ([("set_any", "x", (1, 0, 1))], "repeats a value"),
    ([("set_any", "x", (0, 1)), ("set_any", "y", (0, 1))], "at most one"),
])
def test_malformed_set_any_is_refused(effects, match):
    with pytest.raises(KernelError, match=match):
        Plan(("true",), effects)


def test_set_any_outside_the_domain_does_not_compile():
    """A value the domain lacks has no rank: no kernel, and the
    code-space census refuses the action."""
    action = Action("wild", plan=Plan(
        ("true",), [("set_any", "x", (0, 7))]
    ))
    program = Program(_PICK_VARIABLES, [action], name="wild")
    schema = Schema.of(("x", "y"))
    domains = program._domains
    layout = kernels.layout_for(schema, domains)
    assert kernels.row_kernel(action, schema, domains) is None
    assert kernels.batch_kernel(action, layout) is None
    assert kernels.code_kernel(action, layout) is None
    with pytest.raises(KernelError, match="'wild'"):
        explore_codes(program, [State(x=0, y=0)])


def test_set_any_values_in_one_orbit_keep_the_first_edge():
    """On the Z_2 quotient both ``flip`` successors are one orbit: the
    quotient records one flip edge per state (the scenario's parity
    with the oracle is pinned above), and before canonicalization the
    batch, code and interpreted evaluations agree edge for edge."""
    program = _flip_program()
    states, program_edges = _explored("flip_sym", "auto")[:2]
    assert len(states) == 80
    for edges in program_edges:
        assert [a for a, _ in edges] in (["flip"], ["hold"])
    _assert_evaluators_agree(program.actions[0], program.variables)


@pytest.mark.parametrize("ngs, symmetric", [
    ((1, 2, 3), False), ((1, 2, 3), True), ((1, 2, 3, 4, 5, 6, 7), True),
])
def test_planned_lies_match_lambda_lies(ngs, symmetric):
    """A ``set_any`` lie and the ``assign_each`` statement it replaced
    give one graph: states, order and labelled edges."""
    model = byzantine.build_family(ngs)
    starts = byzantine.initial_states(ngs)
    faults = tuple(model.faults.actions)
    graphs = [
        _graph(TransitionSystem(p, starts, faults, symmetric=symmetric))
        for p in (model.masking, _lambda_lies(model.masking))
    ]
    assert graphs[0] == graphs[1]


def test_no_bundled_symmetric_program_mixes_plans_and_lambdas():
    """With the lies planned, every bundled symmetric program (faults
    included) is fully planned — or, like TMR/NMR's count guards, not
    planned at all, which the array engine declines — so the quotient
    engine's unplanned path is reached only through the test-local
    lambda-lie scenario above."""
    from repro.analysis import all_lint_targets

    systems = [
        (t.program, t.faults.actions if t.faults is not None else ())
        for t in all_lint_targets()
    ]
    family = byzantine.build_family((1, 2, 3, 4, 5))
    systems += [
        (program, family.faults.actions)
        for program in (family.ib, family.ib_with_byz, family.failsafe,
                        family.masking)
    ]
    symmetric = 0
    for program, faults in systems:
        if program.symmetry is None:
            continue
        symmetric += 1
        actions = list(program.actions) + list(faults)
        assert len({a.plan is None for a in actions}) == 1, program.name
    assert symmetric >= 9


# ---------------------------------------------------------------------------
# the per-level memo of shared guard terms
# ---------------------------------------------------------------------------

def test_shared_guard_terms_are_never_written_in_place():
    """Guards evaluated over one matrix with one memo, the first
    conjunct of two of them a shared term: every mask matches the row
    evaluator, the memoized columns still hold the terms' own values,
    and majorities over different copies are different terms."""
    from repro.core import BOTTOM

    copies = ("d1", "d2", "d3")
    variables = [Variable(n, (BOTTOM, 0, 1)) for n in copies]
    variables.append(Variable("o", (BOTTOM, 0, 1)))
    present = ("all_ne_const", copies, BOTTOM)
    guards = (
        ("and", present, ("eq_const", "o", BOTTOM)),
        ("and", present, ("ne_majority", "d1", copies, 3),
         ("ne_const", "o", 1)),
        ("eq_majority", "d1", ("d2", "d3", "o"), 3),
        present,
    )
    states = list(state_space(variables))
    schema = states[0].schema
    layout = kernels.layout_for(
        schema, {v.name: tuple(v.domain) for v in variables}
    )
    cols = layout.columns_from_states(states)
    memo = {}
    masks = [
        kernels.column_guard(expr, layout)(cols, memo).tolist()
        for expr in guards
    ]
    assert present in memo and len(memo) == 3  # all_ne, two majorities
    for expr, mask in zip(guards, masks):
        row = kernels.row_guard(expr, schema.index)
        assert mask == [bool(row(s.values_tuple)) for s in states], expr
    assert memo[present].tolist() == masks[-1]
    assert sum(masks[0]) and sum(masks[1])
    assert masks[0] != masks[-1] and masks[1] != masks[-1]


# ---------------------------------------------------------------------------
# action families
# ---------------------------------------------------------------------------

def _families(program, actions):
    schema = next(iter(state_space(program.variables)))._schema
    return kernels.action_families(
        actions, kernels.layout_for(schema, program._domains)
    )


def test_families_group_the_process_copies():
    """The k = 13 masking program groups into its process templates —
    the general's lie alone, IB1, IB2 and CB1 of each non-general, and
    both lies of every non-general — and its fault latches into one
    family; the 6/5 ring's 30 perturbations group by value, its moves
    into the root's and the others'.  Members keep declaration order."""
    model = byzantine.build_family(tuple(range(1, 14)))
    for actions, sizes in (
        (model.masking.actions, [1, 13, 13, 13, 26]),
        (model.faults.actions, [14]),
    ):
        families, unplanned = _families(model.masking, actions)
        assert sorted(f.size for f in families) == sizes
        assert not unplanned
        for family in families:
            positions = family.positions.tolist()
            assert positions == sorted(positions)
    ring = token_ring.build(6, 5)
    families, unplanned = _families(ring.ring, ring.faults.actions)
    assert [f.size for f in families] == [6] * 5 and not unplanned
    for family in families:
        assert len({
            ring.faults.actions[p].plan.effects[0][2]
            for p in family.positions.tolist()
        }) == 1
    families, _ = _families(ring.ring, ring.ring.actions)
    assert sorted(f.size for f in families) == [1, 5]


def test_plans_over_different_domains_are_not_grouped():
    """Equal after renaming is not enough: ``x := 0`` over a 3-value and
    over a 4-value domain are two families, and ``x := 1`` is a third;
    the same plan over equal domains is one family."""
    variables = [
        Variable("a", range(3)), Variable("b", range(4)),
        Variable("c", range(3)),
    ]

    def assign(name, value):
        return Action(f"{name}:={value}", plan=Plan(
            ("ne_const", name, value), [("set_const", name, value)]
        ))

    actions = [assign("a", 0), assign("b", 0), assign("c", 0), assign("c", 1)]
    program = Program(variables, actions, name="domains")
    families, unplanned = _families(program, actions)
    assert sorted(f.positions.tolist() for f in families) == [[0, 2], [1], [3]]
    assert not unplanned


def _process_copies():
    """Three copies of one process next to a shared counter ``w``.  Their
    guards repeat memoized terms over per-member names (an
    ``all_ne_const``, a ``count``, a majority), each led by a term over
    ``w`` alone, as is a disjunction; a singleton repeats copy 0's
    ``all_ne_const`` over its real names; and some guards compile to
    constants (a count over no terms, and ``¬true``)."""
    variables = [Variable("w", range(3))]
    actions = [Action("tick", plan=Plan(("true",), [("inc_mod", "w", "w", 3)]))]
    for i in range(3):
        x, y, z = f"x{i}", f"y{i}", f"z{i}"
        variables += [
            Variable(x, range(3)), Variable(y, range(3)), Variable(z, (0, 1)),
        ]
        present = ("all_ne_const", ("w", x, y), 0)
        ones = ("count", (("eq_const", "w", 1), ("eq_const", x, 1),
                          ("eq_const", y, 1)), ">=", 2)
        actions += [
            Action(f"step{i}", plan=Plan(
                ("and", present, ones), [("inc_mod", x, y, 3)],
            )),
            Action(f"vote{i}", plan=Plan(
                ("and", ("ne_const", "w", 0), ("ne_const", "w", 2), present,
                 ("ne_majority", z, ("w", x, y), 3)),
                [("set_majority", z, ("w", x, y), 3)],
            )),
            Action(f"reset{i}", plan=Plan(
                ("or", ("count", (), ">", 0), ("eq_const", "w", 2),
                 ("not", ones)),
                [("set_any", y, (0, 1, 2))],
            )),
            Action(f"idle{i}", plan=Plan(
                ("not", ("true",)), [("set_const", z, 0)],
            )),
        ]
    actions.append(Action("peek", plan=Plan(
        ("all_ne_const", ("w", "x0", "y0"), 0), [("set_const", "z0", 1)],
    )))
    return Program(variables, actions, name="copies")


@pytest.mark.parametrize("everywhere", [False, True])
def test_stacked_guard_terms_never_cross_members(everywhere, monkeypatch):
    """A memoized term over per-member names is a different block for
    every member group, and never the singleton's term over real names:
    from one state (small levels) and from every state (one large
    level), at every stacking, the columnar graph is the interpreted
    one and the census counts its states and edges."""
    program = _process_copies()
    families, _ = _families(program, program.actions)
    assert sorted(f.size for f in families) == [1, 1, 3, 3, 3, 3]
    space = list(state_space(program.variables))
    starts = space if everywhere else space[:1]
    kernels.set_backend("interpreted")
    reference = _graph(TransitionSystem(program, starts))
    kernels.set_backend("auto")
    for rows in STACKINGS:
        monkeypatch.setattr(kernels, "STACK_ROWS", rows)
        ts = TransitionSystem(program, starts)
        assert ts._state_cols is not None
        assert _graph(ts) == reference, rows
        reach = explore_codes(program, starts)
        assert reach.states == len(ts.states)
        assert reach.edges == sum(
            len(ts.program_edges_from(s)) for s in ts.states
        )


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
    """On an eligible scenario the all-array engine records the edge
    arrays (``_edge_arrays``) that SystemIndex reads instead of
    re-deriving ids from State-level edges."""
    from repro.core.regions import system_index

    model = token_ring.build(5, 4)
    kernels.set_backend("auto")
    ts = TransitionSystem(
        model.ring,
        list(state_space(model.ring.variables)),
        tuple(model.faults.actions),
    )
    assert ts._edge_arrays is not None
    index = system_index(ts)
    assert index.n == len(ts.states)
    # the adopted CSR agrees with the State-level edge tables
    id_of = {s: i for i, s in enumerate(ts.states)}
    states = list(ts.states)
    indptr, _, dst, _, _ = index._edge_csr(False)
    for u in range(index.n):
        targets = dict.fromkeys(dst[indptr[u]:indptr[u + 1]].tolist())
        expected = dict.fromkeys(
            id_of[v] for _, v in ts.program_edges_from(states[u])
        )
        assert list(targets) == list(expected)


@pytest.mark.parametrize("name, columnar", [
    ("token_ring_sym", True),
    ("byzantine_family5_ib_sym", True),
    ("byzantine_masking_sym", True),
    ("byzantine_family7_masking_sym", True),
    ("byzantine_family7_lambda_lies_sym", True),
    ("flip_sym", True),
])
def test_quotients_take_the_array_engines(name, columnar):
    """Symmetric runs take the columnar engine under the same conditions
    as unreduced ones, with or without unplanned actions (the lambda
    lies) and with a dense or a sorted code -> id map."""
    program, starts, faults, symmetric = SCENARIOS[name]
    kernels.set_backend("auto")
    ts = TransitionSystem(program, starts, faults, symmetric=symmetric)
    assert (ts._state_cols is not None) is columnar
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
    kernels.set_backend("auto")
    ts = TransitionSystem(program, starts)
    assert ts._state_cols is None
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
