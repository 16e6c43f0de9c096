"""Graph artifacts: serialize, reconstruct, and reassemble explored systems.

Two artifact shapes cover the exploration layer:

- a **whole-graph artifact** (``kind="system"``): the BFS-ordered state
  table plus the per-state ``(action, target id)`` adjacency rows — the
  exact ``_labeled_rows`` form every engine produces and
  :class:`~repro.core.regions.SystemIndex` adopts.  Loading one rebuilds
  a :class:`~repro.core.exploration.TransitionSystem` by direct
  construction (``__new__`` + interned states), *never* re-exploring;
  State-level edge tuples stay unmaterialized until a consumer actually
  asks for them (the lazy path shared with the columnar engine).

- **per-action row artifacts** (``kind="actrows"``): the id rows of one
  action over one state table, keyed by (variables, state-table digest,
  action fingerprint) — deliberately *not* by program, so two programs
  differing in a single action share every other action's rows.  When a
  previously certified program is edited, :func:`assemble_system`
  restitches the full graph from row artifacts: unchanged actions hit
  the store, only the edited action's successors are recomputed (a flat
  sweep over the state table — no BFS), and the result is bit-identical
  to a fresh exploration.

Row artifacts exist exactly for *closed* systems (every successor lands
inside the start set), which is also what makes reassembly sound: for a
closed start set the reachable states are the start states themselves in
start order, independent of the action set.  A successor escaping the
table aborts both recording and reassembly, falling back to real
exploration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import backend as _backend
from . import keys as _keys

__all__ = [
    "system_key",
    "save_system_artifacts",
    "load_or_assemble_system",
    "action_rows",
    "ROWS_STATE_LIMIT",
]

#: largest state table the row-artifact machinery will sweep; larger
#: systems go through (and are served by) whole-graph artifacts only
ROWS_STATE_LIMIT = 200_000

_EMPTY: Tuple = ()


def system_key(program, starts_digest: str, fault_actions, max_states: int,
               symmetric: bool) -> str:
    return _keys.digest("system", (
        _keys.program_material(program),
        starts_digest,
        _keys.faults_material(fault_actions),
        max_states,
        bool(symmetric),
    ))


def _action_rows_key(vars_material, starts_digest: str, action) -> str:
    return _keys.digest(
        "actrows",
        (vars_material, starts_digest, _keys.action_material(action)),
    )


def _vars_material(program):
    return tuple(
        _keys._variable_material(v) for v in program.variables
    )


# -- whole-graph payloads ------------------------------------------------------

def _encode_system(ts) -> bytes:
    prows, frows, _ = ts._labeled_rows
    schemas: List[Tuple[str, ...]] = []
    schema_idx: Dict[object, int] = {}
    states_out = []
    for state in ts.states:
        schema = state.schema
        idx = schema_idx.get(schema)
        if idx is None:
            idx = len(schemas)
            schema_idx[schema] = idx
            schemas.append(schema.names)
        states_out.append((idx, state.values_tuple))
    names: List[str] = []
    name_idx: Dict[str, int] = {}

    def encode_rows(rows):
        out = []
        for row in rows:
            encoded = []
            for name, target in row:
                idx = name_idx.get(name)
                if idx is None:
                    idx = len(names)
                    name_idx[name] = idx
                    names.append(name)
                encoded.append((idx, target))
            out.append(tuple(encoded))
        return out

    payload = {
        "v": 1,
        "schemas": schemas,
        "states": states_out,
        "n_starts": len(ts.start_states),
        "names": None,  # filled after encode_rows populates the table
        "prows": encode_rows(prows),
        "frows": encode_rows(frows),
    }
    payload["names"] = names
    return _backend.dumps(payload)


def _blank_system(program, fault_actions, symmetric: bool):
    from ..core.exploration import TransitionSystem

    ts = TransitionSystem.__new__(TransitionSystem)
    ts.program = program
    ts.symmetry = program.symmetry if symmetric else None
    ts.fault_actions = tuple(fault_actions)
    ts.fault_action_names = frozenset(a.name for a in ts.fault_actions)
    ts._program_edges = {}
    ts._fault_edges = {}
    ts._satisfying = {}
    ts._labeled_rows = None
    ts._edge_arrays = None
    ts._edges_lazy = False
    ts._state_cols = None
    return ts


def _decode_system(payload: bytes, program, fault_actions, symmetric: bool):
    from ..core.state import Schema, _state_of

    data = _backend.loads(payload)
    if data.get("v") != 1:
        return None
    schemas = [Schema.of(names) for names in data["schemas"]]
    states = [
        _state_of(schemas[idx], values) for idx, values in data["states"]
    ]
    names = data["names"]
    prows = [
        tuple((names[ni], target) for ni, target in row)
        for row in data["prows"]
    ]
    frows = [
        tuple((names[ni], target) for ni, target in row)
        for row in data["frows"]
    ]
    ts = _blank_system(program, fault_actions, symmetric)
    ts.start_states = tuple(states[: data["n_starts"]])
    program_edges = ts._program_edges
    for state in states:
        program_edges[state] = _EMPTY
    ts._labeled_rows = (prows, frows, {s: i for i, s in enumerate(states)})
    ts._edges_lazy = True
    return ts


# -- per-action rows -----------------------------------------------------------

def _compute_action_rows(action, states: Sequence, id_of: Dict
                         ) -> Optional[List[Tuple[int, ...]]]:
    """Id rows of one action over a closed state table, or ``None`` the
    moment any successor escapes it."""
    rows: List[Tuple[int, ...]] = []
    successors = action.successors
    lookup = id_of.get
    for state in states:
        targets = successors(state)
        ids = []
        for target in targets:
            j = lookup(target)
            if j is None:
                return None
            ids.append(j)
        if len(ids) > 1:
            # nondeterministic statements may offer a successor twice;
            # mirror the engines' per-action dedup exactly
            ids = list(dict.fromkeys(ids))
        rows.append(tuple(ids))
    return rows


def action_rows(store, program, states: Sequence, starts_digest: str, action,
                ) -> Optional[List[Tuple[int, ...]]]:
    """Get-or-compute the id rows of ``action`` over ``states``.

    A stored artifact doubles as a *closure certificate*: it exists only
    if every successor of every table state lands back in the table.
    Returns ``None`` when the action escapes (and records nothing).
    """
    key = _action_rows_key(_vars_material(program), starts_digest, action)
    payload = store.get(key)
    if payload is not None:
        data = _backend.loads(payload)
        _backend.record_event("rows_hits")
        return data["rows"]
    id_of = {state: i for i, state in enumerate(states)}
    rows = _compute_action_rows(action, states, id_of)
    _backend.record_event("rows_computed")
    if rows is None:
        return None
    store.put(key, _backend.dumps({"v": 1, "rows": rows}), kind="actrows")
    return rows


def _record_action_rows(store, ts) -> None:
    """Slice a freshly explored *closed* system into per-action row
    artifacts so later edited variants reassemble instead of exploring."""
    if ts.symmetry is not None:
        return
    states = list(ts.states)
    if len(states) != len(ts.start_states) or len(states) > ROWS_STATE_LIMIT:
        return
    prows, frows, _ = ts._labeled_rows
    starts_digest = _keys.states_digest(states)
    vars_material = _vars_material(ts.program)
    for actions, rows_table in (
        (ts.program.actions, prows),
        (ts.fault_actions, frows),
    ):
        for action in actions:
            name = action.name
            key = _action_rows_key(vars_material, starts_digest, action)
            rows = [
                tuple(t for n, t in row if n == name) for row in rows_table
            ]
            store.put(
                key, _backend.dumps({"v": 1, "rows": rows}), kind="actrows"
            )


def assemble_system(store, program, starts, fault_actions, symmetric: bool):
    """Rebuild the graph of ``program [] faults`` from per-action row
    artifacts over the start table, computing only the rows the store
    does not hold.  Returns ``None`` whenever the preconditions of the
    closed-system argument do not hold — or when the store holds *no*
    rows for this table at all (a fully cold exploration belongs to the
    exploration engines, which then record the rows as a byproduct;
    sweeping every action interpretedly here would be strictly slower)."""
    if symmetric or not starts or len(starts) > ROWS_STATE_LIMIT:
        return None
    fault_names = {a.name for a in fault_actions}
    if fault_names & {a.name for a in program.actions}:
        return None  # the constructor raises on this; let it
    states = list(starts)
    starts_digest = _keys.states_digest(states)
    vars_material = _vars_material(program)
    all_actions = list(program.actions) + list(fault_actions)
    stored: Dict[str, Optional[List[Tuple[int, ...]]]] = {}
    for action in all_actions:
        key = _action_rows_key(vars_material, starts_digest, action)
        payload = store.get(key)
        if payload is not None:
            stored[action.name] = _backend.loads(payload)["rows"]
            _backend.record_event("rows_hits")
        else:
            stored[action.name] = None
    if not any(rows is not None for rows in stored.values()):
        return None
    rows_of: Dict[str, List[Tuple[int, ...]]] = {}
    id_of = {state: i for i, state in enumerate(states)}
    for action in all_actions:
        rows = stored[action.name]
        if rows is None:
            rows = _compute_action_rows(action, states, id_of)
            _backend.record_event("rows_computed")
            if rows is None:
                return None
            key = _action_rows_key(vars_material, starts_digest, action)
            store.put(key, _backend.dumps({"v": 1, "rows": rows}),
                      kind="actrows")
        rows_of[action.name] = rows
    program_rows = [(a.name, rows_of[a.name]) for a in program.actions]
    fault_rows = [(a.name, rows_of[a.name]) for a in fault_actions]

    prows: List[Tuple] = []
    frows: List[Tuple] = []
    for i in range(len(states)):
        prow: List[Tuple[str, int]] = []
        for name, rows in program_rows:
            prow.extend((name, t) for t in rows[i])
        prows.append(tuple(prow))
        frow: List[Tuple[str, int]] = []
        for name, rows in fault_rows:
            frow.extend((name, t) for t in rows[i])
        frows.append(tuple(frow))

    ts = _blank_system(program, fault_actions, symmetric)
    ts.start_states = tuple(states)
    program_edges = ts._program_edges
    for state in states:
        program_edges[state] = _EMPTY
    ts._labeled_rows = (prows, frows, {s: i for i, s in enumerate(states)})
    ts._edges_lazy = True
    _backend.record_event("graph_reassembled")
    return ts


# -- exploration-facing entry points ------------------------------------------

def load_or_assemble_system(program, starts, fault_actions, max_states: int,
                            symmetric: bool):
    """Serve a previously explored graph: whole-graph artifact first,
    per-action reassembly second.  ``None`` means explore for real."""
    store = _backend.active_store()
    if store is None:
        return None
    starts_digest = _keys.states_digest(starts)
    key = system_key(program, starts_digest, fault_actions, max_states,
                     symmetric)
    payload = store.get(key)
    if payload is not None:
        ts = _decode_system(payload, program, fault_actions, symmetric)
        if ts is not None:
            _backend.record_event("graph_hits")
            return ts
    ts = assemble_system(store, program, starts, fault_actions, symmetric)
    if ts is not None:
        # persist the stitched graph under its own key so the next
        # process loads it in one round trip
        store.put(key, _encode_system(ts), kind="system")
    return ts


def save_system_artifacts(ts, starts, max_states: int, symmetric: bool) -> None:
    """Record a freshly explored system: the whole-graph artifact plus,
    for closed systems, the per-action row artifacts."""
    store = _backend.active_store()
    if store is None:
        return
    starts_digest = _keys.states_digest(starts)
    key = system_key(ts.program, starts_digest, ts.fault_actions, max_states,
                     symmetric)
    store.put(key, _encode_system(ts), kind="system")
    _record_action_rows(store, ts)
