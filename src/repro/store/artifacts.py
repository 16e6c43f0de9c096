"""Graph artifacts: serialize, reconstruct, and reassemble explored systems.

Two artifact shapes cover the exploration layer:

- a **whole-graph artifact** (``kind="system"``, payload ``"v": 2``):
  the BFS-ordered state table plus the system's edge arrays — per
  group (program, fault) the ``(src, dst, act)`` id arrays every engine
  leaves and :class:`~repro.core.regions.SystemIndex` reads, as int64
  bytes, with the action names they index.  Loading one rebuilds a
  :class:`~repro.core.exploration.TransitionSystem` by direct
  construction (``__new__`` + interned states), *never* re-exploring;
  State-level edge tuples stay unmaterialized until a consumer actually
  asks for them (the lazy path shared with the columnar engine).  A
  payload that fails a structural check (see :func:`_decode_system`),
  or one of the old ``"v": 1`` row format, is not served: the graph is
  explored again and saved over it.

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

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    program_ids, fault_ids, names_p, names_f = ts._edge_arrays
    payload = {
        "v": 2,
        "schemas": schemas,
        "states": states_out,
        "n_starts": len(ts.start_states),
        "names": (list(names_p), list(names_f)),
        "edges": tuple(
            tuple(part.astype("<i8", copy=False).tobytes() for part in group)
            for group in (program_ids, fault_ids)
        ),
    }
    return _backend.dumps(payload)


def _blank_system(program, fault_actions, symmetric: bool, states,
                  n_starts: int):
    """A :class:`TransitionSystem` over the registered ``states`` (the
    first ``n_starts`` of them the start states), with no edges yet and
    State-level edges deferred."""
    from ..core.exploration import TransitionSystem

    ts = TransitionSystem.__new__(TransitionSystem)
    ts.program = program
    ts.symmetry = program.symmetry if symmetric else None
    ts.fault_actions = tuple(fault_actions)
    ts.fault_action_names = frozenset(a.name for a in ts.fault_actions)
    ts.start_states = tuple(states[:n_starts])
    ts._states = tuple(states)
    ts._program_edges = ts._fault_edges = None
    ts._edge_arrays = None
    ts._state_cols = None
    return ts


def _decode_system(payload: bytes, program, fault_actions, symmetric: bool):
    """The system a ``"v": 2`` graph payload describes, or ``None`` when
    the payload is of another version or fails a structural check: a
    state table of distinct ``(schema, values)`` pairs, each schema
    index inside ``schemas`` and each values tuple as long as its
    schema; per group one length for ``src``, ``dst`` and ``act``, ids
    inside the state table with sources nondecreasing, action positions
    inside the group's names, at most as many start states as states,
    and names equal to the program's and the faults' in declaration
    order.  A repeated state would take two ids in the registry."""
    from ..core.state import Schema, _state_of

    data = _backend.loads(payload)
    if data.get("v") != 2:
        return None
    n = len(data["states"])
    widths = [len(fields) for fields in data["schemas"]]
    if len(set(map(tuple, data["states"]))) != n or not all(
        0 <= idx < len(widths) and len(values) == widths[idx]
        for idx, values in data["states"]
    ):
        return None
    names = [
        [a.name for a in program.actions], [a.name for a in fault_actions]
    ]
    if not 0 <= data["n_starts"] <= n or [
        list(group) for group in data["names"]
    ] != names:
        return None
    groups = []
    for group, group_names in zip(data["edges"], names):
        src, dst, act = (np.frombuffer(part, dtype="<i8") for part in group)
        if not src.shape == dst.shape == act.shape:
            return None
        if src.shape[0] and not (
            0 <= src[0] and src[-1] < n and (src[1:] >= src[:-1]).all()
            and 0 <= dst.min() and dst.max() < n
            and 0 <= act.min() and act.max() < len(group_names)
        ):
            return None
        groups.append((src, dst, act))
    schemas = [Schema.of(fields) for fields in data["schemas"]]
    states = [
        _state_of(schemas[idx], values) for idx, values in data["states"]
    ]
    ts = _blank_system(
        program, fault_actions, symmetric, states, data["n_starts"]
    )
    ts._set_edge_arrays(*groups)
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
    n = len(states)
    if n != len(ts.start_states) or n > ROWS_STATE_LIMIT:
        return
    starts_digest = _keys.states_digest(states)
    vars_material = _vars_material(ts.program)
    ids = np.arange(n + 1, dtype=np.int64)
    for actions, (src, dst, act) in zip(
        (ts.program.actions, ts.fault_actions), ts._edge_arrays
    ):
        for pos, action in enumerate(actions):
            mine = act == pos
            bounds = np.searchsorted(src[mine], ids).tolist()
            targets = dst[mine].tolist()
            rows = [
                tuple(targets[bounds[i]:bounds[i + 1]]) for i in range(n)
            ]
            key = _action_rows_key(vars_material, starts_digest, action)
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

    # per group, each action's edges in state order, stably sorted by
    # source: actions stay in declaration order within each source
    n = len(states)
    ids = np.arange(n, dtype=np.int64)
    groups = []
    for actions in (program.actions, fault_actions):
        src, dst, act = [ids[:0]], [ids[:0]], [ids[:0]]
        for pos, action in enumerate(actions):
            rows = rows_of[action.name]
            counts = np.fromiter(map(len, rows), dtype=np.int64, count=n)
            total = int(counts.sum())
            src.append(np.repeat(ids, counts))
            dst.append(np.fromiter(
                chain.from_iterable(rows), dtype=np.int64, count=total
            ))
            act.append(np.full(total, pos, dtype=np.int64))
        src = np.concatenate(src)
        order = np.argsort(src, kind="stable")
        groups.append((
            src[order], np.concatenate(dst)[order],
            np.concatenate(act)[order],
        ))

    ts = _blank_system(program, fault_actions, symmetric, states, n)
    ts._set_edge_arrays(*groups)
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
