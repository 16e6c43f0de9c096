"""Graph artifacts: save and load whole explored systems.

A **whole-graph artifact** (``kind="system"``, payload ``"v": 2``) holds
the BFS-ordered state table plus the system's edge arrays — per group
(program, fault) the ``(src, dst, act)`` id arrays every engine leaves
and :class:`~repro.core.regions.SystemIndex` reads, as int64 bytes, with
the action names they index.  It is keyed by the program, the start
set, the faults, the state cap and the symmetry flag, so only the very
exploration that wrote it is ever served from it.  Loading one rebuilds
a :class:`~repro.core.exploration.TransitionSystem` by direct
construction (``__new__`` + interned states), *never* re-exploring;
State-level edge tuples stay unmaterialized until a consumer actually
asks for them (the lazy path shared with the columnar engine).  A
payload that fails a structural check (see :func:`_decode_system`),
or one of the old ``"v": 1`` row format, is not served: the graph is
explored again and saved over it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from . import backend as _backend
from . import keys as _keys

__all__ = ["system_key", "load_system", "save_system"]


def system_key(program, starts_digest: str, fault_actions, max_states: int,
               symmetric: bool) -> str:
    return _keys.digest("system", (
        _keys.program_material(program),
        starts_digest,
        _keys.faults_material(fault_actions),
        max_states,
        bool(symmetric),
    ))


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
    from ..core.exploration import TransitionSystem
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
    ts = TransitionSystem.__new__(TransitionSystem)
    ts.program = program
    ts.symmetry = program.symmetry if symmetric else None
    ts.fault_actions = tuple(fault_actions)
    ts.fault_action_names = frozenset(a.name for a in ts.fault_actions)
    ts.start_states = tuple(states[:data["n_starts"]])
    ts._states = tuple(states)
    ts._program_edges = ts._fault_edges = None
    ts._edge_arrays = None
    ts._state_cols = None
    ts._set_edge_arrays(*groups)
    return ts


# -- exploration-facing entry points ------------------------------------------

def load_system(program, starts, fault_actions, max_states: int,
                symmetric: bool):
    """The stored graph of exactly this exploration, or ``None`` (no
    store, no artifact, or one that fails its structural check): then
    explore for real.  A payload that does not unpickle raises here;
    :func:`~repro.core.exploration.explored_system` takes that for a
    miss too."""
    store = _backend.active_store()
    if store is None:
        return None
    payload = store.get(system_key(
        program, _keys.states_digest(starts), fault_actions, max_states,
        symmetric,
    ))
    if payload is None:
        return None
    ts = _decode_system(payload, program, fault_actions, symmetric)
    if ts is not None:
        _backend.record_event("graph_hits")
    return ts


def save_system(ts, starts, max_states: int, symmetric: bool) -> None:
    """Record a freshly explored system as its whole-graph artifact."""
    store = _backend.active_store()
    if store is None:
        return
    key = system_key(ts.program, _keys.states_digest(starts),
                     ts.fault_actions, max_states, symmetric)
    store.put(key, _encode_system(ts), kind="system")
