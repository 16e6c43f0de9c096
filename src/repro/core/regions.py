"""Dense state indexing and big-int bitset regions.

Every verification verdict in this library reduces to fixpoints over
sets of states — the largest closed safe subset (``gfp``), the
fault-unsafe region ``ms`` (Theorem 3.3), forward/backward reachability
closures, and the fair-SCC analysis behind Progress and Convergence.
Computing those fixpoints over ``set[State]`` re-hashes full state
objects on every membership test and rescans the whole universe on
every pass.  This module supplies the representation the fixpoints run
on instead:

- :class:`StateIndex` assigns dense integer ids to a fixed, finite
  state universe (either a program's full state space, shared
  process-wide across programs with identical variable signatures, or
  the reachable states of one :class:`TransitionSystem`), and exposes
  CSR-style per-action successor adjacency over those ids — a tuple of
  id-tuples, one row per state, memoized per action object;
- :class:`Region` is a subset of an index's states backed by one
  arbitrary-precision Python int used as a bitset: union /
  intersection / difference / complement and popcount are single
  O(words) big-int operations at C speed, membership is an O(1) byte
  probe, and iteration touches only the set bits;
- :class:`SystemIndex` is the per-:class:`TransitionSystem` variant
  (cached on the system object): successor and predecessor adjacency,
  recorded deadlocks and the enabledness regions of planned actions,
  all derived from the system's edge arrays (split by program vs.
  fault edges), plus memoized per-predicate satisfying regions;
- the worklist fixpoints themselves: :func:`backward_closure_ids`,
  :func:`largest_closed_subset_bits` — O(V+E) over precomputed
  predecessor lists instead of O(V²·A) universe rescans.

Invalidation: all objects here describe immutable inputs (programs,
actions, and transition systems are never mutated after construction),
so nothing can go stale.  The process-wide universe table is dropped by
:func:`clear_universe_cache`, which `Program.clear_state_caches` (and
hence ``exploration.clear_system_cache``) calls; a ``SystemIndex`` dies
with its transition system.  See ``docs/performance.md``.
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import contextmanager
from itertools import compress
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as _np

from .kernels import _distinct, layout_for
from .predicate import Predicate, TRUE
from .state import State, Variable, state_space

__all__ = [
    "Region",
    "StateIndex",
    "SystemIndex",
    "bits_of_ids",
    "iter_bits",
    "first_bit",
    "paused_gc",
    "universe_index",
    "system_index",
    "clear_universe_cache",
]


@contextmanager
def paused_gc():
    """Suspend generational GC for a bulk-allocation pass.

    A large explored system keeps hundreds of thousands of gc-tracked
    objects (States, labelled-edge tuples) alive; every young-generation
    overflow during a bulk tuple/list build triggers collections that
    rescan that standing graph, multiplying the build's cost several
    times over.  The passes wrapped here allocate no reference cycles,
    so deferring collection is safe.  Nesting is harmless — an inner
    pause sees GC already disabled and leaves re-enabling to the
    outermost exit."""
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# -- bit twiddling ------------------------------------------------------------

def bits_of_ids(ids: Iterable[int], n: int) -> int:
    """Pack integer ids into a bitset (built via a bytearray, so the
    construction is O(n/8 + len(ids)), never quadratic big-int shifts)."""
    buf = bytearray((n + 7) >> 3)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def iter_bits(bits: int, n: int) -> Iterator[int]:
    """Yield the set bit positions of ``bits`` in ascending order.

    Two regimes, picked by density.  Sparse masks (at most half the
    positions set — the common shape in fixpoint worklists, frontier
    sets, and counterexample probes) peel bits directly off the big int
    via ``bits & -bits`` / ``bit_length``: O(popcount) iterations with
    no O(n/8) snapshot of mostly-empty bytes.  Dense masks fall back to
    scanning a byte snapshot, which touches each byte once instead of
    re-normalizing an enormous int per extracted bit.
    """
    if bits.bit_count() * 2 <= n:
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low
        return
    data = bits.to_bytes((n + 7) >> 3, "little")
    for base, byte in enumerate(data):
        if byte:
            base8 = base << 3
            while byte:
                low = byte & -byte
                yield base8 + low.bit_length() - 1
                byte ^= low


def first_bit(bits: int) -> int:
    """Position of the lowest set bit (``bits`` must be nonzero)."""
    return (bits & -bits).bit_length() - 1


def _unpack_bits(bits: int, n: int):
    """Big-int bitset -> numpy boolean mask of length ``n``."""
    return _np.unpackbits(
        _np.frombuffer(
            bits.to_bytes((n + 7) >> 3, "little"), dtype=_np.uint8
        ),
        bitorder="little",
    )[:n].astype(bool)


def _pack_bits(mask) -> int:
    """numpy boolean mask -> big-int bitset."""
    return int.from_bytes(
        _np.packbits(mask, bitorder="little").tobytes(), "little"
    )


def _data_to_mask(data: bytes, n: int):
    """Little-endian bitset bytes -> numpy boolean mask of length ``n``."""
    return _np.unpackbits(
        _np.frombuffer(data, dtype=_np.uint8), bitorder="little"
    )[:n].astype(bool)


_values_of = attrgetter("_values")


def _sweep(predicate: Predicate, states: Tuple[State, ...], schema
           ) -> Tuple[Tuple[State, ...], int]:
    """One pass of ``predicate`` over ``states``: the states where it
    holds, in order, and their positions as a bitset — no id lookup.
    A schema-compiled predicate (``values_builder``) over states that
    all share ``schema`` evaluates raw values-tuples, skipping the
    per-state ``State`` dispatch."""
    builder = predicate.values_builder
    if builder is not None and schema is not None:
        flags = list(map(builder(schema.index), map(_values_of, states)))
    else:
        flags = list(map(predicate.fn, states))
    mask = _np.fromiter(flags, dtype=bool, count=len(flags))  # truthiness
    return tuple(compress(states, flags)), _pack_bits(mask)


#: adjacency of one action over an index: (per-state tuples of successor
#: ids, sparse map of state id -> successors that fall outside the index)
ActionEdges = Tuple[Tuple[Tuple[int, ...], ...], Dict[int, Tuple[State, ...]]]


class Region:
    """A subset of a :class:`StateIndex`'s states as a big-int bitset.

    Immutable; the boolean operators build new regions over the same
    index.  ``len`` is a popcount, ``in`` is a byte probe on a lazily
    materialized byte view of the bits, and iteration yields the member
    states in id order.
    """

    __slots__ = ("index", "bits", "_data")

    def __init__(self, index: "StateIndex", bits: int):
        self.index = index
        self.bits = bits
        self._data: Optional[bytes] = None

    # -- algebra (single big-int ops, O(words)) ---------------------------
    def __and__(self, other: "Region") -> "Region":
        return Region(self.index, self.bits & other.bits)

    def __or__(self, other: "Region") -> "Region":
        return Region(self.index, self.bits | other.bits)

    def __sub__(self, other: "Region") -> "Region":
        return Region(self.index, self.bits & ~other.bits)

    def __invert__(self) -> "Region":
        return Region(self.index, self.index.full_bits & ~self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Region)
            and self.index is other.index
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((id(self.index), self.bits))

    # -- membership and iteration ----------------------------------------
    def data(self) -> bytes:
        """The bits as little-endian bytes (cached; used for O(1) probes)."""
        if self._data is None:
            self._data = self.bits.to_bytes((self.index.n + 7) >> 3, "little")
        return self._data

    def __contains__(self, state: State) -> bool:
        i = self.index.id_of.get(state)
        if i is None:
            return False
        return bool(self.data()[i >> 3] & (1 << (i & 7)))

    def ids(self) -> Iterator[int]:
        return iter_bits(self.bits, self.index.n)

    def states(self) -> Iterator[State]:
        states = self.index.states
        return (states[i] for i in self.ids())

    def __iter__(self) -> Iterator[State]:
        return self.states()

    def id_array(self):
        """The member ids, ascending, as an int64 array."""
        return _np.flatnonzero(_unpack_bits(self.bits, self.index.n))

    def to_set(self) -> set:
        return set(self.states())

    def to_predicate(self, name: str = "region") -> Predicate:
        return Predicate.from_states(self.states(), name=name)

    def __repr__(self) -> str:
        return f"Region({len(self)}/{self.index.n} states)"


class StateIndex:
    """Dense integer ids over a fixed universe of states.

    ``states`` is deduplicated in first-seen order; ``id_of`` inverts
    it.  Satisfying sets, satisfying regions, and per-action adjacency
    are memoized by object identity (predicates and actions are
    immutable, so identity keys can never go stale).
    """

    __slots__ = (
        "states", "n", "full_bits", "_id_of",
        "_satisfying", "_region_bits", "_edges",
        "_schema", "_id_of_values", "_layout", "_order", "_cols",
    )

    def __init__(
        self,
        states: Iterable[State],
        _distinct: bool = False,
        universe=None,
    ):
        """``_distinct=True`` promises the states are already unique
        (e.g. a Cartesian-product enumeration) and skips the dedup pass
        — hashing tens of thousands of ``State`` objects is a measurable
        share of index construction.

        ``universe`` is ``(layout, variable names)`` when ``states`` is
        exactly the product enumeration of those variables
        (:func:`~repro.core.state.state_space`) and ``layout`` (a
        :class:`repro.core.kernels.Layout`) packs them.  Expression
        predicates (:meth:`Predicate.columns_for`) then sweep a lazily
        built rank-column matrix in a few numpy operations instead of
        one Python call per state, and explorations from a region of
        the index take its start columns from the same matrix."""
        states = tuple(states)
        if not _distinct:
            states = tuple(dict.fromkeys(states))
        self.states: Tuple[State, ...] = states
        self.n = len(states)
        self.full_bits = (1 << self.n) - 1
        self._id_of: Optional[Dict[State, int]] = None
        self._satisfying: Dict[Predicate, Tuple[State, ...]] = {}
        self._region_bits: Dict[Predicate, int] = {}
        self._edges: Dict[object, ActionEdges] = {}
        # When every state shares one (interned) schema, successors can
        # be resolved through a values-tuple table, skipping the
        # Python-level State.__hash__/__eq__ of a fresh successor object.
        schema = states[0].schema if states else None
        if schema is not None and all(s._schema is schema for s in states):
            self._schema = schema
        else:
            self._schema = None
        self._id_of_values: Optional[Dict[Tuple, int]] = None
        self._layout, self._order = universe or (None, None)
        #: lazily built (vars, n) rank-column matrix in id order
        self._cols = None

    def _columns(self, ids=None):
        """The rank-column matrix of the indexed states (lazy, built
        from the enumeration's digits), or its columns ``ids`` alone
        (digits of those ids unless the matrix exists); ``None`` when
        the index is not a universe."""
        if self._layout is None:
            return None
        if self._cols is None:
            if ids is not None:
                return self._layout.universe_columns(self._order, ids)
            self._cols = self._layout.universe_columns(self._order)
        return self._cols if ids is None else self._cols[:, ids]

    @property
    def id_of(self) -> Dict[State, int]:
        """``State -> id`` (built lazily: the hot paths key by values
        tuple and never need it)."""
        mapping = self._id_of
        if mapping is None:
            mapping = self._id_of = {
                s: i for i, s in enumerate(self.states)
            }
        return mapping

    def _values_table(self) -> Optional[Dict[Tuple, int]]:
        """``values_tuple -> id`` for single-schema indices (lazy)."""
        if self._schema is None:
            return None
        table = self._id_of_values
        if table is None:
            table = self._id_of_values = {
                s.values_tuple: i for i, s in enumerate(self.states)
            }
        return table

    # -- predicates -------------------------------------------------------
    def satisfying(self, predicate: Predicate) -> Tuple[State, ...]:
        """The universe states where ``predicate`` holds (memoized per
        predicate object; the module-level ``TRUE`` needs no sweep).

        Routed through :meth:`region_bits` so one fused sweep fills the
        states *and* bits memos — whichever is asked for first."""
        cached = self._satisfying.get(predicate)
        if cached is None:
            if predicate is TRUE:
                cached = self._satisfying[predicate] = self.states
            else:
                self.region_bits(predicate)
                cached = self._satisfying[predicate]
        return cached

    def region_bits(self, predicate: Predicate) -> int:
        cached = self._region_bits.get(predicate)
        if cached is None:
            columns = None
            if (
                predicate.expr is not None and predicate is not TRUE
                and self._columns() is not None
            ):
                columns = predicate.columns_for(self._layout)
            if predicate is TRUE:
                cached = self.full_bits
            elif columns is not None:
                # columnar sweep: evaluate over rank columns in a few
                # vector operations, then derive both memos
                mask = columns(self._columns())
                states = self.states
                self._satisfying[predicate] = tuple(
                    states[i] for i in _np.flatnonzero(mask).tolist()
                )
                cached = _pack_bits(mask)
            else:
                self._satisfying[predicate], cached = _sweep(
                    predicate, self.states, self._schema
                )
            self._region_bits[predicate] = cached
        return cached

    def region(self, predicate: Predicate) -> Region:
        return Region(self, self.region_bits(predicate))

    def region_of(self, states: Iterable[State]) -> Region:
        """A region from explicit states (ignoring any outside the index)."""
        id_of = self.id_of
        ids = (id_of[s] for s in states if s in id_of)
        return Region(self, bits_of_ids(ids, self.n))

    def full_region(self) -> Region:
        return Region(self, self.full_bits)

    # -- adjacency --------------------------------------------------------
    def action_edges(self, action) -> ActionEdges:
        """Per-state successor ids of ``action`` over this index.

        Successors that fall outside the index (possible when the index
        covers only part of a program's space) are returned in the
        sparse side table so fixpoints can treat them exactly.  Memoized
        per action object; ``action.successors`` is itself memoized, so
        rebuilding an index costs dictionary hits, not guard evaluation.
        """
        cached = self._edges.get(action)
        if cached is None:
            schema = self._schema
            id_of_values = self._values_table()
            id_of = self.id_of if schema is None else None
            rows: List[Tuple[int, ...]] = []
            extern: Dict[int, Tuple[State, ...]] = {}
            successors = action.successors
            # actions with a reads/writes frame declaration return the
            # *same* successor tuple for every state of an equivalence
            # class, so translation to ids is memoized by tuple identity
            # (``keep`` pins the keyed tuples for the loop's duration)
            translated: Dict[int, Tuple[Tuple[int, ...], Tuple[State, ...]]] = {}
            keep: List[Tuple[State, ...]] = []
            # direct slot reads (State._schema / State._values) — this
            # loop touches every successor the model can produce and the
            # property indirection was measurable
            for i, state in enumerate(self.states):
                nxts = successors(state)
                if not nxts:
                    rows.append(())
                    continue
                hit = translated.get(id(nxts))
                if hit is None:
                    row: List[int] = []
                    out: List[State] = []
                    for nxt in nxts:
                        if nxt._schema is schema:
                            j = id_of_values.get(nxt._values)
                        elif id_of is not None:
                            j = id_of.get(nxt)
                        else:
                            # single-schema index: a different schema means
                            # the successor cannot be one of our states
                            j = None
                        if j is None:
                            out.append(nxt)
                        else:
                            row.append(j)
                    hit = (tuple(row), tuple(out))
                    translated[id(nxts)] = hit
                    keep.append(nxts)
                rows.append(hit[0])
                if hit[1]:
                    extern[i] = hit[1]
            cached = (tuple(rows), extern)
            self._edges[action] = cached
        return cached

    def derive_restricted_edges(
        self, restricted, base, allowed_data: bytes
    ) -> ActionEdges:
        """Seed the adjacency of ``restricted`` (= ``Z ∧ base``) from the
        base action's rows gated by the bit array of ``Z``.

        ``Z ∧ g --> st`` has exactly the base action's successors at
        states where ``Z`` holds and none elsewhere, so the synthesis
        pipeline can install restricted adjacency without re-running a
        single guard or statement.
        """
        cached = self._edges.get(restricted)
        if cached is None:
            rows, extern = self.action_edges(base)
            cached = (
                tuple(
                    row if allowed_data[u >> 3] & (1 << (u & 7)) else ()
                    for u, row in enumerate(rows)
                ),
                {
                    u: out
                    for u, out in extern.items()
                    if allowed_data[u >> 3] & (1 << (u & 7))
                },
            )
            self._edges[restricted] = cached
        return cached

    def predecessor_lists(
        self, actions: Sequence
    ) -> List[List[int]]:
        """Merged predecessor adjacency (lists of source ids per target
        id) over the given actions' edges within the index."""
        preds: List[List[int]] = [[] for _ in range(self.n)]
        for action in actions:
            rows, _ = self.action_edges(action)
            for u, row in enumerate(rows):
                for v in row:
                    preds[v].append(u)
        return preds

    def __repr__(self) -> str:
        return f"StateIndex({self.n} states)"


# -- worklist fixpoints -------------------------------------------------------

def backward_closure_ids(
    preds: List[List[int]],
    seed_data: bytearray,
    seed_ids: Iterable[int],
    within_data: Optional[bytes] = None,
) -> bytearray:
    """Close ``seed`` under predecessors (optionally confined to
    ``within``), mutating and returning ``seed_data``.

    ``seed_data`` must already have the seed bits set; ``seed_ids`` are
    the ids to start the worklist from.  O(V+E) — each edge is looked at
    once, via the precomputed predecessor lists.
    """
    worklist = deque(seed_ids)
    while worklist:
        v = worklist.popleft()
        for u in preds[v]:
            k, b = u >> 3, 1 << (u & 7)
            if seed_data[k] & b:
                continue
            if within_data is not None and not within_data[k] & b:
                continue
            seed_data[k] |= b
            worklist.append(u)
    return seed_data


def largest_closed_subset_bits(
    index: StateIndex,
    actions: Sequence,
    good_bits: int,
    transition_checks: Sequence[Callable[[State, State], bool]] = (),
) -> int:
    """The largest subset of ``good_bits`` closed under ``actions`` whose
    internal transitions all pass ``transition_checks``.

    This is the greatest fixpoint behind ``largest_invariant_for_safety``
    as a backward worklist: seed the removed set with ¬good, states with
    a transition failing a check, and states with a successor escaping
    the index; then propagate removal along predecessor edges (a state
    is removed as soon as any successor is).  Each edge is scanned once.
    """
    n = index.n
    states = index.states
    removed = bytearray((n + 7) >> 3)
    worklist: deque = deque()
    for i in iter_bits(index.full_bits & ~good_bits, n):
        removed[i >> 3] |= 1 << (i & 7)
        worklist.append(i)

    preds: List[List[int]] = [[] for _ in range(n)]
    for action in actions:
        rows, extern = index.action_edges(action)
        for u, row in enumerate(rows):
            for v in row:
                preds[v].append(u)
            if transition_checks and row:
                source = states[u]
                for v in row:
                    if not all(
                        check(source, states[v])
                        for check in transition_checks
                    ):
                        k, b = u >> 3, 1 << (u & 7)
                        if not removed[k] & b:
                            removed[k] |= b
                            worklist.append(u)
                        break
        for u in extern:
            # a successor outside the index can never be in the subset
            k, b = u >> 3, 1 << (u & 7)
            if not removed[k] & b:
                removed[k] |= b
                worklist.append(u)

    backward_closure_ids(preds, removed, list(worklist))
    return index.full_bits & ~int.from_bytes(removed, "little")


# -- per-system index ---------------------------------------------------------

class SystemIndex:
    """Dense ids plus split adjacency for one :class:`TransitionSystem`.

    Ids follow the system's deterministic BFS discovery order, so
    "first set bit" matches "first state an order-sensitive sweep of
    ``ts.states`` would have found" — counterexamples are unchanged.
    Every graph view is derived from the system's edge arrays
    (``ts._edge_arrays``: per group ``(src, dst, act)`` sorted by
    source id, actions in declaration order), whichever engine or store
    loader left them.  Built lazily field by field; cached on the
    system object by :func:`system_index` (transition systems are
    immutable, so the index can never go stale and dies with the
    system).
    """

    __slots__ = (
        "ts", "states", "_id_of", "n", "full_bits",
        "_psucc", "_apred", "_deadlock_bits",
        "_satisfying", "_region_bits", "_region_data", "_enabled_data",
        "_shared_schema", "_csr",
    )

    def __init__(self, ts):
        self.ts = ts
        self.states: Tuple[State, ...] = tuple(ts.states)
        self._id_of: Optional[Dict[State, int]] = None
        self.n = len(self.states)
        self.full_bits = (1 << self.n) - 1
        #: per-state deduplicated program successor ids
        self._psucc: Optional[Tuple[Tuple[int, ...], ...]] = None
        #: predecessor lists over *all* (program + fault) edges
        self._apred: Optional[List[List[int]]] = None
        self._deadlock_bits: Optional[int] = None
        self._satisfying: Dict[Predicate, Tuple[State, ...]] = {}
        self._region_bits: Dict[Predicate, int] = {}
        self._region_data: Dict[Predicate, bytes] = {}
        self._enabled_data: Dict[object, bytes] = {}
        #: the one Schema every state shares (False = mixed, None = not
        #: yet computed); schema-compiled predicate sweeps need it
        self._shared_schema = None
        #: include_faults -> (indptr, src, dst, act, names) columnar
        #: edge views (see :meth:`_edge_csr`)
        self._csr: Dict[bool, tuple] = {}

    @property
    def id_of(self) -> Dict[State, int]:
        """``State -> id`` (built lazily: the graph views never need it)."""
        mapping = self._id_of
        if mapping is None:
            mapping = self._id_of = {
                s: i for i, s in enumerate(self.states)
            }
        return mapping

    # -- adjacency (lazy) --------------------------------------------------
    @property
    def psucc(self) -> Tuple[Tuple[int, ...], ...]:
        """Deduplicated program-successor ids per state (SCC fodder),
        sliced out of the program-edge CSR."""
        if self._psucc is None:
            with paused_gc():
                indptr, _, dst, _, _ = self._edge_csr(False)
                indptr = indptr.tolist()
                dst = dst.tolist()
                self._psucc = tuple(
                    tuple(dict.fromkeys(dst[indptr[u]:indptr[u + 1]]))
                    for u in range(self.n)
                )
        return self._psucc

    @property
    def apred(self) -> List[List[int]]:
        """Predecessor lists over program and fault edges: per target,
        the program-edge sources, then the fault-edge sources, each in
        ascending id order."""
        if self._apred is None:
            with paused_gc():
                (p_src, p_dst, _), (f_src, f_dst, _), _, _ = \
                    self.ts._edge_arrays
                dst = _np.concatenate((p_dst, f_dst))
                order = _np.argsort(dst, kind="stable")
                src = _np.concatenate((p_src, f_src))[order].tolist()
                bounds = _np.searchsorted(
                    dst[order], _np.arange(self.n + 1, dtype=_np.int64)
                ).tolist()
                self._apred = [
                    src[bounds[v]:bounds[v + 1]] for v in range(self.n)
                ]
        return self._apred

    @property
    def deadlock_bits(self) -> int:
        """States with no program edge — per the recorded-edge convention
        of ``TransitionSystem.deadlock_states``, exactly the states where
        no program action is enabled."""
        if self._deadlock_bits is None:
            live = _np.zeros(self.n, dtype=bool)
            live[self.ts._edge_arrays[0][0]] = True
            self._deadlock_bits = _pack_bits(~live)
        return self._deadlock_bits

    # -- predicates --------------------------------------------------------
    def _schema(self):
        """The schema shared by every indexed state, or ``False``."""
        shared = self._shared_schema
        if shared is None:
            states = self.states
            shared = states[0]._schema if states else False
            if shared is not False:
                for state in states:
                    if state._schema is not shared:
                        shared = False
                        break
            self._shared_schema = shared
        return shared

    def _columns(self):
        """The ``(layout, rank-column matrix)`` pair the columnar
        exploration engine left on the system, or ``None`` (absent for
        interpreted/bucket explorations and store-reassembled graphs)."""
        state_cols = getattr(self.ts, "_state_cols", None)
        if state_cols is None:
            return None
        if state_cols[1].shape[1] != self.n:  # pragma: no cover - defensive
            return None
        return state_cols

    def _column_bits(self, predicate: Predicate) -> Optional[int]:
        """The predicate's region bits from the rank columns the
        columnar engine left on the system, or ``None`` when either the
        columns or a column evaluator of the predicate is missing."""
        pair = self._columns()
        if pair is None:
            return None
        layout, cols = pair
        columns = predicate.columns_for(layout)
        return None if columns is None else _pack_bits(columns(cols))

    def satisfying(self, predicate: Predicate) -> Tuple[State, ...]:
        cached = self._satisfying.get(predicate)
        if cached is None:
            if predicate is TRUE:
                cached = self.states
            else:
                bits = self._region_bits.get(predicate)
                if bits is None and predicate.expr is not None:
                    bits = self._column_bits(predicate)
                    if bits is not None:
                        self._region_bits[predicate] = bits
                if bits is None:
                    cached, bits = _sweep(
                        predicate, self.states, self._schema() or None
                    )
                    self._region_bits[predicate] = bits
                else:
                    # derive from the (columnar or previously computed)
                    # bitset: ascending id order equals state order
                    states = self.states
                    cached = tuple(
                        states[i] for i in iter_bits(bits, self.n)
                    )
            self._satisfying[predicate] = cached
        return cached

    def region_bits(self, predicate: Predicate) -> int:
        cached = self._region_bits.get(predicate)
        if cached is None:
            if predicate is TRUE:
                cached = self.full_bits
            else:
                cached = self._column_bits(predicate)
                if cached is None:
                    self._satisfying[predicate], cached = _sweep(
                        predicate, self.states, self._schema() or None
                    )
            self._region_bits[predicate] = cached
        return cached

    def region_data(self, predicate: Predicate) -> bytes:
        cached = self._region_data.get(predicate)
        if cached is None:
            cached = self.region_bits(predicate).to_bytes(
                (self.n + 7) >> 3, "little"
            )
            self._region_data[predicate] = cached
        return cached

    def region_of(self, states: Iterable[State]) -> Region:
        id_of = self.id_of
        ids = (id_of[s] for s in states if s in id_of)
        return Region(self, bits_of_ids(ids, self.n))  # type: ignore[arg-type]

    def full_region(self) -> Region:
        return Region(self, self.full_bits)  # type: ignore[arg-type]

    def enabled_data(self, action) -> bytes:
        """Bit array of states where ``action``'s guard holds (memoized
        per action object).

        Planned program actions skip the guard sweep entirely: a plan
        certifies the action gives every enabled state at least one
        successor (one, or one per value of its ``set_any`` choice), so
        its guard holds at a state exactly when exploration recorded at
        least one edge labelled by it — the sources of its program
        edges."""
        cached = self._enabled_data.get(action)
        if cached is None:
            if (
                getattr(action, "plan", None) is not None
                and action.name not in self.ts.fault_action_names
            ):
                (src, _, act), _, names, _ = self.ts._edge_arrays
                enabled = _np.zeros(self.n, dtype=bool)
                if action.name in names:
                    enabled[src[act == names.index(action.name)]] = True
                cached = _np.packbits(enabled, bitorder="little").tobytes()
            else:
                buf = bytearray((self.n + 7) >> 3)
                guard = action.guard.fn
                for i, state in enumerate(self.states):
                    if guard(state):
                        buf[i >> 3] |= 1 << (i & 7)
                cached = bytes(buf)
            self._enabled_data[action] = cached
        return cached

    # -- columnar edge views ----------------------------------------------
    def _edge_csr(self, include_faults: bool):
        """Edge arrays ``(indptr, src, dst, act, names)`` sorted by
        (source, program-before-fault, declaration order).  ``indptr[u]``
        to ``indptr[u+1]`` delimits state ``u``'s edges; edge ``j`` runs
        from ``src[j]`` to ``dst[j]`` and is labelled ``names[act[j]]``."""
        cached = self._csr.get(include_faults)
        if cached is None:
            (p_src, p_dst, p_act), (f_src, f_dst, f_act), names_p, \
                names_f = self.ts._edge_arrays
            if include_faults and f_src.shape[0]:
                order = _np.argsort(
                    _np.concatenate((p_src * 2, f_src * 2 + 1)),
                    kind="stable",
                )
                src = _np.concatenate((p_src, f_src))[order]
                dst = _np.concatenate((p_dst, f_dst))[order]
                act = _np.concatenate(
                    (p_act, f_act + len(names_p))
                )[order]
            else:
                src, dst, act = p_src, p_dst, p_act
            indptr = _np.searchsorted(
                src, _np.arange(self.n + 1, dtype=_np.int64)
            )
            cached = (indptr, src, dst, act, names_p + names_f)
            self._csr[include_faults] = cached
        return cached

    def first_escaping_edge(
        self, region_bits: int, include_faults: bool
    ) -> Optional[Tuple[int, str, int]]:
        """The first recorded edge whose source lies in the region and
        whose target does not, as ``(source id, action name, target
        id)`` — ``None`` when the region is closed.  "First" follows the
        CSR order (ascending source id, program edges before fault
        edges), so counterexamples are engine-independent."""
        _, src, dst, act, names = self._edge_csr(include_faults)
        region = _unpack_bits(region_bits, self.n)
        bad = region[src] & ~region[dst]
        if not bad.any():
            return None
        j = int(_np.argmax(bad))
        return int(src[j]), names[int(act[j])], int(dst[j])

    # -- closures ----------------------------------------------------------
    def forward_closure_bits(
        self, start_bits: int, within_bits: int, include_faults: bool = True
    ) -> int:
        """States reachable from ``start ∩ within`` along edges staying in
        ``within`` (program edges, plus fault edges by default)."""
        n = self.n
        indptr, _, dst, _, _ = self._edge_csr(include_faults)
        indptr_l = indptr.tolist()
        within = _unpack_bits(within_bits, n)
        seen = _unpack_bits(start_bits, n) & within
        frontier = _np.flatnonzero(seen)
        while frontier.size:
            parts = [
                dst[indptr_l[u]:indptr_l[u + 1]]
                for u in frontier.tolist()
            ]
            vs = _np.concatenate(parts)
            fresh = _distinct(vs[~seen[vs] & within[vs]])
            seen[fresh] = True
            frontier = fresh
        return _pack_bits(seen)

    def __repr__(self) -> str:
        return f"SystemIndex({self.n} states)"


# -- caches -------------------------------------------------------------------

#: variable signature -> shared full-space StateIndex.  Two programs with
#: the same (name, domain) tuple sequence enumerate the same state space
#: in the same order, so they share one index — and with it the
#: enumeration cost and every per-predicate satisfying sweep done with a
#: shared predicate object (e.g. a model's span used by both its
#: fail-safe and masking variants).
_UNIVERSE_CACHE: Dict[Tuple, StateIndex] = {}
_UNIVERSE_CACHE_MAXSIZE = 32


def universe_index(program) -> Optional[StateIndex]:
    """The shared full-state-space index for ``program``, or ``None``
    when the space exceeds ``Program.STATE_CACHE_LIMIT`` (such spaces
    are never materialized — callers must fall back to lazy scans)."""
    if program.state_count() > program.STATE_CACHE_LIMIT:
        return None
    signature = tuple((v.name, v.domain) for v in program.variables)
    index = _UNIVERSE_CACHE.get(signature)
    if index is None:
        with paused_gc():
            # bulk-allocating a full state space under a standing graph
            # otherwise triggers generational collections that rescan
            # everything already explored
            states = tuple(state_space(program.variables))
            universe = None
            if states:
                layout = layout_for(states[0].schema, program._domains)
                if layout is not None:
                    universe = (layout, [v.name for v in program.variables])
            index = StateIndex(states, _distinct=True, universe=universe)
        _UNIVERSE_CACHE[signature] = index
        if len(_UNIVERSE_CACHE) > _UNIVERSE_CACHE_MAXSIZE:
            _UNIVERSE_CACHE.pop(next(iter(_UNIVERSE_CACHE)))
    return index


def clear_universe_cache() -> None:
    """Drop every shared full-space index (and with them all memoized
    satisfying sets and adjacency rows built on top)."""
    _UNIVERSE_CACHE.clear()


def system_index(ts) -> SystemIndex:
    """The (lazily built, cached) :class:`SystemIndex` of ``ts``."""
    index = getattr(ts, "_region_index", None)
    if index is None:
        index = SystemIndex(ts)
        ts._region_index = index
    return index
