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
  each action's edges over those ids as ``(src, dst)`` id arrays,
  memoized per action object;
- :class:`Region` is a subset of an index's states backed by one
  arbitrary-precision Python int used as a bitset: union /
  intersection / difference / complement and popcount are single
  O(words) big-int operations at C speed, membership is an O(1) byte
  probe, and iteration touches only the set bits;
- :class:`SystemIndex` is the per-:class:`TransitionSystem` variant
  (cached on the system object): forward and backward CSR views,
  recorded deadlocks and the enabledness regions of planned actions,
  all derived from the system's edge arrays (split by program vs.
  fault edges), plus memoized per-predicate satisfying regions;
- the fixpoints themselves: :func:`closure_mask` closes a boolean mask
  along a CSR, one vectorized gather per BFS level, and every fixpoint
  is one call of it — :func:`largest_closed_subset_bits` and the
  fault-unsafe region along reversed action edges, the leads-to danger
  zones along a system's reversed edges, reachability forward — O(V+E)
  instead of O(V²·A) universe rescans.  Counterexample paths are the
  same level-by-level search with parents kept
  (:meth:`SystemIndex.path`).

Invalidation: all objects here describe immutable inputs (programs,
actions, and transition systems are never mutated after construction),
so nothing can go stale.  The process-wide universe table is dropped by
:func:`clear_universe_cache`, which `Program.clear_state_caches` (and
hence ``exploration.clear_system_cache``) calls; a ``SystemIndex`` dies
with its transition system.  See ``docs/performance.md``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import chain, compress
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


#: edges of one action over an index: (source ids, target ids) as int64
#: arrays in source order, and a sparse map of state id -> successors
#: that fall outside the index
ActionEdges = Tuple[_np.ndarray, _np.ndarray, Dict[int, Tuple[State, ...]]]


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
        """The edges of ``action`` over this index, ``(src, dst,
        extern)``: edge ``j`` runs from id ``src[j]`` to id ``dst[j]``,
        sources ascending and each state's successors in the order the
        action yields them.

        Successors that fall outside the index (possible when the index
        covers only part of a program's space) are returned in the
        sparse side table ``extern`` so fixpoints can treat them exactly.
        Memoized per action object; ``action.successors`` is itself
        memoized, so rebuilding an index costs dictionary hits, not
        guard evaluation.
        """
        cached = self._edges.get(action)
        if cached is None:
            schema = self._schema
            id_of_values = self._values_table()
            id_of = self.id_of if schema is None else None
            extern: Dict[int, Tuple[State, ...]] = {}
            successors = action.successors
            # actions with a reads/writes frame declaration return the
            # *same* successor tuple for every state of an equivalence
            # class, so translation to ids is memoized by tuple identity
            # (``keep`` pins the keyed tuples for the loop's duration):
            # ``rows`` holds each distinct translated row once (row 0 is
            # empty) and ``which`` the row number of every state
            translated: Dict[int, Tuple[int, Tuple[State, ...]]] = {}
            keep: List[Tuple[State, ...]] = []
            rows: List[Tuple[int, ...]] = [()]
            which: List[int] = []
            # direct slot reads (State._schema / State._values) — this
            # loop touches every successor the model can produce and the
            # property indirection was measurable
            for i, state in enumerate(self.states):
                nxts = successors(state)
                if not nxts:
                    which.append(0)
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
                    hit = (len(rows), tuple(out))
                    rows.append(tuple(row))
                    translated[id(nxts)] = hit
                    keep.append(nxts)
                which.append(hit[0])
                if hit[1]:
                    extern[i] = hit[1]
            # each state's row copied out of the distinct rows by one
            # gather, not one Python step per edge
            lengths = _np.fromiter(
                map(len, rows), dtype=_np.int64, count=len(rows)
            )
            flat = _np.fromiter(
                chain.from_iterable(rows), dtype=_np.int64,
                count=int(lengths.sum()),
            )
            row_of = _np.fromiter(which, dtype=_np.int64, count=self.n)
            counts = lengths[row_of]
            offsets = _np.cumsum(lengths) - lengths
            src = _np.repeat(_np.arange(self.n, dtype=_np.int64), counts)
            dst = flat[_slices(offsets[row_of], counts)]
            cached = (src, dst, extern)
            self._edges[action] = cached
        return cached

    def __repr__(self) -> str:
        return f"StateIndex({self.n} states)"


# -- fixpoints ----------------------------------------------------------------

def _slices(starts, counts):
    """The positions ``starts[i]`` to ``starts[i] + counts[i]`` of every
    slice, concatenated: each slice's offset repeated over its length,
    plus one ``arange``."""
    ends = _np.cumsum(counts)
    positions = _np.repeat(starts - ends + counts, counts)
    positions += _np.arange(positions.shape[0])
    return positions


def csr_of(keys, values, n: int):
    """The edges ``keys[j] -> values[j]`` over ``n`` nodes as a CSR
    ``(indptr, neighbours)``: node ``u``'s neighbours are
    ``neighbours[indptr[u]:indptr[u + 1]]``, in edge order.  Pass the
    targets as ``keys`` for the reversed (predecessor) view."""
    order = _np.argsort(keys, kind="stable")
    indptr = _np.searchsorted(
        keys[order], _np.arange(n + 1, dtype=_np.int64)
    )
    return indptr, values[order]


_NO_IDS = _np.zeros(0, dtype=_np.int64)


def predecessor_csr(edges: Sequence[ActionEdges], n: int):
    """The reversed CSR ``(indptr, sources)`` of the union of ``edges``
    (:meth:`StateIndex.action_edges` triples)."""
    return csr_of(
        _np.concatenate([_NO_IDS] + [dst for _, dst, _ in edges]),
        _np.concatenate([_NO_IDS] + [src for src, _, _ in edges]),
        n,
    )


def closure_mask(indptr, neighbours, seed, within=None):
    """The boolean mask ``seed`` closed along the CSR ``(indptr,
    neighbours)``, adding only nodes of ``within`` when it is given (the
    seed itself is kept whole).

    Each BFS level is one vectorized gather of the frontier's neighbour
    slices, so the cost is O(V+E) element work plus a few numpy calls
    per level, never a Python step per node."""
    reached = seed.copy()
    frontier = _np.flatnonzero(reached)
    while frontier.size:
        starts = indptr[frontier]
        targets = neighbours[_slices(starts, indptr[frontier + 1] - starts)]
        fresh = ~reached[targets]
        if within is not None:
            fresh &= within[targets]
        frontier = _distinct(targets[fresh])
        reached[frontier] = True
    return reached


def _first_occurrences(values):
    """The positions of the first occurrence of each distinct value of
    the int array ``values``, ascending: a stable sort and a neighbour
    compare (see :func:`~repro.core.kernels._distinct`)."""
    order = _np.argsort(values, kind="stable")
    ranked = values[order]
    keep = _np.ones(ranked.shape[0], dtype=bool)
    keep[1:] = ranked[1:] != ranked[:-1]
    return _np.sort(order[keep])


def mark_failing_sources(
    states: Sequence[State],
    src,
    dst,
    checks: Sequence[Callable[[State, State], bool]],
    marked,
) -> None:
    """Set ``marked`` at each unmarked source of the edges ``src ->
    dst`` (sorted by source) with a step ``(source, target)`` that one
    of ``checks`` rejects.

    Each source's edges are checked in order up to its first failure.
    Ids are read through memoryviews: the checks are Python callables,
    and converting whole arrays, or reading them element by element,
    costs more than the few checks that run."""
    if not checks:
        return
    live = ~marked[src]
    src, dst = src[live], dst[live]
    if not src.shape[0]:
        return
    bounds = [0] + (_np.flatnonzero(src[1:] != src[:-1]) + 1).tolist()
    bounds.append(src.shape[0])
    sources, targets = memoryview(src), memoryview(dst)
    failed: List[int] = []
    for lo, hi in zip(bounds, bounds[1:]):
        u = sources[lo]
        source = states[u]
        for v in targets[lo:hi]:
            target = states[v]
            if not all(check(source, target) for check in checks):
                failed.append(u)
                break
    marked[failed] = True


def largest_closed_subset_bits(
    index: StateIndex,
    edges: Sequence[ActionEdges],
    good_bits: int,
    transition_checks: Sequence[Callable[[State, State], bool]] = (),
) -> int:
    """The largest subset of ``good_bits`` closed under ``edges`` (one
    :meth:`StateIndex.action_edges` triple per action) whose internal
    transitions all pass ``transition_checks``.

    This is the greatest fixpoint behind ``largest_invariant_for_safety``
    as a backward closure: seed the removed set with ¬good, states with
    a transition failing a check, and states with a successor escaping
    the index; then close it along reversed edges (a state is removed as
    soon as any successor is).  Checks run only on edges whose source is
    still a candidate.
    """
    removed = ~_unpack_bits(good_bits, index.n)
    for src, dst, extern in edges:
        mark_failing_sources(
            index.states, src, dst, transition_checks, removed
        )
        # a successor outside the index can never be in the subset
        removed[list(extern)] = True
    indptr, preds = predecessor_csr(edges, index.n)
    return _pack_bits(~closure_mask(indptr, preds, removed))


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
        "ts", "states", "_id_of", "n", "full_bits", "_deadlock_bits",
        "_satisfying", "_region_bits", "_enabled_data",
        "_shared_schema", "_csr", "_backward",
    )

    def __init__(self, ts):
        self.ts = ts
        self.states: Tuple[State, ...] = tuple(ts.states)
        self._id_of: Optional[Dict[State, int]] = None
        self.n = len(self.states)
        self.full_bits = (1 << self.n) - 1
        self._deadlock_bits: Optional[int] = None
        self._satisfying: Dict[Predicate, Tuple[State, ...]] = {}
        self._region_bits: Dict[Predicate, int] = {}
        self._enabled_data: Dict[object, bytes] = {}
        #: the one Schema every state shares (False = mixed, None = not
        #: yet computed); schema-compiled predicate sweeps need it
        self._shared_schema = None
        #: include_faults -> (indptr, src, dst, act, names) columnar
        #: edge views (see :meth:`_edge_csr`)
        self._csr: Dict[bool, tuple] = {}
        #: (indptr, sources) over program and fault edges (see
        #: :meth:`_backward_csr`)
        self._backward: Optional[tuple] = None

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

    def _backward_csr(self):
        """The reversed CSR ``(indptr, sources)`` over program and fault
        edges: ``sources[indptr[v]:indptr[v + 1]]`` are the sources of
        the edges into ``v``."""
        if self._backward is None:
            (p_src, p_dst, _), (f_src, f_dst, _), _, _ = self.ts._edge_arrays
            self._backward = csr_of(
                _np.concatenate((p_dst, f_dst)),
                _np.concatenate((p_src, f_src)),
                self.n,
            )
        return self._backward

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
        indptr, _, dst, _, _ = self._edge_csr(include_faults)
        within = _unpack_bits(within_bits, self.n)
        start = _unpack_bits(start_bits, self.n) & within
        return _pack_bits(closure_mask(indptr, dst, start, within))

    def path(
        self, starts, goal, within=None, include_faults: bool = True
    ) -> Optional[Tuple[List[int], List[str]]]:
        """A shortest path from one of ``starts`` (ids, in priority
        order) to a node of ``goal``, through nodes of ``within`` only
        (``goal`` and ``within`` are boolean masks; starts outside
        ``within`` are dropped), as ``(ids, action names)`` — ``None``
        when no goal node is reachable.

        A level-synchronous BFS over :meth:`_edge_csr`, one gather of
        edge slices per level like :func:`closure_mask`.  Each level is
        checked against ``goal`` as a whole before it is expanded; a
        node's parent is the first edge that reaches it, and the next
        level holds the first occurrences of the fresh targets, in
        order.  That is exactly the path of a FIFO search that tests
        each node as it leaves the queue."""
        indptr, src, dst, act, names = self._edge_csr(include_faults)
        level = _np.asarray(starts, dtype=_np.int64)
        if within is not None:
            level = level[within[level]]
        level = level[_first_occurrences(level)]
        reached = _np.zeros(self.n, dtype=bool)
        reached[level] = True
        parent = _np.full(self.n, -1, dtype=_np.int64)
        while level.size:
            hit = goal[level]
            if hit.any():
                u = int(level[_np.argmax(hit)])
                ids, actions = [u], []
                while parent[u] >= 0:
                    j = parent[u]
                    actions.append(names[act[j]])
                    u = int(src[j])
                    ids.append(u)
                ids.reverse()
                actions.reverse()
                return ids, actions
            lo = indptr[level]
            edges = _slices(lo, indptr[level + 1] - lo)
            targets = dst[edges]
            fresh = ~reached[targets]
            if within is not None:
                fresh &= within[targets]
            edges = edges[fresh]
            edges = edges[_first_occurrences(dst[edges])]
            level = dst[edges]
            parent[level] = edges
            reached[level] = True
        return None

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
