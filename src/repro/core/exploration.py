"""Transition systems: reachable state-space exploration.

The checks in Sections 2–5 of the paper all quantify over computations of
a program (possibly in the presence of faults).  On finite-state programs
those checks reduce to questions about the *reachable transition graph*,
which this module materializes:

- :class:`TransitionSystem` explores the states reachable from a set of
  start states under a program's actions plus an optional set of fault
  actions, recording labelled edges and which labels are faults;
- closure checks (``S is closed in p``, ``T is closed in F``) become
  universally-quantified checks over the recorded edges;
- deadlock detection supports the paper's *maximality* condition (a finite
  computation must end in a state where every guard is false).

Fault edges are tracked separately because the paper's Assumption 2
(finitely many fault occurrences) means safety is judged over *all* edges
while liveness is judged over program edges only.

Performance notes (see ``docs/performance.md``):

- every explored state is canonicalized through a
  :class:`~repro.core.state.StateInterner`, so the states held by a
  system are pointer-equal iff value-equal and duplicate successors
  collapse before touching the frontier;
- per-state edge lists are stored as tuples and handed out *unsliced* —
  :meth:`TransitionSystem.edges_from` only concatenates when a state
  actually has fault edges to merge in;
- :meth:`deadlock_states` reads the recorded program edges instead of
  re-evaluating every guard;
- :func:`explored_system` memoizes whole systems in a bounded LRU keyed
  on (program, start states, fault actions, max_states), so tolerance
  certificates and synthesis pipelines that interrogate the same
  ``p [] F`` repeatedly explore it once.  ``clear_system_cache`` resets
  the table (programs and actions are keyed by identity, so the cache
  can only go stale if an Action object is mutated in place — which
  nothing in the library does).
"""

from __future__ import annotations

import sys
from collections import OrderedDict, deque
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    KeysView,
    List,
    Optional,
    Sequence,
    Tuple,
)

from . import kernels as _kernels
from .action import Action
from .predicate import Predicate
from .program import Program
from .regions import first_bit, iter_bits, system_index
from .results import CheckResult, Counterexample
from .state import Schema, State, StateInterner, _state_of
from .symmetry import SymmetryError

__all__ = [
    "Edge",
    "TransitionSystem",
    "explored_system",
    "clear_system_cache",
    "clear_all_caches",
    "set_default_workers",
]

#: A labelled edge: (source, action name, target).
Edge = Tuple[State, str, State]

#: Default cap on explored states (a safety valve, not a tuning knob).
DEFAULT_MAX_STATES = 2_000_000

#: Largest code space the columnar engine will allocate a dense
#: code -> id table for (int32 entries: 64 MiB at the limit).
_DENSE_ID_SPACE_LIMIT = 1 << 24

#: Largest declared state space (Cartesian product of domains) the
#: tiny-space interpreted fast path handles; above this the batch
#: engines' per-level vectorization wins over their setup cost.
_SMALL_SPACE_STATES = 128

_EMPTY_EDGES: Tuple[Tuple[str, State], ...] = ()

#: module-wide default worker count for sharded exploration (``None``
#: or 1 = in-process); see :func:`set_default_workers`
_DEFAULT_WORKERS: Optional[int] = None


def set_default_workers(workers: Optional[int]) -> None:
    """Set the process count newly built :class:`TransitionSystem`\\ s
    use when their ``workers`` argument is left at ``None``.  Sharded
    exploration is bit-identical to in-process exploration for any
    worker count (pinned by tests), so this is purely a throughput knob.
    """
    global _DEFAULT_WORKERS
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _DEFAULT_WORKERS = workers


class TransitionSystem:
    """The reachable transition graph of ``program [] faults`` from
    ``start_states``.

    Parameters
    ----------
    program:
        The program whose actions drive (fair) computation steps.
    start_states:
        Iterable of states exploration begins from.  Typically the states
        satisfying an invariant or fault-span predicate.
    fault_actions:
        Optional extra actions representing a fault-class ``F``;
        their edges are recorded but marked as fault edges.
    max_states:
        Safety valve against state-space explosion; exploration raises if
        exceeded.
    symmetric:
        When true, explore the *quotient* graph under the program's
        declared symmetry group: every start state and every successor is
        mapped to the canonical representative of its orbit before it
        touches the frontier, so the full graph is never materialized.
        Requires ``program.symmetry`` (raises
        :class:`~repro.core.symmetry.SymmetryError` otherwise).  Verdicts
        over a quotient system equal those over the full system provided
        every consulted predicate/spec is a union of orbits — the
        tolerance checkers validate that before opting in.

    A constructed system is immutable; consider :func:`explored_system`
    to share one instance across repeated identical explorations.
    """

    def __init__(
        self,
        program: Program,
        start_states: Iterable[State],
        fault_actions: Sequence[Action] = (),
        max_states: int = DEFAULT_MAX_STATES,
        symmetric: bool = False,
        workers: Optional[int] = None,
    ):
        self.program = program
        self.symmetry = None
        if symmetric:
            if program.symmetry is None:
                raise SymmetryError(
                    f"symmetric exploration requested but {program.name!r} "
                    f"declares no symmetry group"
                )
            self.symmetry = program.symmetry
        self.fault_actions: Tuple[Action, ...] = tuple(fault_actions)
        self.fault_action_names: FrozenSet[str] = frozenset(
            a.name for a in self.fault_actions
        )
        overlap = self.fault_action_names & {a.name for a in program.actions}
        if overlap:
            raise ValueError(f"fault actions share names with program: {overlap}")

        self.start_states: Tuple[State, ...] = tuple(dict.fromkeys(start_states))
        #: outgoing program edges per state: state -> ((action, next), ...)
        #: (insertion-ordered over *every* explored state, making it double
        #: as the deterministic BFS-order state registry)
        self._program_edges: Dict[State, Tuple[Tuple[str, State], ...]] = {}
        #: outgoing fault edges per state (only states that have some)
        self._fault_edges: Dict[State, Tuple[Tuple[str, State], ...]] = {}
        #: per-predicate memo for states_satisfying (keyed by identity)
        self._satisfying: Dict[Predicate, Tuple[State, ...]] = {}
        #: integer adjacency built alongside level-synchronous assembly:
        #: (program rows, fault rows, state -> dense id) with rows[i] the
        #: ``(action name, target id)`` tuple of the state with id ``i``.
        #: ``SystemIndex`` adopts these instead of re-deriving ids from
        #: the State-level edge tables; ``None`` when the scalar engine
        #: ran (it has no level structure to hook)
        self._labeled_rows: Optional[Tuple[List, List, Dict[State, int]]] = None
        #: columnar edge arrays, set only by the all-array engine:
        #: ((src ids, dst ids, action positions) for program and fault
        #: edges, program names, fault names), each group sorted by
        #: source id with declaration-order actions — the raw material
        #: for ``SystemIndex``'s vectorized closure and escape sweeps
        self._edge_arrays = None
        #: True while State-level edge tuples are deferred: the columnar
        #: engine (and store-loaded graphs) hold only the id rows, and
        #: the first consumer that walks State-level edges pays one
        #: materialization pass (:meth:`_materialize_edges`).  Closure
        #: and region analyses never trigger it — they read the rows.
        self._edges_lazy = False
        #: (layout, rank-column matrix) of the explored states in id
        #: order, retained by the columnar engine for vectorized
        #: predicate sweeps (:meth:`~repro.core.regions.StateIndex`)
        self._state_cols = None
        if workers is None:
            workers = _DEFAULT_WORKERS
        self._explore(max_states, workers)

    # -- construction ------------------------------------------------------
    @property
    def states(self) -> KeysView[State]:
        """All explored states, in deterministic BFS discovery order."""
        return self._program_edges.keys()

    def _explore(self, max_states: int, workers: Optional[int] = None) -> None:
        small = self.program.state_count() <= _SMALL_SPACE_STATES
        # the tiny-space path is interpreted: no arrays for it to set up
        layout = None if small else self._start_layout()
        canon_cols = None
        if self.symmetry is not None:
            # orbit canonicalization: each state maps to the pooled
            # minimal representative of its symmetry orbit, so the BFS
            # materializes the quotient graph directly.  The array
            # engines canonicalize whole successor blocks as rank
            # columns (``canon_cols``) and pool the already-canonical
            # results (``intern``); unplanned actions and the
            # interpreted engines go state by state
            canonicalizer = self.symmetry.canonicalizer(self.program)
            canonical = canonicalizer.canonical
            canonical_many = canonicalizer.canonical_many
            intern = canonicalizer.pool
            if layout is not None:
                canon_cols = self.symmetry._compile_columns(layout)
            self.start_states = self._canonical_starts(
                canonicalizer, layout, canon_cols
            )
        else:
            # canonicalization is one C-level dict op: setdefault(s, s)
            # returns the pooled representative (inserting s if unseen),
            # exactly StateInterner.canonical without the method frames
            interner = StateInterner()
            canonical = intern = interner._pool.setdefault
            canonical_many = interner.canonical_many
            self.start_states = tuple(
                dict.fromkeys(canonical_many(self.start_states))
            )
        for state in self.start_states:
            self._program_edges[state] = _EMPTY_EDGES
        # Three engines, one transition graph: sharded (process pool),
        # batched (compiled kernels over whole frontier levels), and
        # scalar (the original interpreted FIFO).  All three register
        # states and edges in the exact same order, so which engine ran
        # is unobservable from the finished system (pinned by tests).
        # The level-synchronous engines additionally accumulate the
        # dense-id adjacency rows as they assemble each level.
        self._labeled_rows = (
            [], [], {s: i for i, s in enumerate(self._program_edges)}
        )
        # Pause generational GC for the build: edge tuples hold State
        # references, so unlike (str, int) pairs they stay gc-tracked,
        # and letting collections rescan the growing graph costs more
        # than the whole expansion.  Exploration allocates no reference
        # cycles, so deferring collection is free.
        import gc

        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if workers is not None and workers > 1:
                if self._explore_sharded(
                    max_states, canonical_many, workers
                ):
                    return
            if small:
                self._explore_small(max_states, canonical)
                return
            if _kernels.get_backend() != "interpreted":
                if self._explore_columnar(max_states, layout, canon_cols):
                    return
                if self._explore_batched(
                    max_states, canonical, intern, layout, canon_cols
                ):
                    return
            self._labeled_rows = None
            self._explore_scalar(max_states, canonical)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _start_layout(self):
        """The packing layout the array engines expand the start set
        with: numpy backend, one start schema, every variable with a
        declared domain; ``None`` otherwise."""
        starts = self.start_states
        if not starts or _kernels.resolved_backend() != "numpy":
            return None
        schema = starts[0]._schema
        for state in starts:
            if state._schema is not schema:
                return None
        return _kernels.layout_for(schema, self.program._domains)

    def _canonical_starts(self, canonicalizer, layout, canon_cols):
        """The orbit representatives of the (value-deduplicated) start
        states, in order of first occurrence.

        With a column canonicalizer this is one array pass: a start
        state that is already canonical represents its own orbit, and a
        State is built only for orbits no start state represents.
        Every representative is pooled in ``canonicalizer``, so the
        per-state paths of the BFS return the same objects."""
        starts = self.start_states
        cols = None
        if canon_cols is not None:
            try:
                cols = layout.columns_from_states(starts)
            except KeyError:
                pass  # a value outside its domain: only plans handle it
        if cols is None:
            return tuple(dict.fromkeys(canonicalizer.canonical_many(starts)))
        np = _kernels._np
        canon = canon_cols(cols)
        canon_codes = layout.pack_columns(canon)
        codes, first = np.unique(canon_codes, return_index=True)
        own = np.full(codes.shape[0], -1, dtype=np.int64)
        fixed = np.flatnonzero(layout.pack_columns(cols) == canon_codes)
        own[np.searchsorted(codes, canon_codes[fixed])] = fixed
        order = np.argsort(first)
        schema = layout.schema
        values_of = layout.values_from_column
        pool = canonicalizer.pool
        return tuple(
            pool(
                starts[i] if i >= 0
                else _state_of(schema, values_of(canon, j))
            )
            for i, j in zip(own[order].tolist(), first[order].tolist())
        )

    def _explore_scalar(self, max_states: int, canonical) -> None:
        """The reference engine: interpreted FIFO BFS, one
        ``Action.successors`` call per (state, action) pair."""
        frontier = deque(self.start_states)
        program_actions = self.program.actions
        fault_actions = self.fault_actions
        program_edges_of = self._program_edges
        fault_edges_of = self._fault_edges
        while frontier:
            state = frontier.popleft()
            program_edges: List[Tuple[str, State]] = []
            for action in program_actions:
                name = action.name
                for nxt in action.successors(state):
                    program_edges.append((name, canonical(nxt, nxt)))
            fault_edges: List[Tuple[str, State]] = []
            for action in fault_actions:
                name = action.name
                for nxt in action.successors(state):
                    fault_edges.append((name, canonical(nxt, nxt)))
            # drop duplicate successor edges (nondeterministic statements
            # may offer the same alternative more than once)
            if len(program_edges) > 1:
                program_edges = list(dict.fromkeys(program_edges))
            if len(fault_edges) > 1:
                fault_edges = list(dict.fromkeys(fault_edges))
            program_edges_of[state] = tuple(program_edges)
            if fault_edges:
                fault_edges_of[state] = tuple(fault_edges)
            for edges in (program_edges, fault_edges):
                for _, nxt in edges:
                    if nxt not in program_edges_of:
                        # register before expansion so duplicates are
                        # filtered; overwritten when nxt is expanded
                        program_edges_of[nxt] = _EMPTY_EDGES
                        frontier.append(nxt)
                        if len(program_edges_of) > max_states:
                            raise RuntimeError(
                                f"state-space exceeds max_states={max_states} "
                                f"for {self.program.name!r}"
                            )

    def _explore_small(self, max_states: int, canonical) -> None:
        """Tiny-space fast path: interpreted, level-synchronous BFS.

        For state spaces of at most :data:`_SMALL_SPACE_STATES` codes
        the batch engines' setup — layout construction and one
        compilation attempt per action — costs more than the whole
        interpreted expansion, so this path expands each level through
        plain ``Action.successors`` calls and folds it with
        :meth:`_assemble_level`.  Unlike the scalar engine it keeps the
        dense-id row accumulator populated, so downstream region
        indexing skips the State-level reassembly too."""
        frontier: List[State] = list(self.start_states)
        program_actions = self.program.actions
        fault_actions = self.fault_actions
        while frontier:
            n = len(frontier)
            program_buckets: List[List] = [[] for _ in range(n)]
            fault_buckets: List[List] = [[] for _ in range(n)]
            for actions, buckets in (
                (program_actions, program_buckets),
                (fault_actions, fault_buckets),
            ):
                for action in actions:
                    name = action.name
                    for i, state in enumerate(frontier):
                        bucket = buckets[i]
                        for nxt in action.successors(state):
                            bucket.append((name, canonical(nxt, nxt)))
            frontier = self._assemble_level(
                frontier, program_buckets, fault_buckets, max_states
            )

    def _assemble_level(
        self,
        frontier: List[State],
        program_buckets: List[List[Tuple[str, State]]],
        fault_buckets: List[List[Tuple[str, State]]],
        max_states: int,
        program_dirty: Optional[bytearray] = None,
        fault_dirty: Optional[bytearray] = None,
    ) -> List[State]:
        """Fold one expanded frontier level into the edge tables.

        Buckets hold each frontier state's edges in program-then-fault,
        action-major order — exactly what the scalar loop produces — and
        states are registered per source state in edge order, so the
        discovery order (and the ``max_states`` raise point) of the
        scalar engine is reproduced bit for bit.

        Duplicate edges can only come from one action offering the same
        successor twice (action names are unique, so edges from distinct
        actions never collide) — planned actions are deterministic and
        cannot do that.  The optional dirty flags mark the buckets where
        some interpreted action yielded more than one successor; when
        given, dedup runs only there (``dict.fromkeys`` on a
        duplicate-free list is the identity, so skipping it is
        unobservable).

        Because frontier levels are expanded in registration order, the
        expansion order over the whole run *is* the dense-id order —
        each pass through this method appends the expanded states'
        ``(action name, target id)`` rows to the accumulator that
        :class:`~repro.core.regions.SystemIndex` later adopts, so
        nothing downstream re-derives ids from State-level edges."""
        program_edges_of = self._program_edges
        fault_edges_of = self._fault_edges
        prows, frows, id_of = self._labeled_rows
        next_frontier: List[State] = []
        for i, state in enumerate(frontier):
            program_edges = program_buckets[i]
            fault_edges = fault_buckets[i]
            if (
                len(program_edges) > 1
                and (program_dirty is None or program_dirty[i])
            ):
                program_edges = list(dict.fromkeys(program_edges))
            if (
                len(fault_edges) > 1
                and (fault_dirty is None or fault_dirty[i])
            ):
                fault_edges = list(dict.fromkeys(fault_edges))
            program_edges_of[state] = tuple(program_edges)
            if fault_edges:
                fault_edges_of[state] = tuple(fault_edges)
            for edges in (program_edges, fault_edges):
                for _, nxt in edges:
                    if nxt not in program_edges_of:
                        program_edges_of[nxt] = _EMPTY_EDGES
                        id_of[nxt] = len(id_of)
                        next_frontier.append(nxt)
                        if len(program_edges_of) > max_states:
                            raise RuntimeError(
                                f"state-space exceeds max_states={max_states} "
                                f"for {self.program.name!r}"
                            )
            prows.append(tuple((a, id_of[t]) for a, t in program_edges))
            frows.append(
                tuple((a, id_of[t]) for a, t in fault_edges)
                if fault_edges else _EMPTY_EDGES
            )
        return next_frontier

    def _explore_columnar(self, max_states: int, layout, canon_cols) -> bool:
        """The all-array engine: levels expand, dedup, and id-assign as
        numpy arrays; Python touches each edge only once, to build the
        final row tuples.

        Engages only when the whole system is kernel-expressible with a
        dense code space: a start ``layout`` (numpy backend, one start
        schema), every program *and* fault action compiled, and a state
        space small enough for a code-indexed id table.  Successor codes
        map to dense ids through that table, so interning, dedup, and
        discovery-order id assignment are all vectorized; the scalar
        engine's FIFO order is reproduced by a stable sort on
        (source, program-before-fault, action position).  On a symmetry
        quotient each kernel's successor columns pass through the
        column canonicalizer ``canon_cols`` before they are packed, so
        codes, ids and states are orbit representatives throughout.
        Returns ``False`` to hand off to the per-bucket engines
        otherwise."""
        starts = self.start_states
        if not starts:
            return True
        if layout is None or layout.space > _DENSE_ID_SPACE_LIMIT:
            return False
        schema = layout.schema
        program_actions = self.program.actions
        fault_actions = self.fault_actions
        kernels_p = [
            _kernels.batch_kernel(a, layout) for a in program_actions
        ]
        kernels_f = [_kernels.batch_kernel(a, layout) for a in fault_actions]
        if any(k is None for k in kernels_p) or any(
            k is None for k in kernels_f
        ):
            return False
        try:
            cols = layout.columns_from_states(starts)
        except KeyError:
            # a start value escaped its declared domain; codes cannot
            # represent it, so the bucket engines take over
            return False
        np = _kernels._np

        names_p = np.array([a.name for a in program_actions], dtype=object)
        names_f = np.array([a.name for a in fault_actions], dtype=object)
        #: dense code -> id table; -1 marks never-seen codes
        code_ids = np.full(layout.space, -1, dtype=np.int32)
        code_ids[layout.pack_columns(cols)] = np.arange(
            len(starts), dtype=np.int32
        )
        states_list: List[State] = list(starts)
        program_edges_of = self._program_edges
        prows, frows, id_of = self._labeled_rows
        empty = np.empty(0, dtype=np.int64)
        acc_p: List = []
        acc_f: List = []
        col_acc: List = [cols]
        frontier_lo = 0
        while True:
            n = cols.shape[1]
            # expand: one kernel call per action over the whole level
            group_arrays = []
            for kernels_g in (kernels_p, kernels_f):
                srcs, dsts, acts = [empty], [empty], [empty]
                for pos, kernel in enumerate(kernels_g):
                    idx, out = kernel(cols)
                    if out is None:
                        continue
                    if canon_cols is not None:
                        out = canon_cols(out)
                    srcs.append(idx)
                    dsts.append(layout.pack_columns(out))
                    acts.append(np.full(idx.shape[0], pos, dtype=np.int64))
                group_arrays.append(
                    tuple(np.concatenate(part) for part in (srcs, dsts, acts))
                )
            (p_src, p_dst, p_act), (f_src, f_dst, f_act) = group_arrays

            # id assignment: new codes get ids in the scalar engine's
            # discovery order — source-major, program edges before fault
            # edges, actions in declaration order (the stable sort keeps
            # the action-major concatenation order within equal keys)
            key = np.concatenate((p_src * 2, f_src * 2 + 1))
            s_dst = np.concatenate((p_dst, f_dst))[
                np.argsort(key, kind="stable")
            ]
            new_mask = code_ids[s_dst] < 0
            if new_mask.any():
                uniq, first = np.unique(s_dst[new_mask], return_index=True)
                new_codes = uniq[np.argsort(first)]
                next_id = len(states_list)
                if next_id + new_codes.shape[0] > max_states:
                    raise RuntimeError(
                        f"state-space exceeds max_states={max_states} "
                        f"for {self.program.name!r}"
                    )
                code_ids[new_codes] = np.arange(
                    next_id, next_id + new_codes.shape[0], dtype=np.int32
                )
                new_cols = layout.columns_from_codes(new_codes)
                values_of = layout.values_from_column
                for j in range(new_codes.shape[0]):
                    state = _state_of(schema, values_of(new_cols, j))
                    states_list.append(state)
                    program_edges_of[state] = _EMPTY_EDGES
                    id_of[state] = next_id + j
            else:
                new_cols = None

            # rows: per-state slices of the source-major edge arrays
            views = []
            for acc, (src, dst, act, names_g) in (
                (acc_p, (p_src, p_dst, p_act, names_p)),
                (acc_f, (f_src, f_dst, f_act, names_f)),
            ):
                order = np.argsort(src, kind="stable")
                src = src[order]
                ids_arr = code_ids[dst[order]]
                act_arr = act[order]
                acc.append((src + frontier_lo, ids_arr, act_arr))
                views.append((
                    names_g[act_arr].tolist(),
                    ids_arr.tolist(),
                    np.searchsorted(
                        src, np.arange(n + 1, dtype=np.int64)
                    ).tolist(),
                ))
            # only the id rows are assembled here; the State-level edge
            # tuples stay unmaterialized until a consumer actually walks
            # them (closure/region/tolerance sweeps never do)
            (pn, pi, pb), (fn, fi, fb) = views
            for i in range(n):
                lo, hi = pb[i], pb[i + 1]
                prows.append(tuple(zip(pn[lo:hi], pi[lo:hi])))
                lo, hi = fb[i], fb[i + 1]
                frows.append(
                    tuple(zip(fn[lo:hi], fi[lo:hi])) if lo != hi
                    else _EMPTY_EDGES
                )

            frontier_lo += n
            if new_cols is None:
                self._edge_arrays = (
                    tuple(np.concatenate(part) for part in zip(*acc_p)),
                    tuple(np.concatenate(part) for part in zip(*acc_f)),
                    [a.name for a in program_actions],
                    [a.name for a in fault_actions],
                )
                self._state_cols = (layout, np.hstack(col_acc))
                self._edges_lazy = True
                return True
            col_acc.append(new_cols)
            cols = new_cols

    def _explore_batched(
        self, max_states: int, canonical, intern, layout, canon_cols
    ) -> bool:
        """Level-synchronous BFS through compiled batch kernels.

        Planned actions expand a whole frontier level per kernel call
        (vectorized over rank columns when there is a start ``layout``,
        compiled row closures on the pure backend); unplanned actions
        fall back to interpreted ``successors`` per state, through
        ``canonical``.  On a symmetry quotient each kernel's successor
        columns pass through ``canon_cols`` first, so the codes are
        canonical and a new one becomes a State through ``intern``
        alone.  Returns ``False`` when no action compiles, handing the
        exploration back to the scalar engine."""
        starts = self.start_states
        if not starts:
            return True
        schema = starts[0]._schema
        for state in starts:
            if state._schema is not schema:
                return False
        domains = self.program._domains
        use_numpy = layout is not None
        program_actions = self.program.actions
        fault_actions = self.fault_actions
        compiled = 0
        action_kernels: Dict[int, object] = {}
        for group, actions in enumerate((program_actions, fault_actions)):
            for pos, action in enumerate(actions):
                if use_numpy:
                    kernel = _kernels.batch_kernel(action, layout)
                else:
                    kernel = _kernels.row_kernel(action, schema, domains)
                action_kernels[(group, pos)] = kernel
                if kernel is not None:
                    compiled += 1
        if not compiled:
            return False

        # successor code (canonical on quotients) or raw values-tuple ->
        # pooled state; every genuinely new state is pooled with the
        # same canonicalizer the interpreted fallback uses, so the two
        # paths hand out the same objects
        by_code: Dict[int, State] = {}
        by_values: Dict[Tuple, State] = {}
        frontier: List[State] = list(starts)
        batch_ok = True
        while frontier:
            n = len(frontier)
            program_buckets: List[List] = [[] for _ in range(n)]
            fault_buckets: List[List] = [[] for _ in range(n)]
            program_dirty = bytearray(n)
            fault_dirty = bytearray(n)
            cols = None
            if use_numpy and batch_ok:
                if all(state._schema is schema for state in frontier):
                    try:
                        cols = layout.columns_from_states(frontier)
                    except KeyError:
                        # a value escaped its declared domain (start
                        # states are caller-supplied); ranks cannot
                        # represent it, so finish interpreted
                        batch_ok = False
                else:
                    batch_ok = False
            for group, (actions, buckets, dirty) in enumerate((
                (program_actions, program_buckets, program_dirty),
                (fault_actions, fault_buckets, fault_dirty),
            )):
                for pos, action in enumerate(actions):
                    kernel = action_kernels[(group, pos)]
                    name = action.name
                    if kernel is None or (use_numpy and cols is None):
                        for i, state in enumerate(frontier):
                            successors = action.successors(state)
                            if not successors:
                                continue
                            if len(successors) > 1:
                                dirty[i] = 1
                            bucket = buckets[i]
                            for nxt in successors:
                                bucket.append((name, canonical(nxt, nxt)))
                    elif use_numpy:
                        idx, out = kernel(cols)
                        if out is None:
                            continue
                        if canon_cols is not None:
                            out = canon_cols(out)
                        codes = layout.pack_columns(out).tolist()
                        get = by_code.get
                        # resolve first (list comp + C-level membership
                        # scan), materialize the rare misses second —
                        # after the opening levels nearly every code is
                        # already interned and the miss pass never runs
                        reps = [get(code) for code in codes]
                        # identity scan, not ``None in reps``: ``in``
                        # would compare ``None == State`` element-wise,
                        # paying State.__eq__'s Mapping instance check
                        if any(rep is None for rep in reps):
                            values_of = layout.values_from_column
                            for j, rep in enumerate(reps):
                                if rep is None:
                                    code = codes[j]
                                    rep = get(code)
                                    if rep is None:
                                        raw = _state_of(
                                            schema, values_of(out, j)
                                        )
                                        rep = intern(raw, raw)
                                        by_code[code] = rep
                                    reps[j] = rep
                        for i, rep in zip(idx.tolist(), reps):
                            buckets[i].append((name, rep))
                    else:
                        get = by_values.get
                        for i, state in enumerate(frontier):
                            if state._schema is not schema:
                                successors = action.successors(state)
                                if len(successors) > 1:
                                    dirty[i] = 1
                                bucket = buckets[i]
                                for nxt in successors:
                                    bucket.append((name, canonical(nxt, nxt)))
                                continue
                            row = kernel(state._values)
                            if row is None:
                                continue
                            nxt = get(row)
                            if nxt is None:
                                raw = _state_of(schema, row)
                                nxt = canonical(raw, raw)
                                by_values[row] = nxt
                            buckets[i].append((name, nxt))
            frontier = self._assemble_level(
                frontier, program_buckets, fault_buckets, max_states,
                program_dirty, fault_dirty,
            )
        return True

    def _explore_sharded(
        self, max_states: int, canonical_many, workers: int
    ) -> bool:
        """Level-synchronous BFS over a fork process pool.

        Each frontier level is partitioned across workers by a
        deterministic hash of the canonical state's values (crc32, not
        Python's per-process-salted ``hash``); workers return raw
        successor rows tagged with their frontier position, and the
        master bulk-interns each returned row list (one
        ``canonical_many`` pass instead of a call per successor) and
        assembles them in frontier order — so the finished graph is
        bit-identical for any worker count.  Returns ``False`` on
        platforms without ``fork`` (the pool inherits the program's
        action closures by address space; guarded-command statements
        are lambdas, which do not pickle)."""
        global _SHARD_ACTIONS
        if not self.start_states:
            return True
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            return False
        _SHARD_ACTIONS = (self.program.actions, self.fault_actions)
        pool = context.Pool(processes=workers)
        try:
            frontier: List[State] = list(self.start_states)
            while frontier:
                shards: List[List] = [[] for _ in range(workers)]
                for i, state in enumerate(frontier):
                    shard = _shard_of(state._values, workers)
                    shards[shard].append(
                        (i, state._schema.names, state._values)
                    )
                n = len(frontier)
                program_buckets: List[List] = [None] * n
                fault_buckets: List[List] = [None] * n
                for part in pool.map(_expand_shard, shards):
                    for i, program_rows, fault_rows in part:
                        for rows, buckets in (
                            (program_rows, program_buckets),
                            (fault_rows, fault_buckets),
                        ):
                            reps = canonical_many([
                                _state_of(Schema.of(names), values)
                                for _, names, values in rows
                            ])
                            buckets[i] = [
                                (row[0], rep)
                                for row, rep in zip(rows, reps)
                            ]
                frontier = self._assemble_level(
                    frontier, program_buckets, fault_buckets, max_states
                )
        finally:
            _SHARD_ACTIONS = None
            pool.terminate()
            pool.join()
        return True

    # -- views ---------------------------------------------------------------
    def _materialize_edges(self) -> None:
        """Build the State-level edge tuples from the id rows.

        The columnar engine and store-loaded graphs defer this: region,
        closure, and tolerance machinery work on the rows (or the edge
        arrays) and never ask for State-level tuples, so most systems
        live and die without ever paying for them.  The first consumer
        that does ask (path finding, spec transition sweeps, direct
        ``edges_from`` callers) triggers one whole-graph pass."""
        prows, frows, _ = self._labeled_rows
        states_list = list(self._program_edges)
        program_edges_of = self._program_edges
        fault_edges_of = self._fault_edges
        for state, prow, frow in zip(states_list, prows, frows):
            if prow:
                program_edges_of[state] = tuple(
                    (name, states_list[j]) for name, j in prow
                )
            if frow:
                fault_edges_of[state] = tuple(
                    (name, states_list[j]) for name, j in frow
                )
        self._edges_lazy = False

    def program_edges_from(self, state: State) -> Sequence[Tuple[str, State]]:
        if self._edges_lazy:
            self._materialize_edges()
        return self._program_edges.get(state, _EMPTY_EDGES)

    def fault_edges_from(self, state: State) -> Sequence[Tuple[str, State]]:
        if self._edges_lazy:
            self._materialize_edges()
        return self._fault_edges.get(state, _EMPTY_EDGES)

    def edges_from(self, state: State, include_faults: bool = True
                   ) -> Sequence[Tuple[str, State]]:
        """Outgoing edges of ``state``.

        Returns the stored (immutable) edge tuple directly whenever
        possible — a copy is only made when a state really has fault
        edges to merge with its program edges, so the common case inside
        closure checks' inner loops allocates nothing.
        """
        if self._edges_lazy:
            self._materialize_edges()
        program_edges = self._program_edges.get(state, _EMPTY_EDGES)
        if not include_faults:
            return program_edges
        fault_edges = self._fault_edges.get(state)
        if not fault_edges:
            return program_edges
        return program_edges + fault_edges

    def all_edges(self, include_faults: bool = True) -> Iterable[Edge]:
        if self._edges_lazy:
            self._materialize_edges()
        for state, edges in self._program_edges.items():
            for action_name, nxt in edges:
                yield (state, action_name, nxt)
        if include_faults:
            for state, edges in self._fault_edges.items():
                for action_name, nxt in edges:
                    yield (state, action_name, nxt)

    def deadlock_states(self) -> List[State]:
        """States where no *program* action is enabled.

        These are the states where a maximal computation may legitimately
        end; fault actions never count toward enabledness (computations
        are only required to be p-maximal, Section 2.3).  Read off the
        recorded program edges — every enabled action contributed an
        edge during exploration, so no guard is re-evaluated here.
        """
        if self._edges_lazy:
            # read the id rows; every State-level value is a placeholder
            return [
                state
                for state, row in zip(
                    self._program_edges, self._labeled_rows[0]
                )
                if not row
            ]
        return [
            state
            for state, edges in self._program_edges.items()
            if not edges
        ]

    def states_satisfying(self, predicate: Predicate) -> List[State]:
        """The explored states at which ``predicate`` holds.

        Memoized per predicate *object* (identity, not formula), since
        theory checks repeatedly interrogate a system with the same
        invariant/span predicates.
        """
        cached = self._satisfying.get(predicate)
        if cached is None:
            cached = tuple(filter(predicate.fn, self._program_edges))
            self._satisfying[predicate] = cached
        return list(cached)

    # -- closure checks ------------------------------------------------------
    def is_closed(
        self,
        predicate: Predicate,
        include_faults: bool = False,
        description: Optional[str] = None,
    ) -> CheckResult:
        """Check that ``predicate`` is closed in the explored system.

        With ``include_faults=False`` this is the paper's "S is closed in
        p"; with ``include_faults=True`` it additionally requires every
        fault action to preserve the predicate ("T is closed in F",
        Section 2.3), which together with ``S ⇒ T`` makes T an F-span.
        """
        what = description or (
            f"{predicate.name} closed in {self.program.name}"
            + (" [] F" if include_faults else "")
        )
        index = system_index(self)
        bits = index.region_bits(predicate)
        if bits != index.full_bits:  # full region: every edge is internal
            hit = index.first_escaping_edge(bits, include_faults)
            if hit is not None:
                u, action_name, v = hit
                states = index.states
                return CheckResult.failed(
                    what,
                    counterexample=Counterexample(
                        kind="transition",
                        states=(states[u], states[v]),
                        actions=(action_name,),
                        note=(
                            f"{predicate.name} falsified by "
                            f"{action_name}"
                        ),
                    ),
                )
        return CheckResult.passed(what)

    def is_fault_span(self, span: Predicate, invariant: Predicate) -> CheckResult:
        """Section 2.3 *Fault-span*: ``S ⇒ T``, T closed in p, T closed in F."""
        index = system_index(self)
        gap = index.region_bits(invariant) & ~index.region_bits(span)
        if gap:
            state = index.states[first_bit(gap)]
            return CheckResult.failed(
                f"{span.name} is an F-span from {invariant.name}",
                counterexample=Counterexample(
                    kind="state",
                    states=(state,),
                    note=f"{invariant.name} holds but {span.name} does not",
                ),
            )
        closed = self.is_closed(span, include_faults=True)
        if not closed:
            return closed
        return CheckResult.passed(
            f"{span.name} is an F-span of {self.program.name} from {invariant.name}"
        )

    # -- path finding -------------------------------------------------------
    def find_path(
        self,
        sources: Iterable[State],
        goal: Predicate,
        include_faults: bool = True,
        within: Optional[Predicate] = None,
    ) -> Optional[Tuple[List[State], List[str]]]:
        """BFS for a path from any source to a goal state.

        ``within`` restricts intermediate states (sources must satisfy it
        too).  Returns ``(states, actions)`` or ``None``.
        """
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
                return _reconstruct(parents, state)
            for action_name, nxt in self.edges_from(state, include_faults):
                if within is not None and not within(nxt):
                    continue
                if nxt not in parents:
                    parents[nxt] = (state, action_name)
                    frontier.append(nxt)
        return None

    def __repr__(self) -> str:
        if self._edges_lazy:
            prows, frows, _ = self._labeled_rows
            n_program = sum(len(row) for row in prows)
            n_fault = sum(len(row) for row in frows)
        else:
            n_program = sum(len(e) for e in self._program_edges.values())
            n_fault = sum(len(e) for e in self._fault_edges.values())
        return (
            f"TransitionSystem({self.program.name!r}, {len(self.states)} states, "
            f"{n_program} program edges, {n_fault} fault edges)"
        )


# -- sharded-exploration worker side ------------------------------------------

#: (program actions, fault actions) of the exploration currently running
#: sharded; set by the master immediately before the fork pool is
#: created, so workers inherit the action objects (closures and all)
#: through the copied address space instead of pickling
_SHARD_ACTIONS: Optional[Tuple[Tuple[Action, ...], Tuple[Action, ...]]] = None


def _shard_of(values: Tuple, workers: int) -> int:
    """Deterministic shard assignment of a canonical state.  ``repr`` of
    a values-tuple is stable across processes and runs, unlike
    ``hash(str)`` which is per-process salted."""
    import zlib

    return zlib.crc32(repr(values).encode("utf-8")) % workers


def _expand_shard(rows):
    """Worker body: expand frontier rows through every action.

    Rows arrive and return as plain values-tuples tagged with frontier
    position — successor *states* never cross the process boundary, so
    the master remains the only authority on interning and
    canonicalization."""
    program_actions, fault_actions = _SHARD_ACTIONS
    out = []
    for i, names, values in rows:
        state = _state_of(Schema.of(names), values)
        program_rows = [
            (action.name, nxt._schema.names, nxt._values)
            for action in program_actions
            for nxt in action.successors(state)
        ]
        fault_rows = [
            (action.name, nxt._schema.names, nxt._values)
            for action in fault_actions
            for nxt in action.successors(state)
        ]
        out.append((i, program_rows, fault_rows))
    return out


def _reconstruct(
    parents: Dict[State, Optional[Tuple[State, str]]], goal: State
) -> Tuple[List[State], List[str]]:
    states: List[State] = [goal]
    actions: List[str] = []
    current = goal
    while parents[current] is not None:
        previous, action_name = parents[current]  # type: ignore[misc]
        states.append(previous)
        actions.append(action_name)
        current = previous
    states.reverse()
    actions.reverse()
    return states, actions


# -- memoized exploration -----------------------------------------------------

#: (program, start states, fault actions, max_states) -> TransitionSystem.
#: Programs and actions are keyed by identity (they are never mutated);
#: start states by value.  Entries hold strong references, so a cached
#: program cannot be garbage-collected out from under its key.
_SYSTEM_CACHE: "OrderedDict[Tuple, TransitionSystem]" = OrderedDict()
_SYSTEM_CACHE_MAXSIZE = 128


def explored_system(
    program: Program,
    start_states: Iterable[State],
    fault_actions: Sequence[Action] = (),
    max_states: int = DEFAULT_MAX_STATES,
    symmetric: bool = False,
    workers: Optional[int] = None,
) -> TransitionSystem:
    """A memoized :class:`TransitionSystem`.

    Repeated calls with the same program, start states, and fault
    actions return the *same* (immutable) system object — tolerance
    certificates, theory lemmas, and synthesis re-verification all
    interrogate ``p [] F`` from the same span several times, and only
    the first call pays for exploration.  The cache is a bounded LRU of
    :data:`_SYSTEM_CACHE_MAXSIZE` systems; evict explicitly with
    :func:`clear_system_cache`.

    ``symmetric=True`` explores the quotient graph under the program's
    declared symmetry (see :class:`TransitionSystem`); the declared
    group joins the cache key, so quotient and unreduced systems of the
    same ``p [] F`` are cached independently.  ``workers`` is *not* part
    of the cache key: sharded and in-process exploration produce
    bit-identical systems, so a cached system satisfies any worker
    count.  The resolved engine *is* part of the key — the interpreted
    backend serves as the oracle in parity tests, so a columnar-built
    system must never satisfy an interpreted-mode caller (and vice
    versa).

    When a certificate store is active (:mod:`repro.store`), a cache
    miss first tries to load the graph — or reassemble it from
    per-action row artifacts when only one action changed — before
    exploring; fresh explorations are recorded for later runs.  The
    interpreted oracle always explores for real.
    """
    starts = tuple(dict.fromkeys(start_states))
    faults = tuple(fault_actions)
    engine = (
        "interpreted" if _kernels.get_backend() == "interpreted"
        else _kernels.resolved_backend()
    )
    # Program and Action objects hash/compare by identity (they are never
    # mutated after construction); start states compare by value.
    key = (
        program, starts, faults, max_states,
        program.symmetry if symmetric else None,
        engine,
    )
    system = _SYSTEM_CACHE.get(key)
    if system is not None:
        _SYSTEM_CACHE.move_to_end(key)
        return system
    use_store = engine != "interpreted"
    if use_store:
        system = _store_load(program, starts, faults, max_states, symmetric)
    if system is None:
        system = TransitionSystem(
            program, starts, fault_actions=faults, max_states=max_states,
            symmetric=symmetric, workers=workers,
        )
        if use_store:
            _store_save(system, starts, max_states, symmetric)
    _SYSTEM_CACHE[key] = system
    if len(_SYSTEM_CACHE) > _SYSTEM_CACHE_MAXSIZE:
        _SYSTEM_CACHE.popitem(last=False)
    return system


def _store_load(program, starts, faults, max_states, symmetric):
    """Serve an exploration from the certificate store; ``None`` (and
    never an exception) means explore for real."""
    try:
        from ..store import artifacts as _store_artifacts

        return _store_artifacts.load_or_assemble_system(
            program, starts, faults, max_states, symmetric
        )
    except Exception:
        return None


def _store_save(system, starts, max_states, symmetric) -> None:
    try:
        from ..store import artifacts as _store_artifacts

        _store_artifacts.save_system_artifacts(
            system, starts, max_states, symmetric
        )
    except Exception:
        pass


def clear_system_cache() -> None:
    """Drop every memoized transition system (and the per-program start
    state caches kept by :class:`~repro.core.program.Program`)."""
    _SYSTEM_CACHE.clear()
    Program.clear_state_caches()


def clear_all_caches() -> None:
    """Reset the library to a cache-cold state.

    :func:`clear_system_cache` drops the memoized systems, the
    per-program state/start-set caches, the shared full-space universe
    indexes, and every registered downstream memo — but the per-
    :class:`~repro.core.action.Action` successor and equivalence-class
    memos live on action objects held by long-lived models, and survive
    it.  (The ``action_edges`` row-translation memos do *not* need
    separate treatment: they hang off ``StateIndex`` objects whose
    lifetimes end with the universe cache or with the cached systems'
    region indexes, both already dropped above.)  Compiled batch
    kernels and interned layouts
    (:func:`repro.core.kernels.clear_kernel_caches`) are drained here
    too, so cold starts pay for plan compilation like any other cache
    miss.  The certificate store's open handles and in-process memos
    (:func:`repro.store.reset_store_handles`) are reset as well — the
    store stays *active* and its persistent artifacts survive, which is
    exactly the difference between the ``--cold`` and ``--warm``
    benchmark modes.  Benchmark cold-start paths call this so recorded
    numbers include every cache miss.
    """
    clear_system_cache()
    Action.clear_successor_caches()
    _kernels.clear_kernel_caches()
    # the symbolic lint analyzer's truth tables and per-action analyses
    # (only when the module was ever imported — don't force it in)
    symbolic = sys.modules.get("repro.analysis.symbolic")
    if symbolic is not None:
        symbolic.clear_symbolic_caches()
    try:
        from ..store import backend as _store_backend

        _store_backend.reset_handles()
    except Exception:
        pass
