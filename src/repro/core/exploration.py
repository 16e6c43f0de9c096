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

- two engines build every graph: the columnar engine (whole frontier
  levels as code and rank-column arrays) and the interpreted one, the
  oracle it is tested against;
- the ids are the registry: :attr:`TransitionSystem.states` is a tuple
  in id order, every explored state registered once, so the states
  held by a system are pointer-equal iff value-equal.  The columnar
  engine registers states by packed code and hashes none; the
  interpreted engine canonicalizes successors through a
  :class:`~repro.core.state.StateInterner` (or an orbit
  canonicalizer) seeded with the start states;
- the id-level graph is one set of edge arrays per system
  (``_edge_arrays``), left by every engine and by the store's loaders;
  State-level edge lists are built from them on first use, as tuples
  handed out *unsliced* — :meth:`TransitionSystem.edges_from` only
  concatenates when a state actually has fault edges to merge in;
- :meth:`deadlock_states` reads the recorded program edges instead of
  re-evaluating every guard;
- :func:`explored_system` memoizes whole systems in a bounded LRU keyed
  on (program, start states, fault actions, max_states), a start set
  ``p | T`` being a universe :class:`~repro.core.regions.Region` keyed
  by its bits (:func:`system_from`), so tolerance
  certificates and synthesis pipelines that interrogate the same
  ``p [] F`` repeatedly explore it once.  ``clear_system_cache`` resets
  the table (programs and actions are keyed by identity, so the cache
  can only go stale if an Action object is mutated in place — which
  nothing in the library does).
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from itertools import chain
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from . import kernels as _kernels
from .action import Action
from .predicate import Predicate
from .program import Program
from .regions import (
    Region, _unpack_bits, iter_bits, paused_gc, system_index, universe_index,
)
from .results import CheckResult, Counterexample, all_of
from .state import State, StateInterner
from .symmetry import SymmetryError

__all__ = [
    "Edge",
    "TransitionSystem",
    "explored_system",
    "system_from",
    "clear_system_cache",
    "clear_all_caches",
]

#: A labelled edge: (source, action name, target).
Edge = Tuple[State, str, State]

#: Default cap on explored states (a safety valve, not a tuning knob).
DEFAULT_MAX_STATES = 2_000_000

#: Largest code space the columnar engine will allocate a dense
#: code -> id table for (int32 entries: 64 MiB at the limit); larger
#: spaces map codes to ids through a sorted code array.
_DENSE_ID_SPACE_LIMIT = 1 << 24

#: Largest declared state space (Cartesian product of domains) the
#: interpreted engine handles outright; above this the columnar
#: engine's per-level vectorization wins over its setup cost.
_SMALL_SPACE_STATES = 128

_EMPTY_EDGES: Tuple[Tuple[str, State], ...] = ()


def set_default_workers(workers: Optional[int]) -> None:
    """Accept the in-process worker count, ``None`` or 1, and refuse
    any other.  Exploration always runs in process; kept only for the
    benchmark child (``perfbench/child.py``), which still turns the
    removed process pool off by name."""
    if workers not in (None, 1):
        raise ValueError(
            f"exploration runs in process, not on {workers} workers; "
            f"scale a census out with distributed_census"
        )


class TransitionSystem:
    """The reachable transition graph of ``program [] faults`` from
    ``start_states``.

    Parameters
    ----------
    program:
        The program whose actions drive (fair) computation steps.
    start_states:
        Iterable of states exploration begins from, deduplicated by
        value in order; or a :class:`~repro.core.regions.Region`, whose
        states are taken in index order with nothing hashed (the
        universe region of an invariant or fault-span predicate, see
        :func:`system_from`, or a region of another system's index).
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

        indexed = None
        if isinstance(start_states, Region):
            # its states are unique and in index order already, so none
            # is hashed
            indexed = (start_states.index, start_states.id_array())
            self.start_states: Tuple[State, ...] = tuple(map(
                start_states.index.states.__getitem__, indexed[1].tolist()
            ))
        else:
            self.start_states = tuple(dict.fromkeys(start_states))
        #: the state registry (see :attr:`states`); engines grow it as a
        #: list and leave a tuple
        self._states: Sequence[State] = ()
        #: outgoing program and fault edges per source state, ``state ->
        #: ((action, next), ...)``; ``None`` until a consumer walks
        #: State-level edges (:meth:`_materialize_edges`)
        self._program_edges: Optional[Dict[State, Tuple]] = None
        self._fault_edges: Optional[Dict[State, Tuple]] = None
        #: the id-level graph, left by every engine (and by the store's
        #: loaders): ((src ids, dst ids, action positions) for program
        #: and fault edges, program names, fault names), each group's
        #: int64 arrays sorted by source id with actions in declaration
        #: order.  ``SystemIndex`` derives successors, predecessors,
        #: deadlocks and enabledness from it
        self._edge_arrays = None
        #: (layout, rank-column matrix) of the explored states in id
        #: order, retained by the columnar engine for vectorized
        #: predicate sweeps (:meth:`~repro.core.regions.StateIndex`)
        self._state_cols = None
        self._explore(max_states, indexed)

    # -- construction ------------------------------------------------------
    @property
    def states(self) -> Tuple[State, ...]:
        """All explored states in id order: the deterministic BFS
        discovery order, start states first, so ``states[i]`` is the
        state the edge arrays and region bitsets call ``i``."""
        return self._states

    def _explore(self, max_states: int, indexed) -> None:
        layout, cols = self._start_columns(indexed)
        canonicalizer = canon_cols = None
        if self.symmetry is not None:
            # orbit canonicalization: each state maps to the minimal
            # representative of its symmetry orbit, so the BFS
            # materializes the quotient graph directly.  The array
            # engine canonicalizes whole successor blocks as rank
            # columns (``canon_cols``); the interpreted engine goes
            # state by state
            canonicalizer = self.symmetry.canonicalizer(self.program)
            if layout is not None:
                canon_cols = self.symmetry._compile_columns(layout)
                self.start_states, cols = self._canonical_starts(
                    layout, cols, canon_cols
                )
            else:
                self.start_states = tuple(dict.fromkeys(
                    canonicalizer.canonical_many(self.start_states)
                ))
        # Two engines, one transition graph: columnar (whole frontier
        # levels as code and rank-column arrays) and interpreted (the
        # oracle).  Both register states and edges in the exact same
        # order and leave the same edge arrays, so which engine ran is
        # unobservable from the finished system (pinned by tests).
        self._register_starts()
        # Pause generational GC for the build: the registry and the
        # interpreted engine's pool hold every State, and letting
        # collections rescan them costs more than the whole expansion
        with paused_gc():
            if layout is not None and self._explore_columnar(
                max_states, layout, cols, canon_cols
            ):
                return
            self._explore_interpreted(max_states, canonicalizer)

    def _register_starts(self) -> None:
        """Reset the state registry to the start states alone, ids in
        start order."""
        self._states = self.start_states

    def _pool(self, canonicalizer):
        """``canonical(state, state)`` for the interpreted engine: orbit
        representatives through ``canonicalizer`` on a quotient, else a
        fresh interner (``setdefault(s, s)`` returns the pooled state,
        exactly ``StateInterner.canonical`` without the method frame).
        The pool is seeded with the start states, so successors equal
        to one resolve to it."""
        if canonicalizer is None:
            pool = canonical = StateInterner()._pool.setdefault
        else:
            pool = canonicalizer.pool
            canonical = canonicalizer.canonical
        for state in self.start_states:
            pool(state, state)
        return canonical

    def _edge_lists(self):
        """The accumulators :meth:`_assemble_level` fills: the registry
        (as a list, now the start states), the state -> id map, action
        name -> declaration position, and per group (program, fault)
        the src, dst and act id lists."""
        position = {
            action.name: pos
            for actions in (self.program.actions, self.fault_actions)
            for pos, action in enumerate(actions)
        }
        starts = self.start_states
        self._states = list(starts)
        return (
            self._states, {state: i for i, state in enumerate(starts)},
            position, ([], [], []), ([], [], []),
        )

    def _set_edge_arrays(self, program_ids, fault_ids) -> None:
        """Record the id-level graph from per-group ``(src, dst, act)``
        sequences, each sorted by source id with actions in declaration
        order (see ``_edge_arrays``), and freeze the registry."""
        self._states = tuple(self._states)
        self._edge_arrays = (
            tuple(np.asarray(part, dtype=np.int64) for part in program_ids),
            tuple(np.asarray(part, dtype=np.int64) for part in fault_ids),
            [a.name for a in self.program.actions],
            [a.name for a in self.fault_actions],
        )

    def _start_columns(self, indexed):
        """``(layout, rank columns of the start states)`` for the array
        engine, or ``(None, None)``: it needs the numpy backend, a space
        above :data:`_SMALL_SPACE_STATES` (the tiny-space path is
        interpreted: no arrays for it to set up), one start schema and
        every start value inside its declared domain.  Starts from an
        index with a rank matrix (a universe's, or the one the columnar
        engine left on a system) slice it by their ids."""
        starts = self.start_states
        if (
            not starts or _kernels.resolved_backend() != "numpy"
            or self.program.state_count() <= _SMALL_SPACE_STATES
        ):
            return None, None
        if indexed is not None:
            index, ids = indexed
            cols = index._columns(ids)
            if cols is not None:
                return index._layout, cols
        schema = starts[0]._schema
        if any(state._schema is not schema for state in starts):
            return None, None
        layout = _kernels.layout_for(schema, self.program._domains)
        if layout is not None:
            try:
                return layout, layout.columns_from_states(starts)
            except KeyError:
                pass  # a start value outside its domain: only plans hold it
        return None, None

    def _canonical_starts(self, layout, cols, canon_cols):
        """The orbit representatives of the (value-deduplicated) start
        states, in order of first occurrence, and their rank columns.

        One array pass: a start state that is already canonical
        represents its own orbit, and a State is built only for orbits
        no start state represents.  Nothing is pooled; the interpreted
        engine seeds its pool with the result (:meth:`_pool`)."""
        starts = self.start_states
        canon = canon_cols(cols)
        canon_codes = layout.pack_columns(canon)
        codes, first = np.unique(canon_codes, return_index=True)
        own = np.full(codes.shape[0], -1, dtype=np.int64)
        fixed = np.flatnonzero(layout.pack_columns(cols) == canon_codes)
        own[np.searchsorted(codes, canon_codes[fixed])] = fixed
        order = np.argsort(first)
        own = own[order]
        reps = canon[:, first[order]]
        built = iter(layout.states_from_columns(reps[:, own < 0]))
        return tuple(
            starts[i] if i >= 0 else next(built) for i in own.tolist()
        ), reps

    def _explore_interpreted(self, max_states: int, canonicalizer) -> None:
        """The interpreted engine, and the oracle the columnar engine is
        tested against: level-synchronous BFS, one ``Action.successors``
        call per (state, action) pair, each level folded by
        :meth:`_assemble_level`.

        It runs under ``set_backend("interpreted")``, for state spaces
        of at most :data:`_SMALL_SPACE_STATES` codes (where the array
        engine's setup — layout construction and one compilation attempt
        per action — costs more than the whole expansion), for programs
        with no planned action, and for start sets or successors no
        layout can hold."""
        canonical = self._pool(canonicalizer)
        frontier: List[State] = list(self.start_states)
        program_actions = self.program.actions
        fault_actions = self.fault_actions
        lists = self._edge_lists()
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
                frontier, program_buckets, fault_buckets, max_states, lists
            )
        self._set_edge_arrays(*lists[3:])

    def _assemble_level(
        self,
        frontier: List[State],
        program_buckets: List[List[Tuple[str, State]]],
        fault_buckets: List[List[Tuple[str, State]]],
        max_states: int,
        lists,
    ) -> List[State]:
        """Fold one expanded frontier level into the registry and the
        id lists.

        Buckets hold each frontier state's edges in program-then-fault,
        action-major order, and new states are registered per source
        state in edge order: the discovery order (and the
        ``max_states`` raise point) of a FIFO BFS, which the columnar
        engine reproduces bit for bit.

        Duplicate edges can only come from one action offering the same
        successor twice (action names are unique, so edges from distinct
        actions never collide); ``dict.fromkeys`` drops the repeats and
        keeps the first.

        Because frontier levels are expanded in registration order, the
        expansion order over the whole run *is* the dense-id order, so
        appending each expanded state's edges to the id ``lists`` (see
        :meth:`_edge_lists`) keeps them sorted by source id with actions
        in declaration order: the edge arrays of the columnar engine."""
        registry, id_of, position, program_ids, fault_ids = lists
        next_frontier: List[State] = []
        for i, state in enumerate(frontier):
            u = id_of[state]
            for edges, (src, dst, act) in (
                (program_buckets[i], program_ids),
                (fault_buckets[i], fault_ids),
            ):
                if len(edges) > 1:
                    edges = dict.fromkeys(edges)
                for name, nxt in edges:
                    v = id_of.get(nxt)
                    if v is None:
                        v = id_of[nxt] = len(registry)
                        registry.append(nxt)
                        next_frontier.append(nxt)
                        if v >= max_states:
                            raise RuntimeError(
                                f"state-space exceeds max_states={max_states} "
                                f"for {self.program.name!r}"
                            )
                    src.append(u)
                    dst.append(v)
                    act.append(position[name])
        return next_frontier

    def _explore_columnar(self, max_states: int, layout, cols, canon_cols
                          ) -> bool:
        """The array engine: levels expand, dedup, and id-assign as
        numpy arrays, and each level's edges join the edge arrays as
        they are, with no per-edge Python object.

        A level is its packed codes next to its rank columns.  Planned
        actions expand it by family (the program's and the faults'
        same-shape plans, see :func:`repro.core.kernels.action_families`:
        one stacked kernel call per member group, one memo per level so
        the guard terms several actions repeat are computed once), which
        return successor codes directly.
        Unplanned ones run their interpreted ``successors`` over the
        level's states, and all of a level's unplanned successors are
        packed in one conversion.  On a symmetry quotient the level's
        stacked successor codes are unpacked once, pass through the
        column canonicalizer ``canon_cols`` and are packed again, so
        codes, ids and states are orbit representatives throughout.
        Codes map to dense ids through :class:`_CodeIds`, so interning,
        dedup, and discovery-order id assignment are all vectorized;
        the interpreted engine's FIFO order is reproduced by a stable
        sort on (source, program-before-fault, action position), which
        keeps the order a nondeterministic action gives its successors
        in.  A level's new codes are unpacked once, and their States
        built in bulk from the columns.

        Returns ``False``, with the registry reset to the start states,
        when no action has a kernel for ``layout`` or a successor
        escapes it (a value outside its declared domain, a state of
        another schema); the interpreted engine then runs."""
        # per group (program, fault): the families of the planned
        # actions and (position, action) of the unplanned ones
        planned: List[List] = []
        unplanned: List[List] = []
        for actions in (self.program.actions, self.fault_actions):
            families, rest = _kernels.action_families(actions, layout)
            planned.append(families)
            unplanned.append([(pos, actions[pos]) for pos in rest])
        if not (planned[0] or planned[1]):
            return False
        schema = layout.schema
        codes = layout.pack_columns(cols)
        code_ids = _CodeIds(layout.space, codes)
        registry = self._states = list(self.start_states)
        empty = np.empty(0, dtype=np.int64)
        acc_p: List = []
        acc_f: List = []
        col_acc: List = [cols]
        frontier_lo = 0
        while True:
            n = cols.shape[1]
            # edges as (key, code, action position) arrays, with key =
            # 2 * source + group (program 0, fault 1)
            keys, dsts, acts = [empty], [empty], [empty]
            memo: Dict = {}
            repeats = False
            fired = []
            for group, families in enumerate(planned):
                for family in families:
                    for src, member, out in family.expand(codes, cols, memo):
                        act = family.action_ids(member, out.shape[0])
                        fired.append((group, int(act[0]), src, act, out))
                        if canon_cols is not None and family.choices > 1:
                            # on a quotient two values of one choice
                            # may share an orbit
                            repeats = True
            # parts in declaration order, as the lexsort below takes
            # them fastest (action-major runs of ascending sources)
            fired.sort(key=lambda part: part[:2])
            for group, _, src, act, out in fired:
                keys.append(src * 2 + group)
                acts.append(act)
                dsts.append(out)
            found: List[State] = []
            if unplanned[0] or unplanned[1]:
                level = registry[frontier_lo:frontier_lo + n]
            for group, actions_g in enumerate(unplanned):
                for pos, action in actions_g:
                    successors = list(map(action.successors, level))
                    counts = np.fromiter(
                        map(len, successors), dtype=np.int64, count=n
                    )
                    total = int(counts.sum())
                    if not total:
                        continue
                    repeats = repeats or int(counts.max()) > 1
                    found.extend(chain.from_iterable(successors))
                    keys.append(np.repeat(
                        np.arange(group, 2 * n, 2, dtype=np.int64), counts
                    ))
                    acts.append(np.full(total, pos, dtype=np.int64))
            if found:
                out = None
                if all(state._schema is schema for state in found):
                    try:
                        out = layout.columns_from_states(found)
                    except KeyError:
                        pass
                if out is None:
                    # a successor the layout cannot hold: start over
                    self._register_starts()
                    return False
                dsts.append(layout.pack_columns(out))
            key = np.concatenate(keys)
            dst = np.concatenate(dsts)
            act = np.concatenate(acts)
            if canon_cols is not None and dst.size:
                dst = layout.pack_columns(
                    canon_cols(layout.columns_from_codes(dst))
                )
            # FIFO order: source-major, program edges before fault
            # edges, actions in declaration order; lexsort is stable,
            # so a nondeterministic action's successors keep their order
            order = np.lexsort((act, key))
            key, dst, act = key[order], dst[order], act[order]
            if repeats:
                # an action offered one successor (or, on a quotient,
                # one orbit) twice: keep the first edge
                by_code = np.lexsort((dst, act, key))
                k, a, d = key[by_code], act[by_code], dst[by_code]
                again = (
                    (k[1:] == k[:-1]) & (a[1:] == a[:-1]) & (d[1:] == d[:-1])
                )
                keep = np.ones(key.shape[0], dtype=bool)
                keep[by_code[1:][again]] = False
                key, dst, act = key[keep], dst[keep], act[keep]

            # id assignment: new codes get ids in discovery order
            ids = code_ids.lookup(dst)
            new_mask = ids < 0
            new_codes = None
            if new_mask.any():
                uniq, first, inverse = np.unique(
                    dst[new_mask], return_index=True, return_inverse=True
                )
                next_id = len(registry)
                count = uniq.shape[0]
                if next_id + count > max_states:
                    raise RuntimeError(
                        f"state-space exceeds max_states={max_states} "
                        f"for {self.program.name!r}"
                    )
                discovered = np.argsort(first)
                uniq_ids = np.empty(count, dtype=np.int64)
                uniq_ids[discovered] = np.arange(next_id, next_id + count)
                code_ids.add(uniq, uniq_ids)
                ids[new_mask] = uniq_ids[inverse]
                new_codes = uniq[discovered]

            fault = (key & 1).astype(bool)
            for acc, mask in ((acc_p, ~fault), (acc_f, fault)):
                acc.append(
                    ((key[mask] >> 1) + frontier_lo, ids[mask], act[mask])
                )

            frontier_lo += n
            if new_codes is None:
                self._set_edge_arrays(*(
                    tuple(np.concatenate(part) for part in zip(*acc))
                    for acc in (acc_p, acc_f)
                ))
                self._state_cols = (layout, np.hstack(col_acc))
                return True
            codes = new_codes
            cols = layout.columns_from_codes(codes)
            col_acc.append(cols)
            registry.extend(layout.states_from_columns(cols))

    # -- views ---------------------------------------------------------------
    def _materialize_edges(self) -> None:
        """Build the State-level edge tuples from the edge arrays, the
        only place they are built.

        No engine builds them: region, closure, and tolerance machinery
        work on the edge arrays and never ask for State-level tuples, so
        most systems live and die without ever paying for them.  The
        first consumer that does ask (spec transition sweeps, program
        refinement's step simulation, direct ``edges_from`` callers)
        triggers one whole-graph pass."""
        states = self._states
        program_ids, fault_ids, names_p, names_f = self._edge_arrays
        tables = []
        for (src, dst, act), names in (
            (program_ids, names_p), (fault_ids, names_f)
        ):
            bounds = np.searchsorted(
                src, np.arange(len(states) + 1, dtype=np.int64)
            )
            edges = list(zip(
                map(names.__getitem__, act.tolist()),
                map(states.__getitem__, dst.tolist()),
            ))
            sources = np.flatnonzero(np.diff(bounds)).tolist()
            bounds = bounds.tolist()
            tables.append({
                states[u]: tuple(edges[bounds[u]:bounds[u + 1]])
                for u in sources
            })
        self._program_edges, self._fault_edges = tables

    def program_edges_from(self, state: State) -> Sequence[Tuple[str, State]]:
        if self._program_edges is None:
            self._materialize_edges()
        return self._program_edges.get(state, _EMPTY_EDGES)

    def fault_edges_from(self, state: State) -> Sequence[Tuple[str, State]]:
        if self._program_edges is None:
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
        if self._program_edges is None:
            self._materialize_edges()
        program_edges = self._program_edges.get(state, _EMPTY_EDGES)
        if not include_faults:
            return program_edges
        fault_edges = self._fault_edges.get(state)
        if not fault_edges:
            return program_edges
        return program_edges + fault_edges

    def all_edges(self, include_faults: bool = True) -> Iterable[Edge]:
        if self._program_edges is None:
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
        index = system_index(self)
        states = index.states
        return [states[i] for i in iter_bits(index.deadlock_bits, index.n)]

    def states_satisfying(self, predicate: Predicate) -> List[State]:
        """The explored states at which ``predicate`` holds.

        Memoized per predicate *object* (identity, not formula) by the
        system's region index, since theory checks repeatedly
        interrogate a system with the same invariant/span predicates.
        """
        return list(system_index(self).satisfying(predicate))

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
        """Section 2.3 *Fault-span*: ``S ⇒ T`` over the program's state
        space, as the tolerance certificates check it, and T closed in
        p and in F."""
        from .tolerance import check_implication  # tolerance imports us

        return all_of(
            [
                check_implication(self.program, invariant, span),
                self.is_closed(span, include_faults=True),
            ],
            description=(
                f"{span.name} is an F-span of {self.program.name} "
                f"from {invariant.name}"
            ),
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
        too).  Returns ``(states, actions)`` or ``None``.  The search is
        :meth:`~repro.core.regions.SystemIndex.path` on the predicates'
        regions; a source the system never explored has no edges and is
        skipped, even when it satisfies ``goal``.
        """
        index = system_index(self)
        id_of = index.id_of
        found = index.path(
            [id_of[s] for s in sources if s in id_of],
            _unpack_bits(index.region_bits(goal), index.n),
            None if within is None
            else _unpack_bits(index.region_bits(within), index.n),
            include_faults,
        )
        if found is None:
            return None
        ids, actions = found
        return [index.states[i] for i in ids], actions

    def __repr__(self) -> str:
        (program_src, _, _), (fault_src, _, _), _, _ = self._edge_arrays
        return (
            f"TransitionSystem({self.program.name!r}, {len(self.states)} states, "
            f"{program_src.shape[0]} program edges, "
            f"{fault_src.shape[0]} fault edges)"
        )


class _CodeIds:
    """Packed code -> dense state id map of one columnar run; codes not
    registered map to -1.

    Code spaces up to :data:`_DENSE_ID_SPACE_LIMIT` get a code-indexed
    table, so a lookup is one gather.  Larger ones (the k=13 Byzantine
    quotient's space has 8.3e16 codes) keep the registered codes
    sorted, with their ids alongside, and look codes up with
    ``np.searchsorted``."""

    __slots__ = ("table", "codes", "ids")

    def __init__(self, space: int, start_codes):
        ids = np.arange(start_codes.shape[0], dtype=np.int64)
        if space <= _DENSE_ID_SPACE_LIMIT:
            self.table = np.full(space, -1, dtype=np.int32)
            self.table[start_codes] = ids
        else:
            self.table = None
            order = np.argsort(start_codes)
            self.codes = start_codes[order]
            self.ids = ids[order]

    def lookup(self, codes):
        """The ids of ``codes`` (a new array; -1 where unregistered)."""
        if self.table is not None:
            return self.table[codes]
        pos = np.searchsorted(self.codes, codes)
        pos[pos == self.codes.shape[0]] = 0
        return np.where(self.codes[pos] == codes, self.ids[pos], -1)

    def add(self, codes, ids) -> None:
        """Register sorted, unregistered ``codes`` under ``ids``."""
        if self.table is not None:
            self.table[codes] = ids
            return
        at = np.searchsorted(self.codes, codes)
        self.codes = np.insert(self.codes, at, codes)
        self.ids = np.insert(self.ids, at, ids)


# -- memoized exploration -----------------------------------------------------

#: (program, start states, fault actions, max_states) -> TransitionSystem.
#: Programs and actions are keyed by identity (they are never mutated);
#: start states by value, or a start Region by itself.  Entries hold
#: strong references, so a cached program cannot be garbage-collected
#: out from under its key.
_SYSTEM_CACHE: "OrderedDict[Tuple, TransitionSystem]" = OrderedDict()
_SYSTEM_CACHE_MAXSIZE = 128


def explored_system(
    program: Program,
    start_states: Union[Iterable[State], Region],
    fault_actions: Sequence[Action] = (),
    max_states: int = DEFAULT_MAX_STATES,
    symmetric: bool = False,
) -> TransitionSystem:
    """A memoized :class:`TransitionSystem`.

    Repeated calls with the same program, start states, and fault
    actions return the *same* (immutable) system object — tolerance
    certificates, theory lemmas, and synthesis re-verification all
    interrogate ``p [] F`` from the same span several times, and only
    the first call pays for exploration.  The cache is a bounded LRU of
    :data:`_SYSTEM_CACHE_MAXSIZE` systems; evict explicitly with
    :func:`clear_system_cache`.

    ``start_states`` is either an iterable of states, keyed by value
    (deduplicated, in order), or a :class:`~repro.core.regions.Region`
    (:func:`system_from` passes one of the universe index), keyed by
    itself: ``(index, bits)``, one big-int hash and no State hash.  The
    two forms never share an entry, even for equal start sets.

    ``symmetric=True`` explores the quotient graph under the program's
    declared symmetry (see :class:`TransitionSystem`); the declared
    group joins the cache key, so quotient and unreduced systems of the
    same ``p [] F`` are cached independently.  The resolved engine is
    part of the key too: the interpreted backend serves as the oracle
    in parity tests, so a columnar-built system must never satisfy an
    interpreted-mode caller (and vice versa).

    When a certificate store is active (:mod:`repro.store`), a cache
    miss first tries to load the graph — or reassemble it from
    per-action row artifacts when only one action changed — before
    exploring; fresh explorations are recorded for later runs.  The
    interpreted oracle always explores for real.
    """
    if isinstance(start_states, Region):
        starts = start_states
    else:
        starts = tuple(dict.fromkeys(start_states))
    faults = tuple(fault_actions)
    engine = (
        "interpreted" if _kernels.get_backend() == "interpreted"
        else _kernels.resolved_backend()
    )
    # Program and Action objects hash/compare by identity (they are never
    # mutated after construction); start states compare by value, and a
    # start Region by (index identity, bits).
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
            symmetric=symmetric,
        )
        if use_store:
            _store_save(system, starts, max_states, symmetric)
    _SYSTEM_CACHE[key] = system
    if len(_SYSTEM_CACHE) > _SYSTEM_CACHE_MAXSIZE:
        _SYSTEM_CACHE.popitem(last=False)
    return system


def system_from(
    program: Program,
    from_: Predicate,
    fault_actions: Sequence[Action] = (),
    max_states: int = DEFAULT_MAX_STATES,
    symmetric: bool = False,
) -> TransitionSystem:
    """The memoized reachable system of ``program [] faults`` from
    ``program | from_``, the states satisfying ``from_`` (the start set
    of every certificate of Section 2.4).

    The start set is the predicate's region of the program's universe
    index when the space is materialized, so neither keying nor
    starting the exploration hashes a State, and the plain state list
    otherwise.  ``symmetric=True`` builds the quotient under the
    program's declared symmetry; the caller must ensure ``from_`` is a
    union of orbits (the tolerance checkers validate this)."""
    index = universe_index(program)
    if index is None:
        starts = program.states_satisfying(from_)
    else:
        starts = index.region(from_)
    return explored_system(
        program, starts, fault_actions, max_states, symmetric
    )


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
