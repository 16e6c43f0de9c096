"""Liveness checking under weak fairness.

The paper's computations are *fair* and *maximal* sequences (Section 2.1):
every action that is continuously enabled is eventually executed, and a
finite computation ends only where every guard is false.  The liveness
obligations in the detector and corrector specifications (*Progress*,
*Convergence*) and in `converges to` all have the shape

    leads-to:  whenever ``source`` holds, eventually ``target`` holds

and on a finite transition graph they can be decided exactly:

A leads-to obligation is **violated** iff from some reachable state
satisfying ``source ∧ ¬target`` there is either

1. a path inside ``¬target`` ending in a *deadlock* (no program action
   enabled — a legitimate end of a maximal computation), or
2. a path inside ``¬target`` into a *fair-recurrent* SCC: a strongly
   connected subgraph with at least one internal edge in which, for every
   program action enabled at **all** of its states, some internal edge is
   labelled by that action.  A computation may cycle in such an SCC
   forever without violating weak fairness; conversely, if some action is
   enabled everywhere in the SCC but every one of its edges leaves the
   SCC, any run confined there starves that action and is unfair.

Per the paper's Assumption 2 (finitely many fault occurrences), fairness
and hence recurrence are always judged over **program edges only**.
Fault edges participate in two ways: they extend the set of reachable
states where an obligation can arise, and they may carry a pending
obligation deeper into the avoid-region (a computation may take finitely
many more fault steps before its program-only suffix begins) — so the
forward closure inside ``¬target`` follows fault edges as well.  Fault
edges never count as help toward progress, since a computation is never
required to execute them.
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple,
)

from .exploration import TransitionSystem
from .kernels import _distinct
from .predicate import Predicate
from .regions import (
    Region,
    SystemIndex,
    _data_to_mask,
    _np,
    _unpack_bits,
    closure_mask,
    csr_of,
    first_bit,
    paused_gc,
    system_index,
)
from .results import CheckResult, Counterexample
from .state import State

__all__ = [
    "strongly_connected_components",
    "fair_recurrent_sccs",
    "check_leads_to",
    "check_converges_to",
    "liveness_violating_states",
]


def strongly_connected_components(
    nodes: Iterable[Hashable],
    edges_from,
) -> List[Set[Hashable]]:
    """Iterative Tarjan SCC over an implicit graph: :func:`_tarjan_ids`
    on ids given to the nodes as they are first seen.

    ``edges_from(node)`` must yield successor nodes (already restricted
    to the node set by the caller).
    """
    id_of: Dict[Hashable, int] = {}
    node_of: List[Hashable] = []

    def ids(node: Hashable) -> int:
        u = id_of.get(node)
        if u is None:
            u = id_of[node] = len(node_of)
            node_of.append(node)
        return u

    components = _tarjan_ids(
        [ids(node) for node in nodes],
        lambda u: map(ids, edges_from(node_of[u])),
    )
    return [{node_of[u] for u in component} for component in components]


def fair_recurrent_sccs(ts: TransitionSystem, region) -> List[Set[State]]:
    """SCCs of the program-edge subgraph on ``region`` in which a weakly
    fair computation can remain forever.

    ``region`` may be a set of states or a
    :class:`~repro.core.regions.Region` over the system's index.

    See the module docstring for the characterization.  Decided over the
    system's dense index: iterative Tarjan on integer ids, with the
    starvation test run over the program-edge arrays.  States in
    ``region`` that the system never explored have no edges, so they
    can only form trivial SCCs and are skipped outright.
    """
    index = system_index(ts)
    if isinstance(region, Region):
        region_bits = region.bits
    else:
        region_bits = index.region_of(region).bits
    components = _fair_recurrent_component_ids(ts, index, region_bits)
    states = index.states
    return [{states[u] for u in component} for component in components]


def _fair_recurrent_component_ids(
    ts: TransitionSystem,
    index: SystemIndex,
    region_bits: int,
) -> List[List[int]]:
    """Id-level core of :func:`fair_recurrent_sccs`.

    On a symmetry quotient the starvation test is *orbit-granular*:
    canonicalization re-sorts replica blocks along quotient edges, so
    the process waiting for action ``IB2.2`` in the full graph may be
    "process 1" at one quotient representative and "process 3" at the
    next — no single action stays continuously enabled even where the
    full graph starves one.  The weak-fairness obligation therefore
    attaches to each declared *action-name orbit* (see
    :meth:`~repro.core.symmetry.Symmetry.orbit_of`): an SCC is unfair
    when some orbit has a member enabled at every component state and
    no internal edge is labelled by any member.  A starved action in
    the full graph projects to exactly that pattern, so every unfair
    full-graph SCC is rejected here too; the converse direction (an
    orbit enabled everywhere only by alternating members) is an
    approximation in the missed-violation direction, validated
    empirically by the parity suite — the same trade the SCC-granular
    full-graph test already makes.
    """
    symmetry = ts.symmetry
    if symmetry is None:
        obligations: List[Tuple[FrozenSet[str], Tuple]] = [
            (frozenset((action.name,)), (action,))
            for action in ts.program.actions
        ]
    else:
        grouped: Dict[FrozenSet[str], List] = {}
        for action in ts.program.actions:
            grouped.setdefault(symmetry.orbit_of(action.name), []).append(action)
        obligations = [
            (orbit, tuple(actions)) for orbit, actions in grouped.items()
        ]

    with paused_gc():
        # every node Tarjan could place in a non-trivial SCC (or a
        # self-loop) survives the trim, so restricting both the roots
        # and the adjacency to the core drops only trivial components
        # — which the vetting filters out anyway.  Tarjan walks the
        # program edges with both ends in the core, as CSR slices
        # (a repeated target changes neither the DFS nor its components)
        core = _cycle_core(index, region_bits)
        _, src, dst, _, _ = index._edge_csr(False)
        inner = core[src] & core[dst]
        indptr, succ = csr_of(src[inner], dst[inner], index.n)
        indptr = indptr.tolist()
        succ = succ.tolist()
        components = _tarjan_ids(
            _np.flatnonzero(core).tolist(),
            lambda u: succ[indptr[u]:indptr[u + 1]],
        )
        return _vet_components_csr(index, components, obligations)


def _cycle_core(index: SystemIndex, region_bits: int):
    """Boolean mask of the region nodes that can lie on a program-edge
    cycle within the region.

    Iteratively peels nodes with no internal successor or no internal
    predecessor (the classic trim step of FW-BW SCC algorithms) in
    whole-graph ``bincount`` passes.  Non-trivial SCC members and
    self-loop nodes always keep an internal edge in both directions, so
    the trim is exact: it removes precisely the nodes Tarjan would have
    placed in trivial, self-loop-free components.  Convergent regions —
    the dominant shape in stabilization certificates — trim to a small
    fraction of the region in a few passes."""
    n = index.n
    _, src, dst, _, _ = index._edge_csr(False)
    alive = _unpack_bits(region_bits, n)
    inside = alive[src] & alive[dst]
    src = src[inside]
    dst = dst[inside]
    count = _np.count_nonzero(alive)
    while True:
        live = alive[src] & alive[dst]
        out_deg = _np.bincount(src[live], minlength=n)
        in_deg = _np.bincount(dst[live], minlength=n)
        alive &= (out_deg > 0) & (in_deg > 0)
        next_count = _np.count_nonzero(alive)
        if next_count == count:
            return alive
        count = next_count


def _vet_components_csr(
    index: SystemIndex,
    components: List[List[int]],
    obligations,
) -> List[List[int]]:
    """Array-level fairness vetting of Tarjan components.

    A handful of whole-graph numpy passes over the program-edge CSR: one
    labelling pass classifies every edge by (source component, action)
    at once, and each obligation's starvation test becomes a single
    ``bincount`` of enabled members per component."""
    if not components:
        return []
    _, src, dst, act, names = index._edge_csr(False)
    ncomp = len(components)
    comp = _np.full(index.n, -1, dtype=_np.int64)
    for ci, nodes in enumerate(components):
        comp[nodes] = ci
    src_comp = comp[src]
    internal_edge = (src_comp >= 0) & (src_comp == comp[dst])
    pair = src_comp[internal_edge] * len(names) + act[internal_edge]
    labels: List[Set[str]] = [set() for _ in range(ncomp)]
    for key in _distinct(pair).tolist():
        labels[key // len(names)].add(names[key % len(names)])

    member_ids = _np.flatnonzero(comp >= 0)
    member_comp = comp[member_ids]
    sizes = _np.bincount(member_comp, minlength=ncomp)
    starved_cache: Dict[int, object] = {}

    def starved(oi: int, actions) -> "object":
        mask = starved_cache.get(oi)
        if mask is None:
            enabled = _data_to_mask(index.enabled_data(actions[0]), index.n)
            for action in actions[1:]:
                enabled |= _data_to_mask(index.enabled_data(action), index.n)
            count = _np.bincount(
                member_comp, weights=enabled[member_ids], minlength=ncomp
            )
            mask = starved_cache[oi] = count == sizes
        return mask

    recurrent: List[List[int]] = []
    for ci, component in enumerate(components):
        internal_labels = labels[ci]
        if not internal_labels:
            continue  # trivial SCC without a self-loop: cannot linger
        fair = True
        for oi, (names_set, actions) in enumerate(obligations):
            if not internal_labels.isdisjoint(names_set):
                continue  # some orbit member executed inside C
            if starved(oi, actions)[ci]:
                fair = False  # continuously enabled but starved inside C
                break
        if fair:
            recurrent.append(component)
    return recurrent


def _tarjan_ids(nodes: List[int], edges_from) -> List[List[int]]:
    """Iterative Tarjan SCC over integer ids: the components in the
    order they close (reverse topological), each listed in stack pop
    order.  ``edges_from(u)`` yields ``u``'s successor ids."""
    index_of: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for root in nodes:
        if root in index_of:
            continue
        work: List[Tuple[int, Iterable[int]]] = [(root, iter(edges_from(root)))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index_of:
                    index_of[successor] = lowlink[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(edges_from(successor))))
                    advanced = True
                    break
                if successor in on_stack:
                    if index_of[successor] < lowlink[node]:
                        lowlink[node] = index_of[successor]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index_of[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def check_leads_to(
    ts: TransitionSystem,
    source: Predicate,
    target: Predicate,
    description: Optional[str] = None,
) -> CheckResult:
    """Check ``source leads-to target`` over all fair maximal computations
    of ``ts`` (program edges), from every reachable occurrence of
    ``source`` (including states reached via fault edges)."""
    what = description or (
        f"{source.name} leads-to {target.name} in {ts.program.name}"
    )
    index = system_index(ts)
    avoid_bits = index.full_bits & ~index.region_bits(target)
    start_bits = index.region_bits(source) & avoid_bits
    if not start_bits:
        return CheckResult.passed(what, details="source region empty or immediate")

    reach_bits = index.forward_closure_bits(start_bits, avoid_bits)
    states = index.states

    def stem(goal):
        # the violation is in the reach set, so the search cannot miss
        return index.path(
            _np.flatnonzero(_unpack_bits(start_bits, index.n)), goal,
            within=_unpack_bits(avoid_bits, index.n),
        )

    # Violation mode 1: a maximal computation dies inside ¬target.
    dead_bits = reach_bits & index.deadlock_bits
    if dead_bits:
        dead = _np.zeros(index.n, dtype=bool)
        dead[first_bit(dead_bits)] = True
        ids, actions = stem(dead)
        return CheckResult.failed(
            what,
            counterexample=Counterexample(
                kind="trace",
                states=tuple(states[u] for u in ids),
                actions=tuple(actions),
                note=(
                    f"maximal computation reaches deadlock without "
                    f"satisfying {target.name}"
                ),
            ),
        )

    # Violation mode 2: a fair cycle inside ¬target.
    components = _fair_recurrent_component_ids(ts, index, reach_bits)
    if components:
        component = _np.zeros(index.n, dtype=bool)
        component[components[0]] = True
        stem_ids, stem_actions = stem(component)
        cycle_ids, cycle_actions = _cycle_through(
            index, component, stem_ids[-1]
        )
        return CheckResult.failed(
            what,
            counterexample=Counterexample(
                kind="lasso",
                states=tuple(states[u] for u in stem_ids + cycle_ids[1:]),
                actions=tuple(stem_actions + cycle_actions),
                loop_index=len(stem_ids) - 1,
                note=(
                    f"fair computation cycles forever without satisfying "
                    f"{target.name} (SCC of {len(components[0])} states)"
                ),
            ),
        )

    return CheckResult.passed(what)


def check_converges_to(
    ts: TransitionSystem,
    origin: Predicate,
    goal: Predicate,
    description: Optional[str] = None,
) -> CheckResult:
    """Check the paper's ``origin converges to goal`` specification:
    membership of every computation in ``cl(origin) ∩ cl(goal)`` together
    with *origin leads-to goal* (Section 2.2)."""
    what = description or (
        f"{origin.name} converges to {goal.name} in {ts.program.name}"
    )
    for predicate in (origin, goal):
        closed = ts.is_closed(predicate, include_faults=False)
        if not closed:
            return CheckResult.failed(
                f"{what}: {closed.description}",
                counterexample=closed.counterexample,
            )
    leads = check_leads_to(ts, origin, goal)
    if not leads:
        return CheckResult.failed(
            f"{what}: {leads.description}", counterexample=leads.counterexample
        )
    return CheckResult.passed(what)


def liveness_violating_states(
    ts: TransitionSystem,
    source: Predicate,
    target: Predicate,
) -> Set[State]:
    """The states of ``ts`` from which some fair maximal computation
    violates ``source leads-to target``.

    Used by the synthesis algorithms to *shrink* a candidate invariant:
    a violation core is any deadlock or fair-recurrent SCC inside
    ``¬target``; the danger zone is everything in ``¬target`` that can
    reach a core while staying in ``¬target``; a state is violating iff
    it can reach (via any edges) a ``source``-state inside the danger
    zone.  The violating set is closed under predecessors, so removing
    it from a closed predicate keeps it closed.

    Both backward closures are :func:`~repro.core.regions.closure_mask`
    calls along the system's reversed program-and-fault edge CSR.
    """
    index = system_index(ts)
    n = index.n
    avoid_bits = index.full_bits & ~index.region_bits(target)

    core = _unpack_bits(avoid_bits & index.deadlock_bits, n)
    for component in _fair_recurrent_component_ids(ts, index, avoid_bits):
        core[component] = True

    indptr, preds = index._backward_csr()
    # danger: backward closure of the core within ¬target
    danger = closure_mask(indptr, preds, core, _unpack_bits(avoid_bits, n))
    bad_source = danger & _unpack_bits(index.region_bits(source), n)
    violating = closure_mask(indptr, preds, bad_source)
    index_states = index.states
    return {index_states[i] for i in _np.flatnonzero(violating).tolist()}


# -- internals ---------------------------------------------------------------

def _cycle_through(
    index: SystemIndex, component, start: int
) -> Tuple[List[int], List[str]]:
    """A cycle inside ``component`` (a boolean mask over ``index``)
    beginning and ending at ``start``, as ``(ids, action names)``: the
    first program edge from ``start`` that stays inside, then the
    shortest way back.

    ``start`` must belong to the component, which is strongly connected
    with at least one internal edge, so both exist.
    """
    indptr, _, dst, act, names = index._edge_csr(False)
    edges = _np.arange(indptr[start], indptr[start + 1])
    j = edges[component[dst[edges]]][0]
    home = _np.zeros(index.n, dtype=bool)
    home[start] = True
    ids, actions = index.path(
        [dst[j]], home, within=component, include_faults=False
    )
    return [start] + ids, [names[act[j]]] + actions
