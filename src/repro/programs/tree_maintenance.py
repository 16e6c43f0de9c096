"""Tree maintenance — a self-stabilizing BFS spanning tree.

Another entry in the paper's application list (Section 1): maintaining
a spanning tree of a network in the presence of transient corruption.
The classic construction (Dolev–Israeli–Moran style) is a *corrector
in the large*: each node's action detects a local inconsistency and
repairs it, and the composition converges from any state to the global
BFS tree rooted at node 0.

Per non-root node ``i``: ``dist{i}`` (believed distance to the root,
capped at ``n - 1``) and ``parent{i}`` (a neighbour).  A node is
locally consistent iff its distance is one more than its cheapest
neighbour's (capped) and its parent attains that minimum.  The single
action per node re-computes both from the neighbourhood — its guard is
exactly the local detection predicate, its statement the local
correction, so each action literally is a detector–corrector pair and
the paper's thesis reads off the program text.  The actions take a
capped minimum and its argmin parent, which the plan grammar cannot
say, so they are code; the invariant is an expression.

The legitimate states are "every node locally consistent", which on a
connected graph pins distances to true BFS distances and parents to a
BFS tree.  Tolerance: nonmasking to arbitrary corruption of distances
and parents, with fault-span ``true`` — self-stabilization.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core import (
    Action,
    FaultClass,
    LeadsTo,
    Predicate,
    Program,
    Spec,
    TRUE,
    Variable,
    perturb_variable,
)

__all__ = ["TreeModel", "build", "DEFAULT_EDGES"]

#: A small 2-connected topology: a diamond with a tail.
DEFAULT_EDGES: Tuple[Tuple[int, int], ...] = ((0, 1), (0, 2), (1, 2), (2, 3))


def _adjacency(size: int, edges: Sequence[Tuple[int, int]]) -> Dict[int, List[int]]:
    adjacency: Dict[int, List[int]] = {i: [] for i in range(size)}
    for a, b in edges:
        if a == b or not (0 <= a < size and 0 <= b < size):
            raise ValueError(f"bad edge ({a}, {b})")
        adjacency[a].append(b)
        adjacency[b].append(a)
    for node, neighbours in adjacency.items():
        if node != 0 and not neighbours:
            raise ValueError(f"node {node} is isolated")
    return {node: sorted(set(ns)) for node, ns in adjacency.items()}


def _bfs_distances(adjacency: Dict[int, List[int]]) -> Dict[int, int]:
    distance = {0: 0}
    frontier = deque([0])
    while frontier:
        node = frontier.popleft()
        for neighbour in adjacency[node]:
            if neighbour not in distance:
                distance[neighbour] = distance[node] + 1
                frontier.append(neighbour)
    if len(distance) != len(adjacency):
        raise ValueError("graph must be connected")
    return distance


@dataclass(frozen=True)
class TreeModel:
    """All artifacts of the tree-maintenance application."""

    size: int
    adjacency: Dict[int, List[int]]
    true_distances: Dict[int, int]
    program: Program
    spec: Spec
    invariant: Predicate     #: the exact BFS tree
    faults: FaultClass       #: corrupt any dist/parent


def build(size: int = 4,
          edges: Sequence[Tuple[int, int]] = DEFAULT_EDGES) -> TreeModel:
    """Construct the tree-maintenance family over the given topology
    (node 0 is the root)."""
    if size < 2:
        raise ValueError("need at least two nodes")
    adjacency = _adjacency(size, edges)
    true_distances = _bfs_distances(adjacency)
    cap = size - 1

    variables: List[Variable] = []
    for i in range(1, size):
        variables.append(Variable(f"dist{i}", list(range(size))))
        variables.append(Variable(f"parent{i}", adjacency[i]))

    def neighbour_distance(state, node: int) -> int:
        if node == 0:
            return 0
        return state[f"dist{node}"]

    def best(state, i: int) -> Tuple[int, int]:
        """(capped distance, parent) node i should adopt."""
        candidates = [
            (min(neighbour_distance(state, j) + 1, cap), j)
            for j in adjacency[i]
        ]
        return min(candidates)

    def consistent(state, i: int) -> bool:
        distance, parent = best(state, i)
        return (
            state[f"dist{i}"] == distance and state[f"parent{i}"] == parent
        )

    actions: List[Action] = []
    for i in range(1, size):
        # the root contributes distance 0 without a dist variable, so
        # only non-root neighbours are actual reads
        neighbour_dists = {
            f"dist{j}" for j in adjacency[i] if j != 0
        }
        actions.append(
            Action(
                f"fix{i}",
                Predicate(lambda s, i=i: not consistent(s, i),
                          name=f"node {i} locally inconsistent"),
                lambda s, i=i: s.assign(
                    **{
                        f"dist{i}": best(s, i)[0],
                        f"parent{i}": best(s, i)[1],
                    }
                ),
                reads=neighbour_dists | {f"dist{i}", f"parent{i}"},
                writes={f"dist{i}", f"parent{i}"},
            )
        )
    program = Program(variables, actions, name=f"bfs_tree(n={size})")

    # every distance is the true one, and every parent is a neighbour
    # one step closer to the root
    invariant = Predicate(
        expr=("and", *(
            ("and", ("eq_const", f"dist{i}", true_distances[i]), ("or", *(
                ("eq_const", f"parent{i}", j) for j in adjacency[i]
                if true_distances[j] == true_distances[i] - 1
            )))
            for i in range(1, size)
        )),
        name="S_tree (exact BFS tree)",
    )
    spec = Spec(
        [LeadsTo(TRUE, invariant,
                 name="the BFS spanning tree is eventually (re)built")],
        name="SPEC_tree",
    )

    fault_actions = [
        action
        for i in range(1, size)
        for variable in (program.variable(f"dist{i}"),
                         program.variable(f"parent{i}"))
        for action in perturb_variable(variable)
    ]
    return TreeModel(
        size=size,
        adjacency=adjacency,
        true_distances=true_distances,
        program=program,
        spec=spec,
        invariant=invariant,
        faults=FaultClass(fault_actions, name="dist/parent corruption"),
    )
