"""Symmetry declarations and orbit canonicalization (quotient exploration).

The paper's flagship constructions are built from interchangeable
components — TMR's replicas (Section 6.1), the Byzantine non-generals
(Section 6.2), the token-ring processes — so their reachable graphs
contain every permutation of equivalent process states and each check
pays for every copy.  A *symmetry* of a program is a group ``G`` of
state bijections such that every ``g ∈ G`` is an automorphism of the
transition relation of ``p [] F``: ``t ∈ succ(s)  ⟺  g·t ∈ succ(g·s)``.
When the start set and every predicate a check consults are unions of
``G``-orbits, the quotient graph (one representative per orbit) carries
exactly the same verdicts as the full graph — the classical
Emerson–Sistla symmetry reduction.

This module provides:

- :class:`ReplicaSymmetry` — the full symmetric group over aligned
  per-replica variable *blocks* (TMR voters, Byzantine non-generals);
  canonicalization is a sort of the replica blocks, so the group is
  never enumerated;
- :class:`RingRotation` — the cyclic group rotating replica blocks
  around a ring; canonicalization is a minimum over the ``n`` rotations;
- :class:`ValueRotation` — a *value* symmetry: all named counters are
  simultaneously translated ``v ↦ (v+1) mod m`` (Dijkstra's token ring
  is **not** process-rotation symmetric — process 0's increment action
  is distinguished — but it is invariant under this ``Z_K`` action on
  counter values);
- :class:`Canonicalizer` — the orbit-canonicalizing interner a
  :class:`~repro.core.exploration.TransitionSystem` threads its BFS
  through: every state maps to the minimal representative of its orbit
  (minimal in block-major rank order), memoized, pointer-unique;
- column canonicalizers (:meth:`Symmetry._compile_columns`) — the same
  canonical forms computed over a ``(vars, N)`` rank-column matrix, so
  the array exploration engines canonicalize whole successor blocks in
  a few numpy calls; the per-state plans remain their oracle;
- predicate/spec invariance checks that *refuse* symmetric mode when a
  consulted predicate is not a union of orbits
  (:meth:`Symmetry.require_predicate_invariant`).

Values are compared through per-domain *ranks* (the value's position in
its declared domain), never directly — domains mix ``⊥``, booleans and
integers, which Python cannot order.  Orderability therefore never
constrains what a domain may contain.

Declarations are *claims*: exploration trusts them.  Two nets validate
them — the ``DC106`` lint rule (differential probing that each generator
is an automorphism of ``p [] F``) and ``tests/test_symmetry_parity.py``
(verdict parity of quotient vs. unreduced systems on every bundled
symmetric scenario).
"""

from __future__ import annotations

import random
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as _np

from .kernels import layout_for
from .state import State, Variable, _state_of, state_space

__all__ = [
    "SymmetryError",
    "Symmetry",
    "ReplicaSymmetry",
    "RingRotation",
    "ValueRotation",
    "Generator",
    "Canonicalizer",
]


class SymmetryError(ValueError):
    """A symmetry declaration is missing, malformed, or refused.

    Raised when symmetric exploration is requested for a program with no
    declaration, when a declaration does not fit the program's variables
    (misaligned block domains, unknown names), and when a predicate or
    specification consulted by a symmetric check is provably *not*
    invariant under the declared group (the refusal carries a concrete
    witness state)."""


class Generator:
    """One group element as an executable state bijection.

    ``moves`` maps a destination variable name to ``(source name,
    value map or None)``: in ``g·s`` the destination variable carries
    the (optionally transformed) value the source variable had in ``s``.
    Variables absent from ``moves`` are fixed.  The move table compiles
    once per state schema into a positions plan, so :meth:`apply` is a
    tuple rebuild.
    """

    __slots__ = ("name", "moves", "_plans")

    def __init__(
        self,
        name: str,
        moves: Dict[str, Tuple[str, Optional[Callable[[Hashable], Hashable]]]],
    ):
        self.name = name
        self.moves = dict(moves)
        self._plans: Dict[object, Tuple] = {}

    def apply(self, state: State) -> State:
        schema = state.schema
        plan = self._plans.get(schema)
        if plan is None:
            index = schema.index
            entries = []
            for position, name in enumerate(schema.names):
                source, fn = self.moves.get(name, (name, None))
                entries.append((index[source], fn))
            plan = tuple(entries)
            self._plans[schema] = plan
        values = state.values_tuple
        return _state_of(
            schema,
            tuple(
                fn(values[p]) if fn is not None else values[p]
                for p, fn in plan
            ),
        )

    def __repr__(self) -> str:
        return f"Generator({self.name})"


def _image_columns(generator: Generator, layout, cols):
    """The rank matrix of ``generator`` applied to each column of
    ``cols``, or ``None`` when it sends a value outside its
    destination's domain."""
    index = layout.index
    image = cols.copy()
    for dest, (source, fn) in generator.moves.items():
        if dest not in index:
            continue  # Generator.apply fixes what the schema lacks
        if source not in index:
            return None
        d, s = index[dest], index[source]
        lut = [
            layout.ranks[d].get(value if fn is None else fn(value))
            for value in layout.domains[s]
        ]
        if None in lut:
            return None
        image[d] = _np.array(lut, dtype=_np.int64)[cols[s]]
    return image


def _sample_states(
    variables: Sequence[Variable], limit: int = 512, seed: int = 0
) -> Tuple[State, ...]:
    """Deterministic validation sample: the full space when it fits
    under ``limit``, else corner states plus a seeded draw (the same
    scheme as ``repro.analysis.probe``, duplicated here because core
    cannot import the analysis layer)."""
    size = 1
    for variable in variables:
        size *= len(variable.domain)
    if size <= limit:
        return tuple(state_space(variables))
    rng = random.Random(seed)
    names = [v.name for v in variables]
    domains = [v.domain for v in variables]
    seen, states = set(), []

    def record(values_by_name):
        state = State(values_by_name)
        key = state.values_tuple
        if key not in seen:
            seen.add(key)
            states.append(state)

    record({n: d[0] for n, d in zip(names, domains)})
    record({n: d[-1] for n, d in zip(names, domains)})
    attempts = 0
    while len(states) < limit and attempts < limit * 4:
        attempts += 1
        record({n: rng.choice(d) for n, d in zip(names, domains)})
    return tuple(states)


class Symmetry:
    """Base class for symmetry declarations.

    Subclasses describe a group by (a) a *canonicalization plan*
    compiler (:meth:`_compile`) mapping any values-tuple to its orbit's
    minimal representative without enumerating the group, with its
    column twin (:meth:`_compile_columns`) for rank matrices, and (b) a
    finite generating set (:meth:`generators`) used by the validation
    machinery (lint rule ``DC106``, predicate-invariance refusal, parity
    tests).  Instances are immutable and hashable by identity — they
    extend the exploration cache key.
    """

    name: str = "symmetry"

    def __init__(
        self, action_orbits: Sequence[Iterable[str]] = ()
    ) -> None:
        #: (kind, id) -> object already validated as group-invariant, so
        #: repeated certificates over one model pay for each
        #: spec/predicate check once.  An id alone is not enough: a dead
        #: object's id passes to the next allocation.  Holding the
        #: object keeps its id from passing on, and a hit also requires
        #: identity with it
        self._validated: Dict[Tuple[str, int], object] = {}
        #: id(variables) -> (variables, validation sample), held and
        #: hit on identity for the same reason
        self._samples: Dict[int, Tuple[object, Tuple[State, ...]]] = {}
        #: id(variables) -> (variables, the sample's rank columns and
        #: their image under each generator, or None), held likewise
        self._sample_columns: Dict[int, Tuple[object, Optional[Tuple]]] = {}
        #: declared orbits of *action names* under the group.  A group
        #: element that permutes replica blocks also permutes the
        #: per-replica actions, so on the quotient graph the weak-
        #: fairness obligation attaches to the whole orbit, not to a
        #: single action (see ``fairness._fair_recurrent_component_ids``)
        self.action_orbits: Tuple[frozenset, ...] = tuple(
            frozenset(orbit) for orbit in action_orbits
        )
        self._orbit_of: Dict[str, frozenset] = {}
        for orbit in self.action_orbits:
            for action_name in orbit:
                if action_name in self._orbit_of:
                    raise SymmetryError(
                        f"action {action_name!r} appears in two declared "
                        f"action orbits"
                    )
                self._orbit_of[action_name] = orbit

    def orbit_of(self, action_name: str) -> frozenset:
        """The declared orbit of ``action_name`` under the group
        (a singleton when the action was not declared in any orbit —
        i.e. it is claimed to be a fixed point of the group action)."""
        found = self._orbit_of.get(action_name)
        if found is None:
            found = frozenset((action_name,))
        return found

    # -- to implement ------------------------------------------------------
    def variable_names(self) -> frozenset:
        """Names of the variables the group may move or transform."""
        raise NotImplementedError

    def validate(self, variables: Sequence[Variable]) -> None:
        """Raise :class:`SymmetryError` unless the declaration fits
        ``variables`` (all names present, aligned slots share domains)."""
        raise NotImplementedError

    def generators(self) -> Tuple[Generator, ...]:
        """A generating set of the group as executable bijections."""
        raise NotImplementedError

    def _compile(
        self, schema, domains: Dict[str, Tuple]
    ) -> Callable[[Tuple], Tuple]:
        """A function mapping a values-tuple (in ``schema`` order) to
        the canonical values-tuple of its orbit.  Must be idempotent,
        constant on orbits, and return the *input tuple object* when the
        state is already canonical (the fast path exploration relies
        on)."""
        raise NotImplementedError

    def _compile_columns(self, layout) -> Callable:
        """The column twin of :meth:`_compile`: a function mapping a
        ``(vars, N)`` int64 rank matrix over ``layout`` (a
        :class:`~repro.core.kernels.Layout`) to a new matrix whose
        column ``j`` is the canonical form of column ``j`` — equal, rank
        for rank, to what the per-state plan returns."""
        raise NotImplementedError

    # -- binding -----------------------------------------------------------
    def canonicalizer(self, program) -> "Canonicalizer":
        """An orbit-canonicalizing interner bound to ``program``'s
        domains (validating the declaration against them first)."""
        self.validate(program.variables)
        return Canonicalizer(self, dict(program._domains))

    # -- invariance checking (the refusal machinery) -----------------------
    def _validation_states(
        self, variables: Sequence[Variable]
    ) -> Tuple[State, ...]:
        found = self._samples.get(id(variables))
        if found is not None and found[0] is variables:
            return found[1]
        states = _sample_states(variables)
        self._samples[id(variables)] = (variables, states)
        return states

    def _validation_columns(self, variables: Sequence[Variable]):
        """``(layout, columns, images)``: the validation sample's rank
        matrix and, per generator, the rank matrix of its image — or
        ``None`` when the sample has no layout or a generator sends a
        value outside its destination's domain.  Memoized and held like
        the sample."""
        found = self._sample_columns.get(id(variables))
        if found is not None and found[0] is variables:
            return found[1]
        states = self._validation_states(variables)
        result = None
        layout = states and layout_for(
            states[0]._schema, {v.name: tuple(v.domain) for v in variables}
        )
        if layout and all(s._schema is layout.schema for s in states):
            cols = layout.columns_from_states(states)
            images = [_image_columns(g, layout, cols)
                      for g in self.generators()]
            if all(image is not None for image in images):
                result = (layout, cols, images)
        self._sample_columns[id(variables)] = (variables, result)
        return result

    def find_asymmetric_state(
        self, fn: Callable[[State], bool], states: Iterable[State]
    ) -> Optional[Tuple[Generator, State]]:
        """A ``(generator, state)`` witness that ``fn`` is not constant
        on orbits, or ``None`` if no witness is found in ``states``."""
        for generator in self.generators():
            apply = generator.apply
            for state in states:
                if bool(fn(state)) != bool(fn(apply(state))):
                    return (generator, state)
        return None

    def require_predicate_invariant(
        self, predicate, variables: Sequence[Variable], what: str
    ) -> None:
        """Refuse (raise :class:`SymmetryError`) if ``predicate`` is
        observed to distinguish states within one orbit.

        The check sweeps the full space when it is small and a
        deterministic sample otherwise — it is a refusal heuristic, not
        a proof; the exhaustive nets are DC106 and the parity suite.
        An expression predicate is evaluated on the sample's rank
        columns and their images under each generator (both memoized
        per variables); any other goes state by state.  Results are
        memoized per predicate object.
        """
        key = ("pred", id(predicate))
        if self._validated.get(key) is predicate:
            return
        states = self._validation_states(variables)
        columns = evaluate = None
        if predicate.expr is not None:
            columns = self._validation_columns(variables)
            if columns is not None:
                evaluate = predicate.columns_for(columns[0])
        if evaluate is None:
            witness = self.find_asymmetric_state(predicate.fn, states)
        else:
            # the first (generator, state) the per-state scan would meet
            _, cols, images = columns
            mask = evaluate(cols)
            witness = None
            for generator, image in zip(self.generators(), images):
                differs = _np.flatnonzero(mask != evaluate(image))
                if differs.size:
                    witness = (generator, states[int(differs[0])])
                    break
        if witness is not None:
            generator, state = witness
            raise SymmetryError(
                f"{what}: predicate {predicate.name!r} is not invariant "
                f"under {self.name} (generator {generator.name} "
                f"distinguishes {state!r} from its image); symmetric "
                f"mode refused"
            )
        self._validated[key] = predicate

    def require_spec_invariant(
        self, spec, variables: Sequence[Variable], what: str
    ) -> None:
        """Refuse unless every component of ``spec`` is group-invariant:
        state invariants and leads-to predicates must be unions of
        orbits; transition invariants must judge ``(g·s, g·t)`` exactly
        as ``(s, t)`` (checked over sampled state pairs)."""
        key = ("spec", id(spec))
        if self._validated.get(key) is spec:
            return
        # local import: specification imports exploration which imports
        # this module, so the class lookup happens lazily
        from .specification import LeadsTo, StateInvariant, TransitionInvariant

        states = self._validation_states(variables)
        for component in spec.components:
            if isinstance(component, StateInvariant):
                self.require_predicate_invariant(
                    component.predicate, variables, what
                )
            elif isinstance(component, LeadsTo):
                self.require_predicate_invariant(
                    component.source, variables, what
                )
                self.require_predicate_invariant(
                    component.target, variables, what
                )
            elif isinstance(component, TransitionInvariant):
                self._require_relation_invariant(component, states, what)
            else:  # unknown component shape: nothing we can verify
                raise SymmetryError(
                    f"{what}: cannot establish {self.name}-invariance of "
                    f"spec component {component!r}; symmetric mode refused"
                )
        self._validated[key] = spec

    def _require_relation_invariant(
        self, component, states: Sequence[State], what: str
    ) -> None:
        relation = component.relation
        pairs = list(zip(states, states[1:]))[:256]
        pairs += [(s, s) for s in states[:64]]
        for generator in self.generators():
            apply = generator.apply
            for s, t in pairs:
                if bool(relation(s, t)) != bool(relation(apply(s), apply(t))):
                    raise SymmetryError(
                        f"{what}: transition invariant {component.name!r} "
                        f"is not invariant under {self.name} (generator "
                        f"{generator.name} at {s!r} -> {t!r}); symmetric "
                        f"mode refused"
                    )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


# -- block machinery shared by ReplicaSymmetry / RingRotation -----------------

def _check_blocks(
    blocks: Sequence[Sequence[str]], variables: Sequence[Variable], name: str
) -> None:
    domains = {v.name: v.domain for v in variables}
    widths = {len(block) for block in blocks}
    if len(widths) != 1:
        raise SymmetryError(f"{name}: replica blocks differ in width")
    seen: set = set()
    for block in blocks:
        for variable_name in block:
            if variable_name in seen:
                raise SymmetryError(
                    f"{name}: variable {variable_name!r} appears in two blocks"
                )
            seen.add(variable_name)
            if variable_name not in domains:
                raise SymmetryError(
                    f"{name}: unknown variable {variable_name!r}"
                )
    first = blocks[0]
    for block in blocks[1:]:
        for slot, variable_name in enumerate(block):
            if domains[variable_name] != domains[first[slot]]:
                raise SymmetryError(
                    f"{name}: {variable_name!r} and {first[slot]!r} occupy "
                    f"the same replica slot but have different domains"
                )


def _block_plan(blocks, schema, domains):
    """Positions and rank tables for block canonicalization.

    Returns ``(block_positions, slot_rank, slot_values)`` where
    ``slot_rank[k]`` maps a slot-``k`` value to its domain rank and
    ``slot_values[k]`` maps the rank back (slot domains are aligned
    across blocks, see :func:`_check_blocks`)."""
    index = schema.index
    block_positions = tuple(
        tuple(index[name] for name in block) for block in blocks
    )
    slot_domains = tuple(domains[name] for name in blocks[0])
    slot_rank = tuple(
        {value: rank for rank, value in enumerate(domain)}
        for domain in slot_domains
    )
    return block_positions, slot_rank, slot_domains


def _block_columns(blocks, layout):
    """Key packing for column-wise block canonicalization.

    Returns ``(keys_of, write)``: ``keys_of(cols)`` packs each block's
    slot ranks into one mixed-radix key per (block, column), a
    ``(blocks, N)`` matrix whose key order is the blocks' rank-tuple
    order (the order the per-state plans sort and compare by), and
    ``write(cols, keys)`` returns a copy of ``cols`` with the keys
    unpacked back into the block positions."""
    positions = [[layout.index[name] for name in block] for block in blocks]
    slot_rows = tuple(
        _np.array(slot, dtype=_np.intp) for slot in zip(*positions)
    )
    sizes = tuple(layout.sizes[rows[0]] for rows in slot_rows)
    weights = []
    acc = 1
    for size in reversed(sizes):
        weights.append(acc)
        acc *= size
    weights = tuple(reversed(weights))
    slots = tuple(zip(slot_rows, weights, sizes))

    def keys_of(cols, slots=slots):
        keys = 0
        for rows, weight, _ in slots:
            keys = keys + cols[rows] * weight
        return keys

    def write(cols, keys, slots=slots):
        out = cols.copy()
        for rows, weight, size in slots:
            out[rows] = keys // weight % size
        return out

    return keys_of, write


def _swap_moves(source_block, target_block):
    moves = {}
    for a, b in zip(source_block, target_block):
        moves[a] = (b, None)
        moves[b] = (a, None)
    return moves


class ReplicaSymmetry(Symmetry):
    """The full symmetric group over aligned per-replica variable blocks.

    ``blocks[i]`` names replica ``i``'s variables; position ``k`` of
    every block is one *slot* (the same role across replicas) and all
    blocks must agree on slot domains.  Canonicalization sorts the
    replica blocks by their rank tuples — the unique minimal arrangement
    under all ``n!`` permutations, computed in ``O(n log n)`` without
    touching the group.

    ``ReplicaSymmetry.of_families("d{i}", "out{i}", "b{i}",
    indices=(1, 2, 3))`` builds the blocks from indexed variable-family
    templates (the Byzantine non-generals); ``ReplicaSymmetry((("x",),
    ("y",), ("z",)))`` declares TMR's voters directly.

    ``action_orbits`` declares which *action names* the group permutes
    among each other (e.g. TMR's ``("IR1", "CR1", "CR2")`` — swapping
    ``x`` and ``y`` maps IR1's guarded command to CR1's).  Undeclared
    actions are claimed fixed.  ``of_families`` accepts
    ``action_templates`` and formats them with the same indices
    (``"IB2.{i}"`` → one orbit ``{IB2.1, IB2.2, IB2.3}``).  The
    declaration feeds the quotient's orbit-granular weak-fairness test;
    lint rule DC106 cross-checks it differentially.
    """

    def __init__(
        self,
        blocks: Sequence[Sequence[str]],
        name: str = None,
        action_orbits: Sequence[Iterable[str]] = (),
    ):
        super().__init__(action_orbits)
        self.blocks: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(block) for block in blocks
        )
        if len(self.blocks) < 2:
            raise SymmetryError("ReplicaSymmetry needs at least two blocks")
        self.name = name or f"S_{len(self.blocks)} over {len(self.blocks)} replicas"
        self._generators: Optional[Tuple[Generator, ...]] = None

    @classmethod
    def of_families(
        cls,
        *templates: str,
        indices: Sequence[Hashable],
        name: str = None,
        action_templates: Sequence[str] = (),
    ) -> "ReplicaSymmetry":
        """Blocks from ``{i}``-indexed variable-family templates, and
        action orbits from ``{i}``-indexed action-name templates."""
        blocks = tuple(
            tuple(template.format(i=i) for template in templates)
            for i in indices
        )
        action_orbits = tuple(
            tuple(template.format(i=i) for i in indices)
            for template in action_templates
        )
        return cls(blocks, name=name, action_orbits=action_orbits)

    def variable_names(self) -> frozenset:
        return frozenset(name for block in self.blocks for name in block)

    def validate(self, variables: Sequence[Variable]) -> None:
        _check_blocks(self.blocks, variables, self.name)

    def generators(self) -> Tuple[Generator, ...]:
        # adjacent transpositions generate the full symmetric group and
        # are self-inverse, which keeps the differential probes simple
        if self._generators is None:
            self._generators = tuple(
                Generator(
                    f"swap({i},{i + 1})",
                    _swap_moves(self.blocks[i], self.blocks[i + 1]),
                )
                for i in range(len(self.blocks) - 1)
            )
        return self._generators

    def element(self, permutation: Sequence[int]) -> Generator:
        """The group element sending replica ``i``'s block content to
        block ``permutation[i]`` (used by tests to enumerate orbits)."""
        moves = {}
        for i, j in enumerate(permutation):
            for a, b in zip(self.blocks[i], self.blocks[j]):
                moves[b] = (a, None)
        return Generator(f"perm{tuple(permutation)}", moves)

    def _compile(self, schema, domains):
        block_positions, slot_rank, slot_domains = _block_plan(
            self.blocks, schema, domains
        )

        def canon(values, block_positions=block_positions,
                  slot_rank=slot_rank, slot_domains=slot_domains):
            blocks = [
                tuple(
                    rank[values[p]]
                    for rank, p in zip(slot_rank, positions)
                )
                for positions in block_positions
            ]
            ordered = sorted(blocks)
            if ordered == blocks:
                return values
            out = list(values)
            for positions, block in zip(block_positions, ordered):
                for p, domain, rank in zip(positions, slot_domains, block):
                    out[p] = domain[rank]
            return tuple(out)

        return canon

    def _compile_columns(self, layout):
        # sorting the packed block keys of every column at once is the
        # per-state sort of rank tuples
        keys_of, write = _block_columns(self.blocks, layout)

        def canon(cols, keys_of=keys_of, write=write):
            keys = keys_of(cols)
            keys.sort(axis=0)
            return write(cols, keys)

        return canon


class RingRotation(Symmetry):
    """The cyclic group rotating replica blocks around a ring.

    Same block conventions as :class:`ReplicaSymmetry`, but the group is
    the ``n`` rotations only — for ring protocols whose actions are
    invariant under rotating *all* processes by the same offset.
    Canonicalization takes the minimum of the ``n`` rotated block
    sequences.

    Note Dijkstra's token ring is **not** in this class (process 0 runs
    a distinguished increment action); its valid declaration is
    :class:`ValueRotation`.  ``RingRotation`` covers uniform rings
    (and is validated against any misuse by lint rule DC106).
    """

    def __init__(
        self,
        blocks: Sequence[Sequence[str]],
        name: str = None,
        action_orbits: Sequence[Iterable[str]] = (),
    ):
        super().__init__(action_orbits)
        self.blocks = tuple(tuple(block) for block in blocks)
        if len(self.blocks) < 2:
            raise SymmetryError("RingRotation needs at least two blocks")
        self.name = name or f"Z_{len(self.blocks)} ring rotation"
        self._generators: Optional[Tuple[Generator, ...]] = None

    def variable_names(self) -> frozenset:
        return frozenset(name for block in self.blocks for name in block)

    def validate(self, variables: Sequence[Variable]) -> None:
        _check_blocks(self.blocks, variables, self.name)

    def element(self, offset: int) -> Generator:
        """Rotation by ``offset``: block ``i``'s content moves to block
        ``(i + offset) mod n``."""
        n = len(self.blocks)
        moves = {}
        for i in range(n):
            target = self.blocks[(i + offset) % n]
            for a, b in zip(self.blocks[i], target):
                moves[b] = (a, None)
        return Generator(f"rotate({offset % n})", moves)

    def generators(self) -> Tuple[Generator, ...]:
        if self._generators is None:
            self._generators = (self.element(1),)
        return self._generators

    def _compile(self, schema, domains):
        block_positions, slot_rank, slot_domains = _block_plan(
            self.blocks, schema, domains
        )
        n = len(block_positions)

        def canon(values, block_positions=block_positions,
                  slot_rank=slot_rank, slot_domains=slot_domains, n=n):
            blocks = [
                tuple(
                    rank[values[p]]
                    for rank, p in zip(slot_rank, positions)
                )
                for positions in block_positions
            ]
            best = blocks
            doubled = blocks + blocks
            for r in range(1, n):
                candidate = doubled[r:r + n]
                if candidate < best:
                    best = candidate
            if best is blocks:
                return values
            out = list(values)
            for positions, block in zip(block_positions, best):
                for p, domain, rank in zip(positions, slot_domains, block):
                    out[p] = domain[rank]
            return tuple(out)

        return canon

    def _compile_columns(self, layout):
        # the per-state scan over rotations, run on every column at
        # once: a rotation replaces the best so far in the columns where
        # it is lexicographically smaller, decided at the first block
        # the two differ in (ties keep the earlier rotation, as there)
        keys_of, write = _block_columns(self.blocks, layout)
        n = len(self.blocks)

        def canon(cols, keys_of=keys_of, write=write, n=n):
            keys = keys_of(cols)
            best = keys
            columns = _np.arange(keys.shape[1])
            for r in range(1, n):
                candidate = _np.roll(keys, -r, axis=0)
                differs = candidate != best
                first = differs.argmax(axis=0)
                smaller = differs[first, columns] & (
                    candidate[first, columns] < best[first, columns]
                )
                best = _np.where(smaller, candidate, best)
            return write(cols, best)

        return canon


class ValueRotation(Symmetry):
    """Simultaneous value translation ``v ↦ (v + 1) mod m`` on counters.

    All named variables must have domain exactly ``(0, 1, …, m-1)`` (in
    order).  The group is ``Z_m`` acting on *values*, not on variables —
    the symmetry of Dijkstra's K-state token ring, whose token
    predicates ``x_i = x_{i-1}`` / ``x_i ≠ x_{i-1}`` and increment
    action are all translation-invariant.  Canonicalization takes the
    minimum of the ``m`` translated counter tuples: the translation that
    maps the first named counter to 0.
    """

    def __init__(self, names: Sequence[str], modulus: int, name: str = None):
        super().__init__()
        self.names: Tuple[str, ...] = tuple(names)
        if not self.names:
            raise SymmetryError("ValueRotation needs at least one variable")
        if modulus < 2:
            raise SymmetryError("ValueRotation needs a modulus of at least 2")
        self.modulus = modulus
        self.name = name or f"Z_{modulus} value rotation"
        self._generators: Optional[Tuple[Generator, ...]] = None

    def variable_names(self) -> frozenset:
        return frozenset(self.names)

    def validate(self, variables: Sequence[Variable]) -> None:
        domains = {v.name: v.domain for v in variables}
        expected = tuple(range(self.modulus))
        for variable_name in self.names:
            domain = domains.get(variable_name)
            if domain is None:
                raise SymmetryError(
                    f"{self.name}: unknown variable {variable_name!r}"
                )
            if domain != expected:
                raise SymmetryError(
                    f"{self.name}: variable {variable_name!r} has domain "
                    f"{domain!r}, expected 0..{self.modulus - 1}"
                )

    def element(self, offset: int) -> Generator:
        m = self.modulus
        offset %= m

        def translate(value, t=offset, m=m):
            return (value + t) % m

        return Generator(
            f"translate(+{offset})",
            {name: (name, translate) for name in self.names},
        )

    def generators(self) -> Tuple[Generator, ...]:
        if self._generators is None:
            self._generators = (self.element(1),)
        return self._generators

    def _compile(self, schema, domains):
        positions = tuple(schema.index[name] for name in self.names)
        m = self.modulus

        def canon(values, positions=positions, m=m):
            projection = tuple(values[p] for p in positions)
            best = projection
            for t in range(1, m):
                candidate = tuple((v + t) % m for v in projection)
                if candidate < best:
                    best = candidate
            if best is projection:
                return values
            out = list(values)
            for p, v in zip(positions, best):
                out[p] = v
            return tuple(out)

        return canon

    def _compile_columns(self, layout):
        # exactly one translation maps the first named counter to 0, the
        # smallest possible leading value, so that translation gives the
        # lexicographic minimum the per-state plan searches for (domains
        # are 0..m-1, so ranks are the values themselves)
        rows = _np.array(
            [layout.index[name] for name in self.names], dtype=_np.intp
        )
        m = self.modulus

        def canon(cols, rows=rows, lead=int(rows[0]), m=m):
            out = cols.copy()
            out[rows] = (cols[rows] - cols[lead]) % m
            return out

        return canon


class Canonicalizer:
    """Maps every state to the minimal representative of its orbit.

    The quotient-exploration counterpart of
    :class:`~repro.core.state.StateInterner`: :meth:`canonical` returns
    one pointer-unique state per *orbit* (rather than per value), so a
    BFS threaded through it materializes the quotient graph directly —
    the full graph is never built.  The state → representative memo
    doubles as the representative pool; like the interner's table it is
    owned by the exploration that needed it and dies with it.

    ``canonical`` accepts and ignores a second argument so it is a
    drop-in for the ``dict.setdefault(s, s)`` canonicalization of the
    unreduced BFS.
    """

    __slots__ = ("symmetry", "_domains", "_plans", "_memo")

    def __init__(self, symmetry: Symmetry, domains: Dict[str, Tuple]):
        self.symmetry = symmetry
        self._domains = domains
        #: schema -> compiled values-tuple canonicalization plan
        self._plans: Dict[object, Callable] = {}
        #: state -> pooled orbit representative (reps map to themselves)
        self._memo: Dict[State, State] = {}

    def canonical(self, state: State, _default: State = None) -> State:
        memo = self._memo
        found = memo.get(state)
        if found is not None:
            return found
        schema = state.schema
        plan = self._plans.get(schema)
        if plan is None:
            plan = self.symmetry._compile(schema, self._domains)
            self._plans[schema] = plan
        values = state.values_tuple
        canonical_values = plan(values)
        if canonical_values is values:
            memo[state] = state
            return state
        representative = _state_of(schema, canonical_values)
        pooled = memo.get(representative)
        if pooled is None:
            memo[representative] = pooled = representative
        memo[state] = pooled
        return pooled

    def canonical_many(self, states: Iterable[State]) -> List[State]:
        """Bulk :meth:`canonical`: orbit representatives in input order.

        The memo probe and the compiled-plan fetch are hoisted out of
        the per-state call; consecutive states sharing a schema — the
        common case, since exploration frontiers are schema-uniform —
        reuse one plan without re-probing the plan table.  Results and
        memo contents are identical to calling :meth:`canonical` state
        by state.
        """
        memo = self._memo
        get = memo.get
        plans = self._plans
        plan_schema = None
        plan = None
        out: List[State] = []
        append = out.append
        for state in states:
            found = get(state)
            if found is not None:
                append(found)
                continue
            schema = state.schema
            if schema is not plan_schema:
                plan = plans.get(schema)
                if plan is None:
                    plan = self.symmetry._compile(schema, self._domains)
                    plans[schema] = plan
                plan_schema = schema
            values = state.values_tuple
            canonical_values = plan(values)
            if canonical_values is values:
                memo[state] = state
                append(state)
                continue
            representative = _state_of(schema, canonical_values)
            pooled = get(representative)
            if pooled is None:
                memo[representative] = pooled = representative
            memo[state] = pooled
            append(pooled)
        return out

    def pool(self, state: State, _default: State = None) -> State:
        """The pooled representative of ``state``, which the caller
        guarantees is already canonical (the column canonicalizers
        produce such states a whole block at a time), pooling ``state``
        itself when its orbit has none yet.  No plan runs.  Like
        :meth:`canonical`, it accepts and ignores a second argument."""
        return self._memo.setdefault(state, state)

    def __len__(self) -> int:
        return len(self._memo)

    def __contains__(self, state: State) -> bool:
        return state in self._memo
