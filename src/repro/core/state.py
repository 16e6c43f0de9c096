"""States, variables, and state spaces.

The paper defines a *program* over a set of variables, each with a
predefined nonempty domain, and a *state* as a value for each variable
(Section 2.1).  This module makes those definitions executable:

- :class:`Variable` declares a name and a finite domain.
- :class:`Schema` is an interned, sorted tuple of variable names shared
  by every state over the same variables, carrying the name→index map
  that makes state access O(1).
- :class:`State` is an immutable, hashable assignment of values to
  variable names, represented as a values-tuple against a shared
  :class:`Schema`.  Immutability lets states serve as graph nodes and
  set members throughout the library.
- :class:`StateInterner` canonicalizes value-equal states to one object
  so that equality during exploration is (mostly) pointer equality.
- :func:`state_space` enumerates the full (finite) Cartesian state space
  of a collection of variables.
- :meth:`State.project` implements the paper's *projection* of a state of
  ``p'`` on ``p`` (Section 2.2.1): keep only the named variables.

Why the schema representation: every check in Sections 2–5 quantifies
over the reachable transition graph, so ``State.__getitem__`` (inside
every guard and predicate) and ``State.assign`` (inside every action
statement) are the hot path of the whole library.  Sharing one interned
schema per variable set means a state is a single values-tuple — O(1)
lookups through the schema's index map, assignment as a shallow tuple
copy with no dict rebuild or re-sort, and a hash precomputed at
construction.  The mapping/kwargs constructor is retained unchanged, so
programs written against the original dict-of-items representation run
unmodified.

Domains must be finite for the model-checking machinery to terminate;
they may contain any hashable values (ints, strings, tuples, frozensets,
or the :data:`BOTTOM` sentinel used by several example programs).
"""

from __future__ import annotations

import itertools
import operator
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple,
)

__all__ = [
    "BOTTOM",
    "Bottom",
    "Variable",
    "Schema",
    "State",
    "StateInterner",
    "state_space",
]


class Bottom:
    """Singleton sentinel for the paper's undefined value ``⊥``.

    Several example programs (memory access, TMR, Byzantine agreement) use
    ``⊥`` to mean "not yet assigned".  A dedicated singleton keeps it
    distinct from every ordinary domain value, including ``None``.
    """

    _instance = None

    def __new__(cls) -> "Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __reduce__(self):
        return (Bottom, ())


BOTTOM = Bottom()


class Variable:
    """A program variable with a predefined, nonempty, finite domain.

    Parameters
    ----------
    name:
        Unique variable name within a program.
    domain:
        Iterable of the values the variable may take.  Must be nonempty;
        duplicates are removed while preserving order.
    """

    __slots__ = ("name", "domain")

    def __init__(self, name: str, domain: Iterable[Hashable]):
        values: Tuple[Hashable, ...] = tuple(dict.fromkeys(domain))
        if not values:
            raise ValueError(f"variable {name!r} must have a nonempty domain")
        self.name = name
        self.domain = values

    def __contains__(self, value: Hashable) -> bool:
        return value in self.domain

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, domain={list(self.domain)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name == other.name and self.domain == other.domain

    def __hash__(self) -> int:
        return hash((self.name, self.domain))


class Schema:
    """The interned, sorted variable-name tuple shared by all states over
    the same variables.

    Obtain instances with :meth:`Schema.of`; there is exactly one
    ``Schema`` object per distinct name set in a process, so states over
    the same variables share a single schema (and schema comparison is
    pointer comparison).  The schema carries the name→index map that
    backs O(1) :meth:`State.__getitem__` / :meth:`State.__contains__`.
    """

    __slots__ = ("names", "index", "_hash", "_projections")

    _pool: Dict[Tuple[str, ...], "Schema"] = {}

    def __init__(self, names: Tuple[str, ...]):
        self.names = names
        self.index: Dict[str, int] = {
            name: position for position, name in enumerate(names)
        }
        self._hash = hash(names)
        #: cache of projection plans: frozenset(names) -> (schema, indices)
        self._projections: Dict[
            FrozenSet[str], Tuple["Schema", Tuple[int, ...]]
        ] = {}

    @classmethod
    def of(cls, names: Iterable[str]) -> "Schema":
        """The unique schema for ``names`` (sorted and interned)."""
        key = tuple(names)
        schema = cls._pool.get(key)
        if schema is None:
            canonical = tuple(sorted(key))
            schema = cls._pool.get(canonical)
            if schema is None:
                schema = cls(canonical)
                cls._pool[canonical] = schema
            if key != canonical:
                # remember the unsorted spelling too, so repeated
                # construction from the same insertion order skips the sort
                cls._pool[key] = schema
        return schema

    def __hash__(self) -> int:
        return self._hash

    # identity equality (the pool guarantees one instance per name set)

    def projection_plan(
        self, names: Iterable[str]
    ) -> Tuple["Schema", Tuple[int, ...]]:
        """The (sub-schema, value indices) pair realizing a projection
        onto ``names`` — cached per schema because refinement checks
        project every explored state onto the same variable subset."""
        key = frozenset(names)
        plan = self._projections.get(key)
        if plan is None:
            kept = tuple(n for n in self.names if n in key)
            indices = tuple(self.index[n] for n in kept)
            plan = (Schema.of(kept), indices)
            self._projections[key] = plan
        return plan

    def __reduce__(self):
        return (Schema.of, (self.names,))

    def __repr__(self) -> str:
        return f"Schema{self.names!r}"


def _state_of(schema: Schema, values: Tuple[Hashable, ...]) -> "State":
    """Fast internal constructor: values already in schema order.

    The hash is computed lazily (see :meth:`State.__hash__`): full-space
    enumeration builds orders of magnitude more states than ever enter a
    hash table, so hashing eagerly would be mostly wasted work.
    """
    state = object.__new__(State)
    state._schema = schema
    state._values = values
    state._hash = None
    return state


class State(Mapping[str, Hashable]):
    """An immutable assignment of values to variable names.

    ``State`` behaves as a read-only mapping and supports three styles of
    access::

        s = State(x=1, y=0)
        s["x"]            # mapping access
        s.assign(x=2)     # functional update -> new State
        s.project(["x"])  # projection on a subset of variables

    States compare equal iff they assign the same values to the same
    variables, and they hash consistently, so they can be used as nodes in
    transition graphs and as members of predicates-as-sets.

    Internally a state is a values-tuple against an interned
    :class:`Schema` (see the module docstring); the mapping/kwargs
    constructor normalizes into that representation, so states built
    from dicts and states built by the fast paths are indistinguishable.
    """

    __slots__ = ("_schema", "_values", "_hash")

    def __init__(self, mapping: Mapping[str, Hashable] = None, **values: Hashable):
        if mapping is not None:
            combined: Mapping[str, Hashable] = dict(mapping)
            combined.update(values)
        else:
            combined = values
        schema = Schema.of(combined)
        self._schema = schema
        self._values: Tuple[Hashable, ...] = tuple(
            combined[name] for name in schema.names
        )
        self._hash = None

    # -- schema view -------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def values_tuple(self) -> Tuple[Hashable, ...]:
        """The values in schema (sorted-name) order."""
        return self._values

    # -- Mapping protocol ------------------------------------------------
    def __getitem__(self, name: str) -> Hashable:
        try:
            return self._values[self._schema.index[name]]
        except KeyError:
            raise KeyError(name) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.names)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: object) -> bool:
        return name in self._schema.index

    def items(self):
        return tuple(zip(self._schema.names, self._values))

    # -- functional updates ----------------------------------------------
    def assign(self, **updates: Hashable) -> "State":
        """Return a new state with ``updates`` applied.

        Raises ``KeyError`` if an update names a variable absent from the
        state: silently introducing variables is almost always a bug in a
        program action.
        """
        index = self._schema.index
        values = self._values
        if len(updates) == 1:
            # single-variable updates are the overwhelmingly common
            # action shape; splice the tuple directly
            [(name, value)] = updates.items()
            position = index.get(name)
            if position is None:
                raise KeyError(
                    f"cannot assign unknown variable {name!r}; "
                    f"state variables are {list(self._schema.names)}"
                )
            return _state_of(
                self._schema,
                values[:position] + (value,) + values[position + 1:],
            )
        mutable = list(values)
        for name, value in updates.items():
            position = index.get(name)
            if position is None:
                raise KeyError(
                    f"cannot assign unknown variable {name!r}; "
                    f"state variables are {list(self._schema.names)}"
                )
            mutable[position] = value
        return _state_of(self._schema, tuple(mutable))

    def assign_one(self, name: str, value: Hashable) -> "State":
        """:meth:`assign` for exactly one variable, without the kwargs
        packing — the hot shape of deterministic statements."""
        position = self._schema.index.get(name)
        if position is None:
            raise KeyError(
                f"cannot assign unknown variable {name!r}; "
                f"state variables are {list(self._schema.names)}"
            )
        values = self._values
        return _state_of(
            self._schema,
            values[:position] + (value,) + values[position + 1:],
        )

    def assign_each(
        self, name: str, values: Iterable[Hashable]
    ) -> Tuple["State", ...]:
        """All states obtained by assigning each of ``values`` to ``name``.

        Equivalent to ``tuple(self.assign(name=v) for v in values)`` but
        the schema lookup and tuple splitting happen once, not per value
        — this is the hot path of nondeterministic statements that range
        over a variable's domain (Byzantine decision changes, reads of
        unwritten memory)."""
        position = self._schema.index.get(name)
        if position is None:
            raise KeyError(
                f"cannot assign unknown variable {name!r}; "
                f"state variables are {list(self._schema.names)}"
            )
        schema = self._schema
        before = self._values[:position]
        after = self._values[position + 1:]
        return tuple(
            [_state_of(schema, before + (value,) + after) for value in values]
        )

    def extend(self, **new_variables: Hashable) -> "State":
        """Return a new state with additional variables.

        Unlike :meth:`assign`, this *adds* variables; it raises if a name
        already exists, to keep the two operations unambiguous.
        """
        index = self._schema.index
        for name in new_variables:
            if name in index:
                raise KeyError(f"variable {name!r} already present")
        combined = dict(zip(self._schema.names, self._values))
        combined.update(new_variables)
        return State(combined)

    def project(self, names: Iterable[str]) -> "State":
        """Projection of this state on the given variable names.

        Implements the paper's projection of a state of ``p'`` on ``p``:
        the state obtained by considering only the variables of ``p``.
        """
        schema, indices = self._schema.projection_plan(names)
        values = self._values
        return _state_of(schema, tuple(values[i] for i in indices))

    # -- dunder ------------------------------------------------------------
    def __hash__(self) -> int:
        found = self._hash
        if found is None:
            found = self._hash = hash((self._schema._hash, self._values))
        return found

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, State):
            # schemas are interned: same variables <=> same schema object
            return (
                self._schema is other._schema
                and self._values == other._values
            )
        if isinstance(other, Mapping):
            return dict(self.items()) == dict(other)
        return NotImplemented

    def __reduce__(self):
        return (_state_of, (self._schema, self._values))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{k}={v!r}" for k, v in zip(self._schema.names, self._values)
        )
        return f"State({body})"


class StateInterner:
    """Canonicalizes value-equal states to a single object.

    Exploration passes every successor through :meth:`canonical`, so the
    states stored in a transition system are pointer-distinct exactly
    when they are value-distinct — hash-table probes then short-circuit
    on identity and repeated successors cost one dict lookup instead of
    a fresh allocation held forever.

    The table is owned by whoever is exploring (not a process-global),
    so its lifetime — and the memory it pins — ends with the exploration
    that needed it.
    """

    __slots__ = ("_pool",)

    def __init__(self, seed: Iterable[State] = ()):
        self._pool: Dict[State, State] = {}
        for state in seed:
            self._pool.setdefault(state, state)

    def canonical(self, state: State) -> State:
        """The unique representative equal to ``state`` (inserting it if
        this is the first time the value is seen)."""
        found = self._pool.get(state)
        if found is None:
            self._pool[state] = state
            return state
        return found

    def canonical_many(self, states: Iterable[State]) -> List[State]:
        """:meth:`canonical` of each state: representatives in input
        order."""
        return [self.canonical(state) for state in states]

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, state: State) -> bool:
        return state in self._pool


def state_space(variables: Sequence[Variable]) -> Iterator[State]:
    """Enumerate every state over ``variables`` (Cartesian product).

    The order is deterministic: the product is taken in the order the
    variables are given, each domain in its declared order.  Callers that
    only need reachable states should prefer
    :meth:`repro.core.exploration.TransitionSystem` which explores lazily.

    States are built through the schema fast path: one shared schema,
    one permutation computed up front, and a plain values-tuple per
    state — no per-state dict or sort.
    """
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    domains = [v.domain for v in variables]
    schema = Schema.of(names)
    position = {name: i for i, name in enumerate(names)}
    permutation = tuple(position[name] for name in schema.names)
    if permutation == tuple(range(len(names))):
        # variables already in schema order: product tuples are the values
        for combo in itertools.product(*domains):
            yield _state_of(schema, combo)
    else:
        reorder = operator.itemgetter(*permutation)
        for combo in itertools.product(*domains):
            yield _state_of(schema, reorder(combo))
