"""State predicates with a boolean algebra.

The paper works pervasively with *state predicates* — boolean expressions
over program variables — and identifies each predicate with the set of
states in which it holds (Section 2.1).  :class:`Predicate` captures both
views:

- intensionally, a predicate is an expression in the guard grammar of
  :mod:`repro.core.kernels` (``expr=``; counts included), a schema
  compiler over raw values-tuples (``values_builder=``), or a function
  ``State -> bool``;
- extensionally, :meth:`Predicate.from_states` builds a predicate from an
  explicit set of states, and :meth:`Predicate.states_in` evaluates a
  predicate over an iterable of states.

Predicates compose with the operators the paper uses: ``&`` (conjunction),
``|`` (disjunction), ``~`` (negation), and :meth:`implies`.  Every
predicate carries a human-readable name so that check results and
counterexamples remain legible.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, Iterator, Sequence, Set, Tuple

from .kernels import KernelError, check_guard, column_guard, row_guard
from .state import Schema, State, _state_of

__all__ = ["Predicate", "EvaluatorMemo", "TRUE", "FALSE",
           "var_eq", "var_ne", "var_in"]


class EvaluatorMemo(dict):
    """A compiled-evaluator cache a predicate closure may carry.

    Predicates that compile a per-schema evaluator on first use keep
    the compiled plans in one of these instead of a plain ``dict``:
    content fingerprinting (:mod:`repro.store.keys`) treats an
    ``EvaluatorMemo`` closure cell as an opaque, empty marker, so the
    cache filling up never changes the predicate's content key.  A plain
    ``dict`` in a closure is fingerprinted by value — correct for
    configuration, key-drifting for caches."""

    __slots__ = ()


def _per_schema(build: Callable) -> Callable[[State], bool]:
    """``State -> bool`` through a values-tuple evaluator compiled once
    per schema by ``build(schema.index)``."""
    compiled = EvaluatorMemo()

    def holds(state) -> bool:
        schema = state._schema
        fn = compiled.get(schema)
        if fn is None:
            fn = compiled[schema] = build(schema.index)
        return fn(state._values)

    return holds


class Predicate:
    """A state predicate: a named boolean function of a :class:`State`.

    Give exactly one description:

    ``expr``
        A guard expression of :mod:`repro.core.kernels` (the grammar
        plans use).  ``fn``, the values-tuple evaluator and the
        rank-column evaluator (:meth:`columns_for`) are all compiled
        from it, and the content key is the expression itself.
    ``values_builder``
        A schema compiler: ``values_builder(schema.index)`` returns an
        evaluator over raw values-tuples.  ``fn`` compiles it once per
        schema.  A faster per-state sweep for a predicate written as
        code; an expression (counts such as "exactly one token" are a
        ``count`` term) also sweeps as rank columns and keys by its
        content, so prefer ``expr=`` wherever the grammar says it.
    ``fn``
        A function ``State -> bool``, optionally with a
        ``values_builder`` equivalent to it on every schema.

    ``name`` is the human-readable rendering used in reprs,
    certificates, and counterexample explanations.
    """

    __slots__ = ("fn", "name", "values_builder", "expr")

    def __init__(
        self,
        fn: Callable[[State], bool] = None,
        name: str = "pred",
        values_builder: Callable = None,
        expr: Tuple = None,
    ):
        if expr is not None:
            if fn is not None or values_builder is not None:
                raise TypeError(
                    f"predicate {name!r}: expr= is the whole description; "
                    f"fn and values_builder are compiled from it"
                )
            check_guard(expr)
            values_builder = lambda index, expr=expr: row_guard(expr, index)
        if fn is None:
            if values_builder is None:
                raise TypeError(
                    f"predicate {name!r} needs expr=, values_builder= or fn"
                )
            fn = _per_schema(values_builder)
        self.fn = fn
        self.name = name
        #: Optional schema compiler: ``values_builder(schema.index)``
        #: returns an evaluator over raw values-tuples equivalent to
        #: ``fn`` on states of that schema.  Single-schema region sweeps
        #: (:meth:`repro.core.regions.StateIndex.region_bits`) use it to
        #: skip the per-state schema dispatch the ``fn`` wrapper needs.
        self.values_builder = values_builder
        #: the guard-grammar expression this predicate was built from,
        #: or ``None`` for function/values-builder predicates
        self.expr = expr

    # -- evaluation --------------------------------------------------------
    def __call__(self, state: State) -> bool:
        return bool(self.fn(state))

    def holds_everywhere(self, states: Iterable[State]) -> bool:
        """True iff the predicate holds at every given state."""
        return all(self(s) for s in states)

    def holds_somewhere(self, states: Iterable[State]) -> bool:
        """True iff the predicate holds at some given state."""
        return any(self(s) for s in states)

    def states_in(self, states: Iterable[State]) -> Iterator[State]:
        """Yield the states (from ``states``) at which the predicate holds."""
        return (s for s in states if self(s))

    # -- algebra -------------------------------------------------------------
    # expression predicates compose into expression predicates; anything
    # else closes over the operand *functions*, not the Predicate objects:
    # composed guards are evaluated once per (state, action) pair during
    # exploration, and the extra __call__ frame per operand was
    # measurable there.
    def __and__(self, other: "Predicate") -> "Predicate":
        name = f"({self.name} ∧ {other.name})"
        if self.expr is not None and other.expr is not None:
            return Predicate(expr=("and", self.expr, other.expr), name=name)
        return Predicate(lambda s, a=self.fn, b=other.fn: a(s) and b(s),
                         name=name)

    def __or__(self, other: "Predicate") -> "Predicate":
        name = f"({self.name} ∨ {other.name})"
        if self.expr is not None and other.expr is not None:
            return Predicate(expr=("or", self.expr, other.expr), name=name)
        return Predicate(lambda s, a=self.fn, b=other.fn: a(s) or b(s),
                         name=name)

    def __invert__(self) -> "Predicate":
        name = f"¬{self.name}"
        if self.expr is not None:
            return Predicate(expr=("not", self.expr), name=name)
        return Predicate(lambda s, a=self.fn: not a(s), name=name)

    def implies(self, other: "Predicate") -> "Predicate":
        """The predicate ``self ⇒ other`` (pointwise implication)."""
        name = f"({self.name} ⇒ {other.name})"
        if self.expr is not None and other.expr is not None:
            return Predicate(
                expr=("or", ("not", self.expr), other.expr), name=name
            )
        return Predicate(
            lambda s, a=self.fn, b=other.fn: (not a(s)) or b(s), name=name
        )

    def rename(self, name: str) -> "Predicate":
        """Return the same predicate under a new display name."""
        if self.expr is not None:
            return Predicate(expr=self.expr, name=name)
        return Predicate(
            self.fn, name=name, values_builder=self.values_builder
        )

    def compile_for(self, schema: Schema) -> Callable[[Sequence], bool]:
        """An evaluator over raw values sequences of ``schema``.

        Schema-compiled predicates go through :attr:`values_builder`
        directly; others fall back to wrapping the values in a
        :class:`State`.  Either way the returned callable accepts any
        sequence in schema order (tuple or mutable list), which is what
        the region sweeps and the monitoring runtime's incremental
        evaluation both feed it.
        """
        if self.values_builder is not None:
            return self.values_builder(schema.index)
        fn = self.fn
        def evaluate(values, _schema=schema, _fn=fn):
            return bool(_fn(_state_of(_schema, tuple(values))))
        return evaluate

    def columns_for(self, layout) -> Callable:
        """An evaluator mapping a ``(vars, N)`` rank-column matrix of
        ``layout`` (a :class:`repro.core.kernels.Layout`) to a
        length-``N`` boolean mask, equivalent to mapping ``fn`` over the
        decoded states — or ``None`` when the predicate has no
        expression or the expression names a variable the layout lacks.
        Region sweeps over columnar-explored systems use it to evaluate
        the predicate on every state in a handful of numpy operations."""
        if self.expr is None:
            return None
        try:
            return column_guard(self.expr, layout)
        except KernelError:
            return None

    # -- extensional view ------------------------------------------------
    @staticmethod
    def from_states(states: Iterable[State], name: str = "set") -> "Predicate":
        """Extensional predicate: true exactly on the given states."""
        frozen: FrozenSet[State] = frozenset(states)
        return Predicate(lambda s, ss=frozen: s in ss, name=name)

    def implied_everywhere_by(
        self, other: "Predicate", states: Iterable[State]
    ) -> bool:
        """True iff ``other ⇒ self`` holds at every state in ``states``."""
        return all(self(s) for s in states if other(s))

    def equivalent_on(self, other: "Predicate", states: Iterable[State]) -> bool:
        """True iff the two predicates agree on every state in ``states``."""
        return all(self(s) == other(s) for s in states)

    def __repr__(self) -> str:
        return f"Predicate({self.name})"


TRUE = Predicate(expr=("true",), name="true")
FALSE = Predicate(expr=("or",), name="false")


def var_eq(name: str, value: object) -> Predicate:
    """Predicate ``name == value``."""
    return Predicate(expr=("eq_const", name, value), name=f"{name}={value!r}")


def var_ne(name: str, value: object) -> Predicate:
    """Predicate ``name != value``."""
    return Predicate(expr=("ne_const", name, value), name=f"{name}≠{value!r}")


def var_in(name: str, values: Iterable[object]) -> Predicate:
    """Predicate ``name ∈ values`` (the empty set gives the empty,
    false, disjunction)."""
    allowed: Set[object] = set(values)
    return Predicate(
        expr=("or", *(("eq_const", name, v) for v in sorted(allowed, key=repr))),
        name=f"{name}∈{sorted(map(repr, allowed))}",
    )
