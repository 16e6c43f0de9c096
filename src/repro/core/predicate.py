"""State predicates with a boolean algebra.

The paper works pervasively with *state predicates* — boolean expressions
over program variables — and identifies each predicate with the set of
states in which it holds (Section 2.1).  :class:`Predicate` captures both
views:

- intensionally, a predicate wraps a function ``State -> bool``;
- extensionally, :meth:`Predicate.from_states` builds a predicate from an
  explicit set of states, and :meth:`Predicate.states_in` evaluates a
  predicate over an iterable of states.

Predicates compose with the operators the paper uses: ``&`` (conjunction),
``|`` (disjunction), ``~`` (negation), and :meth:`implies`.  Every
predicate carries a human-readable name so that check results and
counterexamples remain legible.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, Iterator, Sequence, Set

import numpy as _np

from .state import Schema, State, _state_of

__all__ = ["Predicate", "EvaluatorMemo", "TRUE", "FALSE",
           "var_eq", "var_ne", "var_in"]


def _compose_values(a, b, combine: str):
    """Compose two ``values_builder`` compilers under and/or (``None``
    when either operand is not schema-compilable)."""
    if a is None or b is None:
        return None
    if combine == "and":
        return lambda index, _a=a, _b=b: (
            lambda values, fa=_a(index), fb=_b(index): fa(values) and fb(values)
        )
    return lambda index, _a=a, _b=b: (
        lambda values, fa=_a(index), fb=_b(index): fa(values) or fb(values)
    )


def _compose_columns(a, b, combine: str):
    """Compose two ``columns_builder`` compilers under elementwise
    and/or over boolean mask arrays."""
    if a is None or b is None:
        return None
    if combine == "and":
        return lambda layout, _a=a, _b=b: (
            lambda cols, fa=_a(layout), fb=_b(layout): fa(cols) & fb(cols)
        )
    return lambda layout, _a=a, _b=b: (
        lambda cols, fa=_a(layout), fb=_b(layout): fa(cols) | fb(cols)
    )


class Predicate:
    """A state predicate: a named boolean function of a :class:`State`.

    Parameters
    ----------
    fn:
        Function evaluating the predicate at a state.
    name:
        Human-readable rendering, used in reprs, certificates, and
        counterexample explanations.
    """

    __slots__ = ("fn", "name", "values_builder", "columns_builder")

    def __init__(
        self,
        fn: Callable[[State], bool],
        name: str = "pred",
        values_builder: Callable = None,
        columns_builder: Callable = None,
    ):
        self.fn = fn
        self.name = name
        #: Optional schema compiler: ``values_builder(schema.index)``
        #: returns an evaluator over raw values-tuples equivalent to
        #: ``fn`` on states of that schema.  Single-schema region sweeps
        #: (:meth:`repro.core.regions.StateIndex.region_bits`) use it to
        #: skip the per-state schema dispatch the ``fn`` wrapper needs.
        self.values_builder = values_builder
        #: Optional columnar compiler: ``columns_builder(layout)`` (a
        #: :class:`repro.core.kernels.Layout`) returns an evaluator
        #: mapping a ``(vars, N)`` rank-column matrix — the encoding the
        #: batch exploration engine leaves on a system as
        #: ``_state_cols`` — to a length-``N`` boolean mask, equivalent
        #: to mapping ``fn`` over the decoded states.  Region sweeps use
        #: it to evaluate the predicate over every state in a handful of
        #: numpy operations instead of N Python calls.
        self.columns_builder = columns_builder

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
    # combinators close over the operand *functions*, not the Predicate
    # objects: composed guards are evaluated once per (state, action)
    # pair during exploration, and the extra __call__ frame per operand
    # was measurable there.
    def __and__(self, other: "Predicate") -> "Predicate":
        return Predicate(
            lambda s, a=self.fn, b=other.fn: a(s) and b(s),
            name=f"({self.name} ∧ {other.name})",
            values_builder=_compose_values(
                self.values_builder, other.values_builder, "and"
            ),
            columns_builder=_compose_columns(
                self.columns_builder, other.columns_builder, "and"
            ),
        )

    def __or__(self, other: "Predicate") -> "Predicate":
        return Predicate(
            lambda s, a=self.fn, b=other.fn: a(s) or b(s),
            name=f"({self.name} ∨ {other.name})",
            values_builder=_compose_values(
                self.values_builder, other.values_builder, "or"
            ),
            columns_builder=_compose_columns(
                self.columns_builder, other.columns_builder, "or"
            ),
        )

    def __invert__(self) -> "Predicate":
        vb = self.values_builder
        cb = self.columns_builder
        return Predicate(
            lambda s, a=self.fn: not a(s),
            name=f"¬{self.name}",
            values_builder=None if vb is None else (
                lambda index, _a=vb: (
                    lambda values, fa=_a(index): not fa(values)
                )
            ),
            columns_builder=None if cb is None else (
                lambda layout, _a=cb: (
                    lambda cols, fa=_a(layout): ~fa(cols)
                )
            ),
        )

    def implies(self, other: "Predicate") -> "Predicate":
        """The predicate ``self ⇒ other`` (pointwise implication)."""
        return Predicate(
            lambda s, a=self.fn, b=other.fn: (not a(s)) or b(s),
            name=f"({self.name} ⇒ {other.name})",
            values_builder=_compose_values(
                None if self.values_builder is None else (
                    lambda index, _a=self.values_builder: (
                        lambda values, fa=_a(index): not fa(values)
                    )
                ),
                other.values_builder, "or",
            ),
            columns_builder=_compose_columns(
                None if self.columns_builder is None else (
                    lambda layout, _a=self.columns_builder: (
                        lambda cols, fa=_a(layout): ~fa(cols)
                    )
                ),
                other.columns_builder, "or",
            ),
        )

    def rename(self, name: str) -> "Predicate":
        """Return the same predicate under a new display name."""
        return Predicate(
            self.fn, name=name,
            values_builder=self.values_builder,
            columns_builder=self.columns_builder,
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


class EvaluatorMemo(dict):
    """A compiled-evaluator cache a predicate closure may carry.

    Model predicates that compile a per-schema evaluator on first use
    keep the compiled plans in one of these instead of a plain ``dict``:
    content fingerprinting (:mod:`repro.store.keys`) treats an
    ``EvaluatorMemo`` closure cell as an opaque, empty marker, so the
    cache filling up never changes the predicate's content key.  A plain
    ``dict`` in a closure is fingerprinted by value — correct for
    configuration, key-drifting for caches."""

    __slots__ = ()


TRUE = Predicate(lambda s: True, name="true")
FALSE = Predicate(lambda s: False, name="false")


# the variable-comparison factories carry a values_builder so that
# region sweeps and detector banks evaluate them on raw values tuples
# without the State wrapper, and a columns_builder so that region
# sweeps over columnar-explored systems vectorize over rank columns

def _eq_columns(name: str, value: object):
    def build(layout):
        i = layout.index[name]
        # a value outside the declared domain matches no rank: rank -1
        # never occurs in a column, giving the correct all-False mask
        r = layout.ranks[i].get(value, -1)
        return lambda cols: cols[i] == r
    return build


def _ne_columns(name: str, value: object):
    def build(layout):
        i = layout.index[name]
        r = layout.ranks[i].get(value, -1)
        return lambda cols: cols[i] != r
    return build


def _in_columns(name: str, allowed: Set[object]):
    def build(layout):
        i = layout.index[name]
        lut = _np.zeros(layout.sizes[i], dtype=bool)
        for value, rank in layout.ranks[i].items():
            if value in allowed:
                lut[rank] = True
        return lambda cols: lut[cols[i]]
    return build


def var_eq(name: str, value: object) -> Predicate:
    """Predicate ``name == value``."""
    return Predicate(
        lambda s: s[name] == value,
        name=f"{name}={value!r}",
        values_builder=lambda index, n=name, v=value: (
            lambda values, i=index[n]: values[i] == v
        ),
        columns_builder=_eq_columns(name, value),
    )


def var_ne(name: str, value: object) -> Predicate:
    """Predicate ``name != value``."""
    return Predicate(
        lambda s: s[name] != value,
        name=f"{name}≠{value!r}",
        values_builder=lambda index, n=name, v=value: (
            lambda values, i=index[n]: values[i] != v
        ),
        columns_builder=_ne_columns(name, value),
    )


def var_in(name: str, values: Iterable[object]) -> Predicate:
    """Predicate ``name ∈ values``."""
    allowed: Set[object] = set(values)
    return Predicate(
        lambda s: s[name] in allowed,
        name=f"{name}∈{sorted(map(repr, allowed))}",
        values_builder=lambda index, n=name, a=allowed: (
            lambda values, i=index[n]: values[i] in a
        ),
        columns_builder=_in_columns(name, allowed),
    )
