"""The Plan IR and its compilers: one description per guarded command.

A :class:`Plan` is the whole description of a guarded command — a
guard expression and a list of effects over named variables (grammar
below).  Effects are deterministic assignments plus at most one
nondeterministic choice (``set_any``), so a plan describes an action
with one successor per enabled state, or one per value of its choice.
Everything else about the action is compiled from it here:

- the interpreted guard and statement (:func:`row_guard`,
  :func:`row_effects`) and the ``reads``/``writes`` frame
  (:func:`plan_reads`, :func:`plan_targets`), which
  :class:`~repro.core.action.Action` derives from ``plan=``;
- *code kernels* that evaluate one action over an entire BFS frontier
  at once: the frontier is a ``(vars, N)`` matrix of domain *ranks* (a
  value's position in its declared domain) next to its mixed-radix
  ``int64`` codes, guards evaluate as vectorized numpy column
  arithmetic, and each successor comes out as a code for O(1)
  interning (:func:`code_kernel`; :func:`batch_kernel` unpacks them
  back into rank columns);
- *action families*: the planned actions of one program (or fault
  class) that are equal up to renaming — the n copies of a process —
  compile once into one kernel, which expands a level for a whole group
  of members as one stacked block (:func:`action_families`; a code
  kernel is a family of one);
- a per-row successor closure over raw values-tuples
  (:func:`row_kernel`), which the symbolic analyzer tabulates.

The guard grammar is also the state-predicate language: a
:class:`~repro.core.predicate.Predicate` built with ``expr=`` gets its
``fn``, its values-tuple evaluator (:func:`row_guard`) and its
rank-column evaluator (:func:`column_guard`) from the same compilers.

Kernels take an optional per-level *memo*: the terms several guards of
one program repeat (``all_ne_const``, the majority count behind the
majority ops, and a ``count`` term's total) are computed once per
frontier level and shared.  A term is keyed by its expression, so every
guard that names the same variables shares its column.  In a family a
term over shared slots (slots naming one variable in every member) has
that same key; a term over a per-member slot, whose slot name is the
tuple of its members' variables, is a different block for each member
group, so its key also names the group and it is shared only by the
same term over the same members.  The caller owns the memo — one dict
per matrix of columns — and a memoized column is only ever read, never
written in place.

Actions without a plan (statements the grammar cannot say) run their
interpreted ``successors`` inside the same array engine, whose
successors are packed into codes alongside the kernels' output, so
kernels are an accelerator, never a constraint.
``tests/test_kernels.py`` pins kernel/interpreted parity (state sets,
edges, deadlocks) across every bundled program and fault builder, under
symmetry quotients.

For state spaces too large to materialize as ``State`` objects at all
(the ROADMAP's million-state explorations), :func:`explore_codes` runs
the whole BFS in packed-code space: frontiers are ``int64`` arrays,
dedup is a bitmap or a sorted-merge anti-join, and no per-state Python
object ever exists.  The ``token_ring_large`` and
``byzantine_k13_unreduced`` benchmark suites are gated on its exact
reachable-state counts.

Plan grammar (nested tuples; ``name`` is a variable name; every op
takes exactly the operands shown, checked at construction):

Guards::

    ("true",)
    ("eq_const", name, value)      ("ne_const", name, value)
    ("eq_var", name_a, name_b)     ("ne_var", name_a, name_b)
    ("all_ne_const", names, value)             # every name  != value
    ("eq_majority", name, names, k)            # name == majority(names)
    ("ne_majority", name, names, k)            # (strict 0/1 majority)
    ("count", exprs, cmp, k)                   # #{e in exprs | e} cmp k
    ("and", *exprs)  ("or", *exprs)  ("not", expr)

``("and",)`` is true and ``("or",)`` is false.  ``count`` is the
threshold guard of threshold automata: how many of the guards ``exprs``
(a tuple) hold, compared with the int ``k`` by ``cmp``, one of ``==``,
``!=``, ``<=``, ``<``, ``>=``, ``>`` — "exactly one token" is
``("count", tokens, "==", 1)``.  Name tuples may be empty: ``all_ne_const``
over ``()`` is true, the majority of ``()`` is ``1`` iff ``0 > k``, and a
count over ``()`` compares 0 with ``k``.

Effects (applied atomically — every right-hand side reads the
pre-state; no two effects of a plan assign the same variable)::

    ("set_const", name, value)
    ("copy", dst, src)                         # dst := src (values)
    ("inc_mod", dst, src, m)                   # dst := (src + 1) mod m
    ("set_majority", dst, names, k)            # dst := 0/1 majority
    ("set_any", name, values)                  # name := any of values

``set_any`` is nondeterministic choice: one successor per value, in
``values`` order, each carrying the plan's other effects too; a value
equal to the current one gives a self-loop.  ``values`` is non-empty and
repeats no value, and a plan has at most one ``set_any``.
"""

from __future__ import annotations

import operator
import os
import weakref
from collections import deque
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional,
    Tuple,
)

import numpy as _np

from .state import State, _state_of, state_space

__all__ = [
    "ENGINE_VERSION",
    "Plan",
    "KernelError",
    "Layout",
    "layout_for",
    "set_backend",
    "get_backend",
    "resolved_backend",
    "check_guard",
    "guard_support",
    "plan_reads",
    "plan_support",
    "plan_targets",
    "render_guard",
    "row_guard",
    "row_effects",
    "column_guard",
    "row_kernel",
    "batch_kernel",
    "action_families",
    "explore_codes",
    "explore_code_shard",
    "census_start_codes",
    "merge_code_reaches",
    "CodeReach",
    "clear_kernel_caches",
]

#: semantic version of the successor engines; part of the certificate
#: store's key salt so artifacts never cross an engine behaviour change
ENGINE_VERSION = 1

#: packed codes must fit a signed int64 with headroom for arithmetic
MAX_CODE_BITS = 62

#: safety valve for :func:`explore_codes` (far above the State-object
#: explorer's cap — code-space BFS is exactly what makes this range
#: reachable)
DEFAULT_MAX_CODES = 50_000_000

#: full code spaces up to this size dedup through a byte bitmap
#: (space bytes of memory); larger spaces use a sorted-merge anti-join
_BITMAP_SPACE_LIMIT = 1 << 26

#: Frontier rows expanded per kernel batch inside :func:`explore_codes`.
#: Small enough that a chunk's rank columns and successor codes stay in
#: cache (chunk × variables × 8 bytes per column set).  Each usable CPU
#: expands one chunk at a time, so beyond the frontier and the seen set
#: peak memory scales with workers × this constant.  In a serial sweep
#: of 2^12 to 2^20 (7^8 ring and k = 11 Byzantine censuses, a 2-CPU
#: Xeon), 2^12 to 2^16 ran within 5% of each other, 2^15 fastest, and
#: 2^20 took 1.6x as long.
_FRONTIER_CHUNK = 1 << 15


class KernelError(ValueError):
    """A plan is malformed, or cannot be compiled for a schema (unknown
    variable, incompatible domains, or a value a domain cannot
    represent)."""


#: op -> number of operands (``None``: any number of sub-expressions)
_GUARD_ARITY = {
    "true": 0, "eq_const": 2, "ne_const": 2, "eq_var": 2, "ne_var": 2,
    "all_ne_const": 2, "eq_majority": 3, "ne_majority": 3, "count": 3,
    "and": None, "or": None, "not": 1,
}
#: a count term's comparisons; each works on ints and on numpy columns
COMPARISONS = {
    "==": operator.eq, "!=": operator.ne, "<=": operator.le,
    "<": operator.lt, ">=": operator.ge, ">": operator.gt,
}
_EFFECT_ARITY = {
    "set_const": 2, "copy": 2, "inc_mod": 3, "set_majority": 3, "set_any": 2,
}


def _check_op(kind: str, term: Tuple, arities: Dict[str, Optional[int]]) -> None:
    if not isinstance(term, tuple) or not term or term[0] not in arities:
        raise KernelError(f"unknown {kind} op: {term!r}")
    arity = arities[term[0]]
    if arity is not None and len(term) != arity + 1:
        raise KernelError(
            f"{kind} op {term[0]!r} takes {arity} operand(s), got "
            f"{len(term) - 1}: {term!r}"
        )


def check_guard(expr: Tuple) -> None:
    """Raise :class:`KernelError` unless ``expr`` is a well-formed guard
    expression: known ops, each with exactly its operands."""
    _check_op("guard", expr, _GUARD_ARITY)
    if expr[0] in ("and", "or", "not"):
        for sub in expr[1:]:
            check_guard(sub)
    elif expr[0] == "count":
        _, exprs, cmp, k = expr
        if not isinstance(exprs, tuple):
            raise KernelError(f"count operands must be a tuple: {expr!r}")
        if cmp not in COMPARISONS:
            raise KernelError(f"count comparison {cmp!r} unknown: {expr!r}")
        if type(k) is not int:
            raise KernelError(f"count bound must be an int: {expr!r}")
        for sub in exprs:
            check_guard(sub)


class Plan:
    """Declarative guard + assignment of one guarded command.

    ``guard`` and each effect follow the module-level grammar.  Effects
    assign distinct variables, and at most one of them is a ``set_any``
    choice; ``choices`` is the number of successors the plan gives an
    enabled state (the length of the choice's values, else 1).
    Malformed plans raise :class:`KernelError` here, before any
    compiler sees them.
    """

    __slots__ = ("guard", "effects", "choices")

    def __init__(self, guard: Tuple, effects: Iterable[Tuple]):
        self.guard = tuple(guard)
        check_guard(self.guard)
        checked = []
        targets = set()
        self.choices = 1
        for effect in effects:
            effect = tuple(effect)
            _check_op("effect", effect, _EFFECT_ARITY)
            if effect[1] in targets:
                raise KernelError(
                    f"plan assigns {effect[1]!r} twice: {effect!r}"
                )
            targets.add(effect[1])
            if effect[0] == "set_any":
                values = tuple(effect[2])
                if any(e[0] == "set_any" for e in checked):
                    raise KernelError(
                        f"a plan takes at most one set_any effect: {effect!r}"
                    )
                if not values:
                    raise KernelError(f"set_any needs values: {effect!r}")
                if len(dict.fromkeys(values)) != len(values):
                    raise KernelError(f"set_any repeats a value: {effect!r}")
                effect = ("set_any", effect[1], values)
                self.choices = len(values)
            checked.append(effect)
        if not checked:
            raise KernelError("a plan needs at least one effect")
        self.effects = tuple(checked)

    def __repr__(self) -> str:
        return f"Plan(guard={self.guard!r}, effects={self.effects!r})"


# -- syntactic support: the frames an action derives from its plan -------------

def guard_support(expr: Tuple) -> FrozenSet[str]:
    """The variables a guard expression syntactically mentions."""
    op = expr[0]
    if op in ("eq_const", "ne_const"):
        return frozenset((expr[1],))
    if op in ("eq_var", "ne_var"):
        return frozenset((expr[1], expr[2]))
    if op == "all_ne_const":
        return frozenset(expr[1])
    if op in ("eq_majority", "ne_majority"):
        return frozenset((expr[1],)) | frozenset(expr[2])
    # "true" / "and" / "or" / "not" / "count"
    support: FrozenSet[str] = frozenset()
    for sub in expr[1] if op == "count" else expr[1:]:
        support |= guard_support(sub)
    return support


def _effect_sources(effect: Tuple) -> FrozenSet[str]:
    op = effect[0]
    if op in ("set_const", "set_any"):
        return frozenset()
    if op in ("copy", "inc_mod"):
        return frozenset((effect[2],))
    return frozenset(effect[2])  # set_majority


def plan_targets(plan: Plan) -> Tuple[str, ...]:
    """The variables the plan's effects assign, in effect order, deduped
    — the derived ``writes`` frame."""
    return tuple(dict.fromkeys(effect[1] for effect in plan.effects))


def plan_reads(plan: Plan) -> FrozenSet[str]:
    """The guard's support plus every effect's sources — the derived
    ``reads`` frame."""
    reads = guard_support(plan.guard)
    for effect in plan.effects:
        reads |= _effect_sources(effect)
    return reads


def plan_support(plan: Plan) -> FrozenSet[str]:
    """Every variable the plan mentions (guard, sources, and targets)."""
    return plan_reads(plan) | frozenset(plan_targets(plan))


def render_guard(expr: Tuple) -> str:
    """A readable rendering of a guard expression (the display name of
    a plan-derived guard)."""
    op = expr[0]
    if op == "true":
        return "true"
    if op in ("eq_const", "ne_const"):
        rel = "=" if op == "eq_const" else "≠"
        return f"{expr[1]}{rel}{expr[2]!r}"
    if op in ("eq_var", "ne_var"):
        rel = "=" if op == "eq_var" else "≠"
        return f"{expr[1]}{rel}{expr[2]}"
    if op == "all_ne_const":
        return f"∀({', '.join(expr[1])})≠{expr[2]!r}"
    if op in ("eq_majority", "ne_majority"):
        rel = "=" if op == "eq_majority" else "≠"
        return f"{expr[1]}{rel}maj({', '.join(expr[2])})"
    if op == "count":
        body = ", ".join(render_guard(sub) for sub in expr[1])
        return f"#[{body}]{expr[2]}{expr[3]}"
    if op == "not":
        return "¬" + render_guard(expr[1])
    if len(expr) == 1:
        return "true" if op == "and" else "false"
    if len(expr) == 2:
        return render_guard(expr[1])
    joiner = " ∧ " if op == "and" else " ∨ "
    return "(" + joiner.join(render_guard(sub) for sub in expr[1:]) + ")"


# -- backend selection ---------------------------------------------------------

_BACKENDS = ("auto", "interpreted")
_backend = "auto"


def set_backend(backend: str) -> None:
    """Select the kernel backend: ``auto`` (compiled numpy kernels) or
    ``interpreted`` (disable kernels — the interpreted BFS, used by the
    parity tests as the oracle).
    """
    global _backend
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; choose from {_BACKENDS}"
        )
    _backend = backend


def get_backend() -> str:
    return _backend


def resolved_backend() -> str:
    """The backend exploration will actually run: ``numpy`` under
    ``auto``."""
    return "numpy" if _backend == "auto" else _backend


# -- layouts: schema + domains -> positions, ranks, mixed-radix strides --------

class Layout:
    """The packing of one (schema, domains) pair.

    Position ``i`` holds ``schema.names[i]``; ``ranks[i]`` maps a value
    of that variable's domain to its rank, ``domains[i]`` maps it back.
    ``strides`` are big-endian mixed-radix weights, so the packed code
    of a values-tuple is ``sum(strides[i] * rank_i)`` and code order
    equals lexicographic rank order.
    """

    __slots__ = (
        "schema", "domains", "sizes", "strides", "ranks", "space",
        "index", "_strides_arr", "_plain",
    )

    def __init__(self, schema, domains: Tuple[Tuple[Hashable, ...], ...]):
        self.schema = schema
        self.index = schema.index
        self.domains = domains
        self.sizes = tuple(len(d) for d in domains)
        strides: List[int] = [0] * len(domains)
        acc = 1
        for i in range(len(domains) - 1, -1, -1):
            strides[i] = acc
            acc *= self.sizes[i]
        self.strides = tuple(strides)
        self.space = acc
        self.ranks = tuple(
            {value: rank for rank, value in enumerate(domain)}
            for domain in domains
        )
        self._strides_arr = _np.array(strides, dtype=_np.int64)
        #: per position: the domain is ``0..size-1`` as ints, so a rank
        #: is its own value (``type`` keeps ``(False, True)`` out)
        self._plain = tuple(
            all(type(v) is int and v == i for i, v in enumerate(domain))
            for domain in domains
        )

    # -- scalar paths ------------------------------------------------------
    def pack_values(self, values: Tuple[Hashable, ...]) -> int:
        """The packed code of one values-tuple (KeyError when a value is
        outside its declared domain)."""
        code = 0
        for stride, rank, value in zip(self.strides, self.ranks, values):
            code += stride * rank[value]
        return code

    def unpack(self, code: int) -> Tuple[Hashable, ...]:
        return tuple(
            domain[(code // stride) % size]
            for domain, stride, size in zip(
                self.domains, self.strides, self.sizes
            )
        )

    # -- numpy paths -------------------------------------------------------
    def columns_from_states(self, states) -> "object":
        """``(vars, N)`` int64 rank matrix of a state sequence."""
        ranks = self.ranks
        flat = [
            rank[value]
            for state in states
            for rank, value in zip(ranks, state._values)
        ]
        return (
            _np.array(flat, dtype=_np.int64)
            .reshape(len(states), len(ranks))
            .T.copy()
        )

    def columns_from_codes(self, codes) -> "object":
        """``(vars, N)`` int64 rank matrix of codes in ``[0, space)``."""
        return _digits(codes, self.sizes)

    def universe_columns(self, names, ids=None) -> "object":
        """The rank matrix of the product enumeration of the variables
        ``names`` (declaration order, each domain in its declared order,
        as :func:`~repro.core.state.state_space` enumerates them), or of
        its states ``ids`` only: the ranks of state ``i`` are the
        mixed-radix digits of ``i`` over the sizes in declaration order,
        placed at the schema positions."""
        positions = [self.index[name] for name in names]
        if ids is None:
            ids = _np.arange(self.space, dtype=_np.int64)
        digits = _digits(ids, [self.sizes[p] for p in positions])
        cols = _np.empty_like(digits)
        cols[positions] = digits
        return cols

    def pack_columns(self, cols) -> "object":
        return self._strides_arr @ cols

    def states_from_columns(self, cols) -> List[State]:
        """The states of a ``(vars, N)`` rank matrix, in column order:
        one ``tolist`` for the matrix, and a domain lookup only where
        the domain is not ``0..size-1``."""
        rows = [
            ranks if plain else list(map(domain.__getitem__, ranks))
            for domain, plain, ranks in zip(
                self.domains, self._plain, cols.tolist()
            )
        ]
        schema = self.schema
        return [_state_of(schema, values) for values in zip(*rows)]


def _digits(codes, sizes):
    """``(len(sizes), N)`` int64 matrix of the mixed-radix digits of
    ``codes`` (most significant first).  Digits peel off the least
    significant end as ``q - (q // size) * size``: numpy divides int64
    by a scalar through libdivide for ``//`` but not for ``%`` or
    ``divmod``, which cost about 3x more."""
    cols = _np.empty((len(sizes), codes.shape[0]), dtype=_np.int64)
    q = codes
    for i in range(len(sizes) - 1, 0, -1):
        row = cols[i]
        nq = q // sizes[i]
        _np.multiply(nq, sizes[i], out=row)
        _np.subtract(q, row, out=row)
        q = nq
    if sizes:
        cols[0] = q
    return cols


#: (schema, domains signature) -> Layout (or None when unpackable)
_LAYOUTS: Dict[Tuple, Optional[Layout]] = {}


def layout_for(schema, domains: Dict[str, Tuple]) -> Optional[Layout]:
    """The interned :class:`Layout` of ``schema`` under ``domains``, or
    ``None`` when a variable has no declared domain or the packed code
    would overflow :data:`MAX_CODE_BITS` bits."""
    signature = tuple(domains.get(name) for name in schema.names)
    key = (schema, signature)
    found = _LAYOUTS.get(key, _LAYOUTS)
    if found is not _LAYOUTS:
        return found
    layout: Optional[Layout] = None
    if all(domain for domain in signature):
        space = 1
        for domain in signature:
            space *= len(domain)
        if space.bit_length() <= MAX_CODE_BITS:
            layout = Layout(schema, signature)
    _LAYOUTS[key] = layout
    return layout


# -- plan compilation: shared validation ---------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise KernelError(message)


def _position(index: Dict[str, int], name: str) -> int:
    _require(name in index, f"plan names unknown variable {name!r}")
    return index[name]


def _domain_of(domains: Dict[str, Tuple], name: str) -> Tuple:
    domain = domains.get(name)
    _require(
        bool(domain),
        f"plan variable {name!r} has no declared domain",
    )
    return domain


def _validate_names(names: Iterable[str], index) -> None:
    for name in sorted(names):
        _position(index, name)


def _validate_plan(plan: Plan, index, domains: Dict[str, Tuple]) -> None:
    """Every plan variable is in ``index`` and every effect fits the
    declared domains (a kernel packs ranks, so a value must have one)."""
    _validate_names(plan_support(plan), index)
    for effect in plan.effects:
        op = effect[0]
        if op in ("set_const", "set_any"):
            values = effect[2] if op == "set_any" else (effect[2],)
            domain = _domain_of(domains, effect[1])
            for value in values:
                _require(
                    value in domain,
                    f"{op} value {value!r} outside domain of {effect[1]!r}",
                )
        elif op == "copy":
            _, dst, src = effect
            dst_domain = set(_domain_of(domains, dst))
            _require(
                all(v in dst_domain for v in _domain_of(domains, src)),
                f"copy {src!r} -> {dst!r}: source domain not contained "
                f"in destination domain",
            )
        elif op == "inc_mod":
            _, dst, src, m = effect
            expected = tuple(range(m))
            _require(
                _domain_of(domains, dst) == expected
                and _domain_of(domains, src) == expected,
                f"inc_mod needs 0..{m - 1} domains on {dst!r} and {src!r}",
            )
        else:  # set_majority
            dst_domain = _domain_of(domains, effect[1])
            _require(
                0 in dst_domain and 1 in dst_domain,
                f"set_majority target {effect[1]!r} cannot hold 0/1",
            )


# -- per-row evaluators over raw values-tuples -----------------------------------

def _majority_counter(positions: Tuple[int, ...], k: int):
    def majority(values, positions=positions, k=k):
        count = 0
        for p in positions:
            if values[p] == 1:
                count += 1
        return 1 if 2 * count > k else 0
    return majority


def _compile_guard_pure(expr: Tuple, index) -> Optional[Callable]:
    """Guard evaluator over values sequences, or ``None`` for a guard
    that is syntactically always true (positions already validated)."""
    op = expr[0]
    if op == "true":
        return None
    if op == "eq_const":
        p, v = index[expr[1]], expr[2]
        return lambda values, p=p, v=v: values[p] == v
    if op == "ne_const":
        p, v = index[expr[1]], expr[2]
        return lambda values, p=p, v=v: values[p] != v
    if op == "eq_var":
        a, b = index[expr[1]], index[expr[2]]
        return lambda values, a=a, b=b: values[a] == values[b]
    if op == "ne_var":
        a, b = index[expr[1]], index[expr[2]]
        return lambda values, a=a, b=b: values[a] != values[b]
    if op == "all_ne_const":
        positions = tuple(index[n] for n in expr[1])
        v = expr[2]
        def all_ne(values, positions=positions, v=v):
            for p in positions:
                if values[p] == v:
                    return False
            return True
        return all_ne
    if op in ("eq_majority", "ne_majority"):
        p = index[expr[1]]
        majority = _majority_counter(tuple(index[n] for n in expr[2]), expr[3])
        if op == "eq_majority":
            return lambda values, p=p, m=majority: values[p] == m(values)
        return lambda values, p=p, m=majority: values[p] != m(values)
    if op == "count":
        subs = [_compile_guard_pure(sub, index) for sub in expr[1]]
        fns = tuple(f for f in subs if f is not None)
        # always-true operands count without being evaluated
        k = expr[3] - (len(subs) - len(fns))
        test = COMPARISONS[expr[2]]
        if not fns:
            return None if test(0, k) else (lambda values: False)

        def count(values, fns=fns, k=k, test=test):
            n = 0
            for fn in fns:
                if fn(values):
                    n += 1
            return test(n, k)
        return count
    if op == "not":
        sub = _compile_guard_pure(expr[1], index)
        if sub is None:
            return lambda values: False
        return lambda values, f=sub: not f(values)
    subs = [_compile_guard_pure(sub, index) for sub in expr[1:]]
    if op == "and":
        subs = [f for f in subs if f is not None]
        if not subs:
            return None
        if len(subs) == 1:
            return subs[0]
        def conj(values, fns=tuple(subs)):
            for fn in fns:
                if not fn(values):
                    return False
            return True
        return conj
    # "or": a "true" operand makes the whole disjunction trivially true
    if any(f is None for f in subs):
        return None
    if len(subs) == 1:
        return subs[0]
    def disj(values, fns=tuple(subs)):
        for fn in fns:
            if fn(values):
                return True
        return False
    return disj


def _always_true(values) -> bool:
    return True


def row_guard(expr: Tuple, index: Dict[str, int]) -> Callable:
    """The evaluator of a guard expression over raw values sequences in
    ``index`` order (a schema's name -> position map).  Raises
    :class:`KernelError` when the expression names a variable outside
    ``index``."""
    _validate_names(guard_support(expr), index)
    fn = _compile_guard_pure(expr, index)
    return _always_true if fn is None else fn


def row_effects(plan: Plan, index: Dict[str, int]) -> Callable:
    """The plan's assignment over raw values sequences in ``index``
    order: values in, the tuple of successor values-tuples out — one
    per value of the plan's ``set_any`` choice, in its order, else
    exactly one (the guard is not consulted).  Raises
    :class:`KernelError` on an unknown variable."""
    steps = []
    choice = None
    for effect in plan.effects:
        op = effect[0]
        target = _position(index, effect[1])
        if op == "set_any":
            choice = (target, effect[2])
            continue
        if op == "set_const":
            value = lambda values, v=effect[2]: v
        elif op == "copy":
            value = lambda values, s=_position(index, effect[2]): values[s]
        elif op == "inc_mod":
            value = (
                lambda values, s=_position(index, effect[2]), m=effect[3]:
                (values[s] + 1) % m
            )
        else:  # set_majority
            value = _majority_counter(
                tuple(_position(index, n) for n in effect[2]), effect[3]
            )
        steps.append((target, value))

    def apply(values, steps=tuple(steps), choice=choice):
        out = list(values)
        for target, value in steps:
            out[target] = value(values)
        if choice is None:
            return (tuple(out),)
        at, choices = choice
        successors = []
        for value in choices:
            out[at] = value
            successors.append(tuple(out))
        return tuple(successors)

    return apply


#: action -> {(schema, domains signature): row fn or None}
_ROW_KERNELS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def row_kernel(action, schema, domains: Dict[str, Tuple]) -> Optional[Callable]:
    """A compiled per-row evaluator of ``action``'s plan: values-tuple
    in, the tuple of successor values-tuples out (empty when the guard
    is false).  Returns ``None`` when the action has no plan or the plan
    does not fit the schema/domains."""
    plan = getattr(action, "plan", None)
    if plan is None:
        return None
    per_action = _ROW_KERNELS.get(action)
    if per_action is None:
        per_action = _ROW_KERNELS[action] = {}
    key = (schema, tuple(domains.get(name) for name in schema.names))
    found = per_action.get(key, _ROW_KERNELS)
    if found is not _ROW_KERNELS:
        return found
    fn: Optional[Callable] = None
    try:
        index = schema.index
        _validate_plan(plan, index, domains)
        guard = _compile_guard_pure(plan.guard, index)
        effects = row_effects(plan, index)
        if guard is None:
            fn = effects
        else:
            def fn(values, guard=guard, effects=effects):
                if not guard(values):
                    return ()
                return effects(values)
    except KernelError:
        fn = None
    per_action[key] = fn
    return fn


# -- batch kernels: vectorized guards/effects over rank columns ----------------

def _rank_or_sentinel(layout: Layout, name: str, value) -> int:
    """The rank of ``value`` in ``name``'s domain, or ``-1`` (no column
    ever holds -1, so equality against it is constant-false)."""
    return layout.ranks[layout.index[name]].get(value, -1)


def _value_lut(layout: Layout, src: str, dst: str):
    """``src-rank -> dst-rank`` translation table (copy across domains
    compares/assigns *values*, never raw ranks)."""
    src_domain = layout.domains[layout.index[src]]
    dst_ranks = layout.ranks[layout.index[dst]]
    return _np.array(
        [dst_ranks.get(value, -1) for value in src_domain], dtype=_np.int64
    )


def _stacked(layout, names) -> bool:
    """Whether a term over ``names`` reads a per-member slot of a family
    (a slot named by the tuple of its members' variables), whose column
    is a ``(members, N)`` block; never over a :class:`Layout`."""
    return type(layout) is _SlotLayout and any(
        type(name) is tuple for name in names
    )


def _stacked_first(layout, items, names_of):
    """``items`` with those over a per-member slot first (stable), so an
    accumulator allocated from the first item already has the block
    shape the rest broadcast into."""
    if type(layout) is not _SlotLayout:
        return items
    return sorted(items, key=lambda item: not _stacked(layout, names_of(item)))


def _shared(key: Tuple, fn: Callable, stacked: bool = False) -> Callable:
    """``fn(cols, memo)`` as a term several guards share: with a memo
    (one dict per column matrix, owned by the caller) it is computed
    once under ``key`` and its column handed to every guard that
    repeats it — which is why no compiled guard writes a sub-result in
    place.  A ``stacked`` term (one over a per-member slot) is a
    different block for each member group, so its key also names the
    group the slot columns were gathered for."""
    if stacked:
        def shared(cols, memo=None, key=key, fn=fn):
            if memo is None:
                return fn(cols, None)
            grouped = (key, cols.group)
            found = memo.get(grouped)
            if found is None:
                found = memo[grouped] = fn(cols, memo)
            return found
        return shared

    def shared(cols, memo=None, key=key, fn=fn):
        if memo is None:
            return fn(cols, None)
        found = memo.get(key)
        if found is None:
            found = memo[key] = fn(cols, memo)
        return found
    return shared


def _constant(value: bool) -> Callable:
    """The column evaluator of a guard that is ``value`` everywhere."""
    def constant(cols, memo=None, value=value):
        return _np.full(cols.shape[1], value, dtype=bool)
    return constant


_never = _constant(False)


def _majority_column(layout: Layout, names, k: int):
    names = tuple(names)
    copies = _stacked_first(layout, names, lambda name: (name,))
    positions = tuple(layout.index[n] for n in copies)
    ones = tuple(_rank_or_sentinel(layout, n, 1) for n in copies)
    if not positions:  # the majority of no copies: 2 * 0 > k
        return _constant(0 > k)

    def majority_is_one(cols, memo=None, positions=positions, ones=ones,
                        k=k):
        count = (cols[positions[0]] == ones[0]).astype(_np.int64)
        for p, r1 in zip(positions[1:], ones[1:]):
            count += cols[p] == r1
        return 2 * count > k

    return _shared(
        ("majority", names, k), majority_is_one, _stacked(layout, names)
    )


def _compile_guard_numpy(expr: Tuple, layout) -> Optional[Callable]:
    """Guard evaluator ``fn(cols, memo=None)`` over rank columns, or
    ``None`` for a guard that is syntactically always true.  The mask it
    returns may be a memoized column: read it, never update it.

    ``layout`` is a :class:`Layout` (``cols`` is its rank matrix) or a
    family's slot layout (``cols`` holds one column or block per slot;
    see :class:`_Family`)."""
    op = expr[0]
    index = layout.index
    if op == "true":
        return None
    if op in ("eq_const", "ne_const"):
        p = index[expr[1]]
        r = _rank_or_sentinel(layout, expr[1], expr[2])
        if op == "eq_const":
            return lambda cols, memo=None, p=p, r=r: cols[p] == r
        return lambda cols, memo=None, p=p, r=r: cols[p] != r
    if op in ("eq_var", "ne_var"):
        a, b = index[expr[1]], index[expr[2]]
        if layout.domains[a] == layout.domains[b]:
            if op == "eq_var":
                return lambda cols, memo=None, a=a, b=b: cols[a] == cols[b]
            return lambda cols, memo=None, a=a, b=b: cols[a] != cols[b]
        lut = _value_lut(layout, expr[2], expr[1])
        if op == "eq_var":
            return (lambda cols, memo=None, a=a, b=b, lut=lut:
                    cols[a] == lut[cols[b]])
        return (lambda cols, memo=None, a=a, b=b, lut=lut:
                cols[a] != lut[cols[b]])
    if op == "all_ne_const":
        pairs = tuple(
            (index[n], _rank_or_sentinel(layout, n, expr[2]))
            for n in _stacked_first(layout, expr[1], lambda name: (name,))
        )
        if not pairs:
            return None

        def all_ne(cols, memo=None, pairs=pairs):
            acc = cols[pairs[0][0]] != pairs[0][1]
            for p, r in pairs[1:]:
                acc &= cols[p] != r
            return acc
        return _shared(
            ("all_ne_const", tuple(expr[1]), expr[2]), all_ne,
            _stacked(layout, expr[1]),
        )
    if op in ("eq_majority", "ne_majority"):
        p = index[expr[1]]
        r0 = _rank_or_sentinel(layout, expr[1], 0)
        r1 = _rank_or_sentinel(layout, expr[1], 1)
        majority_is_one = _majority_column(layout, expr[2], expr[3])
        def eq_majority(cols, memo=None, p=p, r0=r0, r1=r1,
                        m=majority_is_one):
            return cols[p] == _np.where(m(cols, memo), r1, r0)
        if op == "eq_majority":
            return eq_majority
        return lambda cols, memo=None, f=eq_majority: ~f(cols, memo)
    if op == "count":
        subs = [
            _compile_guard_numpy(sub, layout)
            for sub in _stacked_first(layout, expr[1], guard_support)
        ]
        fns = tuple(f for f in subs if f is not None)
        k = expr[3] - (len(subs) - len(fns))
        test = COMPARISONS[expr[2]]
        if not fns:
            return None if test(0, k) else _never

        def total(cols, memo=None, fns=fns):
            acc = fns[0](cols, memo).astype(_np.int64)
            for fn in fns[1:]:
                acc += fn(cols, memo)
            return acc
        total = _shared(
            ("count", tuple(expr[1])), total,
            type(layout) is _SlotLayout
            and _stacked(layout, guard_support(expr)),
        )
        return lambda cols, memo=None, t=total, k=k, test=test: test(
            t(cols, memo), k
        )
    if op == "not":
        sub = _compile_guard_numpy(expr[1], layout)
        if sub is None:
            return _never
        return lambda cols, memo=None, f=sub: ~f(cols, memo)
    subs = [
        _compile_guard_numpy(sub, layout)
        for sub in _stacked_first(layout, expr[1:], guard_support)
    ]
    if op == "and":
        subs = [f for f in subs if f is not None]
        if not subs:
            return None
        if len(subs) == 1:
            return subs[0]
        # the first operation allocates the accumulator, so a shared
        # first conjunct is never updated in place
        def conj(cols, memo=None, fns=tuple(subs)):
            acc = fns[0](cols, memo) & fns[1](cols, memo)
            for fn in fns[2:]:
                acc &= fn(cols, memo)
            return acc
        return conj
    if any(f is None for f in subs):
        return None
    if not subs:  # the empty disjunction is false
        return _never
    if len(subs) == 1:
        return subs[0]
    def disj(cols, memo=None, fns=tuple(subs)):
        acc = fns[0](cols, memo) | fns[1](cols, memo)
        for fn in fns[2:]:
            acc |= fn(cols, memo)
        return acc
    return disj


def column_guard(expr: Tuple, layout: Layout) -> Callable:
    """The evaluator of a guard expression over a ``(vars, N)``
    rank-column matrix of ``layout``: a length-``N`` boolean mask.
    Raises :class:`KernelError` when the expression names a variable
    outside the layout's schema."""
    _validate_names(guard_support(expr), layout.index)
    fn = _compile_guard_numpy(expr, layout)
    if fn is None:
        return lambda cols: _np.ones(cols.shape[1], dtype=bool)
    return fn


# -- families: planned actions equal up to renaming, compiled once ------------

#: Rows × members of one stacked block: a family expands a level of N
#: rows in member groups of ``max(1, STACK_ROWS // N)`` members, so a
#: level of more than ``STACK_ROWS // 2`` rows (every census chunk)
#: runs member by member, one action's work each.  In a sweep of 2^10
#: to 2^14 (perfbench's ``verify`` and ``census`` ops in process, 10
#: rounds, a 2-CPU box), kernel calls per ``verify`` pass read 414, 372,
#: 366, 349 and 342 (2,710 with one call per action), and the k = 13
#: quotient's reach its floor of 174 (from 2,320) at 2^11; op times
#: moved within the box's noise (the census ring, 1,408 calls at every
#: setting, read 457 to 750 ms).  2^12 is the smallest setting at which
#: the catalogue's ``byzantine[0]`` reaches its floor too, and keeps a
#: block at 32 KB per slot.
STACK_ROWS = 1 << 12


def _rename_guard(expr: Tuple, rename: Callable) -> Tuple:
    """``expr`` with every variable occurrence ``v`` replaced by
    ``rename(v)``, called once per occurrence in a fixed walk order."""
    op = expr[0]
    if op in ("eq_const", "ne_const"):
        return (op, rename(expr[1]), expr[2])
    if op in ("eq_var", "ne_var"):
        return (op, rename(expr[1]), rename(expr[2]))
    if op == "all_ne_const":
        return (op, tuple(map(rename, expr[1])), expr[2])
    if op in ("eq_majority", "ne_majority"):
        return (op, rename(expr[1]), tuple(map(rename, expr[2])), expr[3])
    if op == "count":
        return (op, tuple(_rename_guard(sub, rename) for sub in expr[1]),
                expr[2], expr[3])
    return (op, *(_rename_guard(sub, rename) for sub in expr[1:]))


def _rename_effect(effect: Tuple, rename: Callable) -> Tuple:
    op = effect[0]
    if op in ("set_const", "set_any"):
        return (op, rename(effect[1]), effect[2])
    if op == "copy":
        return (op, rename(effect[1]), rename(effect[2]))
    if op == "inc_mod":
        return (op, rename(effect[1]), rename(effect[2]), effect[3])
    return (op, rename(effect[1]), tuple(map(rename, effect[2])), effect[3])


def _rename_plan(plan: Plan, rename: Callable) -> Tuple:
    """``(guard, effects)`` of ``plan`` renamed (see :func:`_rename_guard`)."""
    return (
        _rename_guard(plan.guard, rename),
        tuple(_rename_effect(effect, rename) for effect in plan.effects),
    )


def _plan_shape(plan: Plan, layout: Layout):
    """``(shape, names)``: the plan with each variable occurrence
    replaced by its domain in ``layout``, and the occurrences' names in
    walk order — or ``None`` when a name is not in the layout.  Plans of
    one shape are equal after renaming variables, with the same
    constants and the same domain at every occurrence."""
    names: List = []
    index, domains = layout.index, layout.domains

    def domain(name):
        names.append(name)
        return domains[index[name]]

    try:
        return _rename_plan(plan, domain), names
    except (KeyError, TypeError):
        return None


class _SlotLayout:
    """What the guard compiler reads of a :class:`Layout` — ``index``,
    ``domains``, ``ranks`` — over a family's slots instead of a
    schema's variables."""

    __slots__ = ("index", "domains", "ranks")

    def __init__(self, index, domains, ranks):
        self.index = index
        self.domains = domains
        self.ranks = ranks


class _SlotColumns(list):
    """A family's slot columns for one member group: a shared slot's
    ``(N,)`` rank column, a per-member slot's ``(g, N)`` block (its
    member's column in a group of one).  ``shape`` is what a constant
    guard reads; ``group``, the members ``(lo, hi)``, keys the memo of
    stacked terms."""

    __slots__ = ("shape", "group")


class _Family:
    """Planned actions equal up to renaming, compiled as one kernel.

    Every member's plan is one *template* over *slots*: the k-th
    variable occurrence of each member fills slot k, and members agree
    on constants and on the domain of every slot (see
    :func:`action_families`).  A slot is *shared* when it names one
    variable in every member (the Byzantine ``d`` block, ``dg``) and is
    then named by that variable, else *per-member* and named by the
    tuple of its members' variables.  The guard compiles once over the
    slots (:func:`_compile_guard_numpy` over a :class:`_SlotLayout`),
    the effects into rank deltas that each member scales by its own
    strides, ``set_any`` offsets included.

    :meth:`expand` runs a level of N rows in member groups of
    ``max(1, STACK_ROWS // N)``.  A group of one binds its member's
    column positions and strides as scalars and does one action's work
    (:func:`code_kernel` is a family of one).  A larger group gathers
    each per-member slot as a ``(g, N)`` block, broadcasts the shared
    columns against it, and one ``flatnonzero`` of the stacked guard
    gives its ``(member, source)`` pairs, member-major.
    """

    __slots__ = (
        "positions", "size", "choices", "_guard", "_deltas", "_operands",
        "_stacked", "_bind", "_gather", "_strides", "_stride_blocks",
        "_offsets", "_choice",
    )

    def __init__(self, plans, layout: Layout, positions, names=None):
        """Compile ``plans`` (one shape in ``layout``; ``names`` are
        their occurrences in walk order) for the members at declaration
        ``positions``.  Raises :class:`KernelError` when the first plan
        does not fit the layout — and so, sharing its domains and
        constants, no member does."""
        index = layout.index
        _validate_plan(
            plans[0], index, dict(zip(layout.schema.names, layout.domains))
        )
        if names is None:
            names = [_plan_shape(plan, layout)[1] for plan in plans]
        size = len(plans)
        slot_of: Dict = {}
        binds: List[Tuple[int, ...]] = []  # per slot: position per member
        walk = []
        for occurrence in zip(*names):
            first = occurrence[0]
            slot = first if occurrence.count(first) == size else occurrence
            if slot not in slot_of:
                slot_of[slot] = len(binds)
                binds.append(tuple(index[name] for name in occurrence))
            walk.append(slot)
        slots = iter(walk)
        guard, effects = _rename_plan(plans[0], lambda _: next(slots))
        seats = _SlotLayout(
            slot_of,
            tuple(layout.domains[bind[0]] for bind in binds),
            tuple(layout.ranks[bind[0]] for bind in binds),
        )
        stacked = tuple(type(slot) is tuple for slot in slot_of)
        self.positions = _np.array(positions, dtype=_np.int64)
        self.size = size
        self.choices = plans[0].choices
        self._guard = _compile_guard_numpy(guard, seats)
        self._stacked = stacked
        self._bind = tuple(zip(*binds))
        self._gather = tuple(
            (None, _np.array(bind, dtype=_np.int64)) if per_member
            else (bind[0], None)
            for bind, per_member in zip(binds, stacked)
        )
        # a delta is the rank change of its target, ``rows[j]`` slot j
        # at the enabled pairs; ``src``/``flat`` index them in a shared
        # column / a (g, N) block (None: every row of a group of one)
        operands = set()
        deltas: List[Callable] = []
        targets = []
        choice = None
        for e, effect in enumerate(effects):
            op = effect[0]
            t = slot_of[effect[1]]
            targets.append(t)
            operands.add(t)
            if op == "set_const":
                r = seats.ranks[t][effect[2]]
                deltas.append(
                    lambda rows, slots, src, flat, memo, t=t, r=r:
                    r - rows[t]
                )
            elif op == "copy":
                s = slot_of[effect[2]]
                operands.add(s)
                if seats.domains[t] == seats.domains[s]:
                    deltas.append(
                        lambda rows, slots, src, flat, memo, t=t, s=s:
                        rows[s] - rows[t]
                    )
                else:
                    lut = _value_lut(seats, effect[2], effect[1])
                    deltas.append(
                        lambda rows, slots, src, flat, memo, t=t, s=s,
                        lut=lut: lut.take(rows[s]) - rows[t]
                    )
            elif op == "inc_mod":
                s, m = slot_of[effect[2]], effect[3]
                operands.add(s)
                deltas.append(
                    lambda rows, slots, src, flat, memo, t=t, s=s, m=m:
                    (rows[s] + 1) % m - rows[t]
                )
            elif op == "set_majority":
                r0, r1 = seats.ranks[t][0], seats.ranks[t][1]
                majority_is_one = _majority_column(
                    seats, effect[2], effect[3]
                )

                def majority(rows, slots, src, flat, memo, t=t, r0=r0,
                             r1=r1, m=majority_is_one):
                    ones = m(slots, memo)
                    if src is not None:
                        ones = ones.take(src if ones.ndim == 1 else flat)
                    return _np.where(ones, r1, r0) - rows[t]
                deltas.append(majority)
            else:  # set_any: clear the target; each value adds its offset
                choice = (e, _np.array(
                    [seats.ranks[t][value] for value in effect[2]],
                    dtype=_np.int64,
                ))
                deltas.append(
                    lambda rows, slots, src, flat, memo, t=t: -rows[t]
                )
        self._deltas = tuple(deltas)
        self._operands = tuple(sorted(operands))
        strides = layout.strides
        self._strides = tuple(
            tuple(strides[bind[t]] for t in targets) for bind in self._bind
        )
        self._stride_blocks = tuple(
            _np.array([strides[p] for p in binds[t]], dtype=_np.int64)
            if stacked[t] else strides[binds[t][0]]
            for t in targets
        )
        self._choice = choice
        self._offsets = (None,) * size if choice is None else tuple(
            choice[1] * member[choice[0]] for member in self._strides
        )

    def expand(self, codes, cols, memo=None) -> Iterator[Tuple]:
        """The successors of a level (``codes`` and their rank matrix
        ``cols``): ``(sources, member, successor codes)`` per member
        group that fires, where ``member`` is the member's index for a
        group of one and each successor's member index otherwise.  A
        member's successors come source-major in source order, the
        values of its choice in their declared order (see
        :func:`code_kernel`).  Groups are expanded as they are taken,
        so a caller that keeps only the codes holds no group's sources
        while the next one runs."""
        n = codes.shape[0]
        step = max(1, STACK_ROWS // n)
        for lo in range(0, self.size, step):
            hi = min(lo + step, self.size)
            if hi - lo == 1:
                src, out = self._one(codes, cols, memo, lo)
                member = lo
            else:
                src, member, out = self._block(codes, cols, memo, lo, hi)
            if out is not None:
                yield src, member, out

    def action_ids(self, member, count: int):
        """The declaration positions of ``count`` successors of
        ``member`` (an index, or one index per successor)."""
        if type(member) is int:
            return _np.full(count, self.positions[member], dtype=_np.int64)
        return self.positions.take(member)

    def _one(self, codes, cols, memo, m: int):
        """``(sources, successor codes)`` of member ``m`` alone."""
        n = codes.shape[0]
        slots = _SlotColumns([cols[p] for p in self._bind[m]])
        slots.shape = (len(slots), n)
        slots.group = (m, m + 1)
        guard = self._guard
        if guard is None:
            idx = None
            out = codes.copy()
            rows = slots
        else:
            idx = _np.flatnonzero(guard(slots, memo))
            if idx.size == 0:
                return idx, None
            out = codes.take(idx)
            rows = {j: slots[j].take(idx) for j in self._operands}
        for delta, st in zip(self._deltas, self._strides[m]):
            out += delta(rows, slots, idx, idx, memo) * st
        if idx is None:
            idx = _np.arange(n, dtype=_np.int64)
        offsets = self._offsets[m]
        if offsets is not None:
            out = (out[:, None] + offsets).ravel()
            idx = _np.repeat(idx, offsets.shape[0])
        return idx, out

    def _block(self, codes, cols, memo, lo: int, hi: int):
        """``(sources, members, successor codes)`` of members
        ``lo..hi-1`` stacked."""
        n = codes.shape[0]
        slots = _SlotColumns(
            cols[p] if block is None else cols[block[lo:hi]]
            for p, block in self._gather
        )
        slots.shape = (len(slots), n)
        slots.group = (lo, hi)
        guard = self._guard
        if guard is None:
            flat = _np.arange((hi - lo) * n, dtype=_np.int64)
        else:
            mask = guard(slots, memo)
            if mask.ndim == 1:  # no per-member slot: one mask for all
                mask = _np.broadcast_to(mask, (hi - lo, n))
            flat = _np.flatnonzero(mask)
            if flat.size == 0:
                return flat, None, None
        member = flat // n
        src = flat - member * n
        out = codes.take(src)
        stacked = self._stacked
        rows = {
            j: slots[j].take(flat if stacked[j] else src)
            for j in self._operands
        }
        strides = [
            st if type(st) is int else st[lo:hi].take(member)
            for st in self._stride_blocks
        ]
        for delta, st in zip(self._deltas, strides):
            out += delta(rows, slots, src, flat, memo) * st
        member += lo
        if self._choice is not None:
            e, ranks = self._choice
            st = strides[e]
            offsets = ranks * st if type(st) is int else st[:, None] * ranks
            out = (out[:, None] + offsets).ravel()
            src = _np.repeat(src, ranks.shape[0])
            member = _np.repeat(member, ranks.shape[0])
        return src, member, out


#: (layout, ids of an action tuple) -> (weak references to the actions,
#: their families and unplanned positions); an entry goes when one of
#: its actions is collected
_FAMILIES: Dict[Tuple, Tuple] = {}


def action_families(actions, layout: Layout):
    """``(families, unplanned)``: the planned actions of ``actions``
    grouped into families — plans equal after renaming variables, with
    the same constants and the same domain at every variable occurrence
    (:func:`_plan_shape`), members in declaration order, each family
    compiled once (:class:`_Family`) — and the ascending positions of
    the actions with no plan that compiles for ``layout``.  Cached per
    (action tuple, layout), so a program's families compile once
    however many systems explore it."""
    actions = tuple(actions)
    key = (layout, tuple(map(id, actions)))
    found = _FAMILIES.get(key)
    if found is not None:
        return found[1]
    shapes: Dict = {}
    unplanned = []
    for pos, action in enumerate(actions):
        plan = getattr(action, "plan", None)
        shape = None if plan is None else _plan_shape(plan, layout)
        if shape is None:
            unplanned.append(pos)
        else:
            shapes.setdefault(shape[0], []).append((pos, plan, shape[1]))
    families = []
    for members in shapes.values():
        positions, plans, names = zip(*members)
        try:
            families.append(_Family(plans, layout, positions, names))
        except KernelError:
            unplanned.extend(positions)
    result = (families, sorted(unplanned))

    def forget(_, key=key):
        _FAMILIES.pop(key, None)

    _FAMILIES[key] = (
        tuple(weakref.ref(action, forget) for action in actions), result
    )
    return result


#: action -> {layout: batch kernel or None}
_BATCH_KERNELS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def batch_kernel(action, layout: Layout) -> Optional[Callable]:
    """:func:`code_kernel` over rank columns alone: ``kernel(cols,
    memo=None)`` returns ``(source column indices, successor rank
    matrix)``, the successors in the code kernel's order — or the
    kernel is ``None`` when the action has no compilable plan.  The
    exploration engines run code kernels; this adapter packs the
    sources and unpacks the successor codes, for callers that want
    columns."""
    per_action = _BATCH_KERNELS.setdefault(action, {})
    if layout not in per_action:
        code = code_kernel(action, layout)

        def kernel(cols, memo=None):
            idx, out = code(layout.pack_columns(cols), cols, memo)
            return idx, None if out is None else layout.columns_from_codes(out)

        per_action[layout] = None if code is None else kernel
    return per_action[layout]


#: action -> {layout: code kernel or None}
_CODE_KERNELS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def code_kernel(action, layout: Layout) -> Optional[Callable]:
    """A successor evaluator that stays entirely in code space:
    ``kernel(codes, cols, memo=None)`` returns ``(source column indices,
    successor codes)`` — or ``None`` when the action has no compilable
    plan.  There is one successor per enabled source and value of the
    plan's choice (one per enabled source for a deterministic plan),
    source-major in source order, with the choice's values in their
    declared order; the index array names each successor's source.
    ``memo`` is the caller's per-matrix dict of shared guard terms (see
    the module docstring).

    Because a plan's effects assign distinct variables and codes are
    mixed-radix sums, the successor code is the source code plus
    ``(new_rank - old_rank) * stride`` per written variable — no
    successor rank matrix is ever materialized and no repacking happens,
    so the per-edge cost is independent of the number of variables.
    Each column an effect reads is gathered once per call, for the
    enabled sources only.  The kernel is a family of one
    (:class:`_Family`); the exploration engines expand their levels
    with whole families (:func:`action_families`).
    """
    plan = getattr(action, "plan", None)
    if plan is None:
        return None
    per_action = _CODE_KERNELS.get(action)
    if per_action is None:
        per_action = _CODE_KERNELS[action] = {}
    found = per_action.get(layout, _CODE_KERNELS)
    if found is not _CODE_KERNELS:
        return found
    kernel: Optional[Callable] = None
    try:
        family = _Family((plan,), layout, (0,))
    except KernelError:
        pass
    else:
        def kernel(codes, cols, memo=None, one=family._one):
            return one(codes, cols, memo, 0)
    per_action[layout] = kernel
    return kernel


# -- code-space exploration (million-state BFS, no State objects) --------------

def _distinct(values):
    """The distinct values of an int array, ascending: a sort and a
    neighbour compare.  ``np.unique`` gives the same array, but the
    hash-based one of numpy 2.4 is 8-27x slower on arrays of 2^15 to
    2^20 int64 codes, and its first call in a process imports
    ``numpy.ma`` for a masked-array check.  The code-space BFS, the
    region sweeps and the fairness checks all dedup through this."""
    values = _np.sort(values)
    keep = _np.ones(values.shape[0], dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class CodeReach:
    """Result of :func:`explore_codes`: exact reachable census.

    ``codes`` is the sorted reachable-code array when the caller asked
    for it (``collect_codes=True`` / the shard entry points) and
    ``None`` otherwise — censuses that only need the count never pay to
    materialize the set.
    """

    __slots__ = ("states", "levels", "edges", "codes")

    def __init__(self, states: int, levels: int, edges: int, codes=None):
        self.states = states
        self.levels = levels
        self.edges = edges
        self.codes = codes

    def __repr__(self) -> str:
        return (
            f"CodeReach({self.states} states, {self.levels} levels, "
            f"{self.edges} successor rows)"
        )


def _census_layout(program, schema) -> Layout:
    layout = layout_for(schema, program._domains)
    _require(
        layout is not None,
        f"state space of {program.name!r} does not pack into "
        f"{MAX_CODE_BITS}-bit codes",
    )
    return layout


def _census_kernels(program, fault_actions, layout: Layout) -> List[_Family]:
    """The families of the program's actions and of the faults
    (:func:`action_families`), all compiled here, before any level is
    expanded; an action without a compilable plan is an error."""
    families: List[_Family] = []
    for actions in (tuple(program.actions), tuple(fault_actions)):
        found, unplanned = action_families(actions, layout)
        if unplanned:
            raise KernelError(
                f"action {actions[unplanned[0]].name!r} has no compilable "
                f"plan for {program.name!r}"
            )
        families.extend(found)
    return families


def _check_cap(count: int, max_states: int, name: str) -> None:
    if count > max_states:
        raise RuntimeError(
            f"code-space exploration exceeds max_states={max_states} "
            f"for {name!r}"
        )


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _as_codes(codes):
    """A code array, or a step-1 ``range`` of codes as one."""
    if isinstance(codes, range):
        return _np.arange(codes.start, codes.stop, dtype=_np.int64)
    return codes


def _in_order(pool, fn, items, bound: int):
    """``fn(item)`` for each item, run on ``pool`` and yielded in item
    order, with at most ``bound`` calls in flight (submitted, result not
    yet taken).  The next call is submitted before a result is yielded,
    so ``bound`` calls run while the caller consumes it."""
    pending = deque()
    for item in items:
        if len(pending) < bound:
            pending.append(pool.submit(fn, item))
            continue
        result = pending.popleft().result()
        pending.append(pool.submit(fn, item))
        yield result
    while pending:
        yield pending.popleft().result()


def _code_bfs(layout: Layout, families, start_codes, max_states: int,
              name: str, collect: bool) -> CodeReach:
    """The BFS core shared by whole censuses and shards: expand from
    ``start_codes`` (a sorted unique code array, or a step-1 ``range``
    of codes) until no fresh code appears.

    A level runs in chunks of :data:`_FRONTIER_CHUNK` rows, each
    expanded by every action family (:class:`_Family`), and each
    chunk's successor codes from every family are deduplicated together:
    through the byte bitmap when the space fits
    :data:`_BITMAP_SPACE_LIMIT`, else by one sorted anti-join (their
    distinct values, one ``searchsorted`` against the sorted seen set,
    which absorbs the level's fresh codes when the level ends).

    A level of several chunks is expanded on a thread pool that lives
    for this call, one thread per usable CPU (:func:`_usable_cpus`),
    with at most that many chunks in flight; numpy releases the
    interpreter lock inside the kernels' array operations.  The calling
    thread consumes the chunks in order and alone touches the bitmap,
    the edge count and the fresh parts, so every result is the same for
    any worker count.  Only the sorted anti-join runs in the workers, as
    the sorted seen set changes only between levels.  With one usable
    CPU, or levels of one chunk, no thread starts.
    """
    total = len(start_codes)
    _check_cap(total, max_states, name)
    use_bitmap = layout.space <= _BITMAP_SPACE_LIMIT
    seen_sorted = None
    if use_bitmap:
        seen_map = _np.zeros(layout.space, dtype=bool)
        if isinstance(start_codes, range):
            seen_map[start_codes.start:start_codes.stop] = True
        else:
            seen_map[start_codes] = True
    else:
        seen_sorted = _as_codes(start_codes)

    def expand(chunk):
        """``(successor rows, codes)`` of one chunk: every successor
        code on the bitmap path, the ones not in ``seen_sorted`` on the
        sorted one (``None`` when no action fires)."""
        chunk = _as_codes(chunk)
        cols = layout.columns_from_codes(chunk)
        memo = {}  # guard terms shared across the chunk's families
        found = []
        for family in families:
            for _, _, codes in family.expand(chunk, cols, memo):
                found.append(codes)
        if not found:
            return 0, None
        codes = _np.concatenate(found)
        rows = int(codes.shape[0])
        if not use_bitmap:
            codes = _distinct(codes)
            pos = _np.searchsorted(seen_sorted, codes)
            codes = codes[seen_sorted.take(pos, mode="clip") != codes]
        return rows, codes

    workers = _usable_cpus()
    pool = None
    frontier = start_codes
    levels = 0
    edges = 0
    try:
        while len(frontier):
            levels += 1
            chunks = [
                frontier[lo:lo + _FRONTIER_CHUNK]
                for lo in range(0, len(frontier), _FRONTIER_CHUNK)
            ]
            if workers > 1 and len(chunks) > 1:
                if pool is None:
                    from concurrent.futures import ThreadPoolExecutor

                    pool = ThreadPoolExecutor(workers)
                results = _in_order(pool, expand, chunks, workers)
            else:
                results = map(expand, chunks)
            fresh_parts = []
            for rows, codes in results:
                edges += rows
                if codes is None:
                    continue
                if use_bitmap:
                    # marked per chunk: later chunks anti-join against
                    # everything earlier ones discovered
                    codes = codes[~seen_map.take(codes)]
                    if codes.size:
                        codes = _distinct(codes)
                        seen_map[codes] = True
                if codes.size:
                    fresh_parts.append(codes)
            if not fresh_parts:
                break
            if use_bitmap:
                frontier = _np.concatenate(fresh_parts)
            else:
                # two chunks of one level may discover the same code
                frontier = _distinct(_np.concatenate(fresh_parts))
                positions = _np.searchsorted(seen_sorted, frontier)
                seen_sorted = _np.insert(seen_sorted, positions, frontier)
            total += int(frontier.shape[0])
            _check_cap(total, max_states, name)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    reached = None
    if collect:
        reached = _np.flatnonzero(seen_map) if use_bitmap else seen_sorted
    return CodeReach(total, levels, edges, reached)


def _space_layout(program) -> Layout:
    """The layout of the program's whole state space."""
    first = next(iter(state_space(program.variables)), None)
    _require(first is not None, f"{program.name!r} has an empty space")
    return _census_layout(program, first._schema)


def census_start_codes(program, start_states: Iterable[State]):
    """Resolve a census start set to ``(layout, sorted unique codes)`` —
    the scheduler half of a sharded census (slice the codes and hand
    each slice to :func:`explore_code_shard`).  ``"all"`` resolves to
    the step-1 ``range`` ``0..space-1``, which slices to ranges and is
    never allocated; any other start set to a code array."""
    if isinstance(start_states, str):
        _require(
            start_states == "all",
            f"unknown start-state selector {start_states!r}",
        )
        layout = _space_layout(program)
        return layout, range(layout.space)
    starts = list(start_states)
    _require(bool(starts), "census_start_codes needs at least one start")
    schema = starts[0]._schema
    for state in starts:
        _require(
            state._schema is schema,
            "explore_codes start states must share one schema",
        )
    layout = _census_layout(program, schema)
    codes = _distinct(
        _np.array(
            [layout.pack_values(s._values) for s in starts],
            dtype=_np.int64,
        )
    )
    return layout, codes


def explore_codes(
    program,
    start_states: Iterable[State],
    fault_actions=(),
    max_states: int = DEFAULT_MAX_CODES,
    collect_codes: bool = False,
) -> CodeReach:
    """Exact reachable-state census of ``program [] faults`` by BFS in
    packed-code space.

    Every action (program and fault) must carry a compilable
    :class:`Plan` — this explorer exists for state spaces where
    materializing ``State`` objects is not an option, so there is no
    interpreted fallback to hide behind.  Dedup uses a byte bitmap over
    the full code space when it fits (≤ 64M codes) and a sorted-merge
    anti-join otherwise; either way the census is exact.

    ``start_states`` is an iterable of :class:`State` objects, or the
    string ``"all"`` for the program's entire state space.  ``"all"``
    stays the range ``0..space-1``: each chunk's codes are made where
    it is expanded and the bitmap starts full, so a multimillion-state
    full-space sweep (e.g. a self-stabilization census) never builds a
    single ``State`` nor an array of the whole space (the sorted
    anti-join, above the bitmap limit, does hold its seen set).  Each
    level is expanded in cache-sized chunks of :data:`_FRONTIER_CHUNK`
    rows, on one thread per usable CPU when a level has several (see
    :func:`_code_bfs`), so beyond the frontier and the seen set (a
    bitmap or a sorted code array) peak memory holds the rank columns
    and successor codes of workers × one chunk, whatever the frontier's
    size; the result is the same for any worker count.
    ``max_states`` caps the start set and the census alike, raising
    ``RuntimeError`` when either exceeds it.
    ``collect_codes=True`` additionally returns the sorted reachable
    code set on the result.
    """
    if isinstance(start_states, str):
        _require(
            start_states == "all",
            f"unknown start-state selector {start_states!r}",
        )
        if next(iter(state_space(program.variables)), None) is None:
            return CodeReach(0, 0, 0)
    else:
        start_states = list(start_states)
        if not start_states:
            return CodeReach(0, 0, 0)
    layout, start_codes = census_start_codes(program, start_states)
    families = _census_kernels(program, fault_actions, layout)
    return _code_bfs(
        layout, families, start_codes, max_states, program.name, collect_codes
    )


def explore_code_shard(
    program,
    start_codes,
    fault_actions=(),
    max_states: int = DEFAULT_MAX_CODES,
) -> CodeReach:
    """BFS from an explicit set of packed start codes — one shard of a
    distributed census.  A step-1 ``range`` is taken as it is, never
    materialized or sorted; any other iterable of codes is deduped and
    sorted first.

    The shard's :class:`CodeReach` always carries its reachable code
    *set* (``codes``): reach sets of different shards overlap, so shard
    counts do not add — :func:`merge_code_reaches` unions the sets to
    recover the exact census.  Per-shard ``levels``/``edges`` are local
    diagnostics only.
    """
    layout = _space_layout(program)
    if isinstance(start_codes, range) and start_codes.step == 1:
        codes = start_codes
    else:
        codes = _distinct(_np.asarray(start_codes, dtype=_np.int64))
    if not len(codes):
        return CodeReach(0, 0, 0, _as_codes(codes))
    _require(
        0 <= int(codes[0]) and int(codes[-1]) < layout.space,
        f"start codes out of range for {program.name!r}",
    )
    families = _census_kernels(program, fault_actions, layout)
    return _code_bfs(layout, families, codes, max_states, program.name, True)


def merge_code_reaches(reaches) -> CodeReach:
    """Union shard censuses into the exact whole-space answer.

    ``states`` is the size of the union of the shard code sets —
    byte-identical to an unsharded :func:`explore_codes` count for any
    shard partition.  ``levels`` (max) and ``edges`` (sum) are
    shard-local diagnostics, *not* the unsharded BFS figures.
    """
    reaches = list(reaches)
    arrays = []
    for reach in reaches:
        _require(
            reach.codes is not None,
            "merge_code_reaches needs shard results with collected codes",
        )
        arrays.append(reach.codes)
    if not arrays:
        return CodeReach(0, 0, 0, _np.empty(0, dtype=_np.int64))
    if len(arrays) == 1:
        # a shard's codes are sorted and distinct already: its BFS
        # collects them so, and decode_shard_reach checks a stored one
        union = arrays[0]
    else:
        union = _distinct(_np.concatenate(arrays))
    return CodeReach(
        int(union.shape[0]),
        max(reach.levels for reach in reaches),
        sum(reach.edges for reach in reaches),
        union,
    )


# -- cache control -------------------------------------------------------------

def clear_kernel_caches() -> None:
    """Drop every compiled kernel and interned layout, so cold-start
    benchmarks pay for plan compilation like any other cache miss.
    Wired into :func:`repro.core.exploration.clear_all_caches`."""
    _LAYOUTS.clear()
    _ROW_KERNELS.clear()
    _BATCH_KERNELS.clear()
    _CODE_KERNELS.clear()
    _FAMILIES.clear()
