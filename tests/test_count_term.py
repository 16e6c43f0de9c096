"""The ``count`` term in every evaluator of the Plan IR.

``("count", exprs, cmp, k)`` — how many of the guards ``exprs`` hold,
compared with ``k`` — is compiled four ways: the values-tuple evaluator
(:func:`~repro.core.kernels.row_guard`), the rank-column evaluator
(:func:`~repro.core.kernels.column_guard`), the guard of a code kernel,
and the symbolic analyzer's truth table.  Generated guards (counts under
``and``/``or``/``not``, counts inside counts, every comparison, bounds
around the operand count, empty operand tuples) must get one answer
from all four, and the analyzer's three-valued abstraction must never
contradict its table.  Empty name tuples of the other n-ary ops are
pinned the same way.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.symbolic import GuardSolver, analyze_action
from repro.core import BOTTOM, kernels
from repro.core.action import Action
from repro.core.exploration import TransitionSystem, clear_all_caches
from repro.core.kernels import (
    KernelError, Plan, check_guard, code_kernel, column_guard,
    explore_codes, layout_for, row_guard,
)
from repro.core.program import Program
from repro.core.state import Schema, Variable, state_space


@pytest.fixture(autouse=True)
def _auto_backend():
    yield
    kernels.set_backend("auto")
    clear_all_caches()


#: mixed string, bool, int and ⊥ domains; m and p are binary for the
#: majority ops
VARIABLES = [
    Variable("s", ("idle", "busy", "done")),
    Variable("b", (False, True)),
    Variable("n", (BOTTOM, 0, 1, 2)),
    Variable("m", (0, 1)),
    Variable("p", (0, 1)),
]
DOMAINS = {v.name: tuple(v.domain) for v in VARIABLES}
STATES = list(state_space(VARIABLES))
SCHEMA = STATES[0].schema
LAYOUT = layout_for(SCHEMA, DOMAINS)
COLUMNS = LAYOUT.columns_from_states(STATES)
COMPARISONS = ("==", "!=", "<=", "<", ">=", ">")

_names = st.sampled_from([v.name for v in VARIABLES])
# "off" and 9 lie outside every domain
_values = st.sampled_from(["idle", "busy", "done", "off", False, True,
                           BOTTOM, 0, 1, 2, 9])
_binary = st.lists(st.sampled_from(("m", "p", "n")), max_size=3,
                   unique=True).map(tuple)


def _atoms():
    return st.one_of(
        st.just(("true",)),
        st.tuples(st.sampled_from(("eq_const", "ne_const")), _names,
                  _values),
        st.tuples(st.sampled_from(("eq_var", "ne_var")), _names, _names),
        st.tuples(st.just("all_ne_const"),
                  st.lists(_names, max_size=3).map(tuple), _values),
        st.tuples(st.sampled_from(("eq_majority", "ne_majority")), _names,
                  _binary, st.integers(-1, 3)),
    )


@st.composite
def _counts(draw, children):
    exprs = tuple(draw(st.lists(children, max_size=4)))
    k = draw(st.sampled_from((-1, 0, len(exprs), len(exprs) + 1))
             | st.integers(-1, len(exprs) + 1))
    return ("count", exprs, draw(st.sampled_from(COMPARISONS)), k)


def _guards():
    return st.recursive(
        _atoms(),
        lambda children: st.one_of(
            _counts(children),
            st.tuples(st.just("not"), children),
            st.lists(children, max_size=3).map(lambda xs: ("and", *xs)),
            st.lists(children, max_size=3).map(lambda xs: ("or", *xs)),
        ),
        max_leaves=10,
    )


def _row_truth(expr):
    evaluate = row_guard(expr, SCHEMA.index)
    return [bool(evaluate(s.values_tuple)) for s in STATES]


def _kernel_truth(expr):
    """The states a code kernel of ``expr`` expands: its guard."""
    action = Action("probe", plan=Plan(expr, [("set_const", "b", True)]))
    kernel = code_kernel(action, LAYOUT)
    idx, _ = kernel(LAYOUT.pack_columns(COLUMNS), COLUMNS, {})
    enabled = set(idx.tolist())
    return [i in enabled for i in range(len(STATES))]


def _table_truth(expr):
    names, assignments, truth = GuardSolver(DOMAINS).table(expr)
    lookup = dict(zip(assignments, truth))
    positions = [SCHEMA.index[name] for name in names]
    return [
        lookup[tuple(s.values_tuple[p] for p in positions)] for s in STATES
    ]


def _assert_agree(expr):
    check_guard(expr)
    want = _row_truth(expr)
    assert column_guard(expr, LAYOUT)(COLUMNS).tolist() == want, expr
    assert _kernel_truth(expr) == want, expr
    assert _table_truth(expr) == want, expr
    # the abstraction alone (a budget no table fits) is sound
    verdict = GuardSolver(DOMAINS, budget=0)._abstract(expr, None)
    if verdict is not None:
        assert all(v is verdict for v in want), (expr, verdict)


@settings(max_examples=300, deadline=None)
@given(_guards())
def test_generated_guards_agree_in_every_evaluator(expr):
    _assert_agree(expr)


OPERANDS = (("eq_const", "s", "busy"), ("eq_const", "b", True),
            ("ne_var", "m", "p"))


@pytest.mark.parametrize("cmp", COMPARISONS)
@pytest.mark.parametrize("k", [-1, 0, len(OPERANDS), len(OPERANDS) + 1])
def test_every_comparison_and_bound(cmp, k):
    _assert_agree(("count", OPERANDS, cmp, k))
    _assert_agree(("not", ("count", OPERANDS, cmp, k)))
    _assert_agree(("count", (), cmp, k))


@pytest.mark.parametrize("expr", [
    ("and", ("count", OPERANDS, "==", 1), ("eq_const", "n", BOTTOM)),
    ("or", ("count", OPERANDS, ">", 1), ("count", OPERANDS, "<", 1)),
    ("count", (("count", OPERANDS, "==", 1), ("true",),
               ("count", (), ">=", 0), ("eq_var", "m", "p")), ">=", 3),
    ("count", (("and",), ("or",), ("not", ("true",))), "==", 1),
    ("all_ne_const", (), 1),
    ("not", ("all_ne_const", (), 1)),
    ("eq_majority", "m", (), 0),
    ("ne_majority", "m", (), -1),
    ("eq_majority", "n", ("m", "p"), 2),
])
def test_nested_and_empty_terms(expr):
    _assert_agree(expr)


def test_a_tautological_count_operand_constrains_its_guard():
    """The operand ``m = m`` always holds, but it adds one to the count,
    so DC502 ("never constrains the guard") must not flag it; a
    tautological conjunct still is."""
    def codes(guard):
        action = Action("a", plan=Plan(guard, [("set_const", "b", True)]))
        analysis = analyze_action(
            action, VARIABLES, Schema.of(tuple(DOMAINS)), target="t"
        )
        return [d.code for d in analysis.diagnostics]

    quorum = ("count", (("eq_var", "m", "m"), ("eq_var", "m", "p")), ">=", 2)
    assert codes(quorum) == []
    assert codes(("and", quorum, ("eq_var", "p", "p"))) == ["DC502"]


@pytest.mark.parametrize("expr", [
    ("count", (("eq_const", "m", 1),), "=", 1),
    ("count", (("eq_const", "m", 1),), "==", 1.0),
    ("count", (("eq_const", "m", 1),), "==", "1"),
    ("count", [("eq_const", "m", 1)], "==", 1),
    ("count", (("eq_const", "m"),), "==", 1),
    ("count", (("bogus",),), "==", 1),
    ("count", ("eq_const",), "==", 1),
    ("count", (("eq_const", "m", 1),), "=="),
])
def test_malformed_counts_are_refused(expr):
    with pytest.raises(KernelError):
        check_guard(expr)
    with pytest.raises(KernelError):
        Plan(expr, [("set_const", "m", 0)])


@pytest.mark.parametrize("k", [0, -1])
def test_a_majority_of_no_copies_on_every_engine(k):
    """The majority of ``()`` is ``1`` iff ``0 > k``; the column and
    code evaluators agree with the row evaluator, and the code-space
    census with the State explorer."""
    variables = [Variable("x", (0, 1)), Variable("y", (0, 1, 2))]
    program = Program(variables, [Action("maj", plan=Plan(
        ("all_ne_const", (), 2), [("set_majority", "x", (), k)],
    ))], name="majority of none")
    starts = list(state_space(variables))
    kernels.set_backend("interpreted")
    ts = TransitionSystem(program, starts)
    kernels.set_backend("auto")
    target = 1 if 0 > k else 0
    assert all(
        succ["x"] == target
        for s in ts.states for _, succ in ts.program_edges_from(s)
    )
    reach = explore_codes(program, starts)
    assert (reach.states, reach.edges) == (len(ts.states), 6)
    layout = layout_for(starts[0].schema,
                        {v.name: tuple(v.domain) for v in variables})
    cols = layout.columns_from_states(starts)
    idx, out = code_kernel(program.actions[0], layout)(
        layout.pack_columns(cols), cols
    )
    assert layout.columns_from_codes(out)[0].tolist() == [target] * 6
