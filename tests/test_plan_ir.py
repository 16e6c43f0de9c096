"""One description per guarded command: the Plan IR as the whole action.

A planned action's guard, statement and ``reads``/``writes`` frame are
derived from its :class:`~repro.core.kernels.Plan`, and an expression
predicate's ``fn``, values-tuple evaluator, rank-column evaluator and
store key all come from its ``expr``.  These tests pin that every
derived piece agrees with the others (and with a hand-written reference
semantics), that a second description cannot be passed alongside the
first, and that the plan IR itself is well formed.
"""

from __future__ import annotations

import pytest

from repro.analysis import all_lint_targets
from repro.analysis.symbolic import analyze_action
from repro.core import BOTTOM, kernels
from repro.core.action import Action
from repro.core.exploration import (
    TransitionSystem,
    _SMALL_SPACE_STATES,
    clear_all_caches,
)
from repro.core.kernels import KernelError, Plan, explore_codes, layout_for
from repro.core.predicate import FALSE, TRUE, Predicate, var_eq, var_in, var_ne
from repro.core.program import Program
from repro.core.state import Schema, State, Variable, state_space
from repro.programs import byzantine
from repro.programs.token_ring import has_token
from repro.store import keys


@pytest.fixture(autouse=True)
def _auto_backend():
    yield
    kernels.set_backend("auto")
    clear_all_caches()


# ---------------------------------------------------------------------------
# expression predicates: fn, compile_for and the column evaluator agree
# ---------------------------------------------------------------------------

RING = [Variable(f"x{i}", [0, 1, 2]) for i in range(3)]
SPACE = RING + [Variable("c", [BOTTOM, 0, 1])]


def _x(s, i):
    return s[f"x{i}"]


# (predicate, reference semantics); 9 lies outside every domain
PREDICATES = [
    (var_eq("x0", 1), lambda s: _x(s, 0) == 1),
    (var_eq("x0", 9), lambda s: False),
    (var_ne("x1", 9), lambda s: True),
    (var_ne("c", BOTTOM), lambda s: s["c"] is not BOTTOM),
    (var_in("x2", [0, 2]), lambda s: _x(s, 2) in (0, 2)),
    (var_in("x2", [9, 1]), lambda s: _x(s, 2) == 1),
    (var_in("x2", []), lambda s: False),
    (has_token(0, 3), lambda s: _x(s, 0) == _x(s, 2)),
    (has_token(2, 3), lambda s: _x(s, 2) != _x(s, 1)),
    (TRUE, lambda s: True),
    (FALSE, lambda s: False),
    (~FALSE, lambda s: True),
    (~TRUE | FALSE, lambda s: False),
    (var_eq("x0", 1) & ~has_token(1, 3), lambda s: _x(s, 0) == 1
     and _x(s, 1) == _x(s, 0)),
    ((var_in("x2", [0, 9]) | var_eq("c", BOTTOM)).implies(has_token(0, 3)),
     lambda s: not (_x(s, 2) == 0 or s["c"] is BOTTOM)
     or _x(s, 0) == _x(s, 2)),
    (Predicate(expr=("and", ("all_ne_const", ("x0", "x1"), 2),
                     ("not", ("eq_majority", "c", ("x0", "x1", "x2"), 3)))),
     lambda s: _x(s, 0) != 2 and _x(s, 1) != 2
     and s["c"] != (1 if sum(_x(s, i) == 1 for i in range(3)) >= 2 else 0)),
]


@pytest.mark.parametrize(
    "predicate, reference", PREDICATES,
    ids=[p.name for p, _ in PREDICATES],
)
def test_expression_evaluators_agree(predicate, reference):
    states = list(state_space(SPACE))
    schema = states[0].schema
    layout = layout_for(schema, {v.name: tuple(v.domain) for v in SPACE})
    want = [bool(reference(s)) for s in states]
    assert [bool(predicate.fn(s)) for s in states] == want
    values = predicate.compile_for(schema)
    assert [bool(values(s.values_tuple)) for s in states] == want
    assert [bool(values(list(s.values_tuple))) for s in states] == want
    mask = predicate.columns_for(layout)(layout.columns_from_states(states))
    assert mask.tolist() == want


def test_only_expression_predicates_have_column_evaluators():
    layout = layout_for(
        Schema.of(("x0",)), {"x0": (0, 1, 2)}
    )
    assert Predicate(lambda s: True).columns_for(layout) is None
    # a variable the layout lacks: no column evaluator, not an error
    assert var_eq("elsewhere", 1).columns_for(layout) is None


# ---------------------------------------------------------------------------
# one description: a second one alongside it is refused
# ---------------------------------------------------------------------------

PLAN = Plan(("ne_const", "x0", 0), [("set_const", "x0", 0)])


@pytest.mark.parametrize("extra", [
    {"guard": TRUE},
    {"statement": lambda s: s},
    {"reads": {"x0"}},
    {"writes": {"x0"}},
])
def test_plan_with_a_second_description_is_refused(extra):
    with pytest.raises(TypeError, match="plan"):
        Action("a", plan=PLAN, **extra)


@pytest.mark.parametrize("extra", [
    {"fn": lambda s: True},
    {"values_builder": lambda index: (lambda values: True)},
])
def test_expr_with_a_second_description_is_refused(extra):
    with pytest.raises(TypeError, match="expr"):
        Predicate(expr=("true",), **extra)


def test_missing_description_is_refused():
    with pytest.raises(TypeError):
        Action("a")
    with pytest.raises(TypeError):
        Action("a", TRUE)
    with pytest.raises(TypeError):
        Predicate(name="nothing")


def test_plan_derives_guard_statement_and_frame():
    swap = Action("swap", plan=Plan(
        ("ne_var", "x0", "x1"), [("copy", "x0", "x1"), ("copy", "x1", "x0")],
    ))
    assert swap.guard.expr == ("ne_var", "x0", "x1")
    assert swap.reads == {"x0", "x1"} and swap.writes == {"x0", "x1"}
    state = State(x0=0, x1=2, x2=1)
    # every right-hand side reads the pre-state: the effects swap
    assert swap.successors(state) == (State(x0=2, x1=0, x2=1),)
    assert swap.successors(State(x0=1, x1=1, x2=1)) == ()
    assert swap.renamed("other").plan is swap.plan


def test_derived_statement_matches_the_batch_kernel():
    """The interpreted statement and the batch kernel compile the same
    effects: every enabled state gets the same successor from both."""
    action = Action("mix", plan=Plan(
        ("and", ("ne_const", "c", BOTTOM), ("not", ("eq_var", "x0", "x1"))),
        [("copy", "x0", "x1"), ("inc_mod", "x1", "x2", 3),
         ("set_const", "c", BOTTOM), ("set_majority", "x2", ("x0", "x1"), 2)],
    ))
    states = list(state_space(SPACE))
    layout = layout_for(
        states[0].schema, {v.name: tuple(v.domain) for v in SPACE}
    )
    idx, out = kernels.batch_kernel(action, layout)(
        layout.columns_from_states(states)
    )
    batch = {
        states[i]: succ.values_tuple
        for i, succ in zip(idx.tolist(), layout.states_from_columns(out))
    }
    interpreted = {
        s: succ.values_tuple
        for s in states for succ in action.successors(s)
    }
    assert len(interpreted) == 2 * 6 * 3  # c ≠ ⊥, x0 ≠ x1, any x2
    assert interpreted == batch


# ---------------------------------------------------------------------------
# the plan IR is checked at construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("guard, effects, op", [
    (("eq_const", "x"), [("set_const", "x", 0)], "eq_const"),
    (("eq_var", "x", "y", "z"), [("set_const", "x", 0)], "eq_var"),
    (("not",), [("set_const", "x", 0)], "not"),
    (("not", ("true",), ("true",)), [("set_const", "x", 0)], "not"),
    (("true", "x"), [("set_const", "x", 0)], "true"),
    (("or", ("ne_const", "x")), [("set_const", "x", 0)], "ne_const"),
    (("eq_majority", "x", ("a", "b")), [("set_const", "x", 0)],
     "eq_majority"),
    (("all_ne_const", ("a", "b")), [("set_const", "x", 0)], "all_ne_const"),
    (("true",), [("copy", "x")], "copy"),
    (("true",), [("set_const", "x")], "set_const"),
    (("true",), [("inc_mod", "x", "x")], "inc_mod"),
    (("true",), [("set_majority", "x", ("a", "b"))], "set_majority"),
])
def test_plan_op_arity_is_checked(guard, effects, op):
    with pytest.raises(KernelError, match=repr(op)):
        Plan(guard, effects)


def test_expression_predicates_are_checked():
    with pytest.raises(KernelError, match="'ne_var'"):
        Predicate(expr=("ne_var", "x0"))


# ---------------------------------------------------------------------------
# derived frames are the exact frames
# ---------------------------------------------------------------------------

def _planned(actions):
    return [a for a in actions if a.plan is not None]


def test_catalogue_frames_are_the_exact_frames():
    """For every planned action of the catalogue (program and fault
    actions) and of the k=5 Byzantine family, the frame derived from the
    plan's syntax is exactly the frame the symbolic analyzer proves from
    the plan's behaviour."""
    cases = []
    for target in all_lint_targets():
        actions = list(target.program.actions)
        if target.faults is not None:
            actions += list(target.faults.actions)
        cases += [(target.program, a) for a in _planned(actions)]
    family = byzantine.build_family((1, 2, 3, 4, 5))
    cases += [(family.masking, a) for a in _planned(family.masking.actions)]
    cases += [(family.ib, a) for a in _planned(family.ib.actions)]
    cases += [(family.ib, a) for a in family.faults.actions]
    checked = set()
    for program, action in cases:
        variables = program.variables
        schema = Schema.of(tuple(v.name for v in variables))
        analysis = analyze_action(action, variables, schema)
        assert analysis.covers_frames, (program.name, action.name)
        assert (action.reads, action.writes) == (
            analysis.reads, analysis.writes
        ), (program.name, action.name)
        checked.add((program.name, action.name))
    # 84 distinct catalogue actions (the Byzantine lies included);
    # IB1/IB2/CB1 x 5 and the 11 lies in the masking program, IB1/IB2 x 5
    # in IB, and the 6 latches of the family
    assert len(checked) >= 84 + 26 + 10 + 6


# ---------------------------------------------------------------------------
# restriction by an expression keeps the plan
# ---------------------------------------------------------------------------

def test_restriction_by_an_expression_is_planned():
    """``Z ∧ ac`` for a planned ``ac`` and an expression ``Z`` is the
    plan whose guard is the conjunction, with the plan-derived frame —
    TMR's ``DR;IR`` and the multitolerant mutex's guarded entries."""
    from repro.programs import mutual_exclusion, tmr

    t = tmr.build()
    base = t.ir.actions[0]
    restricted = t.dr_ir.actions[0]
    assert restricted.plan is not None and restricted.name == base.name
    assert restricted.plan.guard == ("and", t.witness_dr.expr, base.plan.guard)
    assert restricted.plan.effects == base.plan.effects
    assert restricted.reads == {"x", "y", "z", "out"}
    assert restricted.writes == {"out"}
    x = mutual_exclusion.build(3)
    enters = [a for a in x.multitolerant.actions if a.name.startswith("enter")]
    assert len(enters) == 3
    for action in enters + [restricted]:
        variables = x.multitolerant.variables if action in enters \
            else t.tmr.variables
        schema = Schema.of(tuple(v.name for v in variables))
        analysis = analyze_action(action, variables, schema)
        assert (action.reads, action.writes) == (
            analysis.reads, analysis.writes
        ), action.name


def test_restriction_by_a_lambda_stays_unplanned():
    base = Action("IR1", plan=Plan(
        ("eq_const", "c", BOTTOM), [("copy", "c", "x0")],
    ))
    restricted = base.restrict(Predicate(lambda s: s["x0"] == 1, name="x0=1"))
    assert restricted.plan is None
    assert (restricted.reads, restricted.writes) == (None, None)
    assert restricted._base is base
    state = State(x0=1, x1=0, x2=0, c=BOTTOM)
    assert restricted.successors(state) == base.successors(state)
    assert restricted.successors(State(x0=0, x1=0, x2=0, c=BOTTOM)) == ()


# ---------------------------------------------------------------------------
# the empty disjunction is false on every engine
# ---------------------------------------------------------------------------

def _never_program():
    """A 160-state counter whose only other actions are guarded by the
    empty disjunction, once written out and once as an empty var_in."""
    variables = [Variable("c", range(8)), Variable("x", range(20))]
    tick = Action(
        "tick", plan=Plan(("ne_const", "c", 7), [("inc_mod", "c", "c", 8)])
    )
    never = Action("never", plan=Plan(("or",), [("set_const", "x", 0)]))
    empty = Action(
        "empty_in", plan=Plan(var_in("x", []).expr, [("set_const", "c", 0)])
    )
    program = Program(variables, [tick, never, empty], name="never")
    assert program.state_count() > _SMALL_SPACE_STATES
    return program


def test_empty_disjunction_is_false_on_every_engine():
    program = _never_program()
    starts = [State(c=0, x=x) for x in range(20)]
    graphs = []
    for backend in ("auto", "interpreted"):
        kernels.set_backend(backend)
        ts = TransitionSystem(program, starts)
        assert (ts._state_cols is not None) is (backend == "auto")
        graphs.append((
            tuple(ts.states),
            tuple(tuple(ts.program_edges_from(s)) for s in ts.states),
        ))
        assert {a for s in ts.states for a, _ in ts.program_edges_from(s)} \
            == {"tick"}
    assert graphs[0] == graphs[1]
    kernels.set_backend("auto")
    reach = explore_codes(program, starts)
    assert (reach.states, reach.edges) == (160, 140)


# ---------------------------------------------------------------------------
# store keys come from the IR term
# ---------------------------------------------------------------------------

def _key(predicate):
    return keys.digest("pred", keys.predicate_material(predicate))


def test_expression_predicates_key_by_their_expression():
    def build(value):
        return (var_eq("x0", value) & ~has_token(1, 3)).rename("p")

    first, second = build(1), build(1)
    assert first.fn is not second.fn
    assert _key(first) == _key(second)
    assert _key(build(2)) != _key(first)
    assert keys.predicate_material(var_eq("x0", 1)) == (
        "pred", "x0=1", ("expr", ("eq_const", "x0", 1)),
    )
    # compiling evaluators (warming the per-schema memo) leaves it alone
    before = _key(first)
    for state in state_space(RING):
        first(state)
    assert _key(first) == before
