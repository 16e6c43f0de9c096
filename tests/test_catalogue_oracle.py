"""The catalogue's former lambdas are the oracle of its ported plans.

Every predicate of the catalogue is a guard-grammar expression and every
action it can say is a :class:`~repro.core.kernels.Plan` — counts
("exactly one token", "at most one Byzantine process") through the
``count`` term.  They were written as ``State`` lambdas and
``values_builder`` compilers before; those are kept here, verbatim in
meaning, as the reference semantics:

- each ported predicate agrees with its lambda on the whole state space
  (a seeded sample for the k = 5 Byzantine family);
- each ported program, explored with each of its fault classes, gives
  the lambda program's state order and program and fault edges, under
  the ``numpy`` and the ``interpreted`` backends — from every state
  and from the invariant, whose discovery order the faults shape.
"""

from __future__ import annotations

import random

import pytest

from repro.core import BOTTOM, kernels
from repro.core.action import Action, assign
from repro.core.exploration import TransitionSystem, clear_all_caches
from repro.core.predicate import Predicate
from repro.core.program import Program
from repro.core.state import State, state_space
from repro.failure_detectors import chandra_toueg
from repro.programs import (
    barrier, byzantine, distributed_reset, leader_election, memory_access,
    mutual_exclusion, termination_detection, tmr, token_ring,
    tree_maintenance,
)


@pytest.fixture(autouse=True)
def _auto_backend():
    yield
    kernels.set_backend("auto")
    clear_all_caches()


def _act(name, guard, **updates):
    return Action(name, Predicate(guard, name=name), assign(**updates))


def _count(s, names, value=True):
    return sum(1 for n in names if s[n] == value)


# ---------------------------------------------------------------------------
# the lambda predicates, per model: (ported predicate, State -> bool)
# ---------------------------------------------------------------------------

def _ring_predicates(r):
    n = r.size
    def tokens(s):
        count = 1 if s["x0"] == s[f"x{n - 1}"] else 0
        return count + sum(
            1 for i in range(1, n) if s[f"x{i}"] != s[f"x{i - 1}"]
        )
    return [(r.invariant, lambda s: tokens(s) == 1)]


def _byzantine_predicates(b, ngs):
    k = len(ngs)

    def s_ib(s):
        if s["bg"] or any(s[f"b{j}"] for j in ngs):
            return False
        honest = (BOTTOM, s["dg"])
        return all(
            s[f"d{j}"] in honest and s[f"out{j}"] in honest for j in ngs
        )

    def s_byz(s):
        if not s_ib(s):
            return False
        if all(s[f"out{j}"] is BOTTOM for j in ngs):
            return True
        return all(s[f"d{j}"] is not BOTTOM for j in ngs)

    def t_byz(s):
        if _count(s, ["bg"] + [f"b{j}" for j in ngs]) > 1:
            return False
        witness = None
        for j in ngs:
            out = s[f"out{j}"]
            if s[f"b{j}"] or out is BOTTOM:
                continue
            if witness is None:
                copies = [s[f"d{i}"] for i in ngs]
                if BOTTOM in copies:
                    return False
                witness = 1 if 2 * sum(copies) > k else 0
            if out != witness:
                return False
        if not s["bg"]:
            honest = (BOTTOM, s["dg"])
            for j in ngs:
                if s[f"b{j}"]:
                    continue
                if s[f"d{j}"] not in honest or s[f"out{j}"] not in honest:
                    return False
        return True

    def honest_outputs(s):
        return [s[f"out{j}"] for j in ngs
                if not s[f"b{j}"] and s[f"out{j}"] is not BOTTOM]

    validity, agreement, eventually = b.spec.components
    return [
        (b.invariant_ib, s_ib),
        (b.invariant, s_byz),
        (b.span, t_byz),
        (validity.predicate, lambda s: s["bg"] or all(
            out == s["dg"] for out in honest_outputs(s))),
        (agreement.predicate, lambda s: len(set(honest_outputs(s))) <= 1),
        (eventually.target, lambda s: all(
            s[f"b{j}"] or s[f"out{j}"] is not BOTTOM for j in ngs)),
    ]


def _reset_predicates(d):
    n, k = d.size, d.sessions
    return [
        (d.invariant, lambda s: all(
            s[f"x{i}"] == 0 and not s[f"req{i}"] for i in range(n)
        ) and all(s[f"sn{i}"] == s["sn0"] for i in range(n))),
        (d.spec.components[0].target,
         lambda s: all(s[f"x{i}"] == 0 for i in range(n))),
        (d.span, lambda s: all(
            s[f"sn{i}"] in (s[f"sn{i - 1}"], (s[f"sn{i - 1}"] - 1) % k)
            for i in range(1, n))),
    ]


def _barrier_predicates(b):
    n = b.size
    truthful = lambda s: all(  # noqa: E731
        not s[f"a{i}"] or s[f"pc{i}"] == barrier.ARRIVED for i in range(n))
    mirrored = lambda s: all(  # noqa: E731
        s[f"a{i}"] == (s[f"pc{i}"] == barrier.ARRIVED) for i in range(n))
    pairs = [
        (b.invariant, lambda s: truthful(s) and mirrored(s)),
        (b.span, truthful),
    ]
    for r, leads in zip((0, 1), b.spec.components[1:]):
        pairs.append((leads.source, lambda s, r=r: s["round"] == r))
        pairs.append((leads.target, lambda s, r=r: s["round"] != r))
    return pairs


def _mutex_predicates(x):
    n = x.size
    toks = [f"tok{i}" for i in range(n)]
    css = [f"cs{i}" for i in range(n)]

    def cs_needs_token(s):
        return all(not s[f"cs{i}"] or s[f"tok{i}"] for i in range(n))

    def holder_consistent(s):
        return cs_needs_token(s) and all(
            not s[f"done{i}"] or s[f"tok{i}"] for i in range(n))

    pairs = [
        (x.invariant, lambda s: _count(s, toks) == 1 and holder_consistent(s)),
        (x.span, lambda s: _count(s, toks) <= 1 and cs_needs_token(s)),
        (x.no_token, lambda s: _count(s, toks) == 0),
        (x.span_duplication, lambda s: _count(s, toks) <= 2
         and cs_needs_token(s) and _count(s, css) <= 1),
        (x.spec.components[0].predicate, lambda s: _count(s, css) <= 1),
    ]
    for i, leads in enumerate(x.spec_strong.components[1:]):
        name = f"tok{i}" if i < n else f"cs{i - n}"
        pairs.append((leads.target, lambda s, name=name: s[name]))
    return pairs


def _termination_predicates(t):
    n = t.size

    def consistent(s):
        prefix_clean = s["dirty"] or all(
            not s[f"active{i}"] for i in range(s["idx"]))
        return prefix_clean and (
            not s["done"] or not any(s[f"active{i}"] for i in range(n)))

    return [
        (t.terminated, lambda s: not any(s[f"active{i}"] for i in range(n))),
        (t.done, lambda s: s["done"]),
        (t.from_, consistent),
    ]


def _tmr_predicates(t):
    u = t.uncor
    out_ok = lambda s: s["out"] in (BOTTOM, u)  # noqa: E731
    return [
        (t.witness_dr, lambda s: s["x"] == s["y"] or s["x"] == s["z"]),
        (t.detection_dr, lambda s: s["x"] == u),
        (t.witness_cr, lambda s: s["out"] == u),
        (t.spec.components[1].target, lambda s: s["out"] == u),
        (t.invariant, lambda s: all(s[n] == u for n in "xyz") and out_ok(s)),
        (t.span_inputs, lambda s: sum(1 for n in "xyz" if s[n] != u) <= 1),
        (t.span, lambda s: sum(1 for n in "xyz" if s[n] != u) <= 1
         and out_ok(s)),
    ]


def _nmr_predicates(m):
    u, names = m.uncor, [f"x{i}" for i in range(m.replicas)]
    out_ok = lambda s: s["out"] in (BOTTOM, u)  # noqa: E731
    return [
        (m.invariant, lambda s: all(s[n] == u for n in names) and out_ok(s)),
        (m.span, lambda s: sum(1 for n in names if s[n] != u)
         <= m.max_faults and out_ok(s)),
        (m.spec.components[1].target, lambda s: s["out"] == u),
    ]


def _memory_predicates(m):
    x1 = lambda s: s["mem"] is not BOTTOM  # noqa: E731
    u1 = lambda s: not s["Z1"] or s["mem"] is not BOTTOM  # noqa: E731
    return [
        (m.X1, x1), (m.Z1, lambda s: s["Z1"]), (m.U1, u1),
        (m.S_pf, lambda s: u1(s) and x1(s)), (m.S_pn, x1), (m.T_pf, u1),
        (m.spec.components[1].target, lambda s: s["data"] == m.value),
    ]


def _election_predicates(e):
    return [(e.invariant, lambda s: all(
        s[f"ldr{i}"] == max(e.ids) for i in range(len(e.ids))))]


def _tree_predicates(t):
    def is_bfs_tree(s):
        for i in range(1, t.size):
            if s[f"dist{i}"] != t.true_distances[i]:
                return False
            parent = s[f"parent{i}"]
            parent_distance = 0 if parent == 0 else t.true_distances[parent]
            if parent_distance != t.true_distances[i] - 1:
                return False
        return True
    return [(t.invariant, is_bfs_tree)]


def _detector_predicates(fd):
    return [
        (fd.crashed, lambda s: s["crashed"]),
        (fd.suspected, lambda s: s["suspect"]),
        (fd.timed_out, lambda s: s["missed"] >= fd.limit),
        (fd.from_, lambda s: not s["suspect"] or s["missed"] >= fd.limit),
    ]


def _predicate_cases():
    ring = token_ring.build(4)
    yield "token_ring", ring.ring.variables, _ring_predicates(ring)
    ring = token_ring.build(5, 4)
    yield "token_ring(5,4)", ring.ring.variables, _ring_predicates(ring)
    for ngs in ((1, 2, 3), (1, 2, 3, 4, 5)):
        b = byzantine.build_family(ngs)
        yield (f"byzantine(k={len(ngs)})", b.masking.variables,
               _byzantine_predicates(b, ngs))
    d = distributed_reset.build(3, 3)
    yield "distributed_reset", d.program.variables, _reset_predicates(d)
    b = barrier.build(3)
    yield "barrier", b.tolerant.variables, _barrier_predicates(b)
    x = mutual_exclusion.build(3)
    yield "mutual_exclusion", x.tolerant.variables, _mutex_predicates(x)
    t = termination_detection.build(3)
    yield ("termination_detection", t.detector.variables,
           _termination_predicates(t))
    t = tmr.build()
    yield "tmr", t.tmr.variables, _tmr_predicates(t)
    m = tmr.build_nmr(5)
    yield "nmr5", m.nmr.variables, _nmr_predicates(m)
    m = memory_access.build()
    yield "memory_access", m.pm.variables, _memory_predicates(m)
    e = leader_election.build((3, 1, 2))
    yield "leader_election", e.program.variables, _election_predicates(e)
    t = tree_maintenance.build()
    yield "tree_maintenance", t.program.variables, _tree_predicates(t)
    fd = chandra_toueg.build(3)
    yield "failure_detector", fd.program.variables, _detector_predicates(fd)


PREDICATE_CASES = {name: rest for name, *rest in _predicate_cases()}

#: spaces above this are compared on a seeded sample of this size
_SAMPLE = 30_000


def _states(variables):
    """The whole space, or a seeded sample of it when it is larger
    than :data:`_SAMPLE` (drawn value by value: the k = 5 Byzantine
    space has 7,558,272 states)."""
    size = 1
    for variable in variables:
        size *= len(variable.domain)
    if size <= _SAMPLE:
        return list(state_space(variables))
    rng = random.Random(21)
    return [
        State({v.name: rng.choice(v.domain) for v in variables})
        for _ in range(_SAMPLE)
    ]


@pytest.mark.parametrize("name", sorted(PREDICATE_CASES))
def test_ported_predicates_agree_with_their_lambdas(name):
    variables, pairs = PREDICATE_CASES[name]
    states = _states(variables)
    for predicate, reference in pairs:
        assert predicate.expr is not None, predicate.name
        evaluate = predicate.compile_for(states[0].schema)
        for state in states:
            want = bool(reference(state))
            assert bool(evaluate(state.values_tuple)) is want, (
                name, predicate.name, state)


# ---------------------------------------------------------------------------
# the lambda actions, per model: name -> Action
# ---------------------------------------------------------------------------

def _reset_actions(d):
    n, k = d.size, d.sessions
    actions = []
    for i in range(n):
        actions.append(_act(
            f"request{i}", lambda s, i=i: s[f"x{i}"] != 0 and not s[f"req{i}"],
            **{f"req{i}": True}))
    for i in range(1, n):
        actions.append(_act(
            f"forward{i}", lambda s, i=i: s[f"req{i}"] and not s[f"req{i - 1}"],
            **{f"req{i - 1}": True}))
    actions.append(_act(
        "reset_root", lambda s: s["req0"] and all(
            s[f"sn{i}"] == s["sn0"] for i in range(n)),
        sn0=lambda s: (s["sn0"] + 1) % k, x0=0, req0=False))
    for i in range(1, n):
        actions.append(_act(
            f"adopt{i}", lambda s, i=i: s[f"sn{i}"] != s[f"sn{i - 1}"],
            **{f"sn{i}": lambda s, i=i: s[f"sn{i - 1}"], f"x{i}": 0,
               f"req{i}": False}))
    for i in range(n):
        actions.append(_act(f"corrupt_x{i}", lambda s, i=i: s[f"x{i}"] == 0,
                            **{f"x{i}": 1}))
        actions.append(_act(f"spurious_req{i}", lambda s, i=i: not s[f"req{i}"],
                            **{f"req{i}": True}))
    return actions


def _barrier_actions(b):
    n = b.size
    arrived = barrier.ARRIVED
    actions = [
        _act(f"arrive{i}", lambda s, i=i: s[f"pc{i}"] == barrier.WORKING,
             **{f"pc{i}": arrived, f"a{i}": True})
        for i in range(n)
    ]
    release = {"round": lambda s: 1 - s["round"]}
    for i in range(n):
        release[f"pc{i}"] = barrier.WORKING
        release[f"a{i}"] = False
    actions.append(_act(
        "release", lambda s: all(s[f"a{i}"] for i in range(n)), **release))
    for i in range(n):
        actions.append(_act(
            f"re_announce{i}",
            lambda s, i=i: s[f"pc{i}"] == arrived and not s[f"a{i}"],
            **{f"a{i}": True}))
        actions.append(_act(f"lose_flag{i}", lambda s, i=i: s[f"a{i}"],
                            **{f"a{i}": False}))
    return actions


def _mutex_actions(x):
    n = x.size
    toks = [f"tok{i}" for i in range(n)]
    actions = []
    for i in range(n):
        nxt = (i + 1) % n
        actions.append(_act(
            f"enter{i}", lambda s, i=i: s[f"tok{i}"] and not s[f"cs{i}"]
            and not s[f"done{i}"], **{f"cs{i}": True}))
        actions.append(_act(
            f"exit{i}", lambda s, i=i: s[f"tok{i}"] and s[f"cs{i}"],
            **{f"cs{i}": False, f"done{i}": True}))
        actions.append(_act(
            f"pass{i}", lambda s, i=i: s[f"tok{i}"] and not s[f"cs{i}"]
            and s[f"done{i}"],
            **{f"tok{i}": False, f"done{i}": False, f"tok{nxt}": True}))
        actions.append(_act(
            f"lose{i}", lambda s, i=i: s[f"tok{i}"] and not s[f"cs{i}"],
            **{f"tok{i}": False, f"done{i}": False}))
        actions.append(_act(
            f"duplicate{i}",
            lambda s, i=i: _count(s, toks) == 1 and not s[f"tok{i}"],
            **{f"tok{i}": True, f"done{i}": False}))
    actions.append(_act("regenerate", lambda s: _count(s, toks) == 0,
                        tok0=True))
    one_token = Predicate(lambda s: _count(s, toks) == 1,
                          name="exactly one token")
    entries = {
        a.name: a.restrict(one_token)
        for a in actions if a.name.startswith("enter")
    }
    return actions, entries


def _termination_actions(t):
    n = t.size
    actions = []
    for i in range(n):
        actions.append(_act(f"deactivate{i}", lambda s, i=i: s[f"active{i}"],
                            **{f"active{i}": False}))
        actions.append(_act(f"spurious{i}",
                            lambda s, i=i: not s[f"active{i}"],
                            **{f"active{i}": True}))
        for j in range(n):
            if j != i:
                actions.append(_act(
                    f"activate{i}_{j}",
                    lambda s, i=i, j=j: s[f"active{i}"]
                    and not s[f"active{j}"],
                    **{f"active{j}": True, "dirty": True}))
    for sound, suffix in ((True, ""), (False, "_unsound")):
        def at_cursor_active(s):
            return s["idx"] < n and s[f"active{s['idx']}"]

        actions.append(_act(
            f"scan_advance{suffix}",
            lambda s, sound=sound: s["idx"] < n
            and not s[f"active{s['idx']}"] and not (sound and s["dirty"]),
            idx=lambda s: s["idx"] + 1))
        actions.append(_act(
            f"scan_restart{suffix}",
            lambda s, sound=sound, f=at_cursor_active: (
                f(s) or (sound and s["dirty"])
            ) and (s["idx"] > 0 or s["dirty"]),
            idx=0, dirty=False))
        actions.append(_act(
            f"scan_report{suffix}",
            lambda s, sound=sound: s["idx"] == n and not s["done"]
            and not (sound and s["dirty"]),
            done=True))
    return actions


def _tmr_actions(t):
    u, corrupted = t.uncor, t.faults.actions[0].plan.effects[0][2]
    unset = lambda s: s["out"] is BOTTOM  # noqa: E731
    actions = [
        _act("CR1", lambda s: unset(s) and (
            s["y"] == s["z"] or s["y"] == s["x"]), out=lambda s: s["y"]),
        _act("CR2", lambda s: unset(s) and (
            s["z"] == s["x"] or s["z"] == s["y"]), out=lambda s: s["z"]),
    ]
    good = lambda s: all(s[n] == u for n in "xyz")  # noqa: E731
    actions += [_act(f"corrupt_{n}", good, **{n: corrupted}) for n in "xyz"]
    # IR1 as restricted by DR's witness: the name is shared by IR and
    # DR;IR, so each program gets its own
    ir = _act("IR1", unset, out=lambda s: s["x"])
    dr_ir = _act("IR1", lambda s: unset(s) and (
        s["x"] == s["y"] or s["x"] == s["z"]), out=lambda s: s["x"])
    return actions, ir, dr_ir


def _nmr_actions(m):
    u, n, q, f = m.uncor, m.replicas, m.max_faults + 1, m.max_faults
    names = [f"x{i}" for i in range(n)]
    corrupted = m.faults.actions[0].plan.effects[0][2]
    actions = [
        _act(f"VOTE{i}", lambda s, i=i: s["out"] is BOTTOM and sum(
            1 for name in names if s[name] == s[f"x{i}"]) >= q,
            out=lambda s, i=i: s[f"x{i}"])
        for i in range(n)
    ]
    actions += [
        _act(f"corrupt_{name}",
             lambda s: sum(1 for other in names if s[other] != u) < f,
             **{name: corrupted})
        for name in names
    ]
    return actions


def _memory_actions(m):
    def detect(name):
        return _act(name, lambda s: s["mem"] is not BOTTOM and not s["Z1"],
                    Z1=True)

    def restore(name):
        return _act(name, lambda s: s["mem"] is BOTTOM, mem=m.value)

    return [detect("pf1"), restore("pn1"), restore("pm1"), detect("pm2")]


def _memory_faults(m):
    anytime = _act("page_fault", lambda s: s["mem"] is not BOTTOM, mem=BOTTOM)
    before = _act("page_fault",
                  lambda s: s["mem"] is not BOTTOM and not s["Z1"],
                  mem=BOTTOM)
    return anytime, before


def _detector_actions(fd):
    return [
        _act("heartbeat", lambda s: not s["crashed"] and not s["alive"],
             alive=True),
        _act("consume", lambda s: s["alive"], alive=False, missed=0,
             suspect=False),
        _act("count", lambda s: not s["alive"] and s["missed"] < fd.limit,
             missed=lambda s: s["missed"] + 1),
        _act("suspect", lambda s: s["missed"] >= fd.limit and not s["suspect"],
             suspect=True),
    ]


def _oracle(program, lambdas):
    """``program`` with each action named in ``lambdas`` replaced by its
    lambda twin, in declaration order."""
    actions = [lambdas.get(a.name, a) for a in program.actions]
    return Program(program.variables, actions, name=program.name)


def _faults(actions, lambdas):
    return tuple(lambdas.get(a.name, a) for a in actions)


def _system_cases():
    """(name, ported program, lambda program, ported faults, lambda
    faults, invariant) — sized so most spaces exceed the interpreted
    engine's tiny-space limit and both engines really run."""
    d = distributed_reset.build(3, 2)
    lam = {a.name: a for a in _reset_actions(d)}
    yield ("distributed_reset", d.program, _oracle(d.program, lam),
           d.faults.actions, _faults(d.faults.actions, lam), d.invariant)
    b = barrier.build(4)
    lam = {a.name: a for a in _barrier_actions(b)}
    for program in (b.intolerant, b.tolerant):
        yield (program.name, program, _oracle(program, lam),
               b.faults.actions, _faults(b.faults.actions, lam), b.invariant)
    x = mutual_exclusion.build(3)
    actions, entries = _mutex_actions(x)
    lam = {a.name: a for a in actions}
    for program, twins in ((x.intolerant, lam), (x.tolerant, lam),
                           (x.multitolerant, dict(lam, **entries))):
        for faults in (x.faults, x.duplication):
            yield (f"{program.name} [] {faults.name}", program,
                   _oracle(program, twins), faults.actions,
                   _faults(faults.actions, lam), x.invariant)
    t = termination_detection.build(4)
    lam = {a.name: a for a in _termination_actions(t)}
    for program in (t.detector, t.unsound):
        yield (program.name, program, _oracle(program, lam),
               t.faults.actions, _faults(t.faults.actions, lam), t.from_)
    t = tmr.build()
    shared, ir, dr_ir = _tmr_actions(t)
    lam = {a.name: a for a in shared}
    for program, twin in ((t.ir, ir), (t.dr_ir, dr_ir), (t.tmr, dr_ir),
                          (t.cr, None)):
        both = dict(lam, IR1=twin) if twin is not None else lam
        yield (program.name, program, _oracle(program, both),
               t.faults.actions, _faults(t.faults.actions, lam), t.invariant)
    m = tmr.build_nmr(7)
    lam = {a.name: a for a in _nmr_actions(m)}
    yield (m.nmr.name, m.nmr, _oracle(m.nmr, lam), m.faults.actions,
           _faults(m.faults.actions, lam), m.invariant)
    m = memory_access.build(data_domain=tuple(range(64)))
    lam = {a.name: a for a in _memory_actions(m)}
    anytime, before = _memory_faults(m)
    for program, faults, twin, invariant in (
        (m.pf, m.fault_before_witness, before, m.S_pf),
        (m.pn, m.fault_anytime, anytime, m.S_pn),
        (m.pm, m.fault_before_witness, before, m.S_pm),
    ):
        yield (program.name, program, _oracle(program, lam), faults.actions,
               (twin,), invariant)
    fd = chandra_toueg.build(40)
    lam = {a.name: a for a in _detector_actions(fd)}
    yield (fd.program.name, fd.program, _oracle(fd.program, lam),
           fd.faults.actions, fd.faults.actions, fd.from_)


SYSTEM_CASES = {name: rest for name, *rest in _system_cases()}


def _fingerprint(program, starts, faults, backend):
    kernels.set_backend(backend)
    try:
        ts = TransitionSystem(program, starts, faults)
    finally:
        kernels.set_backend("auto")
    return (
        tuple(ts.states),
        tuple(tuple(ts.program_edges_from(s)) for s in ts.states),
        tuple(tuple(ts.fault_edges_from(s)) for s in ts.states),
    )


@pytest.mark.parametrize("name", sorted(SYSTEM_CASES))
def test_ported_programs_explore_as_their_lambdas(name):
    program, oracle, faults, oracle_faults, invariant = SYSTEM_CASES[name]
    assert [a.name for a in program.actions] == \
        [a.name for a in oracle.actions]
    everything = list(state_space(program.variables))
    legitimate = [s for s in everything if invariant(s)]
    assert legitimate, name
    for starts in (everything, legitimate):
        want = _fingerprint(oracle, starts, oracle_faults, "interpreted")
        for backend in ("numpy", "interpreted"):
            assert _fingerprint(program, starts, faults, backend) == want, (
                name, backend, len(starts))
