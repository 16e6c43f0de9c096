"""Ablations: remove each load-bearing design element and watch the
model checker produce the counterexample that justifies it.

DESIGN.md calls out several constraints whose necessity is not obvious
from the code; each test here *removes* one and asserts the precise
failure mode:

- Dijkstra's ring with too few counter values (K ≤ n - 2) admits a fair
  cycle that never reaches a legitimate state;
- the mutex without the ``done`` flag livelocks: a process can re-enter
  its critical section forever and starve the token pass under weak
  fairness;
- the distributed reset without the wave-completion guard livelocks:
  the root keeps opening sessions faster than a lagging process can
  adopt them;
- the termination scanner without the dirty bit reports termination
  while a process is still active (the classic scan-behind bug);
- the Byzantine span without the "output ⇒ all copied ∧ majority"
  conjunct admits premature outputs from which a Byzantine general
  forces an agreement violation.
"""

import pytest

from repro.core import (
    Action,
    Predicate,
    Program,
    TRUE,
    TransitionSystem,
    Variable,
    assign,
    check_leads_to,
    is_detector,
    is_nonmasking_tolerant,
)
from repro.programs import distributed_reset, token_ring
from repro.programs.token_ring import has_token


def raw_ring(size: int, k: int) -> Program:
    """The ring without the builder's K validation."""
    variables = [Variable(f"x{i}", list(range(k))) for i in range(size)]
    tokens = {i: has_token(i, size) for i in range(size)}
    actions = [
        Action(
            "move0", tokens[0],
            assign(x0=lambda s, n=size, kk=k: (s[f"x{n - 1}"] + 1) % kk),
        )
    ]
    for i in range(1, size):
        actions.append(
            Action(f"move{i}", tokens[i],
                   assign(**{f"x{i}": lambda s, i=i: s[f"x{i - 1}"]}))
        )
    return Program(variables, actions, name=f"ring(n={size},K={k})")


def one_token(size: int) -> Predicate:
    tokens = {i: has_token(i, size) for i in range(size)}
    return Predicate(
        lambda s, ts=tokens: sum(1 for t in ts.values() if t(s)) == 1,
        name="one token",
    )


class TestRingCounterBound:
    @pytest.mark.parametrize("size,k", [(4, 3), (5, 4), (3, 2)])
    def test_k_equals_n_minus_1_stabilizes(self, size, k):
        ring = raw_ring(size, k)
        ts = TransitionSystem(ring, list(ring.states()))
        assert check_leads_to(ts, TRUE, one_token(size))

    @pytest.mark.parametrize("size,k", [(4, 2), (5, 3)])
    def test_k_below_bound_fails_with_fair_cycle(self, size, k):
        ring = raw_ring(size, k)
        ts = TransitionSystem(ring, list(ring.states()))
        result = check_leads_to(ts, TRUE, one_token(size))
        assert not result
        assert result.counterexample.kind == "lasso", (
            "the failure is a livelock, not a deadlock"
        )


class TestMutexDoneFlag:
    def test_without_done_flag_passing_starves(self):
        """Rebuild the 2-process mutex without the done flag: the
        holder may cycle enter/exit forever, so 'the other process
        eventually gets the token' fails under weak fairness."""
        variables = []
        for i in range(2):
            variables += [
                Variable(f"tok{i}", [False, True]),
                Variable(f"cs{i}", [False, True]),
            ]
        actions = []
        for i in range(2):
            nxt = (i + 1) % 2
            holds = Predicate(lambda s, i=i: s[f"tok{i}"], name=f"tok{i}")
            inside = Predicate(lambda s, i=i: s[f"cs{i}"], name=f"cs{i}")
            actions += [
                Action(f"enter{i}", holds & ~inside, assign(**{f"cs{i}": True})),
                Action(f"exit{i}", holds & inside, assign(**{f"cs{i}": False})),
                Action(
                    f"pass{i}", holds & ~inside,
                    assign(**{f"tok{i}": False, f"tok{nxt}": True}),
                ),
            ]
        mutex = Program(variables, actions, name="mutex_no_done")
        from repro.core import State

        start = State(tok0=True, cs0=False, tok1=False, cs1=False)
        ts = TransitionSystem(mutex, [start])
        result = check_leads_to(
            ts, TRUE, Predicate(lambda s: s["tok1"], name="tok1")
        )
        assert not result
        assert result.counterexample.kind == "lasso"


class TestResetWaveGuard:
    def test_without_completion_guard_root_livelocks(self, reset):
        """Remove the wave-completion conjunct from reset_root: the
        nonmasking certificate must fail with a livelock."""
        model = reset
        rebuilt_actions = []
        for action in model.program.actions:
            if action.name == "reset_root":
                rebuilt_actions.append(
                    Action(
                        "reset_root",
                        Predicate(lambda s: s["req0"], name="req0"),
                        action.statement,
                    )
                )
            else:
                rebuilt_actions.append(action)
        broken = model.program.with_actions(rebuilt_actions,
                                            name="reset_no_guard")
        result = is_nonmasking_tolerant(
            broken, model.faults, model.spec, model.invariant, model.span
        )
        assert not result
        # the lasso is pinned: the root answers each request process 1
        # forwards with a new session, forever
        ce = result.counterexample
        assert ce.kind == "lasso" and ce.loop_index == 0
        assert ce.actions == (
            "forward1", "reset_root", "forward1", "reset_root",
        )
        assert ce.note.endswith("(SCC of 4 states)")
        waiting = dict(req1=True, req2=False, sn1=1, sn2=1, x0=0, x1=0, x2=0)
        assert [dict(state.items()) for state in ce.states] == [
            dict(waiting, req0=False, sn0=0),
            dict(waiting, req0=True, sn0=0),
            dict(waiting, req0=False, sn0=1),
            dict(waiting, req0=True, sn0=1),
            dict(waiting, req0=False, sn0=0),
        ]


class TestScannerDirtyBit:
    def test_unsound_scanner_counterexample_shows_activation(self, termination):
        result = is_detector(
            termination.unsound, termination.done,
            termination.terminated, termination.from_,
        )
        assert not result
        # the counterexample must include a state where done holds but
        # some process is active — the false claim itself
        ce = result.counterexample
        assert ce is not None


class TestByzantineSpanConjunct:
    def test_weakened_span_admits_agreement_violation(self, byz):
        """Drop the 'output implies all-copied-and-majority' conjunct
        from T_byz.  The weakened predicate is still fault-closed (it
        says nothing about the Byzantine-general branch), but it now
        includes states where one output was emitted *before* all
        copies arrived - from which a general turning Byzantine makes a
        later honest output disagree.  The fail-safe certificate must
        fail from the weakened span while it passes from the real
        one."""
        from repro.core import is_failsafe_tolerant
        from repro.core.state import BOTTOM

        def weakened(state) -> bool:
            byzantine = [state["bg"]] + [
                state[f"b{j}"] for j in (1, 2, 3)
            ]
            if sum(byzantine) > 1:
                return False
            if not state["bg"]:
                for j in (1, 2, 3):
                    if state[f"b{j}"]:
                        continue
                    if state[f"d{j}"] not in (BOTTOM, state["dg"]):
                        return False
                    if state[f"out{j}"] not in (BOTTOM, state["dg"]):
                        return False
            return True

        span = Predicate(weakened, name="T_weak")
        weakened_check = is_failsafe_tolerant(
            byz.failsafe, byz.faults, byz.spec, byz.invariant, span
        )
        assert not weakened_check
        assert weakened_check.counterexample is not None
        real_check = is_failsafe_tolerant(
            byz.failsafe, byz.faults, byz.spec, byz.invariant, byz.span
        )
        assert real_check
