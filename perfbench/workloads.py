"""The four benchmark workloads, as seen from inside a workload process.

Each workload builds its models in :meth:`Workload.prepare` (after
clearing every library cache) and runs one *pass* in
:meth:`Workload.run_pass`: a fixed list of operations, each timed on
its own and judged against an oracle.  An operation is one verdict: a
certificate check (``verify``, ``verify_warm``), one census instance
(``census``) or one event log replayed to its final syndrome
(``monitor``).

Only the public API of ``repro`` is called; nothing here changes the
program.
"""

from __future__ import annotations

import gc
import math
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import eventlog
from tracer import Tracer

now = time.perf_counter

#: modules the workload processes import during set-up
IMPORTS = (
    "repro.cli", "repro.core", "repro.core.exploration",
    "repro.core.kernels", "repro.core.fairness", "repro.core.invariants",
    "repro.programs.token_ring", "repro.programs.byzantine",
    "repro.programs.memory_access", "repro.programs.distributed_reset",
    "repro.synthesis", "repro.synthesis.weakest", "repro.store",
    "repro.store.backend", "repro.store.certificates", "repro.store.keys",
    "repro.monitoring", "repro.campaigns",
)


class Op:
    """One timed operation: its wall, its verdict and what it returned
    for the driver's oracle."""

    __slots__ = ("name", "start", "seconds", "ok", "note", "out")

    def __init__(self, name: str, start: float, seconds: float, ok: bool,
                 note: str, out: Any = None) -> None:
        self.name = name
        self.start = start
        self.seconds = seconds
        self.ok = ok
        self.note = note
        self.out = out

    def record(self) -> Dict[str, Any]:
        return {"name": self.name, "t": self.start, "s": self.seconds,
                "ok": self.ok, "note": self.note, "out": self.out}


class Workload:
    """Base class: timing and judging of operations."""

    name = ""

    def __init__(self, size: str, inputs: Dict[str, Any]) -> None:
        self.full = size == "full"
        self.inputs = inputs
        self.tracer: Optional[Tracer] = None
        #: called before each operation, outside its timing
        self.pause: Callable[[], None] = lambda: None
        self.ops: List[Op] = []

    def build(self) -> None:
        """Build the models a pass runs on (not timed)."""

    def prepare(self) -> None:
        from repro.core.exploration import clear_all_caches

        clear_all_caches()
        self.build()
        gc.collect()

    def operations(self) -> List[Tuple[str, Callable, Callable]]:
        """``(name, run, judge)`` per operation; ``judge(result)``
        returns ``(ok, note, out)`` and runs outside the timed region."""
        raise NotImplementedError

    def run_pass(self) -> List[Op]:
        self.ops = []
        for name, run, judge in self.operations():
            self._run(name, run, judge)
        return self.ops

    def _run(self, name: str, run: Callable, judge: Callable) -> None:
        self.pause()
        tracer = self.tracer
        frame = tracer.enter("op:" + name) if tracer is not None else None
        result, error = None, None
        start = now()
        try:
            result = run()
        except Exception as exc:  # an operation that raises is a failure
            error = exc
        seconds = now() - start
        if frame is not None:
            tracer.exit(frame, True)
        if error is not None:
            traceback.print_exception(type(error), error,
                                      error.__traceback__, file=sys.stderr)
            self.ops.append(Op(name, start, seconds, False,
                               f"{type(error).__name__}: {error}"))
            return
        try:
            ok, note, out = judge(result)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            ok, note, out = False, f"judge: {type(exc).__name__}: {exc}", None
        self.ops.append(Op(name, start, seconds, ok, note, out))

    def facts(self) -> Dict[str, int]:
        """Deterministic sizes of the pass just run (``states``,
        ``events``), read after the pass."""
        return {}

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer metrics the workload derives itself (traced run)."""
        return {}

    def finish(self) -> Dict[str, Any]:
        """Checks made once at the end of the process (not timed)."""
        return {}


def expect_pass(result) -> Tuple[bool, str, Any]:
    return bool(result), "" if result else str(result), None


def expect_counterexample(result) -> Tuple[bool, str, Any]:
    ok = not result and result.counterexample is not None
    return ok, "" if ok else "expected a failure with a counterexample", None


def memo_states() -> int:
    """Reachable states held by the exploration memo: after a cold pass,
    the states of every distinct system the pass explored.  The memo is
    an LRU of at most ``_SYSTEM_CACHE_MAXSIZE`` systems, so the count
    is exact only while the pass stays below that bound."""
    from repro.core import exploration

    cache = exploration._SYSTEM_CACHE
    if len(cache) >= exploration._SYSTEM_CACHE_MAXSIZE:
        raise RuntimeError("the exploration memo is full: systems may have "
                           "been evicted, so its state count is not the "
                           "pass's")
    return sum(len(system.states) for system in cache.values())


def raw_ring(size: int, k: int):
    """Dijkstra's K-state ring built without the builder's ``K >= n-1``
    validation, so small K livelocks."""
    from repro.core import Action, Program, Variable, assign
    from repro.programs.token_ring import has_token

    variables = [Variable(f"x{i}", list(range(k))) for i in range(size)]
    actions = [Action(
        "move0", has_token(0, size),
        assign(x0=lambda s, n=size, kk=k: (s[f"x{n - 1}"] + 1) % kk),
    )]
    for i in range(1, size):
        actions.append(Action(
            f"move{i}", has_token(i, size),
            assign(**{f"x{i}": lambda s, i=i: s[f"x{i - 1}"]}),
        ))
    return Program(variables, actions, name=f"ring(n={size},K={k})")


def one_token(size: int):
    from repro.core import Predicate
    from repro.programs.token_ring import has_token

    tokens = [has_token(i, size) for i in range(size)]
    return Predicate(lambda s: sum(1 for t in tokens if t(s)) == 1,
                     name="one token")


def reset_without_guard():
    """Distributed reset whose root starts a session without waiting for
    the previous wave to complete (a livelock)."""
    from repro.core import Action, Predicate
    from repro.programs import distributed_reset

    model = distributed_reset.build(3, 2)
    actions = [
        Action("reset_root", Predicate(lambda s: s["req0"], name="req0"),
               action.statement)
        if action.name == "reset_root" else action
        for action in model.program.actions
    ]
    return model, model.program.with_actions(actions, name="reset_no_guard")


def orbit_sum(system, k: int) -> int:
    """Unreduced size of a Byzantine-family quotient: the reachable set
    is a union of S_k orbits, so it is the sum of the orbit sizes."""
    total = 0
    for state in system.states:
        counts: Dict[Tuple, int] = {}
        for block in system.program.symmetry.blocks:
            key = tuple(state[name] for name in block)
            counts[key] = counts.get(key, 0) + 1
        size = math.factorial(k)
        for count in counts.values():
            size //= math.factorial(count)
        total += size
    return total


class Verify(Workload):
    """Cold certificate checking, no store."""

    name = "verify"

    def build(self) -> None:
        from repro import cli
        from repro.programs import byzantine, memory_access, token_ring

        self.catalogue = [(name, entry()[1])
                          for name, entry in cli.CATALOGUE.items()]
        self.ring = token_ring.build(6, 5) if self.full else \
            token_ring.build(5, 4)
        self.byzantine = byzantine.build()
        self.k = 13 if self.full else 5
        self.family = byzantine.build_family(tuple(range(1, self.k + 1)))
        self.family_starts = byzantine.initial_states(
            tuple(range(1, self.k + 1)))
        domains = (8, 64, 128) if self.full else (8, 16)
        self.memory = [
            (d, memory_access.build(value=1, data_domain=tuple(range(d))))
            for d in domains
        ]
        self.raw = raw_ring(5, 3)
        self.raw_legit = one_token(5)
        self.reset_model, self.reset_broken = reset_without_guard()

    def operations(self):
        from repro import synthesis
        from repro.core import (
            TRUE, TransitionSystem, check_leads_to, explored_system,
            is_failsafe_tolerant, is_masking_tolerant,
            is_nonmasking_tolerant,
        )
        from repro.core.exploration import DEFAULT_MAX_STATES

        ops = []
        for name, checks in self.catalogue:
            for j, check in enumerate(checks):
                ops.append((f"{name}[{j}]", check, expect_pass))
        r, b = self.ring, self.byzantine
        for label, symmetric in (("ring", False), ("ring_quotient", True)):
            ops.append((label, lambda s=symmetric: is_nonmasking_tolerant(
                r.ring, r.faults, r.spec, r.invariant, TRUE, symmetric=s,
            ), expect_pass))
        ops.append(("byzantine_failsafe_quotient", lambda: is_failsafe_tolerant(
            b.failsafe, b.faults, b.spec, b.invariant, b.span, symmetric=True,
        ), expect_pass))
        ops.append(("byzantine_masking_quotient", lambda: is_masking_tolerant(
            b.masking, b.faults, b.spec, b.invariant, b.span, symmetric=True,
        ), expect_pass))

        def family_gate(system):
            states = len(system.states)
            unreduced = orbit_sum(system, self.k)
            ok = unreduced > DEFAULT_MAX_STATES and states == 922 \
                if self.full else states > 0
            return ok, f"{states} quotient states, {unreduced} unreduced", \
                None

        ops.append((f"byzantine_k{self.k}_quotient", lambda: explored_system(
            self.family.masking, self.family_starts, self.family.faults,
            symmetric=True,
        ), family_gate))
        for d, m in self.memory:
            ops.append((f"add_failsafe_d{d}", lambda m=m: synthesis.add_failsafe(
                m.p, m.fault_anytime, m.spec
            ).verify(m.fault_anytime, m.spec), expect_pass))
            ops.append((f"add_masking_d{d}", lambda m=m: synthesis.add_masking(
                m.p, m.fault_anytime, m.spec
            ).verify(m.fault_anytime, m.spec), expect_pass))
        ops.append(("ablation_ring_n5_k3", lambda: check_leads_to(
            TransitionSystem(self.raw, list(self.raw.states())), TRUE,
            self.raw_legit,
        ), expect_counterexample))
        d = self.reset_model
        ops.append(("ablation_reset_no_guard", lambda: is_nonmasking_tolerant(
            self.reset_broken, d.faults, d.spec, d.invariant, d.span,
        ), expect_counterexample))
        return ops

    def facts(self) -> Dict[str, int]:
        return {"states": memo_states(), "events": len(self.ops)}

    def layer_extras(self) -> Dict[str, float]:
        from repro.core import TRUE

        r = self.ring
        full = len(r.faults.system(r.ring, TRUE).states)
        quotient = len(r.faults.system(r.ring, TRUE, symmetric=True).states)
        return {"symmetry.orbit_reduction": full / quotient}


class VerifyWarm(Workload):
    """The catalogue answered from a populated sqlite certificate store.
    ``inputs["cold_verdicts"]`` holds the verdict texts of the cold run
    that populated it."""

    name = "verify_warm"

    def build(self) -> None:
        from repro import cli

        self.catalogue = [(name, entry()[1])
                          for name, entry in cli.CATALOGUE.items()]

    def operations(self):
        cold = self.inputs.get("cold_verdicts")
        ops = []
        for name, checks in self.catalogue:
            for j, check in enumerate(checks):
                label = f"{name}[{j}]"
                if cold is None:  # populating: record the cold texts
                    judge = lambda result: (bool(result), "", str(result))
                else:
                    judge = lambda result, want=cold[label]: (
                        str(result) == want,
                        "" if str(result) == want else "verdict text differs",
                        None,
                    )
                ops.append((label, check, judge))
        return ops

    def facts(self) -> Dict[str, int]:
        # warm passes explore nothing: their states are those the cold
        # populating pass explored to certify the same verdicts
        states = self.inputs["states"] if "states" in self.inputs \
            else memo_states()
        return {"states": states, "events": len(self.ops)}


class Census(Workload):
    """Exact packed-code censuses through ``explore_codes``."""

    name = "census"

    def build(self) -> None:
        from repro.programs import byzantine, token_ring

        self.n, self.kr = (8, 7) if self.full else (5, 4)
        self.ring = token_ring.build(self.n, self.kr)
        self.k = 11 if self.full else 5
        ngs = tuple(range(1, self.k + 1))
        self.family = byzantine.build_family(ngs)
        self.starts = byzantine.initial_states(ngs)

    def operations(self):
        from repro.core.kernels import explore_codes

        def expect(count):
            def judge(reach):
                ok = reach.states == count
                return ok, f"{reach.states} states (want {count})", {
                    "states": reach.states, "edges": reach.edges,
                    "levels": reach.levels}
            return judge

        return [
            (f"token_ring_n{self.n}_k{self.kr}",
             lambda: explore_codes(self.ring.ring, "all"),
             expect(self.kr ** self.n)),
            (f"byzantine_k{self.k}",
             lambda: explore_codes(self.family.ib, self.starts),
             expect(2 * 3 ** self.k)),
        ]

    def facts(self) -> Dict[str, int]:
        return {
            "states": sum(op.out["states"] for op in self.ops if op.out),
            "events": sum(op.out["edges"] for op in self.ops if op.out),
        }


def ring_bank(n: int, k: int):
    """n "process i holds the token" detectors of Dijkstra's K-state ring,
    each reading its own variable and its left neighbour's."""
    from repro.core.predicate import Predicate
    from repro.core.state import Variable
    from repro.monitoring import BankDetector, DetectorBank

    variables = [Variable(f"x{i}", tuple(range(k))) for i in range(n)]
    detectors = []
    for i in range(n):
        a, b = f"x{i}", f"x{(i - 1) % n}"
        same = i == 0  # the root holds the token on equality
        predicate = Predicate(
            lambda s, a=a, b=b, same=same: (s[a] == s[b]) is same,
            name=f"token{i}",
            values_builder=lambda index, a=a, b=b, same=same: (
                lambda v, p=index[a], q=index[b]: (v[p] == v[q]) is same
            ),
        )
        detectors.append(BankDetector(f"token{i}", predicate,
                                      frozenset({a, b})))
    return DetectorBank(detectors, variables, name="ring")


class Monitor(Workload):
    """JSONL event logs replayed through ``read_events`` ->
    ``normalize_event`` -> ``MonitorRuntime.run_sync``, the path of
    ``repro monitor --events``.  ``inputs`` names the logs and the bank
    shape; the driver holds the reference answers."""

    name = "monitor"

    def __init__(self, size: str, inputs: Dict[str, Any]) -> None:
        super().__init__(size, inputs)
        from repro.monitoring import SyndromeDecoder

        self.bank = ring_bank(inputs["n"], inputs["k"])
        self.decoder = SyndromeDecoder.for_bank(self.bank)
        for j, detector in enumerate(self.bank.detector_names):
            self.decoder.register(1 << j, name=f"correct[{detector}]")
        self.runtimes: List[Any] = []

    def replay(self, path: str, on_syndrome=None):
        import repro.campaigns
        import repro.monitoring
        from repro.monitoring import MonitorRuntime, TelemetrySink

        normalize = repro.monitoring.normalize_event
        runtime = MonitorRuntime(
            self.bank, decoder=self.decoder,
            telemetry=TelemetrySink(self.bank.detector_names),
        )
        if on_syndrome is not None:
            runtime.on_syndrome(on_syndrome)
        events = (
            event
            for record in repro.campaigns.read_events(path)
            for event in [normalize(record)]
            if event is not None
        )
        summary = runtime.run_sync(events)
        return runtime, summary

    def operations(self):
        def judge(outcome):
            runtime, summary = outcome
            self.runtimes.append(runtime)
            return True, "", {
                "events": summary["events"],
                "transitions": summary["transitions"],
                "corrections": summary["corrections"],
                "final": runtime.syndrome,
            }

        self.runtimes = []
        return [(f"log{i:02d}", lambda p=path: self.replay(p), judge)
                for i, path in enumerate(self.inputs["logs"])]

    def facts(self) -> Dict[str, int]:
        return {"states": self.inputs["changing_events"],
                "events": sum(op.out["events"] for op in self.ops if op.out)}

    def layer_extras(self) -> Dict[str, float]:
        updates = self.tracer.calls("monitoring.update") if self.tracer \
            else 0
        return {
            "monitoring.transitions": sum(
                r.telemetry.transitions for r in self.runtimes),
            "monitoring.dirty_ratio": updates / self.inputs["write_events"],
        }

    def finish(self) -> Dict[str, Any]:
        """Replay every log once more, untimed, recording the full
        transition sequence for the driver's reference comparison."""
        digests = []
        for path in self.inputs["logs"]:
            seen: List[List] = []
            self.replay(path, on_syndrome=lambda rt, old, new, at: seen.append(
                [at, old, new]))
            digests.append(eventlog.digest(seen))
        return {"transition_digests": digests}


WORKLOADS = {w.name: w for w in (Verify, Census, Monitor, VerifyWarm)}
