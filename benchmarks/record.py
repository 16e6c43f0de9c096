#!/usr/bin/env python
"""Record the perf-core benchmark numbers into ``BENCH_core.json``.

Usage::

    PYTHONPATH=src python benchmarks/record.py           # full run
    PYTHONPATH=src python benchmarks/record.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/record.py --rebaseline

Each *suite* is a named workload over the state-space core — cold
reachable-state exploration, full tolerance-certificate checks, and the
synthesis pipeline — timed end to end.  Models are rebuilt fresh for
every repetition so cross-repetition memoization never flatters the
numbers; memoization *within* one workload (e.g. the two explorations a
tolerance check performs over the same ``p [] F`` system) is part of
what is being measured.

The emitted ``BENCH_core.json`` contains, per suite, the wall time,
the number of reachable states the workload explores, the derived
states/sec, and the speedup against the committed pre-optimization
baseline (``benchmarks/baseline_core.json``, recorded at the seed
commit before the fast state-space core landed).  ``--rebaseline``
rewrites that baseline file from the current run instead.

See ``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from typing import Callable, Dict, List, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(HERE, "baseline_core.json")
OUTPUT_PATH = os.path.join(HERE, "..", "BENCH_core.json")


def _clear_caches() -> None:
    """Reset every exploration memo-cache so every repetition is cold:
    the system LRU, the per-action successor memos, and the frame-class
    memos (``clear_all_caches``; older trees only expose the system
    cache, the oldest none).  Finish with a full collection so every
    repetition starts from the same (empty) garbage state — without it,
    cyclic garbage from the previous repetition gets collected *during*
    the next timed run and the wall spread becomes mostly GC noise."""
    import gc

    try:
        from repro.core.exploration import clear_all_caches
    except ImportError:
        try:
            from repro.core.exploration import clear_system_cache
        except ImportError:  # pre-optimization tree: nothing to clear
            return
        clear_system_cache()
        gc.collect()
        return
    clear_all_caches()
    gc.collect()


# ---------------------------------------------------------------------------
# suites: each returns (explored reachable states, opaque result)
# ---------------------------------------------------------------------------

def _suite_byzantine_explore() -> int:
    """Cold reachable exploration of the masking Byzantine composition
    under its fault class from the fault-span (the SEC62 workload)."""
    from repro.programs import byzantine

    model = byzantine.build()
    ts = model.faults.system(model.masking, model.span)
    return len(ts.states)


def _suite_byzantine_tolerance() -> int:
    """The two SEC62 tolerance certificates (fail-safe and masking) in
    symmetric mode: the S_3 quotient over the non-generals (144 states
    vs 520 unreduced) carries the same verdicts —
    ``tests/test_symmetry_parity.py`` pins the parity against the
    unreduced oracle."""
    from repro.core import is_failsafe_tolerant, is_masking_tolerant
    from repro.programs import byzantine

    model = byzantine.build()
    failsafe = is_failsafe_tolerant(
        model.failsafe, model.faults, model.spec, model.invariant, model.span,
        symmetric=True,
    )
    masking = is_masking_tolerant(
        model.masking, model.faults, model.spec, model.invariant, model.span,
        symmetric=True,
    )
    assert failsafe and masking, "byzantine certificates must pass"
    ts = model.faults.system(model.masking, model.span, symmetric=True)
    return len(ts.states)


def _synthesis_domains(quick: bool) -> Tuple[int, ...]:
    return (8, 16) if quick else (8, 64, 128)


def _suite_synthesis(quick: bool = False) -> int:
    """The SYNTH scaling workload: synthesize and re-verify fail-safe
    and masking versions of the memory-access family as the data domain
    grows (the `bench_synthesis_scaling.py` configurations, extended to
    larger domains so the timing is meaningful)."""
    from repro import synthesis
    from repro.programs import memory_access

    states = 0
    for domain_size in _synthesis_domains(quick):
        model = memory_access.build(
            value=1, data_domain=tuple(range(domain_size))
        )
        failsafe = synthesis.add_failsafe(
            model.p, model.fault_anytime, model.spec
        )
        assert failsafe.verify(model.fault_anytime, model.spec)
        masking = synthesis.add_masking(
            model.p, model.fault_anytime, model.spec
        )
        assert masking.verify(model.fault_anytime, model.spec)
        states += model.p.state_count()
    return states


def _suite_tmr_tolerance() -> int:
    """The SEC61 TMR masking certificate."""
    from repro.core import is_masking_tolerant
    from repro.programs import tmr

    model = tmr.build()
    assert is_masking_tolerant(
        model.tmr, model.faults, model.spec, model.invariant, model.span
    )
    ts = model.faults.system(model.tmr, model.span)
    return len(ts.states)


def _suite_token_ring_stabilization(quick: bool = False) -> int:
    """Larger-instance workload: the self-stabilization certificate of
    Dijkstra's token ring at n=6/K=5 (15,625 states — 61x the bundled
    n=4 scenario), n=5/K=4 under ``--quick``.

    This is the heaviest fixpoint shape in the library: convergence from
    *every* state (span = true) under the full transient-corruption
    fault class, i.e. forward closure plus fair-SCC analysis over the
    whole product space.  (The issue's suggested n≥9 is unreachable for
    any engine at K ≥ n-1 — 8^9 ≈ 1.3e8 states — so "larger" here means
    the largest instance that stays within the explorable range.)
    """
    from repro.core import TRUE, is_nonmasking_tolerant
    from repro.programs import token_ring

    size, k = (5, 4) if quick else (6, 5)
    model = token_ring.build(size, k)
    assert is_nonmasking_tolerant(
        model.ring, model.faults, model.spec, model.invariant, TRUE
    )
    ts = model.faults.system(model.ring, TRUE)
    return len(ts.states)


def _suite_nmr_tolerance_sym() -> int:
    """The 5-way majority voter's masking certificate on the S_5
    quotient: the 32 reachable input/output vectors collapse to the 6
    corruption-count orbits."""
    from repro.core import is_masking_tolerant
    from repro.programs import tmr

    model = tmr.build_nmr(5)
    assert is_masking_tolerant(
        model.nmr, model.faults, model.spec, model.invariant, model.span,
        symmetric=True,
    )
    ts = model.faults.system(model.nmr, model.span, symmetric=True)
    return len(ts.states)


def _suite_token_ring_stabilization_sym() -> int:
    """The n=6/K=5 stabilization certificate on the Z_5 value-rotation
    quotient (3,125 states vs 15,625).  Same instance in quick and full
    mode, so the regression gate can always compare it."""
    from repro.core import TRUE, is_nonmasking_tolerant
    from repro.programs import token_ring

    model = token_ring.build(6, 5)
    assert is_nonmasking_tolerant(
        model.ring, model.faults, model.spec, model.invariant, TRUE,
        symmetric=True,
    )
    ts = model.faults.system(model.ring, TRUE, symmetric=True)
    return len(ts.states)


def _suite_byzantine_scaling_sym(quick: bool = False) -> int:
    """Quotient exploration of the k-non-general Byzantine family from
    the protocol's initial states — the previously-infeasible instance.

    At k=13 the unreduced reachable graph (computed *exactly* below
    by summing orbit sizes — the reachable set is a union of orbits) is
    over 10 million states, far past the 2M exploration cap; the S_13
    quotient explores it in under a thousand states.  ``--quick`` runs
    k=5, so this suite's state count legitimately differs between modes
    and is deliberately NOT in :data:`STATE_GATED`."""
    import math

    from repro.core import explored_system
    from repro.programs import byzantine

    k = 5 if quick else 13
    ngs = tuple(range(1, k + 1))
    model = byzantine.build_family(ngs)
    quot = explored_system(
        model.masking, byzantine.initial_states(ngs), model.faults,
        symmetric=True,
    )
    blocks = model.masking.symmetry.blocks
    unreduced = 0
    for state in quot.states:
        counts: Dict[Tuple, int] = {}
        for block in blocks:
            key = tuple(state[name] for name in block)
            counts[key] = counts.get(key, 0) + 1
        size = math.factorial(k)
        for count in counts.values():
            size //= math.factorial(count)
        unreduced += size
    if not quick:
        from repro.core.exploration import DEFAULT_MAX_STATES

        assert unreduced > DEFAULT_MAX_STATES, (
            f"k={k} was supposed to be infeasible unreduced "
            f"({unreduced} states vs cap {DEFAULT_MAX_STATES})"
        )
    return len(quot.states)


def _suite_token_ring_large() -> int:
    """Full-space census of the n=8/K=7 token ring in packed-code space:
    7^8 = 5,764,801 states expanded through compiled code kernels
    without materializing a single ``State``.  This is the instance the
    interpreted engine cannot touch (the 2M ``DEFAULT_MAX_STATES`` cap
    sits far below the space, and State-object exploration would need
    gigabytes); the exact count is the correctness gate.  Same instance
    in quick and full mode."""
    from repro.core.kernels import explore_codes
    from repro.programs import token_ring

    model = token_ring.build(8, 7)
    reach = explore_codes(model.ring, "all")
    assert reach.states == 7 ** 8, (
        f"token ring census drifted: {reach.states} != {7 ** 8}"
    )
    return reach.states


def _suite_byzantine_k13_unreduced() -> int:
    """Unreduced protocol-run census of the k=13 Byzantine agreement
    program from its initial states: 2·3^13 = 3,188,646 states (per
    general value, each non-general's (d, out) pair walks ⊥⊥ → v⊥ → vv).
    ``byzantine_scaling_sym`` checks the same family on the S_13
    quotient; this suite explores the *unreduced* graph the quotient
    stands in for, which only the code-space kernels can reach.  Same
    instance in quick and full mode."""
    from repro.core.kernels import explore_codes
    from repro.programs import byzantine

    ngs = tuple(range(1, 14))
    model = byzantine.build_family(ngs)
    reach = explore_codes(model.ib, byzantine.initial_states(ngs))
    expected = 2 * 3 ** 13
    assert reach.states == expected, (
        f"byzantine census drifted: {reach.states} != {expected}"
    )
    return reach.states


def _suite_monitoring_ingest() -> int:
    """Online monitoring ingest: drain a prebuilt 240k-event write
    stream through the frame-aware incremental runtime over an 8-ring
    detector bank (two-variable read frames, every fourth write flips a
    value).  The returned "states" figure is the event count, so the
    derived states/sec is the end-to-end ingest rate including event
    construction; ``bench_monitoring.py`` times the bare ``drain`` hot
    path and asserts its 500k events/sec floor.  Same event count in
    quick and full mode, so the regression gate can always compare."""
    from repro.core.predicate import Predicate
    from repro.core.state import Variable
    from repro.monitoring import BankDetector, DetectorBank, MonitorRuntime

    n, k, count = 8, 5, 240_000
    variables = [Variable(f"x{i}", tuple(range(k))) for i in range(n)]
    detectors = []
    for i in range(n):
        j = (i - 1) % n
        a, b = f"x{i}", f"x{j}"
        same = i == 0
        pred = Predicate(
            lambda s, a=a, b=b, same=same: (s[a] == s[b]) is same,
            name=f"token{i}",
            values_builder=lambda index, a=a, b=b, same=same: (
                lambda v, p=index[a], q=index[b]: (v[p] == v[q]) is same
            ),
        )
        detectors.append(BankDetector(f"token{i}", pred, frozenset({a, b})))
    bank = DetectorBank(detectors, variables, name="ring")

    events = []
    vals = [0] * n
    for step in range(count):
        i = step % n
        if step % 4 == 0:
            vals[i] = (vals[i] + 1) % k
        events.append({"time": float(step), "writes": {f"x{i}": vals[i]}})

    runtime = MonitorRuntime(bank)
    runtime.drain(events)
    assert runtime.events == count
    assert runtime.syndrome == bank.syndrome_of_values(
        [runtime.values()[name] for name in bank.schema.names]
    )
    return count


#: lazily started fixture of the ``campaign_distributed`` suite: one
#: in-process ``repro serve`` front end plus two pull workers, shared
#: by every repetition (the scheduler/worker round trips are what the
#: suite times; the server thread is per harness process)
_DISTRIBUTED: Dict[str, object] = {"url": None, "seed": 0}

#: fixed trial count of the ``campaign_distributed`` suite — its
#: deterministic "states" figure in quick and full mode
_DISTRIBUTED_TRIALS = 16


def _prepare_campaign_distributed(quick: bool) -> None:
    """Untimed set-up: start the job-queue server and two workers once.
    Each repetition then uses a fresh master seed, so batch artifacts
    from earlier repetitions are never cache hits — the suite times
    scheduling + computation, not store reads."""
    if _DISTRIBUTED["url"] is not None:
        return
    import asyncio
    import threading

    from repro.campaigns import worker_loop
    from repro.store import MemoryStore
    from repro.store.serve import StoreServer

    server = StoreServer(MemoryStore(), port=0)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_forever()

    threading.Thread(target=run, daemon=True).start()
    if not ready.wait(10):
        raise RuntimeError("benchmark job-queue server failed to start")
    url = f"http://127.0.0.1:{server.port}"
    stop = threading.Event()
    for i in range(2):
        threading.Thread(
            target=worker_loop, args=(url,),
            kwargs={"stop": stop, "lease_s": 120.0,
                    "worker_id": f"bench-w{i}"},
            daemon=True,
        ).start()
    _DISTRIBUTED["url"] = url


def _suite_campaign_distributed() -> int:
    """A Byzantine-agreement campaign scheduled through the job queue:
    trial batches leased by pull workers over HTTP, results merged in
    trial order.  The wall is the end-to-end distributed run — server
    round trips, batch encode/decode, and replay included — so the
    derived states/sec is the queue's trial throughput, floored by
    ``THROUGHPUT_FLOORS`` in the regression gate."""
    from repro.campaigns import DistributedCampaign, get_scenario

    seed = 1_000 + _DISTRIBUTED["seed"]
    _DISTRIBUTED["seed"] += 1
    campaign = DistributedCampaign(
        get_scenario("byzantine"), trials=_DISTRIBUTED_TRIALS, seed=seed,
        horizon=200.0, stream=None, base_url=_DISTRIBUTED["url"],
        batch_size=4, deadline_s=600,
    )
    result = campaign.run()
    assert not campaign.degraded, "benchmark server must be reachable"
    assert campaign.batches_from_store == 0, (
        "fresh seed per repetition: store hits would flatter the wall"
    )
    assert result.summary["completed"] == _DISTRIBUTED_TRIALS
    return _DISTRIBUTED_TRIALS


#: lazily resolved spec + population flag of the certificate-store
#: suite's backing store (one per harness process)
_WARM_STORE: Dict[str, object] = {"spec": None, "populated": False}


def _warm_store_spec() -> str:
    """The store the ``certificate_store_warm`` suite runs against: the
    process-wide active store when one is installed (``--store`` /
    ``--cold`` / ``--warm`` / ``REPRO_STORE``), else a temporary sqlite
    file private to this harness run."""
    if _WARM_STORE["spec"] is None:
        from repro.store import backend as store_backend

        active = store_backend.active_spec()
        if active is not None:
            _WARM_STORE["spec"] = active
        else:
            fd, path = tempfile.mkstemp(
                prefix="repro_bench_store_", suffix=".sqlite"
            )
            os.close(fd)
            _WARM_STORE["spec"] = path
    return _WARM_STORE["spec"]


def _catalogue_checks() -> int:
    """Run every catalogue certificate, asserting each passes; returns
    the number of checks (the suite's deterministic 'states' figure)."""
    from repro.cli import CATALOGUE

    count = 0
    for name, entry in CATALOGUE.items():
        _, checks = entry()
        for check in checks:
            result = check()
            assert result, f"catalogue check failed for {name}: {result}"
            count += 1
    return count


def _prepare_certificate_store_warm(quick: bool) -> None:
    """Untimed set-up pass: install the suite's store and populate it
    once (the first repetition pays exploration + verification; the
    timed repetitions are then served from persistent artifacts)."""
    from repro.store import backend as store_backend

    store_backend.set_active_store(_warm_store_spec())
    if not _WARM_STORE["populated"]:
        _clear_caches()
        _catalogue_checks()
        _WARM_STORE["populated"] = True


def _suite_certificate_store_warm() -> int:
    """Warm-store catalogue verification: every tolerance/refinement
    certificate of the bundled catalogue, answered from the persistent
    certificate store populated by the (untimed) prepare pass.  The
    'states' figure is the catalogue's check count — fixed by
    construction in quick and full mode, so the regression gate compares
    it exactly (a drift means the catalogue changed, not the store)."""
    return _catalogue_checks()


SUITES: Dict[str, Callable[[bool], int]] = {
    "byzantine_explore": lambda quick: _suite_byzantine_explore(),
    "byzantine_tolerance": lambda quick: _suite_byzantine_tolerance(),
    "synthesis": _suite_synthesis,
    "tmr_tolerance": lambda quick: _suite_tmr_tolerance(),
    "token_ring_stabilization": _suite_token_ring_stabilization,
    "nmr_tolerance_sym": lambda quick: _suite_nmr_tolerance_sym(),
    "token_ring_stabilization_sym":
        lambda quick: _suite_token_ring_stabilization_sym(),
    "byzantine_scaling_sym": _suite_byzantine_scaling_sym,
    "token_ring_large": lambda quick: _suite_token_ring_large(),
    "byzantine_k13_unreduced":
        lambda quick: _suite_byzantine_k13_unreduced(),
    "monitoring_ingest": lambda quick: _suite_monitoring_ingest(),
    "campaign_distributed":
        lambda quick: _suite_campaign_distributed(),
    # keep last: installs a process-wide certificate store
    "certificate_store_warm":
        lambda quick: _suite_certificate_store_warm(),
}

#: per-suite untimed set-up hooks, run before each repetition's cache
#: clear + timed body
PREPARE: Dict[str, Callable[[bool], None]] = {
    "campaign_distributed": _prepare_campaign_distributed,
    "certificate_store_warm": _prepare_certificate_store_warm,
}

#: minimum sustained states-per-second (for ``campaign_distributed``:
#: trials/sec through the job queue) enforced by ``check_regression.py``
#: on top of the relative-slowdown gate — an absolute floor catches a
#: scheduler that got uniformly slower before a record is re-committed
THROUGHPUT_FLOORS: Dict[str, float] = {
    "campaign_distributed": 4.0,
}

#: suites whose ``states`` count is a *quotient* size that must match
#: the committed record exactly: a canonicalization change that alters
#: the orbit count is a correctness bug, not a workload change, so the
#: regression gate fails (rather than skips) on a mismatch.  These
#: suites run the same instance in quick and full mode.
#: ``byzantine_scaling_sym`` is excluded: quick mode runs k=5 where the
#: full record holds k=13, so its counts differ by design.
#: ``monitoring_ingest`` qualifies for a different reason: its "states"
#: figure is the event count, fixed by construction in both modes, so a
#: mismatch means the workload definition drifted from the record.
#: The code-space censuses (``token_ring_large``,
#: ``byzantine_k13_unreduced``) are gated on their closed-form exact
#: counts: a kernel-compilation change that alters either is a
#: correctness bug in the successor arithmetic.
#: ``campaign_distributed`` runs the same fixed trial count in both
#: modes, so its figure is gated like ``monitoring_ingest``'s.
STATE_GATED = frozenset({
    "byzantine_tolerance",
    "nmr_tolerance_sym",
    "token_ring_stabilization_sym",
    "token_ring_large",
    "byzantine_k13_unreduced",
    "monitoring_ingest",
    "campaign_distributed",
    "certificate_store_warm",
})


def run_suite(
    name: str, repeat: int, quick: bool, prewarm: bool = False
) -> Dict[str, object]:
    suite = SUITES[name]
    prepare = PREPARE.get(name)
    if prewarm and prepare is None:
        # --warm: one untimed pass leaves the attached store populated;
        # the timed repetitions below are then served from it
        _clear_caches()
        suite(quick)
    walls: List[float] = []
    states = 0
    for _ in range(repeat):
        if prepare is not None:
            prepare(quick)
        _clear_caches()
        started = time.perf_counter()
        states = suite(quick)
        walls.append(time.perf_counter() - started)
    best = min(walls)
    return {
        "wall_s": round(best, 6),
        "wall_all_s": [round(w, 6) for w in walls],
        "states": states,
        "states_per_sec": round(states / best, 1) if best > 0 else None,
        "repeat": repeat,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="single repetition, smaller synthesis domains (CI smoke)",
    )
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="repetitions per suite (best-of; default 5, 1 with --quick)",
    )
    parser.add_argument(
        "--output", default=OUTPUT_PATH, help="where to write BENCH_core.json"
    )
    parser.add_argument(
        "--rebaseline", action="store_true",
        help="rewrite benchmarks/baseline_core.json from this run",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process count for sharded exploration (default: in-process; "
        "the finished graphs are bit-identical for any worker count)",
    )
    parser.add_argument(
        "--backend", choices=("auto", "numpy", "interpreted"),
        default=None,
        help="kernel backend for every suite (default: leave the "
        "library's auto selection in place)",
    )
    parser.add_argument(
        "--cold", action="store_true",
        help="attach an (empty) certificate store to every suite: the "
        "walls then include artifact recording overhead",
    )
    parser.add_argument(
        "--warm", action="store_true",
        help="attach a certificate store and run each suite once "
        "untimed first: the timed repetitions are served from the "
        "persisted artifacts",
    )
    parser.add_argument(
        "--store", default=None,
        help="store spec for --cold/--warm (default: a temporary "
        "sqlite file per run)",
    )
    args = parser.parse_args(argv)
    repeat = args.repeat or (1 if args.quick else 5)

    from repro.core import kernels as _kernels
    from repro.core.exploration import set_default_workers

    if args.backend is not None:
        _kernels.set_backend(args.backend)
    set_default_workers(args.workers)

    store_mode = "off"
    if args.cold or args.warm:
        from repro.store import backend as store_backend

        store_mode = "warm" if args.warm else "cold"
        spec = args.store
        if spec is None:
            fd, spec = tempfile.mkstemp(
                prefix="repro_bench_store_", suffix=".sqlite"
            )
            os.close(fd)
        store_backend.set_active_store(spec)
        _WARM_STORE["spec"] = spec
    elif args.store is not None:
        print("--store has no effect without --cold or --warm")

    baseline: Dict[str, Dict[str, object]] = {}
    if not args.rebaseline and os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH, encoding="utf-8") as fh:
            baseline = json.load(fh)

    from repro.store import backend as _store_backend

    _store_backend.reset_stats()

    suites: Dict[str, Dict[str, object]] = {}
    speedups: Dict[str, float] = {}
    for name in SUITES:
        result = run_suite(name, repeat, args.quick, prewarm=args.warm)
        suites[name] = result
        base = baseline.get("suites", {}).get(name)
        line = (
            f"{name:24s} {result['wall_s']:9.4f}s  "
            f"{result['states']:6d} states"
        )
        # --quick shrinks the synthesis workload, so its wall time is
        # only comparable to a baseline recorded at the same scale
        comparable = base is not None and base.get("states") == result["states"]
        if comparable:
            speedup = float(base["wall_s"]) / float(result["wall_s"])
            speedups[name] = round(speedup, 2)
            line += f"  {speedup:6.2f}x vs baseline ({base['wall_s']}s)"
        print(line)

    payload = {
        "schema": 1,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": args.quick,
        "workers": args.workers,
        "backend": args.backend or "auto",
        "resolved_backend": _kernels.resolved_backend(),
        "suites": suites,
        "baseline": baseline or None,
        "speedup_vs_baseline": speedups,
        "store": {
            "mode": store_mode,
            "counters": _store_backend.stats(),
        },
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.output)}")

    if args.rebaseline:
        snapshot = {
            "recorded_at": payload["recorded_at"],
            "python": payload["python"],
            "platform": payload["platform"],
            "note": "pre-optimization baseline for speedup_vs_baseline",
            "suites": suites,
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
