"""DIST — distributed campaign scheduling (repro.campaigns.distributed).

Times a Byzantine campaign scheduled through the ``repro serve`` job
queue and asserts the properties the subsystem exists for: the merged
verdict and event log are identical to the single-process run for any
worker count, a warm re-run is served entirely from the
content-addressed store, and the scheduler's overhead over the direct
path stays modest.  The wall-clock *scaling* claim (>=3x from 1 to 8
workers) only holds when the workers actually run on separate cores,
so it is asserted only on machines with enough CPUs — the parity and
overhead claims are asserted everywhere.
"""

import asyncio
import io
import json
import os
import threading
import time

from repro.campaigns import (
    Campaign,
    DistributedCampaign,
    get_scenario,
    worker_loop,
)
from repro.store import MemoryStore
from repro.store.serve import StoreServer

TRIALS, SEED = 24, 11
#: simulation horizon per trial — long enough that trial compute (not
#: queue round trips) dominates a batch, as in any real campaign
HORIZON = 200.0
#: scheduler overhead bound over the direct in-process run, measured
#: with one worker (same compute, plus the queue round trips); only
#: gated with spare cores — on fewer, the worker thread, the asyncio
#: server, and the scheduler time-share one core and the "overhead" is
#: mostly context switching, so just a sanity bound applies
OVERHEAD_BOUND = 1.25
OVERHEAD_SANITY = 4.0
MIN_GATE_CORES = 4
#: 1 -> 8 worker speedup floor, asserted only with >= 8 usable cores
SCALING_FLOOR = 3.0


class _Server:
    def __init__(self):
        self.server = StoreServer(MemoryStore(), port=0)
        self.loop = asyncio.new_event_loop()

    def __enter__(self):
        ready = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            ready.set()
            self.loop.run_forever()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        assert ready.wait(10)
        self.url = f"http://127.0.0.1:{self.server.port}"
        return self

    def __exit__(self, *exc):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        # cancel any parked connection handlers before closing, or their
        # coroutines get garbage-collected mid-await
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        # close the listening socket StoreServer.start opened
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()


def _workers(url, count):
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=worker_loop, args=(url,),
            kwargs={"stop": stop, "lease_s": 120.0, "worker_id": f"w{i}"},
            daemon=True,
        )
        for i in range(count)
    ]
    for t in threads:
        t.start()
    return stop, threads


def _stripped(buf):
    lines = []
    for line in buf.getvalue().splitlines():
        record = json.loads(line)
        lines.append(json.dumps(
            {k: v for k, v in record.items() if not k.startswith("wall")},
            sort_keys=True,
        ))
    return lines


def _run_distributed(url, workers, seed=SEED):
    stop, threads = _workers(url, workers)
    buf = io.StringIO()
    try:
        campaign = DistributedCampaign(
            get_scenario("byzantine"), trials=TRIALS, seed=seed,
            horizon=HORIZON, stream=buf, base_url=url, batch_size=4,
            deadline_s=600,
        )
        started = time.perf_counter()
        result = campaign.run()
        wall = time.perf_counter() - started
    finally:
        stop.set()
        for t in threads:
            t.join(10)
    assert not campaign.degraded
    return campaign, result, _stripped(buf), wall


def bench_distributed_parity_and_overhead(benchmark, report):
    buf = io.StringIO()
    direct = Campaign(
        get_scenario("byzantine"), trials=TRIALS, seed=SEED,
        horizon=HORIZON, stream=buf,
    )
    started = time.perf_counter()
    result0 = direct.run()
    direct_wall = time.perf_counter() - started
    jsonl0 = _stripped(buf)

    def run():
        with _Server() as srv:
            return _run_distributed(srv.url, workers=1)

    campaign, result, jsonl, wall = benchmark(run)
    assert jsonl == jsonl0, "distributed log must match the direct run"
    assert result.verdict == result0.verdict
    overhead = wall / direct_wall if direct_wall > 0 else 1.0
    cores = os.cpu_count() or 1
    if cores >= MIN_GATE_CORES:
        assert overhead < OVERHEAD_BOUND, (
            f"scheduler overhead {overhead:.2f}x exceeds {OVERHEAD_BOUND}x"
        )
        verdict = f"{overhead:.2f}x, bound {OVERHEAD_BOUND}x"
    else:
        assert overhead < OVERHEAD_SANITY, (
            f"scheduler overhead {overhead:.2f}x exceeds even the "
            f"single-core sanity bound {OVERHEAD_SANITY}x"
        )
        verdict = (
            f"{overhead:.2f}x, sanity bound {OVERHEAD_SANITY}x "
            f"on {cores} core(s)"
        )
    report(
        "DIST",
        f"byzantine {TRIALS} trials, 1 worker: parity ok, "
        f"direct {direct_wall:.3f}s vs distributed {wall:.3f}s ({verdict})",
    )


def bench_distributed_warm_rerun(benchmark, report):
    with _Server() as srv:
        first, _, jsonl1, _ = _run_distributed(srv.url, workers=2)

        def run():
            return _run_distributed(srv.url, workers=2)

        campaign, _, jsonl2, wall = benchmark(run)
    assert jsonl2 == jsonl1
    assert first.batches_from_store == 0
    assert campaign.batches_from_store == campaign.batches_total
    report(
        "DIST",
        f"warm re-run: {campaign.batches_total} batches all served from "
        f"the store in {wall:.3f}s",
    )


def bench_distributed_scaling(benchmark, report):
    cores = os.cpu_count() or 1
    with _Server() as srv:
        _, result1, jsonl1, wall1 = _run_distributed(
            srv.url, workers=1, seed=SEED + 1
        )
    with _Server() as srv:

        def run():
            return _run_distributed(srv.url, workers=8, seed=SEED + 1)

        _, result8, jsonl8, wall8 = benchmark(run)
    assert jsonl8 == jsonl1, "worker count must be unobservable"
    assert result8.verdict == result1.verdict
    speedup = wall1 / wall8 if wall8 > 0 else 1.0
    if cores >= 8:
        assert speedup >= SCALING_FLOOR, (
            f"1->8 workers sped up only {speedup:.2f}x "
            f"(floor {SCALING_FLOOR}x on {cores} cores)"
        )
        verdict = f"{speedup:.2f}x (floor {SCALING_FLOOR}x)"
    else:
        # thread workers share the GIL and this machine has too few
        # cores for the wall-clock claim; parity above is the gate
        verdict = f"{speedup:.2f}x (not gated: {cores} core(s))"
    report(
        "DIST",
        f"scaling 1->8 workers: {wall1:.3f}s -> {wall8:.3f}s, {verdict}",
    )
