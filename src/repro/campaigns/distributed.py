"""Distributed campaigns and censuses over the ``repro serve`` job queue.

The single-process :class:`~repro.campaigns.runner.Campaign` already
fans trials out over a local process pool.  This module takes the same
unit of work — a *trial batch*, a contiguous range ``[lo, hi)`` of
trial indices — and leases it to pull-based ``repro worker`` processes
through the job board of :mod:`repro.store.jobs`, with the result
artifacts flowing back through the content-addressed store itself:

- the **scheduler** (:class:`DistributedCampaign`) plans batches,
  checks the store first (a batch whose result artifact already exists
  is a *cache hit* — no job is submitted, no trial re-runs), submits
  the rest as jobs whose id *is* the batch's content key, and polls the
  store for arriving artifacts;
- **workers** (:func:`worker_loop`) lease jobs, rebuild the campaign
  from the scenario registry, run ``_buffered_trial`` per index, and
  ``PUT`` the packed batch encoding at the result key.  A worker that
  dies mid-batch simply lets its lease expire and the batch is
  re-leased — because every per-trial seed is a pure function of
  ``(master seed, trial index)``, *who* runs a batch (or how many
  times) is unobservable in the result;
- the scheduler decodes every batch and replays the buffered trial
  events **in trial order**, exactly as the process-pool path does, so
  verdicts, summaries and JSONL logs are identical to a single-process
  run for any worker count, batch size, or completion order (modulo
  wall-clock fields, the repo-wide determinism contract).

Batch sizing is adaptive: the first wave runs single-trial calibration
batches, then batches grow to target ``target_lease_s`` seconds of
work each from the per-trial wall times observed in completed batches
— long enough to amortize lease round-trips, short enough that a lost
worker costs one lease timeout, not the campaign.

:func:`distributed_census` applies the same scheme to
:func:`~repro.core.kernels.explore_codes` censuses: the sorted start
codes are split into ``shards`` slices, each shard BFS runs on a worker
(:func:`~repro.core.kernels.explore_code_shard`) and publishes its
reachable-code *set* (delta + zlib packed) at a content key, and the
scheduler unions the sets — shard reach sets overlap, so only the
union (never the sum) reproduces the exact census count.

With no server configured (or an unreachable one), both schedulers
degrade gracefully to the in-process paths — same results, no queue.
"""

from __future__ import annotations

import pickle
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..store import backend as store_backend
from ..store.backend import BaseStore, RemoteStore, record_event
from ..store.jobs import JobClient, default_worker_id
from ..store.keys import callable_material, digest, value_material
from .classify import TrialMetrics, campaign_verdict
from .report import summarize
from .runner import Campaign, CampaignResult, Scenario, TrialRecord

__all__ = [
    "BATCH_SCHEMA",
    "encode_batch",
    "decode_batch",
    "batch_key",
    "DistributedCampaign",
    "CENSUS_WORKLOADS",
    "build_census_workload",
    "census_shard_key",
    "encode_shard_reach",
    "decode_shard_reach",
    "compute_census_shard",
    "distributed_census",
    "worker_loop",
    "JOB_HANDLERS",
]

#: version stamp inside every packed batch/shard artifact; bump on any
#: layout change so stale artifacts decode-fail instead of lying
BATCH_SCHEMA = 1

#: queue names shared by schedulers and workers
CAMPAIGN_QUEUE = "campaign"
CENSUS_QUEUE = "census"

_RECORD_FIELDS = ("trial", "network_seed", "schedule_seed", "sim_time", "error")
_METRIC_FIELDS = (
    "outcome", "safety_ok", "converged", "detection_latency",
    "convergence_time", "availability", "faults_injected",
)


# -- packed columnar batch-result encoding -------------------------------------

def encode_batch(items: List[Tuple[TrialRecord, List[Dict[str, Any]]]]) -> bytes:
    """Pack ``[(TrialRecord, buffered events), ...]`` columnar: record
    and metric fields become parallel lists, and event dicts become
    ``(keyset id, value tuple)`` rows against a table of interned
    sorted-key tuples — the repeated keys of thousands of ``transition``
    events are stored once, and zlib squeezes the rest."""
    records = {
        field: [getattr(record, field) for record, _ in items]
        for field in _RECORD_FIELDS
    }
    metrics = {
        field: [getattr(record.metrics, field) for record, _ in items]
        for field in _METRIC_FIELDS
    }
    keysets: List[Tuple[str, ...]] = []
    ids: Dict[Tuple[str, ...], int] = {}
    events = []
    for _, trial_events in items:
        rows = []
        for event in trial_events:
            names = tuple(sorted(event))
            ksid = ids.get(names)
            if ksid is None:
                ksid = ids[names] = len(keysets)
                keysets.append(names)
            rows.append((ksid, tuple(event[name] for name in names)))
        events.append(rows)
    payload = {
        "v": BATCH_SCHEMA,
        "records": records,
        "metrics": metrics,
        "keysets": keysets,
        "events": events,
    }
    return zlib.compress(pickle.dumps(payload, protocol=4), 6)


def decode_batch(blob: bytes) -> List[Tuple[TrialRecord, List[Dict[str, Any]]]]:
    """The ``[(TrialRecord, buffered events), ...]`` a batch artifact
    packs.  Raises ``ValueError`` for a blob that does not decode to
    one: bytes that do not decompress or unpickle, another schema, or
    fields that do not build the records."""
    try:
        payload = pickle.loads(zlib.decompress(blob))
    except Exception as exc:  # truncated or flipped blobs raise anything
        raise ValueError(f"batch artifact does not decode: {exc!r}") from exc
    version = payload.get("v") if isinstance(payload, dict) else None
    if version != BATCH_SCHEMA:
        raise ValueError(
            f"batch artifact schema {version!r} != {BATCH_SCHEMA}"
        )
    try:
        records, metrics = payload["records"], payload["metrics"]
        keysets, events = payload["keysets"], payload["events"]
        items = []
        for i in range(len(records["trial"])):
            record = TrialRecord(
                metrics=TrialMetrics(
                    **{field: metrics[field][i] for field in _METRIC_FIELDS}
                ),
                **{field: records[field][i] for field in _RECORD_FIELDS},
            )
            trial_events = [
                dict(zip(keysets[ksid], values)) for ksid, values in events[i]
            ]
            items.append((record, trial_events))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"batch artifact does not decode: {exc!r}") from exc
    return items


def _decoded_batch(blob: Optional[bytes]):
    """The batch ``blob`` packs, or ``None`` for no blob or one that
    does not decode — a miss either way, so the batch is run again and
    its artifact put again."""
    if blob is None:
        return None
    try:
        return decode_batch(blob)
    except ValueError:
        record_event("campaign-batch-undecodable")
        return None


def batch_key(scenario: Scenario, spec, horizon: float, seed: int,
              trial_timeout: Optional[float], lo: int, hi: int) -> str:
    """Content key of one trial batch: scenario *content* (name, build
    callable, resolved schedule spec, horizon, sample period), campaign
    seed/timeout, and the trial range.  Identical inputs — on any
    machine — produce identical keys, which is what makes a re-run
    batch a store hit and a duplicate submission a queue no-op."""
    material = (
        "campaign_batch", BATCH_SCHEMA, scenario.name,
        callable_material(scenario.build), value_material(spec),
        horizon, scenario.sample_period, seed, trial_timeout, lo, hi,
    )
    return digest("campaign_batch", material)


# -- the distributed campaign scheduler ----------------------------------------

class DistributedCampaign:
    """Run a campaign through the ``repro serve`` job queue.

    Construction mirrors :class:`Campaign` (same options, same
    determinism) plus the queue knobs: ``base_url`` of the server,
    ``batch_size`` to pin batch sizes (default: adaptive toward
    ``target_lease_s`` seconds per batch), ``max_outstanding`` jobs in
    flight, and ``deadline_s`` as a scheduling safety valve.

    With no ``base_url``, an unreachable server, or a scenario that is
    not in the registry (workers rebuild scenarios by name), ``run()``
    degrades to the in-process :class:`Campaign` — identical results,
    ``self.degraded`` set for observability.
    """

    def __init__(
        self,
        scenario: Scenario,
        trials: int = 20,
        seed: int = 0,
        budget: Optional[int] = None,
        horizon: Optional[float] = None,
        trial_timeout: Optional[float] = None,
        stream=None,
        base_url: Optional[str] = None,
        batch_size: Optional[int] = None,
        target_lease_s: float = 5.0,
        max_outstanding: int = 8,
        poll_interval: float = 0.05,
        deadline_s: Optional[float] = None,
        fallback_workers: int = 1,
    ):
        self.campaign = Campaign(
            scenario, trials=trials, seed=seed, budget=budget,
            horizon=horizon, trial_timeout=trial_timeout, stream=stream,
            workers=fallback_workers,
        )
        self.base_url = base_url
        self.batch_size = batch_size
        self.target_lease_s = target_lease_s
        self.max_outstanding = max(1, int(max_outstanding))
        self.poll_interval = poll_interval
        self.deadline_s = deadline_s
        self.degraded = False
        self.batches_total = 0
        self.batches_from_store = 0
        self._wall_ms_sum = 0.0
        self._wall_ms_trials = 0
        self.client: Optional[JobClient] = None
        self.store: Optional[RemoteStore] = None

    # -- availability ----------------------------------------------------------
    def _registered(self) -> bool:
        from .scenarios import SCENARIOS

        return SCENARIOS.get(self.campaign.scenario.name) \
            is self.campaign.scenario

    def _available(self) -> bool:
        if self.base_url is None or not self._registered():
            return False
        return JobClient(self.base_url).healthz() is not None

    # -- driving ---------------------------------------------------------------
    def run(self) -> CampaignResult:
        c = self.campaign
        if not self._available():
            self.degraded = True
            return c.run()
        self.client = JobClient(self.base_url)
        self.store = RemoteStore(self.base_url)
        c.log.emit(
            "campaign_start",
            scenario=c.scenario.name,
            description=c.scenario.description,
            trials=c.trials,
            seed=c.seed,
            horizon=c.horizon,
            budget=c.spec.budget,
            fault_kinds=list(c.spec.kinds()),
        )
        records = self._run_batches()
        verdict = campaign_verdict([r.outcome for r in records])
        summary = summarize(
            c.scenario.name, verdict, [r.metrics for r in records]
        )
        c.log.emit("campaign_end", summary=summary)
        c.log.close()
        return CampaignResult(
            scenario=c.scenario.name, trials=records, summary=summary
        )

    def _batch_payload(self, lo: int, hi: int, key: str) -> Dict[str, Any]:
        c = self.campaign
        return {
            "kind": "campaign_batch",
            "scenario": c.scenario.name,
            "options": {
                "trials": c.trials,
                "seed": c.seed,
                "budget": c.spec.budget,
                "horizon": c.horizon,
                "trial_timeout": c.trial_timeout,
            },
            "lo": lo,
            "hi": hi,
            "result_key": key,
        }

    def _key(self, lo: int, hi: int) -> str:
        c = self.campaign
        return batch_key(
            c.scenario, c.spec, c.horizon, c.seed, c.trial_timeout, lo, hi
        )

    def _plan_size(self, remaining: int) -> int:
        if self.batch_size is not None:
            return max(1, min(int(self.batch_size), remaining))
        if not self._wall_ms_trials:
            # calibration wave: single-trial batches surface a per-trial
            # wall estimate as fast as the slowest worker round-trip
            return 1
        per_ms = max(self._wall_ms_sum / self._wall_ms_trials, 0.01)
        size = int(self.target_lease_s * 1000.0 / per_ms)
        return max(1, min(size, remaining))

    def _run_here(self, lo: int, hi: int, key: str):
        """Run batch ``[lo, hi)`` in this process and put its artifact
        again.  The board keeps a done job done, so no worker would
        replace an artifact that does not decode."""
        items = [
            self.campaign._buffered_trial(trial) for trial in range(lo, hi)
        ]
        self.store.put(key, encode_batch(items), "campaign_batch")
        return items

    def _observe(self, items) -> None:
        for _, events in items:
            for event in events:
                if event.get("event") == "trial_end":
                    wall = event.get("wall_ms")
                    if wall is not None:
                        self._wall_ms_sum += float(wall)
                        self._wall_ms_trials += 1

    def _run_batches(self) -> List[TrialRecord]:
        c = self.campaign
        results: Dict[int, list] = {}
        pending: Dict[str, Tuple[int, int]] = {}
        next_trial = 0
        started = time.monotonic()
        status_tick = 0
        # adaptive poll: start fine-grained so sub-tick batches are
        # noticed immediately, back off toward ``poll_interval`` while
        # nothing completes (long batches should not be busy-polled)
        nap = min(0.002, self.poll_interval)
        while next_trial < c.trials or pending:
            while next_trial < c.trials and len(pending) < self.max_outstanding:
                lo = next_trial
                hi = min(c.trials, lo + self._plan_size(c.trials - lo))
                next_trial = hi
                key = self._key(lo, hi)
                self.batches_total += 1
                record_event("campaign-batches")
                blob = self.store.get(key)
                items = _decoded_batch(blob)
                if items is not None:
                    self.batches_from_store += 1
                    record_event("campaign-batch-hits")
                elif blob is not None:
                    items = self._run_here(lo, hi, key)
                else:
                    self.client.submit(
                        CAMPAIGN_QUEUE, self._batch_payload(lo, hi, key),
                        job_id=key, result_key=key,
                    )
                    pending[key] = (lo, hi)
                    continue
                self._observe(items)
                results[lo] = items
            if not pending:
                continue
            progressed = False
            status_tick += 1
            for key, (lo, hi) in list(pending.items()):
                blob = self.store.get(key)
                if blob is not None:
                    items = _decoded_batch(blob)
                    if items is None:
                        # a worker put an artifact that does not decode
                        items = self._run_here(lo, hi, key)
                    self._observe(items)
                    results[lo] = items
                    del pending[key]
                    progressed = True
                    # settle the queue even if the worker died after its
                    # PUT — completion is idempotent from any side
                    self.client.complete(
                        CAMPAIGN_QUEUE, key, "scheduler", result_key=key
                    )
                    continue
                if status_tick % 20 == 0:
                    job = self.client.job(CAMPAIGN_QUEUE, key)
                    if job is not None and job["state"] == "failed":
                        raise RuntimeError(
                            f"trial batch [{lo}, {hi}) failed permanently: "
                            f"{job['error']}"
                        )
            if progressed:
                nap = min(0.002, self.poll_interval)
            elif pending:
                if (
                    self.deadline_s is not None
                    and time.monotonic() - started > self.deadline_s
                ):
                    raise TimeoutError(
                        f"distributed campaign exceeded deadline of "
                        f"{self.deadline_s}s with {len(pending)} batches "
                        f"outstanding (are workers running?)"
                    )
                time.sleep(nap)
                nap = min(nap * 2.0, self.poll_interval)
        records: List[TrialRecord] = []
        for lo in sorted(results):
            for record, events in results[lo]:
                records.append(record)
                c._replay(events)
        return records


# -- distributed censuses ------------------------------------------------------

def _census_token_ring(size: int = 4, k: Optional[int] = None):
    from ..programs import token_ring

    model = token_ring.build(size, k)
    return model.ring, "all", ()


def _census_byzantine(k: int = 3):
    from ..programs import byzantine

    ngs = tuple(range(1, k + 1))
    model = byzantine.build_family(ngs)
    return model.ib, byzantine.initial_states(ngs), ()


#: census workloads workers can rebuild by name: ``name -> builder``
#: returning ``(program, start_states, fault_actions)``
CENSUS_WORKLOADS: Dict[str, Callable] = {
    "token_ring": _census_token_ring,
    "byzantine": _census_byzantine,
}


def build_census_workload(workload: str, params: Optional[Dict[str, Any]]):
    builder = CENSUS_WORKLOADS.get(workload)
    if builder is None:
        raise KeyError(
            f"unknown census workload {workload!r} "
            f"(have: {', '.join(sorted(CENSUS_WORKLOADS))})"
        )
    return builder(**(params or {}))


def census_shard_key(workload: str, params: Optional[Dict[str, Any]],
                     shard: int, shards: int, max_states: int) -> str:
    material = (
        "census_shard", BATCH_SCHEMA, workload,
        value_material(params or {}), shard, shards, max_states,
    )
    return digest("census_shard", material)


def encode_shard_reach(reach) -> bytes:
    """Pack a shard's reachable-code set: sorted int64 codes are
    delta-encoded (small, repetitive gaps) and zlib-compressed."""
    import numpy as np

    codes = np.asarray(reach.codes, dtype=np.int64)
    deltas = np.diff(codes, prepend=np.int64(0))
    payload = {
        "v": BATCH_SCHEMA,
        "levels": reach.levels,
        "edges": reach.edges,
        "n": int(codes.shape[0]),
        "blob": zlib.compress(deltas.tobytes(), 6),
    }
    return pickle.dumps(payload, protocol=4)


def decode_shard_reach(blob: bytes):
    """The :class:`~repro.core.kernels.CodeReach` a shard artifact
    packs.  Raises ``ValueError`` for a blob that does not decode to
    one: bytes that do not unpickle or decompress, another schema, a
    missing field, a count, level or edge field that is not a
    non-negative int, a code count other than the recorded one, or
    codes that are not strictly increasing from 0 up."""
    import numpy as np

    from ..core.kernels import CodeReach

    try:
        payload = pickle.loads(blob)
    except Exception as exc:  # truncated or flipped pickles raise anything
        raise ValueError(f"shard artifact does not unpickle: {exc!r}") from exc
    version = payload.get("v") if isinstance(payload, dict) else None
    if version != BATCH_SCHEMA:
        raise ValueError(
            f"shard artifact schema {version!r} != {BATCH_SCHEMA}"
        )
    try:
        n, levels, edges = payload["n"], payload["levels"], payload["edges"]
        deltas = np.frombuffer(
            zlib.decompress(payload["blob"]), dtype=np.int64
        )
    except (KeyError, TypeError, ValueError, zlib.error) as exc:
        raise ValueError(f"shard artifact does not decode: {exc!r}") from exc
    for name, value in (("n", n), ("levels", levels), ("edges", edges)):
        if type(value) is not int or value < 0:
            raise ValueError(
                f"shard artifact field {name} is {value!r}, "
                "not a non-negative int"
            )
    if deltas.shape[0] != n:
        raise ValueError(
            f"shard artifact holds {deltas.shape[0]} codes, records {n!r}"
        )
    codes = np.cumsum(deltas)
    # compared, not differenced: a wrapped cumulative sum shows as a drop
    if codes.size and (codes[0] < 0 or not (codes[1:] > codes[:-1]).all()):
        raise ValueError("shard artifact codes are not strictly increasing")
    return CodeReach(int(codes.shape[0]), levels, edges, codes)


def _decoded_reach(blob: Optional[bytes]):
    """The shard reach ``blob`` packs, or ``None`` for no blob or one
    that does not decode — a miss either way, so the shard is recomputed
    and its artifact put again."""
    if blob is None:
        return None
    try:
        return decode_shard_reach(blob)
    except ValueError:
        record_event("census-shard-undecodable")
        return None


def _shard_range(n: int, shards: int, shard: int) -> range:
    """Shard ``shard``'s slice of ``0..n-1`` as ``numpy.array_split``
    cuts it into ``shards`` parts: the first ``n % shards`` parts hold
    one more element."""
    size, extra = divmod(n, shards)
    lo = shard * size + min(shard, extra)
    return range(lo, lo + size + (shard < extra))


def compute_census_shard(workload: str, params: Optional[Dict[str, Any]],
                         shard: int, shards: int,
                         max_states: Optional[int] = None):
    """Build the workload and BFS one shard of its start codes — the
    worker half of a distributed census.  Shards cut the sorted start
    codes where ``numpy.array_split`` would, at bounds computed from
    their count (:func:`_shard_range`), so scheduler and worker agree on
    slice boundaries without shipping arrays, and an ``"all"`` start
    set's shard stays a range."""
    from ..core.kernels import census_start_codes, explore_code_shard

    program, starts, faults = build_census_workload(workload, params)
    _, codes = census_start_codes(program, starts)
    bounds = _shard_range(len(codes), shards, shard)
    part = codes[bounds.start:bounds.stop]
    if max_states is None:
        return explore_code_shard(program, part, faults)
    return explore_code_shard(program, part, faults, max_states=max_states)


def distributed_census(
    workload: str,
    params: Optional[Dict[str, Any]] = None,
    shards: int = 4,
    base_url: Optional[str] = None,
    max_states: Optional[int] = None,
    poll_interval: float = 0.05,
    deadline_s: Optional[float] = None,
    store: Optional[BaseStore] = None,
):
    """Exact census of a named workload, sharded over the job queue.

    Returns ``(CodeReach, stats)`` where ``stats`` counts shards served
    from the store vs computed.  Every shard result is content-keyed,
    so a re-run census (after a crash, a killed worker, or on another
    machine sharing the store) is answered from hits — the merged state
    count is byte-identical either way because the merge is a set union
    over the shard reach sets.

    With no ``base_url`` the shards compute in-process against
    ``store`` (default: the active store) — same artifacts, same union,
    no queue.  With no store either, the shards are computed and merged
    and nothing is encoded.
    """
    from ..core.kernels import DEFAULT_MAX_CODES, merge_code_reaches

    if max_states is None:
        max_states = DEFAULT_MAX_CODES
    shards = max(1, int(shards))
    client: Optional[JobClient] = None
    if base_url is not None:
        client = JobClient(base_url)
        if client.healthz() is None:
            client = None
    if client is not None:
        shard_store: Optional[BaseStore] = RemoteStore(base_url)
    elif store is not None:
        shard_store = store
    else:
        shard_store = store_backend.active_store()

    keys = [
        census_shard_key(workload, params, shard, shards, max_states)
        for shard in range(shards)
    ]
    reaches: Dict[int, Any] = {}
    stats = {"shards": shards, "from_store": 0, "computed": 0,
             "degraded": client is None}
    pending: Dict[str, int] = {}

    def compute_here(shard: int, key: str) -> None:
        reach = compute_census_shard(
            workload, params, shard, shards, max_states
        )
        if shard_store is not None:
            shard_store.put(key, encode_shard_reach(reach), "census_shard")
        reaches[shard] = reach
        stats["computed"] += 1

    for shard, key in enumerate(keys):
        record_event("census-shards")
        blob = None if shard_store is None else shard_store.get(key)
        reach = _decoded_reach(blob)
        if reach is not None:
            reaches[shard] = reach
            stats["from_store"] += 1
            record_event("census-shard-hits")
            continue
        if client is None or blob is not None:
            # the board keeps a done job done, so no worker would
            # replace an undecodable artifact: recompute it here
            compute_here(shard, key)
            continue
        client.submit(
            CENSUS_QUEUE,
            {
                "kind": "census_shard",
                "workload": workload,
                "params": params or {},
                "shard": shard,
                "shards": shards,
                "max_states": max_states,
                "result_key": key,
            },
            job_id=key,
            result_key=key,
        )
        pending[key] = shard

    started = time.monotonic()
    status_tick = 0
    nap = min(0.002, poll_interval)
    while pending:
        progressed = False
        status_tick += 1
        for key, shard in list(pending.items()):
            blob = shard_store.get(key)
            if blob is not None:
                reach = _decoded_reach(blob)
                if reach is None:
                    compute_here(shard, key)
                else:
                    reaches[shard] = reach
                    stats["computed"] += 1
                del pending[key]
                progressed = True
                client.complete(CENSUS_QUEUE, key, "scheduler",
                                result_key=key)
                continue
            if status_tick % 20 == 0:
                job = client.job(CENSUS_QUEUE, key)
                if job is not None and job["state"] == "failed":
                    raise RuntimeError(
                        f"census shard {shard}/{shards} failed permanently: "
                        f"{job['error']}"
                    )
        if progressed:
            nap = min(0.002, poll_interval)
        elif pending:
            if (
                deadline_s is not None
                and time.monotonic() - started > deadline_s
            ):
                raise TimeoutError(
                    f"distributed census exceeded deadline of {deadline_s}s "
                    f"with {len(pending)} shards outstanding"
                )
            time.sleep(nap)
            nap = min(nap * 2.0, poll_interval)

    merged = merge_code_reaches(reaches[shard] for shard in range(shards))
    return merged, stats


# -- the worker loop -----------------------------------------------------------

def _handle_campaign_batch(payload: Dict[str, Any],
                           store: BaseStore) -> str:
    from .scenarios import get_scenario

    result_key = payload["result_key"]
    if _decoded_batch(store.get(result_key)) is not None:
        # idempotent re-run (a re-leased batch another worker finished):
        # the content-addressed artifact already exists, nothing to do
        record_event("batch-replays")
        return result_key
    options = payload["options"]
    campaign = Campaign(
        get_scenario(payload["scenario"]),
        trials=options["trials"],
        seed=options["seed"],
        budget=options.get("budget"),
        horizon=options.get("horizon"),
        trial_timeout=options.get("trial_timeout"),
        stream=None,
        workers=1,
    )
    items = [
        campaign._buffered_trial(trial)
        for trial in range(payload["lo"], payload["hi"])
    ]
    store.put(result_key, encode_batch(items), "campaign_batch")
    return result_key


def _handle_census_shard(payload: Dict[str, Any], store: BaseStore) -> str:
    result_key = payload["result_key"]
    if _decoded_reach(store.get(result_key)) is not None:
        record_event("batch-replays")
        return result_key
    reach = compute_census_shard(
        payload["workload"], payload.get("params") or {},
        payload["shard"], payload["shards"], payload["max_states"],
    )
    store.put(result_key, encode_shard_reach(reach), "census_shard")
    return result_key


JOB_HANDLERS: Dict[str, Callable[[Dict[str, Any], BaseStore], str]] = {
    "campaign_batch": _handle_campaign_batch,
    "census_shard": _handle_census_shard,
}


def worker_loop(
    base_url: str,
    queues: Tuple[str, ...] = (CAMPAIGN_QUEUE, CENSUS_QUEUE),
    worker_id: Optional[str] = None,
    once: bool = False,
    lease_s: float = 60.0,
    poll_floor: float = 0.05,
    poll_cap: float = 2.0,
    announce: Optional[Callable[[str], None]] = None,
    stop=None,
) -> int:
    """Pull-and-run loop of ``repro worker``: lease jobs round-robin
    across ``queues``, dispatch on the payload ``kind``, publish the
    result artifact, complete the lease.  Idle leases long-poll: the
    server parks each request for up to ``poll_cap`` seconds (split
    across the queues), so a fresh job is picked up within tens of
    milliseconds while an idle fleet holds one open request each
    instead of hammering the queue.  Between empty sweeps the loop
    additionally sleeps a full-jitter interval up to ``poll_floor``
    so reconnecting workers never synchronize into a stampede;
    transport errors retry with exponential backoff + jitter inside
    :class:`~repro.store.jobs.JobClient`.

    ``once=True`` returns at the first fully-empty sweep (CI drains);
    ``stop`` (a ``threading.Event``) ends the loop cooperatively.
    Returns the number of jobs completed.  A job whose handler raises
    is reported via ``fail`` — the queue re-leases it elsewhere until
    the attempt cap parks it as failed.
    """
    import random

    client = JobClient(base_url)
    store = RemoteStore(base_url)
    worker = worker_id or default_worker_id()
    handled = 0
    wait_s = 0.0 if once else poll_cap / max(1, len(queues))
    while stop is None or not stop.is_set():
        leased = None
        queue = None
        for queue in queues:
            leased = client.lease(queue, worker, lease_s, wait_s=wait_s)
            if leased is not None:
                break
        if leased is None:
            if once:
                break
            time.sleep(random.uniform(0.0, poll_floor))
            continue
        payload = leased.get("payload") or {}
        handler = JOB_HANDLERS.get(payload.get("kind"))
        try:
            if handler is None:
                raise ValueError(f"unknown job kind {payload.get('kind')!r}")
            result_key = handler(payload, store)
            client.complete(queue, leased["id"], worker, result_key)
            handled += 1
            if announce is not None:
                announce(
                    f"[{worker}] {queue} job {leased['id'][:12]} done "
                    f"({payload.get('kind')})"
                )
        except Exception as exc:
            client.fail(
                queue, leased["id"], worker, f"{type(exc).__name__}: {exc}"
            )
            if announce is not None:
                announce(
                    f"[{worker}] {queue} job {leased['id'][:12]} failed: "
                    f"{type(exc).__name__}: {exc}"
                )
    return handled
