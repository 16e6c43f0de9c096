"""Distributed campaigns and censuses: determinism, leases, retries.

The load-bearing property is *unobservability*: for any worker count,
batch size, or arrival order — including workers that die mid-batch —
the merged verdict, the JSONL event log (modulo ``wall*`` keys), and
the census count are byte-identical to the single-process paths.
"""

import asyncio
import io
import json
import pickle
import socket
import threading
import urllib.error
import urllib.request
import zlib

import numpy as np
import pytest

from repro.campaigns import (
    Campaign,
    DistributedCampaign,
    distributed_census,
    get_scenario,
    worker_loop,
)
from repro.campaigns.distributed import (
    CAMPAIGN_QUEUE,
    CENSUS_QUEUE,
    JOB_HANDLERS,
    _shard_range,
    build_census_workload,
    census_shard_key,
    compute_census_shard,
    decode_batch,
    decode_shard_reach,
    encode_batch,
    encode_shard_reach,
)
from repro.core import explore_codes, kernels
from repro.core.kernels import (
    DEFAULT_MAX_CODES, census_start_codes, explore_code_shard,
)
from repro.store import MemoryStore, RemoteStore
from repro.store import backend as store_backend
from repro.store.backend import with_retries
from repro.store.jobs import MAX_ATTEMPTS, JobBoard, JobClient, JobQueue
from repro.store.serve import StoreServer


# -- harness -------------------------------------------------------------------

class ServerThread:
    """A StoreServer on an ephemeral port, driven by a thread-owned loop."""

    def __init__(self, store=None):
        self.store = store if store is not None else MemoryStore()
        self.server = StoreServer(self.store, port=0)
        self.loop = asyncio.new_event_loop()
        self._thread = None

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

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.port}"


def start_workers(url, count, **kwargs):
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=worker_loop, args=(url,),
            kwargs=dict(stop=stop, lease_s=30.0,
                        worker_id=f"w{i}", **kwargs),
            daemon=True,
        )
        for i in range(count)
    ]
    for t in threads:
        t.start()
    return stop, threads


def _flip_a_code_byte(blob):
    """``blob`` with one byte of its compressed code stream inverted."""
    packed = pickle.loads(blob)["blob"]
    at = blob.index(packed) + len(packed) // 2
    return blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]


def stripped_jsonl(buf):
    lines = []
    for line in buf.getvalue().splitlines():
        record = json.loads(line)
        record = {
            k: v for k, v in record.items() if not k.startswith("wall")
        }
        lines.append(json.dumps(record, sort_keys=True))
    return lines


SCENARIO = get_scenario("byzantine")
TRIALS, SEED = 6, 3


def run_direct():
    buf = io.StringIO()
    result = Campaign(SCENARIO, trials=TRIALS, seed=SEED, stream=buf).run()
    return result, stripped_jsonl(buf)


def run_distributed(url, **kwargs):
    buf = io.StringIO()
    campaign = DistributedCampaign(
        SCENARIO, trials=TRIALS, seed=SEED, stream=buf, base_url=url,
        deadline_s=120, **kwargs,
    )
    result = campaign.run()
    return campaign, result, stripped_jsonl(buf)


# -- job queue unit tests (injectable clock: no sleeping) ----------------------

class TestJobQueue:
    def setup_method(self):
        self.now = 0.0
        self.queue = JobQueue("q", clock=lambda: self.now)

    def test_lease_complete_round_trip(self):
        self.queue.submit({"n": 1}, "job-a", result_key="key-a")
        job = self.queue.lease("w1", lease_s=10)
        assert job.job_id == "job-a" and job.state == "leased"
        assert self.queue.lease("w2", lease_s=10) is None  # nothing pending
        assert self.queue.complete("job-a", "w1") == "done"
        assert self.queue.complete("job-a", "w1") == "already-done"
        counters = self.queue.counters()
        assert counters["done"] == 1 and counters["depth"] == 0
        assert counters["lease_misses"] == 1

    def test_idempotent_resubmit(self):
        self.queue.submit({"n": 1}, "job-a")
        self.queue.submit({"n": 1}, "job-a")
        counters = self.queue.counters()
        assert counters["submitted"] == 1 and counters["resubmitted"] == 1
        assert counters["depth"] == 1  # queued exactly once
        assert self.queue.lease("w1", 10).job_id == "job-a"
        assert self.queue.lease("w1", 10) is None

    def test_lease_expiry_requeues(self):
        self.queue.submit({"n": 1}, "job-a")
        job = self.queue.lease("w1", lease_s=5)
        assert job.leases == 1
        self.now = 4.9
        assert self.queue.lease("w2", lease_s=5) is None  # still leased
        self.now = 5.1
        job = self.queue.lease("w2", lease_s=5)  # reaped and re-issued
        assert job.job_id == "job-a" and job.worker == "w2"
        assert job.leases == 2
        assert self.queue.counters()["expired"] == 1

    def test_stale_worker_completion_wins(self):
        # the original worker outlives its lease but still finishes; the
        # result is content-addressed, so its completion counts
        self.queue.submit({"n": 1}, "job-a")
        self.queue.lease("w1", lease_s=5)
        self.now = 10.0
        self.queue.lease("w2", lease_s=5)  # re-issued to w2
        assert self.queue.complete("job-a", "w1") == "done"
        assert self.queue.complete("job-a", "w2") == "already-done"
        assert self.queue.counters()["done"] == 1

    def test_poison_job_parks_after_max_attempts(self):
        self.queue.submit({"n": 1}, "job-a")
        for attempt in range(MAX_ATTEMPTS):
            job = self.queue.lease("w1", lease_s=5)
            assert job is not None, f"attempt {attempt}"
            status = self.queue.fail("job-a", "w1", error="boom")
        assert status == "failed"
        assert self.queue.lease("w1", lease_s=5) is None
        assert self.queue.job("job-a").state == "failed"
        # an explicit resubmit gives a parked job a fresh chance
        self.queue.submit({"n": 1}, "job-a")
        assert self.queue.lease("w1", lease_s=5) is not None

    def test_board_status(self):
        board = JobBoard()
        board.submit("campaign", {"n": 1}, "job-a")
        board.lease("campaign", "w1", 10)
        status = board.status()
        assert status["campaign"]["leased"] == 1
        assert status["campaign"]["workers"] == 1


# -- retry policy (satellite: RemoteStore backoff) -----------------------------

class FlakyServer:
    """TCP stub that slams the door on the first ``failures`` connections,
    then answers every request with one canned HTTP 200."""

    def __init__(self, failures, body=b"artifact-bytes"):
        self.failures = failures
        self.body = body
        self.connections = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        self._sock.settimeout(0.1)
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            self.connections += 1
            if self.connections <= self.failures:
                # RST instead of FIN so the client sees a hard reset
                conn.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    b"\x01\x00\x00\x00\x00\x00\x00\x00",
                )
                conn.close()
                continue
            try:
                conn.recv(65536)
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: "
                    + str(len(self.body)).encode() + b"\r\n\r\n" + self.body
                )
            finally:
                conn.close()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()


class TestRetries:
    def test_with_retries_backs_off_exponentially(self):
        sleeps = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 4:
                raise OSError("transient")
            return "ok"

        class Rng:
            def uniform(self, lo, hi):
                return hi  # deterministic: always the full backoff

        assert with_retries(
            flaky, retries=3, backoff=0.1, sleep=sleeps.append, rng=Rng()
        ) == "ok"
        assert sleeps == [0.1, 0.2, 0.4]

    def test_with_retries_gives_up_and_raises(self):
        def always_down():
            raise ConnectionResetError("down")

        with pytest.raises(ConnectionResetError):
            with_retries(always_down, retries=2, sleep=lambda s: None)

    def test_http_errors_are_not_retried(self):
        calls = []

        def denied():
            calls.append(1)
            raise urllib.error.HTTPError("u", 500, "boom", {}, None)

        with pytest.raises(urllib.error.HTTPError):
            with_retries(denied, retries=3, sleep=lambda s: None)
        assert len(calls) == 1  # a definitive server answer: no retry

    def test_remote_store_rides_out_flaky_server(self):
        with FlakyServer(failures=2) as flaky:
            store = RemoteStore(
                f"http://127.0.0.1:{flaky.port}", timeout=5,
                retries=3, backoff=0.01,
            )
            assert store.get("cafe") == b"artifact-bytes"
            assert flaky.connections >= 3  # 2 resets + the success
            assert not store.dormant

    def test_remote_store_exhausted_retries_count_one_failure(self):
        with FlakyServer(failures=10**6) as flaky:
            store = RemoteStore(
                f"http://127.0.0.1:{flaky.port}", timeout=5,
                retries=2, backoff=0.01, max_failures=2,
            )
            assert store.get("cafe") is None
            assert store._failures == 1  # one failure per call, not per try
            assert store.get("cafe") is None
            assert store.dormant


# -- batch codec ---------------------------------------------------------------

class TestBatchCodec:
    def test_campaign_batch_round_trip(self):
        campaign = Campaign(SCENARIO, trials=3, seed=SEED, stream=None)
        items = [campaign._buffered_trial(t) for t in range(3)]
        blob = encode_batch(items)
        decoded = decode_batch(blob)
        assert len(decoded) == 3
        for (record, events), (record2, events2) in zip(items, decoded):
            assert record == record2
            assert events == events2

    def test_batch_schema_version_is_checked(self):
        import pickle
        import zlib

        blob = zlib.compress(pickle.dumps({"v": 999}))
        with pytest.raises(ValueError):
            decode_batch(blob)

    def test_shard_reach_round_trip(self):
        reach = compute_census_shard("token_ring", {"size": 4}, 1, 3)
        blob = encode_shard_reach(reach)
        reach2 = decode_shard_reach(blob)
        assert reach2.states == reach.states
        assert reach2.levels == reach.levels
        assert reach2.edges == reach.edges
        assert (reach2.codes == reach.codes).all()

    @pytest.mark.parametrize("damage, match", [
        (lambda p: p.update(v=999), "schema 999"),
        (lambda p: p.update(n=p["n"] + 1), "holds 4 codes, records 5"),
        (lambda p: p.update(blob=zlib.compress(
            np.array([3, 2, -1, 4], dtype=np.int64).tobytes())),
         "not strictly increasing"),
        (lambda p: p.update(blob=zlib.compress(
            np.array([-1, 1, 1, 1], dtype=np.int64).tobytes())),
         "not strictly increasing"),
        (lambda p: p.update(blob=zlib.compress(
            np.array([1, 2**62, 2**62, 1], dtype=np.int64).tobytes())),
         "not strictly increasing"),  # the running sum wraps
        (lambda p: p.update(blob=b"not zlib"), "does not decode"),
        (lambda p: p.pop("levels"), "does not decode"),
        (lambda p: p.update(levels="2"), "field levels is '2'"),
        (lambda p: p.update(edges=-4), "field edges is -4"),
    ])
    def test_shard_reach_rejects_malformed_blobs(self, damage, match):
        """A blob that does not decode raises ``ValueError`` (not an
        ``assert``, which ``python -O`` strips)."""
        reach = explore_codes(
            *build_census_workload("token_ring", {"size": 2, "k": 2}),
            collect_codes=True,
        )
        payload = pickle.loads(encode_shard_reach(reach))
        assert payload["n"] == 4
        damage(payload)
        with pytest.raises(ValueError, match=match):
            decode_shard_reach(pickle.dumps(payload))

    @pytest.mark.parametrize("n, k", [
        (0, 3), (2, 5), (5, 5), (10, 3), (7, 4), (100, 7),
    ])
    def test_all_shard_bounds_match_array_split(self, n, k):
        for shard, part in enumerate(np.array_split(np.arange(n), k)):
            bounds = _shard_range(n, k, shard)
            assert bounds.step == 1
            assert list(bounds) == part.tolist()

    def test_all_shards_are_never_arrays(self, monkeypatch):
        """An ``"all"`` shard is BFS'd from its range, never an array,
        and reaches what the ``numpy.array_split`` slice reaches."""
        program, starts, faults = build_census_workload(
            "token_ring", {"size": 4}
        )
        space = program.state_count()
        assert census_start_codes(program, starts)[1] == range(space)
        parts = []
        shard_bfs = kernels.explore_code_shard

        def recording(program, part, *args, **kwargs):
            parts.append(part)
            return shard_bfs(program, part, *args, **kwargs)

        monkeypatch.setattr(kernels, "explore_code_shard", recording)
        for shard, part in enumerate(np.array_split(np.arange(space), 3)):
            reach = compute_census_shard("token_ring", {"size": 4}, shard, 3)
            assert parts[-1] == range(part[0], part[-1] + 1)
            expected = shard_bfs(program, part, faults)
            assert reach.codes.tolist() == expected.codes.tolist()
            assert (reach.levels, reach.edges) == (
                expected.levels, expected.edges)


# -- distributed campaign parity -----------------------------------------------

class TestDistributedCampaign:
    def test_parity_one_and_four_workers(self):
        result0, jsonl0 = run_direct()
        with ServerThread() as srv:
            stop, threads = start_workers(srv.url, 1)
            try:
                campaign1, result1, jsonl1 = run_distributed(
                    srv.url, batch_size=2
                )
            finally:
                stop.set()
                for t in threads:
                    t.join(10)
            assert not campaign1.degraded
            assert jsonl1 == jsonl0
            assert result1.verdict == result0.verdict

        with ServerThread() as srv:
            stop, threads = start_workers(srv.url, 4)
            try:
                campaign4, result4, jsonl4 = run_distributed(
                    srv.url, batch_size=1
                )
            finally:
                stop.set()
                for t in threads:
                    t.join(10)
            assert not campaign4.degraded
            assert jsonl4 == jsonl0
            assert result4.verdict == result0.verdict

    def test_worker_killed_mid_batch_is_re_leased(self):
        result0, jsonl0 = run_direct()
        with ServerThread() as srv:
            # a doomed worker leases the first batch with a short lease
            # and dies without completing or failing it
            client = JobClient(srv.url)
            submitted = threading.Event()

            def doomed():
                assert submitted.wait(30)
                leased = None
                while leased is None:
                    leased = client.lease(
                        CAMPAIGN_QUEUE, "doomed", lease_s=0.3
                    )
                # die: never complete, never fail

            saboteur = threading.Thread(target=doomed, daemon=True)
            saboteur.start()

            board = srv.server.board

            def real_worker():
                # hold back until the saboteur has swallowed a lease, so
                # the test genuinely exercises expiry + re-issue
                while board.status().get(CAMPAIGN_QUEUE, {}).get(
                    "leases", 0
                ) == 0:
                    submitted.set()
                    threading.Event().wait(0.02)
                worker_loop(srv.url, once=False, lease_s=30.0,
                            stop=stop, worker_id="survivor")

            stop = threading.Event()
            worker = threading.Thread(target=real_worker, daemon=True)
            worker.start()
            try:
                campaign, result, jsonl = run_distributed(
                    srv.url, batch_size=2
                )
            finally:
                stop.set()
                saboteur.join(10)
                worker.join(10)
            assert jsonl == jsonl0
            assert result.verdict == result0.verdict
            counters = board.status()[CAMPAIGN_QUEUE]
            assert counters["expired"] >= 1  # the doomed lease was reaped

    def test_rerun_is_served_from_store(self):
        _, jsonl0 = run_direct()
        with ServerThread() as srv:
            stop, threads = start_workers(srv.url, 1)
            try:
                campaign1, _, _ = run_distributed(srv.url, batch_size=2)
                campaign2, _, jsonl2 = run_distributed(
                    srv.url, batch_size=2
                )
            finally:
                stop.set()
                for t in threads:
                    t.join(10)
            assert campaign1.batches_from_store == 0
            assert campaign2.batches_total == campaign2.batches_from_store
            assert campaign2.batches_total > 0
            assert jsonl2 == jsonl0

    def test_degrades_gracefully_without_server(self):
        result0, jsonl0 = run_direct()
        campaign, result, jsonl = run_distributed("http://127.0.0.1:1")
        assert campaign.degraded
        assert jsonl == jsonl0
        assert result.verdict == result0.verdict


# -- distributed census --------------------------------------------------------

class TestDistributedCensus:
    def expected(self):
        program, starts, faults = build_census_workload(
            "token_ring", {"size": 4}
        )
        return explore_codes(program, starts, faults)

    def test_in_process_shards_merge_exactly(self):
        full = self.expected()
        for shards in (1, 3, 7):
            reach, stats = distributed_census(
                "token_ring", {"size": 4}, shards=shards,
                store=MemoryStore(),
            )
            assert reach.states == full.states, f"shards={shards}"
            assert stats["degraded"] and stats["computed"] == shards

    def test_distributed_parity_and_warm_rerun(self):
        full = self.expected()
        with ServerThread() as srv:
            stop, threads = start_workers(srv.url, 2)
            try:
                reach, stats = distributed_census(
                    "token_ring", {"size": 4}, shards=4,
                    base_url=srv.url, deadline_s=120,
                )
                # a killed worker's shard re-run lands here as a store
                # hit: every completed shard artifact is already present
                reach2, stats2 = distributed_census(
                    "token_ring", {"size": 4}, shards=4,
                    base_url=srv.url, deadline_s=120,
                )
            finally:
                stop.set()
                for t in threads:
                    t.join(10)
        assert reach.states == full.states
        assert not stats["degraded"]
        assert reach2.states == full.states
        assert stats2["from_store"] >= stats2["shards"] // 2
        assert stats2["from_store"] == 4  # in fact all of them

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[: len(blob) // 2],
        lambda blob: _flip_a_code_byte(blob),
    ], ids=["truncated", "byte_flipped"])
    def test_undecodable_shard_is_recomputed(self, damage):
        """A stored shard that does not decode is a miss: the census
        recomputes it exactly and puts it again, so the next run is
        served from the store."""
        full = self.expected()
        store = MemoryStore()
        key = census_shard_key(
            "token_ring", {"size": 4}, 0, 1, DEFAULT_MAX_CODES
        )
        distributed_census("token_ring", {"size": 4}, shards=1, store=store)
        store.put(key, damage(store.get(key)))
        with pytest.raises(ValueError, match="does not (unpickle|decode)"):
            decode_shard_reach(store.get(key))
        rejected = store_backend.stats().get("census-shard-undecodable", 0)
        reach, stats = distributed_census(
            "token_ring", {"size": 4}, shards=1, store=store
        )
        assert reach.states == full.states
        assert (stats["computed"], stats["from_store"]) == (1, 0)
        assert store_backend.stats()["census-shard-undecodable"] \
            == rejected + 1
        reach, stats = distributed_census(
            "token_ring", {"size": 4}, shards=1, store=store
        )
        assert reach.states == full.states
        assert (stats["computed"], stats["from_store"]) == (0, 1)

    def test_undecodable_stored_shard_is_recomputed_with_workers(self):
        """With a job queue, a stored shard that does not decode is
        recomputed by the scheduler: its job is done, and the board
        never hands a done job to a worker again."""
        full = self.expected()
        store = MemoryStore()
        key = census_shard_key(
            "token_ring", {"size": 4}, 0, 2, DEFAULT_MAX_CODES
        )
        with ServerThread(store) as srv:
            stop, threads = start_workers(srv.url, 1)
            try:
                _, stats = distributed_census(
                    "token_ring", {"size": 4}, shards=2,
                    base_url=srv.url, deadline_s=120,
                )
                assert stats["computed"] == 2
                store.put(key, _flip_a_code_byte(store.get(key)))
                reach, stats = distributed_census(
                    "token_ring", {"size": 4}, shards=2,
                    base_url=srv.url, deadline_s=120,
                )
                reach2, stats2 = distributed_census(
                    "token_ring", {"size": 4}, shards=2,
                    base_url=srv.url, deadline_s=120,
                )
                queue = srv.server.board.status()[CENSUS_QUEUE]
            finally:
                stop.set()
                for t in threads:
                    t.join(10)
        assert (queue["submitted"], queue["resubmitted"]) == (2, 0)
        assert reach.states == reach2.states == full.states
        assert (stats["computed"], stats["from_store"]) == (1, 1)
        assert (stats2["computed"], stats2["from_store"]) == (0, 2)

    def test_undecodable_worker_artifact_is_recomputed(self, monkeypatch):
        """A shard artifact a worker puts that does not decode is
        recomputed by the scheduler when it arrives."""
        full = self.expected()

        def damaging(payload, store):
            store.put(payload["result_key"], b"\x80\x04not a shard")
            return payload["result_key"]

        monkeypatch.setitem(JOB_HANDLERS, "census_shard", damaging)
        rejected = store_backend.stats().get("census-shard-undecodable", 0)
        with ServerThread() as srv:
            stop, threads = start_workers(srv.url, 1)
            try:
                reach, stats = distributed_census(
                    "token_ring", {"size": 4}, shards=2,
                    base_url=srv.url, deadline_s=120,
                )
            finally:
                stop.set()
                for t in threads:
                    t.join(10)
        assert reach.states == full.states
        assert (stats["computed"], stats["from_store"]) == (2, 0)
        assert store_backend.stats()["census-shard-undecodable"] \
            == rejected + 2

    def test_worker_replay_check_recomputes_an_undecodable_shard(self):
        store = MemoryStore()
        key = census_shard_key(
            "token_ring", {"size": 4}, 1, 2, DEFAULT_MAX_CODES
        )
        store.put(key, b"\x80\x04not a shard")
        payload = {
            "workload": "token_ring", "params": {"size": 4}, "shard": 1,
            "shards": 2, "max_states": DEFAULT_MAX_CODES, "result_key": key,
        }
        assert JOB_HANDLERS["census_shard"](payload, store) == key
        reach = decode_shard_reach(store.get(key))
        expected = compute_census_shard("token_ring", {"size": 4}, 1, 2)
        assert reach.codes.tolist() == expected.codes.tolist()

    def test_unknown_workload_is_rejected(self):
        with pytest.raises(KeyError):
            build_census_workload("nope", {})


# -- server observability ------------------------------------------------------

class TestObservability:
    def test_healthz_and_queue_stats(self):
        with ServerThread() as srv:
            with urllib.request.urlopen(
                f"{srv.url}/healthz", timeout=5
            ) as response:
                health = json.loads(response.read())
            assert health["status"] == "ok"

            client = JobClient(srv.url)
            client.submit("campaign", {"kind": "noop"}, "job-a")
            client.lease("campaign", "w1", lease_s=30)
            with urllib.request.urlopen(
                f"{srv.url}/stats", timeout=5
            ) as response:
                stats = json.loads(response.read())
            queues = stats["queues"]
            assert queues["campaign"]["leased"] == 1
            assert queues["campaign"]["depth"] == 0
            line = srv.server.stats_line()
            assert "campaign:" in line and "leased 1" in line
