"""The online monitoring runtime: incremental syndromes, frame-aware
re-evaluation, latency measurement, asyncio sources."""

import asyncio
import io
import json
import socket

import pytest

from repro.core.predicate import Predicate, var_eq
from repro.core.state import Variable
from repro.monitoring import (
    BankDetector,
    DetectorBank,
    MonitorRuntime,
    SyndromeDecoder,
    TelemetrySink,
    aiter_events,
    attach_monitors,
    campaign_bank,
    format_monitor_summary,
    jsonl_source,
    latency_histogram,
    normalize_event,
    open_socket_source,
    socket_source,
)


def toy_bank(counters=None):
    """Three detectors over (x, y); optionally count predicate calls."""

    def counting(name, fn):
        def wrapped(values, _fn=fn, _name=name):
            if counters is not None:
                counters[_name] = counters.get(_name, 0) + 1
            return _fn(values)

        return wrapped

    def pred(name, fn, reads):
        return BankDetector(
            name,
            Predicate(
                lambda s: fn([s["x"], s["y"]]),
                name=name,
                values_builder=lambda index, n=name, f=fn: counting(n, f),
            ),
            frozenset(reads),
        )

    variables = [Variable("x", (0, 1, 2)), Variable("y", (0, 1))]
    return DetectorBank(
        [
            pred("x_hi", lambda v: v[0] == 2, {"x"}),
            pred("y_hot", lambda v: v[1] == 1, {"y"}),
            pred("either", lambda v: v[0] == 2 or v[1] == 1, {"x", "y"}),
        ],
        variables,
        name="toy",
    )


class TestFeed:
    def test_initial_state_defaults_to_first_domain_values(self):
        runtime = MonitorRuntime(toy_bank())
        assert runtime.values() == {"x": 0, "y": 0}
        assert runtime.syndrome == 0

    def test_explicit_initial_values(self):
        runtime = MonitorRuntime(toy_bank(), initial={"x": 2})
        assert runtime.syndrome == 0b101  # x_hi and either
        with pytest.raises(KeyError):
            MonitorRuntime(toy_bank(), initial={"zz": 1})

    def test_incremental_matches_full_recompute(self):
        import random

        bank = toy_bank()
        runtime = MonitorRuntime(bank)
        rng = random.Random(13)
        for step in range(300):
            name = rng.choice(["x", "y"])
            value = rng.choice((0, 1, 2) if name == "x" else (0, 1))
            syndrome = runtime.feed(
                {"time": float(step), "writes": {name: value}}
            )
            expected = bank.syndrome_of_values(
                [runtime.values()["x"], runtime.values()["y"]]
            )
            assert syndrome == expected

    def test_frame_aware_skipping(self):
        counters = {}
        bank = toy_bank(counters)
        runtime = MonitorRuntime(bank)
        counters.clear()  # drop the initial full evaluation
        runtime.feed({"time": 1.0, "writes": {"y": 1}})
        # y_hot and either read y; x_hi must not have been re-evaluated
        assert counters == {"y_hot": 1, "either": 1}

    def test_unchanged_write_is_free(self):
        counters = {}
        bank = toy_bank(counters)
        runtime = MonitorRuntime(bank)
        counters.clear()
        runtime.feed({"time": 1.0, "writes": {"x": 0}})  # x is already 0
        assert counters == {}

    def test_unknown_variables_ignored(self):
        runtime = MonitorRuntime(toy_bank())
        assert runtime.feed({"time": 1.0, "writes": {"other": 5}}) == 0

    def test_drain_equals_repeated_feed(self):
        import random

        rng = random.Random(5)
        events = [
            {
                "time": float(i),
                "writes": {
                    rng.choice(["x", "y"]): rng.choice((0, 1)),
                },
            }
            for i in range(100)
        ]
        one = MonitorRuntime(toy_bank())
        for event in events:
            one.feed(event)
        two = MonitorRuntime(toy_bank())
        assert two.drain(events) == len(events)
        assert two.syndrome == one.syndrome
        assert two.values() == one.values()
        assert two.telemetry.transitions == one.telemetry.transitions
        assert two.events == one.events

    @pytest.mark.parametrize("failure", ["source", "event"])
    def test_failed_drain_keeps_the_consumed_prefix(self, failure):
        prefix = [
            {"time": 1.0, "writes": {"x": 2}},
            {"time": 2.0, "writes": {"y": 1}},
        ]
        if failure == "event":  # the third event itself is malformed
            prefix.append({"time": 3.0, "writes": ["x"]})

        def source():
            yield from prefix
            raise ValueError("source failed")

        drained = MonitorRuntime(toy_bank())
        with pytest.raises((ValueError, AttributeError)):
            drained.drain(source())
        fed = MonitorRuntime(toy_bank())
        for event in prefix:
            try:
                fed.feed(event)
            except AttributeError:
                pass
        assert drained.events == fed.events == len(prefix)
        assert drained.time == fed.time == prefix[-1]["time"]
        assert drained.values() == fed.values()
        assert drained.syndrome == fed.syndrome == 0b111

    def test_reset_restores_initial_values(self):
        runtime = MonitorRuntime(toy_bank())
        runtime.feed({"time": 1.0, "writes": {"x": 2, "y": 1}})
        assert runtime.syndrome != 0
        runtime.feed({"time": 2.0, "kind": "reset"})
        assert runtime.syndrome == 0
        assert runtime.values() == {"x": 0, "y": 0}
        assert runtime.telemetry.resets == 1


class TestLatencyAndCallbacks:
    def test_detection_latency_measured_from_fault(self):
        runtime = MonitorRuntime(toy_bank())
        runtime.feed({"time": 3.0, "kind": "crash"})
        runtime.feed({"time": 4.5, "writes": {"x": 2}})
        assert runtime.telemetry.latencies == [pytest.approx(1.5)]

    def test_first_fault_wins_the_window(self):
        runtime = MonitorRuntime(toy_bank())
        runtime.feed({"time": 1.0, "kind": "fault"})
        runtime.feed({"time": 2.0, "kind": "corrupt"})  # window already open
        runtime.feed({"time": 3.0, "writes": {"y": 1}})
        assert runtime.telemetry.latencies == [pytest.approx(2.0)]

    def test_no_fault_no_latency(self):
        runtime = MonitorRuntime(toy_bank())
        runtime.feed({"time": 1.0, "writes": {"y": 1}})
        assert runtime.telemetry.latencies == []

    def test_on_syndrome_callbacks(self):
        runtime = MonitorRuntime(toy_bank())
        seen = []

        @runtime.on_syndrome
        def observe(rt, old, new, time):
            seen.append((old, new, time))

        runtime.feed({"time": 1.0, "writes": {"x": 2}})
        runtime.feed({"time": 2.0, "writes": {"x": 2}})  # no change
        runtime.feed({"time": 3.0, "writes": {"x": 0}})
        assert seen == [(0, 0b101, 1.0), (0b101, 0, 3.0)]

    def test_corrector_fires_on_decoded_syndrome(self):
        bank = toy_bank()
        decoder = SyndromeDecoder.for_bank(bank)
        fired = []
        decoder.register_for(
            bank, ["x_hi", "either"],
            corrector=lambda rt, decoded, time: fired.append(
                (decoded.entry.name, decoded.exact, time)
            ),
            name="fix_x",
        )
        runtime = MonitorRuntime(bank, decoder=decoder)
        runtime.feed({"time": 2.0, "writes": {"x": 2}})
        assert fired == [("fix_x", True, 2.0)]
        assert [entry.entry.name for _, entry in runtime.corrections] == \
            ["fix_x"]

    def test_telemetry_stream_and_summary(self):
        stream = io.StringIO()
        bank = toy_bank()
        telemetry = TelemetrySink(bank.detector_names, stream=stream)
        runtime = MonitorRuntime(bank, telemetry=telemetry)
        summary = runtime.run_sync([
            {"time": 1.0, "kind": "fault"},
            {"time": 2.0, "writes": {"x": 2}},
            {"time": 3.0, "writes": {"x": 0}},
        ])
        records = [json.loads(line) for line in
                   stream.getvalue().strip().splitlines()]
        kinds = [r["event"] for r in records]
        assert kinds == ["syndrome", "detection", "syndrome"]
        assert all("schema_version" in r for r in records)
        assert summary["events"] == 3
        assert summary["transitions"] == 2
        assert summary["fire_counts"] == {"x_hi": 1, "y_hot": 0, "either": 1}
        assert summary["detection_latency"]["n"] == 1
        text = format_monitor_summary(summary)
        assert "3 events" in text and "x_hi" in text

    def test_latency_histogram_buckets(self):
        histogram = latency_histogram([0.3, 0.9, 3.0, 100.0], (0.5, 1.0, 4.0))
        assert histogram == [
            {"le": 0.5, "count": 1},
            {"le": 1.0, "count": 1},
            {"le": 4.0, "count": 1},
            {"le": "inf", "count": 1},
        ]


class TestAsyncSources:
    def test_run_over_async_iterable(self):
        runtime = MonitorRuntime(toy_bank())
        events = [
            {"time": 1.0, "writes": {"x": 2}},
            {"time": 2.0, "writes": {"y": 1}},
        ]
        summary = asyncio.run(runtime.run(aiter_events(events)))
        assert summary["events"] == 2
        assert runtime.syndrome == 0b111

    def test_jsonl_source(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"time": 1.0, "writes": {"x": 2}}\n'
            "\n"
            '{"time": 2.0, "kind": "crash"}\n'
        )
        runtime = MonitorRuntime(toy_bank())
        summary = asyncio.run(runtime.run(jsonl_source(path)))
        assert summary["events"] == 2
        assert runtime.syndrome == 0b101

    def test_socket_source_over_socketpair(self):
        left, right = socket.socketpair()
        # loop.sock_sendall needs a non-blocking socket (asyncio debug
        # mode refuses a blocking one)
        left.setblocking(False)

        async def scenario():
            runtime = MonitorRuntime(toy_bank())
            feed = [
                {"time": 1.0, "writes": {"y": 1}},
                {"time": 2.0, "writes": {"y": 0}},
            ]

            async def producer():
                loop = asyncio.get_running_loop()
                payload = "".join(
                    json.dumps(e) + "\n" for e in feed
                ).encode()
                await loop.sock_sendall(left, payload)
                left.close()

            async def consumer():
                return await runtime.run(open_socket_source(sock=right))

            _, summary = await asyncio.gather(producer(), consumer())
            return runtime, summary

        try:
            runtime, summary = asyncio.run(scenario())
        finally:
            left.close()
            right.close()
        assert summary["events"] == 2
        assert runtime.syndrome == 0
        assert runtime.telemetry.transitions == 2

    def test_normalize_event_passthrough_and_campaign(self):
        raw = normalize_event({"time": 2.0, "writes": {"x": 1}})
        assert raw == {"time": 2.0, "kind": "write", "writes": {"x": 1}}
        translated = normalize_event(
            {"event": "transition", "monitor": "safety",
             "time": 3.0, "value": False}
        )
        assert translated == {
            "time": 3.0, "kind": "write", "writes": {"safety": False},
        }
        assert normalize_event({"event": "trial_end"}) is None


class TestLiveMonitors:
    def test_attach_monitors_feeds_runtime_during_run(self):
        from repro.sim import Network, PredicateMonitor, SimProcess

        class Stepper(SimProcess):
            def __init__(self, pid):
                super().__init__(pid)
                self.x = 0

            def on_start(self):
                self.set_timer("tick", 1.0)

            def on_timer(self, name):
                self.x += 1
                self.set_timer("tick", 1.0)

        network = Network(seed=0)
        network.add_process(Stepper("p"))
        monitor = PredicateMonitor(
            network, lambda s: s["p"]["x"] < 3, period=1.0, horizon=6.0,
            name="safety",
        )
        bank = campaign_bank(["safety"])
        runtime = MonitorRuntime(bank)
        attach_monitors(runtime, [monitor])
        network.run(until=6.0)
        # x reaches 3 at t=3: the monitor flips and the bank fires live
        assert runtime.telemetry.fires == [1]
        assert runtime.syndrome == 0b1
        # the bridge preserved the monitor's own sample record
        assert monitor.samples
