"""Acceptance: campaign-log replay parity.

Replaying a recorded token-ring campaign JSONL through the incremental
frame-aware runtime must produce a syndrome stream identical to offline
whole-state bank evaluation of the same trace — the online path's
dirty-mask bookkeeping is an optimization, never a semantic change.
"""

import io
import json

import pytest

from repro.campaigns import Campaign, get_scenario, read_events
from repro.core.regions import StateIndex
from repro.core.state import State, state_space
from repro.monitoring import (
    MonitorRuntime,
    campaign_bank,
    iter_campaign_events,
)


@pytest.fixture(scope="module")
def campaign_log(tmp_path_factory):
    """A real recorded token-ring campaign JSONL log."""
    path = tmp_path_factory.mktemp("replay") / "token_ring.jsonl"
    with open(path, "w", encoding="utf-8") as stream:
        Campaign(
            get_scenario("token_ring"), trials=5, seed=17, stream=stream
        ).run()
    return path


def offline_syndromes(bank, events):
    """Whole-state evaluation: rebuild the full state after every event
    and ask the bank for its syndrome from scratch (no dirty masks, no
    incremental reuse — the State/Predicate path end to end)."""
    initial = {v.name: v.domain[0] for v in bank.variables}
    current = dict(initial)
    stream = []
    for event in events:
        if event.get("kind") == "reset":
            current = dict(initial)
        writes = event.get("writes")
        if writes:
            for name, value in writes.items():
                if name in current:
                    current[name] = value
        stream.append(bank.syndrome(State(current)))
    return stream


class TestReplayParity:
    def test_online_stream_equals_offline_whole_state_evaluation(
        self, campaign_log
    ):
        events = list(iter_campaign_events(campaign_log))
        assert len(events) > 20, "campaign produced a real event stream"

        bank = campaign_bank()
        runtime = MonitorRuntime(bank)
        online = [runtime.feed(event) for event in events]

        offline = offline_syndromes(campaign_bank(), events)
        assert online == offline

    def test_online_stream_matches_region_row_evaluation(self, campaign_log):
        """Third path: the big-int rows over the 4-state universe give
        the same syndrome for every state the replay visits."""
        bank = campaign_bank()
        index = StateIndex(state_space(bank.variables), _distinct=True)
        by_state = {
            index.states[i].values_tuple: syndrome
            for i, syndrome in bank.syndrome_table(index)
        }
        runtime = MonitorRuntime(bank)
        for event in iter_campaign_events(campaign_log):
            syndrome = runtime.feed(event)
            key = tuple(
                runtime.values()[name] for name in bank.schema.names
            )
            assert syndrome == by_state[key]

    def test_replay_sees_faults_before_their_detections(self, campaign_log):
        """The runner logs a trial's faults after its transitions; the
        replay source re-interleaves by simulation time so latency
        windows open before they close."""
        last_time = None
        for event in iter_campaign_events(campaign_log):
            if event["kind"] == "reset":
                last_time = None
                continue
            if last_time is not None:
                assert event["time"] >= last_time
            last_time = event["time"]

    def test_detection_latency_recorded_on_replay(self, campaign_log):
        bank = campaign_bank()
        runtime = MonitorRuntime(bank)
        runtime.drain(iter_campaign_events(campaign_log))
        # the token-ring scenario at this seed injects faults and loses
        # legitimacy: at least one latency window must have closed
        assert runtime.telemetry.latencies
        assert all(latency >= 0 for latency in runtime.telemetry.latencies)

    def test_replay_is_deterministic(self, campaign_log):
        def run():
            runtime = MonitorRuntime(campaign_bank())
            runtime.drain(iter_campaign_events(campaign_log))
            summary = runtime.telemetry.summary(runtime.events)
            summary.pop("wall_s")
            summary.pop("events_per_sec")
            return summary

        assert run() == run()


class TestMonitorCli:
    def test_monitor_replay_cli(self, campaign_log, tmp_path):
        from repro.cli import main

        out = io.StringIO()
        telemetry_path = tmp_path / "telemetry.jsonl"
        rc = main(
            ["monitor", "--replay", str(campaign_log),
             "--out", str(telemetry_path)],
            out=out,
        )
        assert rc == 0
        text = out.getvalue()
        assert "== monitor:" in text
        assert "final syndrome:" in text
        records = [
            json.loads(line)
            for line in telemetry_path.read_text().strip().splitlines()
        ]
        assert records[-1]["event"] == "monitor_summary"
        assert all("schema_version" in r for r in records)

    def test_monitor_events_cli(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"time": 1.0, "kind": "fault"}\n'
            '{"time": 2.0, "writes": {"safety": false}}\n'
        )
        out = io.StringIO()
        rc = main(["monitor", "--events", str(path)], out=out)
        assert rc == 0
        text = out.getvalue()
        # the CLI registers a single-bit corrector per detector, so the
        # safety flip decodes exactly and the latency window closes
        assert "1 corrections" in text
        assert "safety_violated" in text
        assert "(n=1)" in text

    @pytest.mark.parametrize("line", [
        "[1, 2]",
        '{"time": null, "writes": {"safety": false}}',
        '{"time": 1.0, "writes": ["safety"]}',
    ])
    def test_monitor_events_cli_rejects_malformed_lines(self, tmp_path, line):
        from repro.cli import main

        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"time": 0.5, "writes": {"safety": false}}\n' + line + "\n"
        )
        out = io.StringIO()
        assert main(["monitor", "--events", str(path)], out=out) == 2
        assert "replay failed" in out.getvalue()

    def test_monitor_requires_a_source(self):
        from repro.cli import main

        out = io.StringIO()
        assert main(["monitor"], out=out) == 2

    def test_campaign_report_cli(self, campaign_log):
        from repro.cli import main

        out = io.StringIO()
        rc = main(["campaign", "--report", str(campaign_log)], out=out)
        assert rc == 0
        assert "== campaign token_ring:" in out.getvalue()

    def test_campaign_report_missing_summary(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "truncated.jsonl"
        path.write_text('{"event": "campaign_start", "seed": 0}\n')
        out = io.StringIO()
        assert main(["campaign", "--report", str(path)], out=out) == 1
