"""Tests for the campaign engine: schedules, classification, telemetry,
and crash containment."""

import io
import json
import random

import pytest

from repro.campaigns import (
    SCHEMA_VERSION,
    Campaign,
    CampaignLog,
    Scenario,
    ScenarioInstance,
    ScheduleSpec,
    TrialMetrics,
    campaign_verdict,
    classify_outcome,
    classify_trial,
    derive_seed,
    format_verdict,
    load_summary,
    percentile,
    random_schedule,
    read_events,
    summarize,
)
from repro.sim import Network, PredicateMonitor, SimProcess


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def ring_spec(**overrides):
    spec = ScheduleSpec(
        horizon=100.0,
        budget=6,
        crash_targets=(0, 1, 2),
        corruption_targets=(0, 1, 2),
        loss_channels=((0, 1), (1, 2), (2, 0)),
        corruptor=lambda rng, pid: {"has_token": False},
    )
    for key, value in overrides.items():
        spec = getattr(spec, f"with_{key}")(value)
    return spec


class TestRandomSchedule:
    def test_same_seed_same_schedule(self):
        spec = ring_spec()
        first = random_schedule(spec, 12)
        second = random_schedule(spec, 12)
        assert first.describe() == second.describe()

    def test_different_seeds_differ(self):
        spec = ring_spec()
        assert random_schedule(spec, 1).describe() != \
            random_schedule(spec, 2).describe()

    def test_budget_counts_events_not_injectors(self):
        spec = ring_spec(budget=10)
        schedule = random_schedule(spec, 0)
        described = schedule.describe()
        crashes = sum(1 for f in described if f["kind"] == "crash")
        restarts = sum(1 for f in described if f["kind"] == "restart")
        other = len(described) - crashes - restarts
        assert crashes == restarts
        assert crashes + other == 10

    def test_onsets_inside_fault_window(self):
        spec = ring_spec(budget=40)
        for onset in random_schedule(spec, 5).onset_times():
            assert 0.05 * spec.horizon <= onset
        # only crash onsets are bounded by 0.85*h; restarts may trail

    def test_empty_spec_yields_empty_schedule(self):
        spec = ScheduleSpec(horizon=100.0, budget=5)
        assert spec.kinds() == ()
        assert len(random_schedule(spec, 0)) == 0

    def test_kind_filtering(self):
        spec = ScheduleSpec(horizon=50.0, budget=5, crash_targets=(7,))
        assert spec.kinds() == ("crash_restart",)
        kinds = {f["kind"] for f in random_schedule(spec, 3).describe()}
        assert kinds == {"crash", "restart"}

    def test_corruption_requires_corruptor(self):
        spec = ScheduleSpec(
            horizon=50.0, budget=5, corruption_targets=(1,)
        )
        assert spec.kinds() == ()  # targets without a corruptor: never drawn

    def test_sorted_by_onset(self):
        schedule = random_schedule(ring_spec(budget=20), 9)
        times = [f["time"] for f in schedule.describe()]
        assert times == sorted(times)

    def test_accepts_shared_rng(self):
        rng = random.Random(4)
        first = random_schedule(ring_spec(), rng)
        second = random_schedule(ring_spec(), rng)
        assert first.describe() != second.describe()  # the stream advanced


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def monitor_with_samples(samples):
    monitor = PredicateMonitor(Network(seed=0), lambda s: True)
    monitor.samples = list(samples)
    return monitor


class TestClassifyOutcome:
    def test_lattice(self):
        assert classify_outcome(True, True) == "masking"
        assert classify_outcome(True, False) == "failsafe"
        assert classify_outcome(False, True) == "nonmasking"
        assert classify_outcome(False, False) == "intolerant"


class TestClassifyTrial:
    def test_masking_trial(self):
        safety = monitor_with_samples([(t, True) for t in range(10)])
        legitimacy = monitor_with_samples(
            [(0.0, True), (1.0, True), (2.0, False), (3.0, False),
             (4.0, True), (5.0, True)]
        )
        metrics = classify_trial(safety, legitimacy, fault_times=[1.5])
        assert metrics.outcome == "masking"
        assert metrics.safety_ok is True
        assert metrics.converged is True
        # perturbation first observed at t=2, caused by the fault at 1.5
        assert metrics.detection_latency == pytest.approx(0.5)
        # recovered at t=4, fault at 1.5
        assert metrics.convergence_time == pytest.approx(2.5)
        assert metrics.availability == pytest.approx(4 / 6)

    def test_nonmasking_trial(self):
        safety = monitor_with_samples(
            [(0.0, True), (1.0, False), (2.0, True)]
        )
        legitimacy = monitor_with_samples(
            [(0.0, True), (1.0, False), (2.0, True)]
        )
        metrics = classify_trial(safety, legitimacy, fault_times=[0.5])
        assert metrics.outcome == "nonmasking"
        assert metrics.safety_ok is False

    def test_failsafe_trial(self):
        safety = monitor_with_samples([(t, True) for t in range(5)])
        legitimacy = monitor_with_samples(
            [(0.0, True), (1.0, True), (2.0, False), (3.0, False),
             (4.0, False)]
        )
        metrics = classify_trial(safety, legitimacy, fault_times=[1.2])
        assert metrics.outcome == "failsafe"
        assert metrics.converged is False
        assert metrics.convergence_time is None

    def test_no_faults_no_detection_latency(self):
        safety = monitor_with_samples([(0.0, True)])
        legitimacy = monitor_with_samples([(0.0, True)])
        metrics = classify_trial(safety, legitimacy, fault_times=[])
        assert metrics.outcome == "masking"
        assert metrics.detection_latency is None
        assert metrics.convergence_time == 0.0

    def test_unobserved_faults_have_no_latency(self):
        safety = monitor_with_samples([(t, True) for t in range(5)])
        legitimacy = monitor_with_samples([(t, True) for t in range(5)])
        metrics = classify_trial(safety, legitimacy, fault_times=[2.0])
        assert metrics.detection_latency is None
        assert metrics.outcome == "masking"
        assert metrics.convergence_time == 0.0  # never perturbed


class TestCampaignVerdict:
    def test_all_masking(self):
        verdict = campaign_verdict(["masking"] * 3)
        assert verdict["verdict"] == "masking"
        assert verdict["completed"] == 3

    def test_failsafe_mixture(self):
        assert campaign_verdict(
            ["masking", "failsafe"])["verdict"] == "failsafe"

    def test_nonmasking_mixture(self):
        assert campaign_verdict(
            ["masking", "nonmasking"])["verdict"] == "nonmasking"

    def test_conflicting_mixture_is_none(self):
        assert campaign_verdict(
            ["failsafe", "nonmasking"])["verdict"] == "none"

    def test_intolerant_forces_none(self):
        assert campaign_verdict(
            ["masking", "intolerant"])["verdict"] == "none"

    def test_errors_excluded_from_claim_but_counted(self):
        verdict = campaign_verdict(["masking", "error", "timeout"])
        assert verdict["verdict"] == "masking"
        assert verdict["completed"] == 1
        assert verdict["counts"]["error"] == 1
        assert verdict["counts"]["timeout"] == 1

    def test_all_errors(self):
        assert campaign_verdict(["error", "error"])["verdict"] == "none"


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) is None

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 90) == 4.0
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_singleton(self):
        assert percentile([7.0], 99) == 7.0


class TestSummarizeAndFormat:
    def metrics(self):
        return [
            TrialMetrics(outcome="masking", safety_ok=True, converged=True,
                         detection_latency=1.0, convergence_time=3.0,
                         availability=0.9, faults_injected=4),
            TrialMetrics(outcome="nonmasking", safety_ok=False,
                         converged=True, detection_latency=2.0,
                         convergence_time=5.0, availability=0.7,
                         faults_injected=6),
            TrialMetrics(outcome="error"),
        ]

    def test_summarize(self):
        metrics = self.metrics()
        verdict = campaign_verdict([m.outcome for m in metrics])
        summary = summarize("demo", verdict, metrics)
        assert summary["scenario"] == "demo"
        assert summary["verdict"] == "nonmasking"
        assert summary["faults_injected"] == 10
        assert summary["detection_latency"]["n"] == 2
        assert summary["detection_latency"]["p50"] == 1.0
        assert summary["convergence_time"]["p99"] == 5.0
        # the errored trial contributes no availability sample
        assert summary["availability_mean"] == pytest.approx(0.8)

    def test_format_verdict_counts_masking_toward_weaker_claims(self):
        metrics = self.metrics()
        verdict = campaign_verdict([m.outcome for m in metrics])
        text = format_verdict(summarize("demo", verdict, metrics))
        assert "nonmasking-tolerant in 2/2 trials" in text
        assert "error=1" in text

    def test_campaign_log_writes_jsonl(self):
        buffer = io.StringIO()
        log = CampaignLog(buffer)
        log.emit("campaign_start", seed=3)
        log.emit("trial_end", trial=0, outcome="masking")
        log.close()
        lines = [json.loads(line) for line in
                 buffer.getvalue().strip().splitlines()]
        assert lines[0] == {
            "event": "campaign_start",
            "schema_version": SCHEMA_VERSION,
            "seed": 3,
        }
        assert lines[1]["outcome"] == "masking"
        assert log.events[0]["event"] == "campaign_start"

    def test_every_record_carries_schema_version(self):
        buffer = io.StringIO()
        log = CampaignLog(buffer)
        log.emit("campaign_start", seed=0)
        log.emit("transition", monitor="safety", time=1.0, value=False)
        log.emit("campaign_end", summary={})
        for record in log.events:
            assert record["schema_version"] == SCHEMA_VERSION

    def test_read_events_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with open(path, "w", encoding="utf-8") as stream:
            log = CampaignLog(stream)
            log.emit("campaign_start", seed=7)
            log.emit("fault", time=2.0, kind="crash", process=1)
            log.close()
        records = list(read_events(path))
        assert [r["event"] for r in records] == ["campaign_start", "fault"]
        assert all(r["schema_version"] == SCHEMA_VERSION for r in records)
        assert records[1]["kind"] == "crash"

    def test_read_events_parses_old_unversioned_logs(self, tmp_path):
        # logs written before the schema stamp: no schema_version key
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"event": "campaign_start", "seed": 3}\n'
            "\n"  # blank lines are tolerated
            '{"event": "transition", "monitor": "safety", '
            '"time": 1.5, "value": false}\n'
        )
        records = list(read_events(path))
        assert [r["event"] for r in records] == [
            "campaign_start", "transition",
        ]
        # unversioned records are stamped as vintage 0, not current
        assert all(r["schema_version"] == 0 for r in records)

    @pytest.mark.parametrize("line", [
        '{"event": "fault", "time": 1.0',             # truncated object
        '{"event": "fault"} {"event": "fault"}',      # two objects
        '{"event": "fault"}garbage',                  # trailing garbage
        '\ufeff{"event": "fault"}',                   # byte-order mark
        "fault",                                      # bare word
    ])
    def test_read_events_rejects_what_json_loads_rejects(
        self, tmp_path, line
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "campaign_start"}\n' + line + "\n",
                        encoding="utf-8")
        records = read_events(path)
        assert next(records)["event"] == "campaign_start"
        with pytest.raises(json.JSONDecodeError):
            next(records)

    def test_read_events_rejects_a_line_that_is_not_an_object(
        self, tmp_path
    ):
        path = tmp_path / "list.jsonl"
        path.write_text('{"event": "campaign_start"}\n\n[1, 2]\n')
        with pytest.raises(ValueError, match="line 3 is not a JSON object"):
            list(read_events(path))

    def test_load_summary(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with open(path, "w", encoding="utf-8") as stream:
            log = CampaignLog(stream)
            log.emit("campaign_start", seed=0)
            log.emit("campaign_end", summary={"verdict": "masking"})
            log.close()
        assert load_summary(path) == {"verdict": "masking"}

    def test_load_summary_missing(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        path.write_text('{"event": "campaign_start", "seed": 0}\n')
        assert load_summary(path) is None


# ---------------------------------------------------------------------------
# the runner: containment, timeout, determinism
# ---------------------------------------------------------------------------

class Oscillator(SimProcess):
    """Flips ``ok`` every 2 time units, forever."""

    def __init__(self, pid):
        super().__init__(pid)
        self.ok = True

    def on_start(self):
        self.set_timer("flip", 2.0)

    def on_timer(self, name):
        self.ok = not self.ok
        self.set_timer("flip", 2.0)


def tiny_scenario(build=None, horizon=10.0, budget=0):
    def default_build(seed):
        network = Network(seed=seed)
        network.add_process(Oscillator("o"))
        return ScenarioInstance(
            network=network,
            safety=lambda s: True,
            legitimacy=lambda s: s["o"]["ok"],
        )

    return Scenario(
        name="tiny",
        description="test scenario",
        build=build or default_build,
        spec=ScheduleSpec(horizon=horizon, budget=budget),
        horizon=horizon,
        sample_period=1.0,
    )


class TestCampaignRunner:
    def test_runs_all_trials(self):
        result = Campaign(tiny_scenario(), trials=4, seed=0).run()
        assert len(result.trials) == 4
        assert result.summary["trials"] == 4
        assert [r.trial for r in result.trials] == [0, 1, 2, 3]

    def test_trial_seeds_are_distinct(self):
        result = Campaign(tiny_scenario(), trials=5, seed=0).run()
        seeds = {r.network_seed for r in result.trials} | {
            r.schedule_seed for r in result.trials
        }
        assert len(seeds) == 10

    def test_failing_trial_recorded_not_fatal(self):
        calls = {"n": 0}

        def flaky_build(seed):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("boom")
            return tiny_scenario().build(seed)

        result = Campaign(
            tiny_scenario(build=flaky_build), trials=3, seed=0
        ).run()
        outcomes = result.outcomes()
        assert outcomes[1] == "error"
        assert outcomes[0] != "error" and outcomes[2] != "error"
        assert "RuntimeError: boom" in result.trials[1].error
        assert result.summary["counts"]["error"] == 1

    def test_timeout_recorded_not_fatal(self):
        class Spinner(SimProcess):
            def on_start(self):
                self.set_timer("spin", 1e-9)

            def on_timer(self, name):
                self.set_timer("spin", 1e-9)

        def spinning_build(seed):
            network = Network(seed=seed)
            network.add_process(Spinner("s"))
            return ScenarioInstance(
                network=network,
                safety=lambda s: True,
                legitimacy=lambda s: True,
            )

        result = Campaign(
            tiny_scenario(build=spinning_build, horizon=1e9),
            trials=2, seed=0, trial_timeout=0.05,
        ).run()
        assert result.outcomes() == ["timeout", "timeout"]

    def test_jsonl_deterministic_modulo_wall_clock(self):
        def run_once():
            buffer = io.StringIO()
            Campaign(tiny_scenario(), trials=3, seed=11,
                     stream=buffer).run()
            events = [json.loads(line) for line in
                      buffer.getvalue().strip().splitlines()]
            return [
                {k: v for k, v in e.items() if not k.startswith("wall")}
                for e in events
            ]

        assert run_once() == run_once()

    def test_transitions_streamed_to_log(self):
        buffer = io.StringIO()
        campaign = Campaign(tiny_scenario(), trials=1, seed=0,
                            stream=buffer)
        campaign.run()
        kinds = [e["event"] for e in campaign.log.events]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_end"
        transitions = [e for e in campaign.log.events
                       if e["event"] == "transition"]
        # the oscillator flips legitimacy every 2 time units
        assert len(transitions) >= 4
        assert {t["monitor"] for t in transitions} == {"safety", "legitimacy"}

    def test_budget_and_horizon_overrides(self):
        campaign = Campaign(tiny_scenario(), trials=1, seed=0,
                            budget=9, horizon=5.0)
        assert campaign.spec.budget == 9
        assert campaign.spec.horizon == 5.0
        result = campaign.run()
        assert result.trials[0].sim_time == pytest.approx(5.0)

    def test_derive_seed_is_pure(self):
        assert derive_seed(0, 1, 0) == derive_seed(0, 1, 0)
        assert derive_seed(0, 1, 0) != derive_seed(0, 1, 1)
        assert derive_seed(0, 1, 1) != derive_seed(0, 2, 0)
