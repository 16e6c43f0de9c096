"""Tests for the command-line verifier."""

import io
import re
from pathlib import Path

import pytest

from repro.cli import CATALOGUE, main
from repro.core import kernels
from repro.core.exploration import clear_all_caches
from repro.store import backend as store_backend


class TestList:
    def test_lists_all_entries(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        for name in CATALOGUE:
            assert name in text


class TestVerify:
    def test_single_entry_passes(self):
        out = io.StringIO()
        assert main(["verify", "leader_election"], out=out) == 0
        text = out.getvalue()
        assert "[PASS]" in text
        assert "all checks passed" in text

    def test_multiple_entries(self):
        out = io.StringIO()
        assert main(
            ["verify", "termination_detection", "distributed_reset"], out=out
        ) == 0

    def test_unknown_entry(self):
        out = io.StringIO()
        assert main(["verify", "nonsense"], out=out) == 2
        assert "unknown catalogue entry" in out.getvalue()

    def test_no_entries(self):
        out = io.StringIO()
        assert main(["verify"], out=out) == 2

    def test_catalogue_entries_build(self):
        """Every catalogue entry constructs and exposes checks."""
        for name, entry in CATALOGUE.items():
            description, checks = entry()
            assert description and checks, name

    def test_catalogue_verdicts_match_the_interpreted_oracle(self):
        """The whole catalogue prints the same report when every graph is
        built by the interpreted oracle instead of the array engine."""
        reports = []
        try:
            for backend in ("auto", "interpreted"):
                kernels.set_backend(backend)
                clear_all_caches()
                out = io.StringIO()
                assert main(["verify", "--all"], out=out) == 0
                reports.append(out.getvalue())
        finally:
            kernels.set_backend("auto")
            clear_all_caches()
        assert reports[0] == reports[1]


TRANSCRIPTS = Path(__file__).parent / "transcripts"


class TestTranscripts:
    """The whole-catalogue command outputs, byte for byte.  The files
    under ``tests/transcripts/`` are the reference; regenerate them with
    ``python -m repro verify --all`` / ``python -m repro lint --all
    --strict`` / the ``monitor`` command of
    :meth:`test_monitor_stream_matches_transcript` only for an intended
    change of the reported text."""

    @pytest.mark.parametrize("argv, transcript", [
        (["verify", "--all"], "verify_all.txt"),
        (["lint", "--all", "--strict"], "lint_all_strict.txt"),
    ])
    def test_output_matches_transcript(self, argv, transcript):
        # an active store would append its traffic line to the report
        store_backend.set_active_store(None)
        out = io.StringIO()
        assert main(argv, out=out) == 0
        expected = (TRANSCRIPTS / transcript).read_text(encoding="utf-8")
        assert out.getvalue() == expected

    def test_monitor_stream_matches_transcript(self, tmp_path):
        """``repro monitor --events`` with a telemetry stream attached:
        the report and every streamed record (syndromes, detections,
        corrections with their decoded distances, resets, the summary),
        minus the wall-clock figures."""
        telemetry = tmp_path / "telemetry.jsonl"
        out = io.StringIO()
        assert main([
            "monitor", "--events", str(TRANSCRIPTS / "monitor_events.jsonl"),
            "--monitors", "a,b,c,d", "--out", str(telemetry),
        ], out=out) == 0
        report = "".join(
            line for line in out.getvalue().splitlines(keepends=True)
            if not line.startswith("   telemetry: ")
        )
        report = re.sub(r" \([\d,]+ events/sec\)", "", report)
        records = re.sub(
            r', "(?:events_per_sec|wall_s)": [^,}]+', "",
            telemetry.read_text(encoding="utf-8"),
        )
        assert report == (TRANSCRIPTS / "monitor_events.txt").read_text(
            encoding="utf-8")
        assert records == (
            TRANSCRIPTS / "monitor_events_telemetry.jsonl"
        ).read_text(encoding="utf-8")


class TestCampaign:
    def test_list_scenarios(self):
        out = io.StringIO()
        assert main(["campaign", "--list"], out=out) == 0
        text = out.getvalue()
        for name in ("token_ring", "tmr", "byzantine", "memory_access"):
            assert name in text

    def test_no_scenario_lists_and_fails(self):
        out = io.StringIO()
        assert main(["campaign"], out=out) == 2
        assert "token_ring" in out.getvalue()

    def test_unknown_scenario(self):
        out = io.StringIO()
        assert main(["campaign", "nonsense"], out=out) == 2
        assert "unknown campaign scenario" in out.getvalue()

    def test_campaign_runs_and_reports(self, tmp_path):
        out = io.StringIO()
        jsonl = tmp_path / "out.jsonl"
        code = main(
            ["campaign", "token_ring", "--trials", "3", "--seed", "0",
             "--jsonl", str(jsonl)],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "== campaign token_ring:" in text
        assert "detection latency:" in text
        assert "convergence time:" in text
        lines = jsonl.read_text().strip().splitlines()
        events = [__import__("json").loads(line) for line in lines]
        assert events[0]["event"] == "campaign_start"
        assert events[-1]["event"] == "campaign_end"
        assert sum(1 for e in events if e["event"] == "trial_end") == 3

    def test_budget_override(self):
        out = io.StringIO()
        assert main(
            ["campaign", "tmr", "--trials", "2", "--seed", "1",
             "--budget", "1"],
            out=out,
        ) == 0
        assert "masking-tolerant in 2/2 trials" in out.getvalue()


class TestCensus:
    def test_start_set_above_the_cap_fails(self):
        """The 1,024 start codes of the 5/4 ring exceed a cap of 100:
        the census fails instead of printing them."""
        out = io.StringIO()
        code = main(
            ["census", "token_ring", "--size", "5", "--k", "4",
             "--shards", "1", "--max-states", "100"],
            out=out,
        )
        assert code == 1
        assert out.getvalue().startswith("census failed:")
