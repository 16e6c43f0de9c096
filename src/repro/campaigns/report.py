"""Structured campaign telemetry: JSONL event log + aggregate summary.

Every campaign emits a replayable event stream (one JSON object per
line) through a :class:`CampaignLog`:

- ``campaign_start`` — scenario, trial count, master seed, spec;
- ``trial_start`` — trial index, derived seeds, planned fault schedule;
- ``fault`` — each injected fault with its simulation timestamp;
- ``transition`` — each observed predicate flip (monitor name, time,
  value), captured via ``PredicateMonitor.on_transition``;
- ``trial_end`` — outcome and metrics;
- ``campaign_end`` — the aggregate summary.

Determinism contract: with a fixed scenario, seed and trial count, the
stream is identical run to run *except* for wall-clock fields, which
all live under keys starting with ``"wall"`` — strip those and the logs
compare equal (the test suite asserts this).

The aggregate summary reports percentile latencies via
:func:`percentile` (nearest-rank; no numpy dependency).
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, Iterator, List, Optional, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "CampaignLog",
    "read_events",
    "load_summary",
    "percentile",
    "summarize",
    "format_verdict",
]

#: stamped on every emitted record so consumers (the report path, the
#: monitoring runtime's replay source) can dispatch on log vintage.
#: Version history: 0 = unversioned pre-stamp logs, 1 = current layout.
SCHEMA_VERSION = 1

#: the percentiles the summary reports for each latency series
PERCENTILES = (50, 90, 99)


class CampaignLog:
    """Append-only JSONL event sink.

    ``stream`` is any writable text file object (or None for a pure
    in-memory log).  Events are also retained in ``events`` so callers
    can inspect a run without re-parsing the file.
    """

    def __init__(self, stream: Optional[IO[str]] = None):
        self.stream = stream
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: str, **payload: Any) -> Dict[str, Any]:
        # ``payload`` may already carry schema_version (buffered trial
        # events being replayed into the main log keep their stamp)
        record = {"event": event, "schema_version": SCHEMA_VERSION, **payload}
        self.events.append(record)
        if self.stream is not None:
            self.stream.write(json.dumps(record, sort_keys=True, default=str))
            self.stream.write("\n")
        return record

    def close(self) -> None:
        if self.stream is not None:
            self.stream.flush()


def read_events(path) -> Iterator[Dict[str, Any]]:
    """Parse a campaign JSONL log back into its event records.

    Blank lines are skipped.  Records from logs written before the
    schema stamp get ``schema_version: 0``, so every consumer sees a
    versioned record regardless of log vintage.  Each stripped line is
    one call into the JSON scanner, with the two checks ``json.loads``
    adds (no value at all, data after the value) raised as the same
    :class:`json.JSONDecodeError`; a line holding any other JSON value
    than an object raises :class:`ValueError` naming its line number.
    """
    scan = json.JSONDecoder().scan_once
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = scan(line, 0)
            except StopIteration:
                raise json.JSONDecodeError("Expecting value", line, 0) \
                    from None
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
            if record.__class__ is not dict:
                raise ValueError(
                    f"{path}: line {number} is not a JSON object: "
                    f"{line[:40]!r}"
                )
            record.setdefault("schema_version", 0)
            yield record


def load_summary(path) -> Optional[Dict[str, Any]]:
    """The ``campaign_end`` aggregate summary recorded in a log, or
    None when the log has no campaign end (e.g. a crashed run)."""
    summary: Optional[Dict[str, Any]] = None
    for record in read_events(path):
        if record.get("event") == "campaign_end":
            summary = record.get("summary")
    return summary


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (q in [0, 100]); None for empty input."""
    if not values:
        return None
    ordered = sorted(values)
    if q <= 0:
        return ordered[0]
    if q >= 100:
        return ordered[-1]
    import math

    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


def _series_summary(values: List[float]) -> Dict[str, Any]:
    return {
        "n": len(values),
        "min": min(values) if values else None,
        "max": max(values) if values else None,
        "mean": sum(values) / len(values) if values else None,
        **{f"p{q}": percentile(values, q) for q in PERCENTILES},
    }


def summarize(scenario: str, verdict: Dict[str, Any],
              metrics: Iterable[Any]) -> Dict[str, Any]:
    """The campaign-level summary dict.

    ``verdict`` comes from :func:`~repro.campaigns.classify.campaign_verdict`;
    ``metrics`` is the per-trial :class:`TrialMetrics` sequence
    (bookkeeping outcomes contribute no latency samples).
    """
    metrics = list(metrics)
    detection = [
        m.detection_latency for m in metrics if m.detection_latency is not None
    ]
    convergence = [
        m.convergence_time for m in metrics if m.convergence_time is not None
    ]
    availability = [
        m.availability for m in metrics
        if m.outcome not in ("error", "timeout")
    ]
    return {
        "scenario": scenario,
        **verdict,
        "faults_injected": sum(m.faults_injected for m in metrics),
        "detection_latency": _series_summary(detection),
        "convergence_time": _series_summary(convergence),
        "availability_mean": (
            sum(availability) / len(availability) if availability else None
        ),
    }


def _fmt(value: Optional[float]) -> str:
    return "   -" if value is None else f"{value:6.2f}"


def format_verdict(summary: Dict[str, Any]) -> str:
    """Human-readable campaign verdict, e.g.::

        == campaign token_ring: nonmasking-tolerant in 20/20 trials
           outcomes: masking=4 failsafe=0 nonmasking=16 intolerant=0 error=0 timeout=0
           detection latency: p50=  1.50 p90=  2.00 p99=  2.50  (n=16)
           convergence time:  p50=  9.00 p90= 14.00 p99= 18.00  (n=20)
           availability: 0.87   faults injected: 120
    """
    counts = summary["counts"]
    verdict = summary["verdict"]
    completed = summary["completed"]
    # a masking trial also witnesses the weaker fail-safe / nonmasking
    # claims, so the claim counts every trial at or above the verdict
    satisfying = {
        "masking": ("masking",),
        "failsafe": ("masking", "failsafe"),
        "nonmasking": ("masking", "nonmasking"),
    }
    claim = (
        f"{verdict}-tolerant in "
        f"{sum(counts.get(o, 0) for o in satisfying[verdict])}/{completed} trials"
        if verdict != "none"
        else f"no uniform tolerance class over {completed} trials"
    )
    detection = summary["detection_latency"]
    convergence = summary["convergence_time"]
    availability = summary["availability_mean"]
    lines = [
        f"== campaign {summary['scenario']}: {claim}",
        "   outcomes: " + " ".join(
            f"{name}={counts.get(name, 0)}"
            for name in ("masking", "failsafe", "nonmasking", "intolerant",
                         "error", "timeout")
        ),
        (
            "   detection latency: "
            + " ".join(f"p{q}={_fmt(detection[f'p{q}'])}" for q in PERCENTILES)
            + f"  (n={detection['n']})"
        ),
        (
            "   convergence time:  "
            + " ".join(f"p{q}={_fmt(convergence[f'p{q}'])}" for q in PERCENTILES)
            + f"  (n={convergence['n']})"
        ),
        (
            f"   availability: "
            + ("-" if availability is None else f"{availability:.2f}")
            + f"   faults injected: {summary['faults_injected']}"
        ),
    ]
    return "\n".join(lines)
