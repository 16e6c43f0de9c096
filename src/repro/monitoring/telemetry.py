"""Structured telemetry for the monitoring runtime.

The recording methods bump counters; a JSONL record is built only when
a stream is attached, so an unstreamed sink costs a few integer
operations per syndrome transition.  Histograms and percentile
summaries happen at summary time (once).  The JSONL stream uses
the same conventions as the campaign log (:mod:`repro.campaigns.report`):
one JSON object per line, sorted keys, a ``schema_version`` stamp on
every record, wall-clock-dependent values only under keys starting with
``"wall"``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple

from ..campaigns.report import percentile
from .syndrome import fired_names, format_syndrome

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "LATENCY_BUCKETS",
    "latency_histogram",
    "TelemetrySink",
    "format_monitor_summary",
]

TELEMETRY_SCHEMA_VERSION = 1

#: detection-latency histogram bucket upper bounds, in simulation time
#: units (doubling buckets; one overflow bucket is appended)
LATENCY_BUCKETS: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def latency_histogram(
    values: Sequence[float],
    buckets: Sequence[float] = LATENCY_BUCKETS,
) -> List[Dict[str, Any]]:
    """Bucket counts with inclusive upper bounds (Prometheus ``le``
    style, non-cumulative), plus a final ``"inf"`` overflow bucket."""
    counts = [0] * (len(buckets) + 1)
    for value in values:
        for position, bound in enumerate(buckets):
            if value <= bound:
                counts[position] += 1
                break
        else:
            counts[-1] += 1
    rendered: List[Dict[str, Any]] = [
        {"le": bound, "count": count}
        for bound, count in zip(buckets, counts)
    ]
    rendered.append({"le": "inf", "count": counts[-1]})
    return rendered


class TelemetrySink:
    """Counters plus an optional JSONL stream for one runtime.

    Per-detector fire counts are counted on *rising edges* (a detector
    that stays firing across ten transitions fired once), detection
    latencies are whatever the runtime measures between a fault event
    and the next healthy→unhealthy syndrome transition.
    """

    def __init__(
        self,
        detector_names: Sequence[str],
        stream: Optional[IO[str]] = None,
    ):
        self.detector_names: Tuple[str, ...] = tuple(detector_names)
        self.m = len(self.detector_names)
        self.stream = stream
        self.transitions = 0
        self.corrections = 0
        self.resets = 0
        self.fires: List[int] = [0] * self.m
        self.latencies: List[float] = []

    # -- hot-side recording (called on transitions only) -------------------
    def record_transition(self, time: float, old: int, new: int) -> None:
        self.transitions += 1
        rising = new & ~old
        fires = self.fires
        while rising:
            low = rising & -rising
            fires[low.bit_length() - 1] += 1
            rising ^= low
        if self.stream is not None:
            self._emit({
                "event": "syndrome",
                "time": time,
                "syndrome": format_syndrome(new, self.m),
                "fired": fired_names(new, self.detector_names),
            })

    def record_latency(self, time: float, latency: float) -> None:
        self.latencies.append(latency)
        if self.stream is not None:
            self._emit({"event": "detection", "time": time, "latency": latency})

    def record_correction(self, time: float, decoded) -> None:
        self.corrections += 1
        if self.stream is not None:
            self._emit({
                "event": "correction",
                "time": time,
                "corrector": decoded.entry.name,
                "exact": decoded.exact,
                "distance": decoded.distance,
            })

    def record_reset(self, time: float) -> None:
        self.resets += 1
        if self.stream is not None:
            self._emit({"event": "reset", "time": time})

    def _emit(self, record: Dict[str, Any]) -> None:
        if self.stream is None:
            return
        record = {"schema_version": TELEMETRY_SCHEMA_VERSION, **record}
        self.stream.write(json.dumps(record, sort_keys=True, default=str))
        self.stream.write("\n")

    # -- summary -----------------------------------------------------------
    def summary(
        self, events: int = 0, wall_s: Optional[float] = None
    ) -> Dict[str, Any]:
        latencies = self.latencies
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "events": events,
            "wall_s": wall_s,
            "events_per_sec": (
                events / wall_s if wall_s else None
            ),
            "transitions": self.transitions,
            "corrections": self.corrections,
            "resets": self.resets,
            "fire_counts": dict(zip(self.detector_names, self.fires)),
            "detection_latency": {
                "n": len(latencies),
                "min": min(latencies) if latencies else None,
                "max": max(latencies) if latencies else None,
                "mean": (
                    sum(latencies) / len(latencies) if latencies else None
                ),
                **{
                    f"p{q}": percentile(latencies, q) for q in (50, 90, 99)
                },
                "histogram": latency_histogram(latencies),
            },
        }

    def write_summary(
        self, events: int = 0, wall_s: Optional[float] = None
    ) -> Dict[str, Any]:
        summary = self.summary(events, wall_s)
        self._emit({"event": "monitor_summary", **summary})
        return summary


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}"


def format_monitor_summary(summary: Dict[str, Any]) -> str:
    """Human-readable monitoring report, e.g.::

        == monitor: 420 events, 7 syndrome transitions, 2 corrections
           safety_violated                  fired 3x
           legitimacy_lost                  fired 4x
           detection latency: p50=0.50 p90=1.00 p99=1.00  (n=3)
    """
    rate = summary.get("events_per_sec")
    head = (
        f"== monitor: {summary['events']} events, "
        f"{summary['transitions']} syndrome transitions, "
        f"{summary['corrections']} corrections"
    )
    if rate:
        head += f" ({rate:,.0f} events/sec)"
    lines = [head]
    for name, fires in summary["fire_counts"].items():
        lines.append(f"   {name:32s} fired {fires}x")
    latency = summary["detection_latency"]
    lines.append(
        "   detection latency: "
        + " ".join(f"p{q}={_fmt(latency[f'p{q}'])}" for q in (50, 90, 99))
        + f"  (n={latency['n']})"
    )
    return "\n".join(lines)
