"""Event sources for the monitoring runtime.

Everything here produces the runtime's plain-dict event shape
(``{"time", "kind", "writes"}``) from somewhere else:

- :func:`iter_campaign_events` — replay a recorded ``repro campaign``
  JSONL log (via :func:`repro.campaigns.report.read_events`): monitor
  ``transition`` records become writes to a variable named after the
  monitor, ``fault`` records keep their kind (opening the runtime's
  detection-latency window), and ``trial_start`` records become stream
  resets.  :func:`campaign_bank` builds the matching two-detector bank.
- :func:`jsonl_source` — an async iterator over an external JSONL
  event file (either raw runtime events or campaign records; detected
  per line).
- :func:`socket_source` / :func:`open_socket_source` — a line-delimited
  JSON feed over an :class:`asyncio.StreamReader` (works with
  ``socket.socketpair()`` in tests, so nothing needs to bind a port).
- :func:`attach_monitors` / :func:`attach_network` — live ingestion
  from a running simulation: :class:`~repro.sim.monitors.PredicateMonitor`
  transitions and :class:`~repro.sim.network.Network` trace events are
  fed into the runtime as they happen, without buffering.
- :func:`aiter_events` — lift any synchronous iterable into an async
  source (for :meth:`MonitorRuntime.run`).
"""

from __future__ import annotations

import asyncio
import json
from numbers import Real
from typing import (
    Any,
    AsyncIterator,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
)

from ..campaigns.report import read_events
from ..core.predicate import var_eq
from ..core.state import Variable
from .banks import BankDetector, DetectorBank

__all__ = [
    "normalize_event",
    "campaign_to_events",
    "iter_campaign_events",
    "campaign_bank",
    "aiter_events",
    "jsonl_source",
    "socket_source",
    "open_socket_source",
    "attach_monitors",
    "attach_network",
]


# -- record translation -------------------------------------------------------

def _as_time(value: Any) -> float:
    """An event timestamp as a float; ValueError unless it is a number."""
    if value.__class__ is bool or not isinstance(value, Real):
        raise ValueError(f"event time must be a number, not {value!r}")
    return float(value)


def _translate(record: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """One campaign record → one runtime event (None when the record
    has no runtime meaning — trial ends, campaign bookkeeping)."""
    kind = record.get("event")
    if kind == "transition":
        return {
            "time": _as_time(record.get("time", 0.0)),
            "kind": "write",
            "writes": {record["monitor"]: record["value"]},
        }
    if kind == "fault":
        return {
            "time": _as_time(record.get("time", 0.0)),
            "kind": record.get("kind", "fault"),
            "writes": None,
        }
    if kind == "trial_start":
        return {"time": 0.0, "kind": "reset", "writes": None}
    return None


def campaign_to_events(
    records: Iterable[Mapping[str, Any]]
) -> Iterator[Dict[str, Any]]:
    """Translate campaign-log records into runtime events.

    The campaign runner logs a trial's ``fault`` records *after* its
    ``transition`` records (faults are drained from the network trace
    at trial end), so a trial's events are buffered and re-interleaved
    by simulation time before being yielded — otherwise every fault
    would appear downstream of the detections it caused and no latency
    window would ever close.  Faults win timestamp ties, so a fault
    coinciding with its detection measures latency 0.
    """
    buffer: list = []

    def flush() -> Iterator[Dict[str, Any]]:
        buffer.sort(
            key=lambda e: (e["time"], 0 if e["writes"] is None else 1)
        )
        yield from buffer
        buffer.clear()

    for record in records:
        event = _translate(record)
        if event is None:
            if record.get("event") == "trial_end":
                yield from flush()
            continue
        if event["kind"] == "reset":
            yield from flush()
            yield event
        else:
            buffer.append(event)
    yield from flush()


def iter_campaign_events(path) -> Iterator[Dict[str, Any]]:
    """Replay a recorded campaign JSONL log as runtime events."""
    return campaign_to_events(read_events(path))


def campaign_bank(
    monitors: Sequence[str] = ("safety", "legitimacy"),
    name: str = "campaign",
) -> DetectorBank:
    """The bank matching a campaign replay: one boolean variable per
    monitor (initially True — campaigns start healthy) and one detector
    per monitor firing when it reads False.  Read frames are exact by
    construction: each detector reads its own variable."""
    variables = [Variable(m, (True, False)) for m in monitors]
    detectors = [
        BankDetector(
            name=f"{m}_violated",
            predicate=var_eq(m, False),
            reads=frozenset({m}),
        )
        for m in monitors
    ]
    return DetectorBank(detectors, variables, name=name)


def normalize_event(record: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """One JSON object → one runtime event (or None for records with no
    runtime meaning).  Raw runtime events pass through; campaign-log
    records (recognized by their ``event`` key) are translated.

    Raises :class:`ValueError` for a record that is not an object, a
    ``time`` that is not a number, or ``writes`` that are neither null
    nor an object."""
    if record.__class__ is not dict and not isinstance(record, Mapping):
        raise ValueError(f"an event must be a JSON object, not {record!r}")
    if "event" in record:
        # direct translation, no trial re-interleaving: a live feed has
        # no buffered "rest of the trial" to sort against
        return _translate(record)
    at = record.get("time", 0.0)
    if at.__class__ is not float:
        at = _as_time(at)
    writes = record.get("writes")
    if (writes is not None and writes.__class__ is not dict
            and not isinstance(writes, Mapping)):
        raise ValueError(
            f"event writes must be an object or null, not {writes!r}"
        )
    return {
        "time": at,
        "kind": record.get("kind", "write"),
        "writes": writes,
    }


# -- async sources ------------------------------------------------------------

async def aiter_events(
    events: Iterable[Mapping[str, Any]]
) -> AsyncIterator[Mapping[str, Any]]:
    """Lift a synchronous iterable into an async event source."""
    for event in events:
        yield event


async def jsonl_source(path) -> AsyncIterator[Dict[str, Any]]:
    """Async iterator over a line-delimited JSON event file."""
    for record in read_events(path):
        event = normalize_event(record)
        if event is not None:
            yield event


async def socket_source(
    reader: "asyncio.StreamReader",
) -> AsyncIterator[Dict[str, Any]]:
    """Async iterator over a line-delimited JSON feed; ends at EOF.
    Blank lines are ignored (usable as keepalives)."""
    while True:
        line = await reader.readline()
        if not line:
            return
        line = line.strip()
        if not line:
            continue
        event = normalize_event(json.loads(line))
        if event is not None:
            yield event


async def open_socket_source(
    host: Optional[str] = None,
    port: Optional[int] = None,
    sock=None,
) -> AsyncIterator[Dict[str, Any]]:
    """Connect and stream: ``open_socket_source(host, port)`` for a TCP
    endpoint, ``open_socket_source(sock=one_end)`` for an existing
    socket (e.g. ``socket.socketpair()`` in tests)."""
    if sock is not None:
        reader, writer = await asyncio.open_connection(sock=sock)
    else:
        reader, writer = await asyncio.open_connection(host, port)
    try:
        async for event in socket_source(reader):
            yield event
    finally:
        writer.close()


# -- live simulation hooks ----------------------------------------------------

def attach_monitors(runtime, monitors: Iterable) -> None:
    """Feed :class:`~repro.sim.monitors.PredicateMonitor` transitions
    into ``runtime`` as they happen.  Each monitor's name must be a
    variable of the runtime's bank (see :func:`campaign_bank`); any
    previously installed ``on_transition`` callback keeps running."""
    for monitor in monitors:
        previous = monitor.on_transition

        def bridge(at, value, _name=monitor.name, _previous=previous):
            runtime.feed({
                "time": at, "kind": "write", "writes": {_name: value},
            })
            if _previous is not None:
                _previous(at, value)

        monitor.on_transition = bridge


def attach_network(runtime, network, writes_of=None) -> None:
    """Feed a :class:`~repro.sim.network.Network`'s trace events into
    ``runtime`` as they are recorded, by hooking the trace list's
    ``append`` (every recorder goes through it).  ``writes_of`` maps a
    :class:`~repro.sim.network.TraceEvent` to the variable writes it
    implies (default: the event's ``detail`` when it is a dict).
    Fault-kind events pass their kind through, so the runtime's
    latency window opens exactly at injection time."""

    class _FeedingTrace(list):
        def append(self, event):
            list.append(self, event)
            writes = writes_of(event) if writes_of is not None else (
                event.detail if isinstance(event.detail, dict) else None
            )
            runtime.feed({
                "time": event.time, "kind": event.kind, "writes": writes,
            })

    network.trace = _FeedingTrace(network.trace)
