"""The online monitoring runtime: events in, syndromes out.

A :class:`MonitorRuntime` maintains one values tuple over a
:class:`~repro.monitoring.banks.DetectorBank`'s schema and folds a
stream of *events* into it.  An event is a plain dict::

    {"time": 3.5, "kind": "write", "writes": {"x2": 1}}

``writes`` maps variable names to new values; ``kind`` distinguishes
ordinary writes from fault occurrences (any of the campaign engine's
``FAULT_EVENT_KINDS`` plus the generic ``"fault"``) and stream resets.

The hot path, :meth:`feed`, is synchronous and frame-aware: an event
touches only the detectors whose declared read frames intersect its
written variables (the bank's per-variable bitmasks), and a write that
does not change a value touches nothing at all.  A syndrome
*transition* may happen on nearly every event (a token ring's token
moves on every step), so a transition renders and searches nothing
unless something asks for it: the telemetry sink builds a JSONL record
only when a stream is attached, the decoder searches each distinct
syndrome once and answers repeats from its memo, and only registered
correctors and callbacks run.  Otherwise a transition is a few
dictionary probes and counter bumps.  :meth:`drain` is the bulk
spelling with the loop invariants hoisted; the throughput benchmark and
the replay CLI go through it.

The asyncio layer is a thin shell: :meth:`run` consumes any async
iterator of events (see :mod:`repro.monitoring.sources` for JSONL
files, line-delimited sockets, campaign-log replay, and live simulator
hooks) and awaits nothing per event beyond the source itself.

Detection latency is measured in stream time: a fault-kind event opens
a pending window (if none is open), and the next healthy→unhealthy
transition (zero → nonzero syndrome) closes it, recording ``time of
transition − time of fault``.  This matches the campaign classifier's
fault-onset-to-first-detection convention.
"""

from __future__ import annotations

import time as _time
from typing import (
    Any,
    AsyncIterable,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..campaigns.runner import FAULT_EVENT_KINDS
from .banks import DetectorBank
from .decoder import Decoded, SyndromeDecoder
from .telemetry import TelemetrySink

__all__ = ["FAULT_KINDS", "MonitorRuntime"]

#: event kinds the runtime treats as fault occurrences (opens the
#: detection-latency window)
FAULT_KINDS = frozenset(FAULT_EVENT_KINDS) | {"fault"}

#: syndrome-transition callback: (runtime, old, new, time)
SyndromeCallback = Callable[["MonitorRuntime", int, int, float], None]


class MonitorRuntime:
    """Incremental syndrome computation over an event stream.

    Parameters
    ----------
    bank:
        The compiled detector bank; its schema fixes the tracked
        variables.
    decoder:
        Optional :class:`SyndromeDecoder`; when present, every
        transition to a nonzero syndrome is decoded and the selected
        entry's corrector callback (if any) is invoked.
    telemetry:
        Optional :class:`TelemetrySink`; created unstreamed by default.
    initial:
        Starting values per variable; unnamed variables default to the
        first value of their domain (the same convention
        ``state_space`` enumerates first).
    """

    def __init__(
        self,
        bank: DetectorBank,
        decoder: Optional[SyndromeDecoder] = None,
        telemetry: Optional[TelemetrySink] = None,
        initial: Optional[Mapping[str, Any]] = None,
    ):
        self.bank = bank
        self.decoder = decoder
        self.telemetry = (
            telemetry if telemetry is not None
            else TelemetrySink(bank.detector_names)
        )
        defaults = {v.name: v.domain[0] for v in bank.variables}
        if initial:
            unknown = set(initial) - set(defaults)
            if unknown:
                raise KeyError(
                    f"initial values name unknown variable(s) {sorted(unknown)}"
                )
            defaults.update(initial)
        self._initial: Tuple[Any, ...] = tuple(
            defaults[name] for name in bank.schema.names
        )
        self._values: List[Any] = list(self._initial)
        self._positions = bank.schema.index
        self._masks = bank._var_masks
        self.syndrome: int = bank.syndrome_of_values(self._values)
        self.time: float = 0.0
        self.events: int = 0
        self.corrections: List[Tuple[float, Decoded]] = []
        self._pending_fault: Optional[float] = None
        self._callbacks: List[SyndromeCallback] = []

    # -- wiring ------------------------------------------------------------
    def on_syndrome(self, callback: SyndromeCallback) -> SyndromeCallback:
        """Register a transition callback (usable as a decorator)."""
        self._callbacks.append(callback)
        return callback

    def values(self) -> Dict[str, Any]:
        """The tracked variable values, as a dict snapshot."""
        return dict(zip(self.bank.schema.names, self._values))

    # -- hot path ----------------------------------------------------------
    def feed(self, event: Mapping[str, Any]) -> int:
        """Fold one event into the runtime; returns the current syndrome."""
        self.events += 1
        at = event.get("time")
        if at is not None:
            self.time = at
        kind = event.get("kind")
        if kind is not None:
            if kind in FAULT_KINDS:
                if self._pending_fault is None:
                    self._pending_fault = self.time
            elif kind == "reset":
                self._reset()
                return self.syndrome
        writes = event.get("writes")
        if writes:
            values = self._values
            positions = self._positions
            masks = self._masks
            dirty = 0
            for name, value in writes.items():
                position = positions.get(name)
                if position is None or values[position] == value:
                    continue
                values[position] = value
                dirty |= masks[name]
            if dirty:
                old = self.syndrome
                new = self.bank.update_syndrome(old, values, dirty)
                if new != old:
                    self._transition(old, new)
        return self.syndrome

    def drain(self, events: Iterable[Mapping[str, Any]]) -> int:
        """Feed a whole iterable through the hot path with the loop
        invariants hoisted; returns the number of events consumed.

        When the iterable (or an event) raises, ``events`` and ``time``
        still count every event consumed, as :meth:`feed` would have."""
        values = self._values
        positions_get = self._positions.get
        masks = self._masks
        update = self.bank.update_syndrome
        fault_kinds = FAULT_KINDS
        count = 0
        at = self.time
        try:
            for event in events:
                count += 1
                when = event.get("time")
                if when is not None:
                    at = when
                kind = event.get("kind")
                if kind is not None:
                    if kind in fault_kinds:
                        if self._pending_fault is None:
                            self._pending_fault = at
                    elif kind == "reset":
                        self.time = at
                        self._reset()
                        continue
                writes = event.get("writes")
                if writes:
                    dirty = 0
                    for name, value in writes.items():
                        position = positions_get(name)
                        if position is None or values[position] == value:
                            continue
                        values[position] = value
                        dirty |= masks[name]
                    if dirty:
                        old = self.syndrome
                        new = update(old, values, dirty)
                        if new != old:
                            self.time = at
                            self._transition(old, new)
        finally:
            self.time = at
            self.events += count
        return count

    # -- cold path ---------------------------------------------------------
    def _transition(self, old: int, new: int) -> None:
        """Everything that happens only when the syndrome changes."""
        self.syndrome = new
        now = self.time
        self.telemetry.record_transition(now, old, new)
        if old == 0 and new != 0 and self._pending_fault is not None:
            self.telemetry.record_latency(now, now - self._pending_fault)
            self._pending_fault = None
        if self.decoder is not None and new != 0:
            decoded = self.decoder.decode(new)
            if decoded is not None:
                self.corrections.append((now, decoded))
                self.telemetry.record_correction(now, decoded)
                if decoded.entry.corrector is not None:
                    decoded.entry.corrector(self, decoded, now)
        for callback in self._callbacks:
            callback(self, old, new, now)

    def _reset(self) -> None:
        """Stream boundary (e.g. a new campaign trial): restore initial
        values and recompute the syndrome from scratch.  Boundaries are
        not transitions — no decoding, no latency measurement."""
        self._values[:] = self._initial
        self.syndrome = self.bank.syndrome_of_values(self._values)
        self._pending_fault = None
        self.telemetry.record_reset(self.time)

    # -- async shell -------------------------------------------------------
    async def run(
        self, source: AsyncIterable[Mapping[str, Any]]
    ) -> Dict[str, Any]:
        """Consume an async event source to exhaustion; returns the
        telemetry summary (with measured wall-clock throughput)."""
        started = _time.perf_counter()
        before = self.events
        feed = self.feed
        async for event in source:
            feed(event)
        wall_s = _time.perf_counter() - started
        return self.telemetry.summary(self.events - before, wall_s)

    def run_sync(self, events: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
        """:meth:`run` for a synchronous iterable (drain + summary)."""
        started = _time.perf_counter()
        count = self.drain(events)
        wall_s = _time.perf_counter() - started
        return self.telemetry.summary(count, wall_s)

    def __repr__(self) -> str:
        return (
            f"MonitorRuntime({self.bank.name!r}, "
            f"syndrome={self.bank.describe(self.syndrome)}, "
            f"events={self.events})"
        )
