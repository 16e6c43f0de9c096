"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps the public entry points of each layer of
``repro`` (module functions and class methods), keeps a stack of the
wrapped calls that are active, and aggregates per metric a call count,
an inclusive time and a self time (the call's time minus that of the
wrapped calls it made).  Every wrapped call and every harness frame
(a pass, an operation) is a frame on that stack, so the self times of
one pass add up to its wall exactly.

Hot paths (per-state canonicalization, per-event syndrome updates)
are only aggregated; other calls are also kept as spans and written
out as Chrome trace-event JSON, which Perfetto opens.

Nothing here is imported by the program: the wrappers are installed
into the imported modules for the traced passes and removed again for
the untraced ones.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

now = time.perf_counter


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Frame:
    __slots__ = ("name", "start", "child", "outer", "dur", "self_time",
                 "mark")

    def __init__(self, name: str, start: float, outer: bool) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.outer = outer  # not nested in a frame of the same name
        self.dur = 0.0
        self.self_time = 0.0
        self.mark = False  # set by a child frame's counter hook


class Tracer:
    """Aggregated timings, counters and spans of wrapped calls."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.counters: Dict[str, float] = {}
        self.spans: List[Dict[str, Any]] = []
        self.span_id = 0  # the pass the current spans belong to
        self._stack: List[Frame] = []
        self._depth: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_start = 0.0

    # -- frames -------------------------------------------------------------
    def enter(self, name: str) -> Frame:
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        frame = Frame(name, now(), depth == 0)
        self._stack.append(frame)
        return frame

    def exit(self, frame: Frame, span: bool) -> None:
        end = now()
        self._stack.pop()
        self._depth[frame.name] -= 1
        frame.dur = end - frame.start
        frame.self_time = frame.dur - frame.child
        if self._stack:
            self._stack[-1].child += frame.dur
        stat = self.stats.get(frame.name)
        if stat is None:
            stat = self.stats[frame.name] = Stat()
        stat.self_time += frame.self_time
        if frame.outer:
            stat.calls += 1
            stat.total += frame.dur
        if span:
            self.spans.append({
                "name": frame.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round(frame.start * 1e6, 3),
                "dur": round(frame.dur * 1e6, 3),
                "args": {"pass": self.span_id},
            })

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def caller(self) -> Optional[Frame]:
        """The innermost open frame (the caller of a closed one)."""
        return self._stack[-1] if self._stack else None

    def reset(self) -> None:
        """Drop the aggregates (not the spans) before a traced pass."""
        self.stats.clear()
        self.counters.clear()

    def total(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.total if stat else 0.0

    def self_time(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.self_time if stat else 0.0

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    # -- wrappers -----------------------------------------------------------
    def wrap(self, fn: Callable, name: str, hot: bool = False,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed under ``name``; ``after(frame, args, result)``
        runs once the frame is closed (for counters)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, not hot)
            if after is not None:
                after(frame, args, result)
            return result

        return traced

    def timed_iter(self, iterable, name: str):
        """Yield from ``iterable``, timing each step under ``name``."""
        it = iter(iterable)
        while True:
            frame = self.enter(name)
            try:
                item = next(it)
            except StopIteration:
                self.exit(frame, False)
                return
            except BaseException:
                self.exit(frame, False)
                raise
            self.exit(frame, False)
            yield item

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module_name: str, attr: str, name: str,
                       hot: bool = False,
                       after: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` in its defining module and in every loaded
        module that imported the same function object by name."""
        original = getattr(sys.modules[module_name], attr)
        self._replace(original, self.wrap(original, name, hot=hot,
                                          after=after))

    def _replace(self, original: Callable, replacement: Callable) -> None:
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(module, key, replacement)

    def patch_method(self, cls: type, attr: str, name: str,
                     hot: bool = False,
                     after: Optional[Callable] = None) -> None:
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name, hot=hot,
                                       after=after))

    def patch_generator(self, module_name: str, attr: str,
                        name: str) -> None:
        """Wrap a generator function so that every step it takes is
        timed (calling a generator function does no work by itself)."""
        original = getattr(sys.modules[module_name], attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.timed_iter(original(*args, **kwargs), name)

        self._replace(original, traced)

    def _gc_callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = now()
        else:
            self.count("python.gc_s", now() - self._gc_start)
            self.count("python.gc_collections")

    def install_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- output -------------------------------------------------------------
    def write_chrome_trace(self, path: str,
                           metadata: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.spans,
                       "displayTimeUnit": "ms",
                       "otherData": metadata}, handle)
