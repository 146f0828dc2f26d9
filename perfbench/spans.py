"""In-memory spans with parent links, self-time arithmetic and Chrome traces.

A :class:`Tracer` records one span per call into a wrapped entry point:
name, process, thread, start, end and the span that was open on the same
thread when it began (its parent).  Spans stay in memory until the
benchmark writes them out, so tracing costs two clock reads and a list
append per call.

Self time is a span's duration minus the part of it that its children *in
the same process* cover.  A child recorded in another process (a forked
worker inherits the open span stack, so its first span links to the span
that forked it) ran in parallel with its parent, so it is linked but never
subtracted: the parent's self time then is the time it spent waiting.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import Counter


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name: str, after=None, detail=None):
        """``func`` timed as span ``name``; ``after(args, result)`` may
        return counter increments, booked once the span has closed, and
        ``detail(args)`` a short string stored with the span."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = f"{os.getpid()}:{next(tracer._ids)}"
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "start": start,
                    "end": end,
                }
                if detail is not None:
                    span["detail"] = detail(args)
                with tracer._lock:
                    tracer.spans.append(span)
            if after is not None:
                increments = after(args, result)
                if increments:
                    with tracer._lock:
                        tracer.counters.update(increments)
            return result

        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        traced.__wrapped__ = func
        return traced


def layer_of(name: str) -> str:
    """A span name is ``<layer>.<entry point>``."""
    return name.split(".", 1)[0]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the union of its same-process children,
    clipped to the span."""
    by_id = {span["id"]: span for span in spans}
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None or parent["pid"] != span["pid"]:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {
        span["id"]: max(
            0.0,
            (span["end"] - span["start"]) - _union_length(children.get(span["id"], [])),
        )
        for span in spans
    }


def is_top_level(span: dict, by_id: dict[str, dict]) -> bool:
    """No parent in the span's own process."""
    parent = by_id.get(span["parent"])
    return parent is None or parent["pid"] != span["pid"]


def coverage(spans: list[dict], pid: int, window: tuple[float, float]) -> float:
    """Seconds of ``window`` covered by process ``pid``'s top-level spans."""
    by_id = {span["id"]: span for span in spans}
    low, high = window
    intervals = [
        (max(span["start"], low), min(span["end"], high))
        for span in spans
        if span["pid"] == pid and is_top_level(span, by_id)
        and span["end"] > low and span["start"] < high
    ]
    return _union_length(intervals)


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per layer and per entry point: ``calls`` and summed ``self_s``
    (summed over every process, so parallel workers add up)."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        for key in (layer_of(span["name"]), span["name"]):
            entry = totals.setdefault(key, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own[span["id"]]
    return totals


def chrome_trace(spans: list[dict], origin: float) -> dict:
    """Chrome trace-event JSON (complete events, microseconds from
    ``origin``), with the span and parent ids in each event's args."""
    events = [
        {
            "name": span["name"],
            "cat": layer_of(span["name"]),
            "ph": "X",
            "ts": round((span["start"] - origin) * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "pid": span["pid"],
            "tid": span["tid"],
            "args": {"id": span["id"], "parent": span["parent"]},
        }
        for span in sorted(spans, key=lambda s: s["start"])
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
