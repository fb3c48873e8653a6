"""In-memory span recorder for the benchmark's traced runs.

The program under test has no tracing of its own yet, so the benchmark
records spans around the calls it makes into each layer's public
functions.  A span is ``name, start, end, parent, op``: ``op`` is the id
shared by every span of one operation (one library op, one HTTP request,
one probe round), ``parent`` the id of the span that was open on the same
thread when this one started.  Spans stay in memory and are written as
Chrome-trace JSON (``chrome://tracing`` / https://ui.perfetto.dev) when
the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    """Collects spans; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op: str) -> Iterator[dict]:
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids),
            "name": name,
            "op": op,
            "parent": stack[-1]["id"] if stack else None,
            "tid": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def durations(self, name: str) -> list[float]:
        """Durations of every finished span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def children_seconds(self) -> dict[int, float]:
        """Per span id, the time its direct children cover.

        A span's *self time* is its duration minus this; children of one
        parent never overlap here because each thread runs one at a time.
        """
        covered: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = (
                    covered.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        return covered

    def chrome_trace(self, process_name: str) -> dict:
        """The spans as Chrome-trace "complete" events (microseconds)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        tids = {tid: n for n, tid in enumerate(
            dict.fromkeys(s["tid"] for s in self.spans), start=1
        )}
        events: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": process_name},
        }]
        for s in sorted(self.spans, key=lambda s: s["start"]):
            events.append({
                "name": s["name"],
                "cat": s["name"].split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": tids[s["tid"]],
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"id": s["id"], "parent": s["parent"], "op": s["op"]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
