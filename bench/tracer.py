"""In-memory spans for the benchmark's traced runs.

A span covers one call that the benchmark makes into a layer of
gallai.  It holds a name, a start and an end (``time.perf_counter``
seconds), the id of the enclosing span and the id of the operation it
belongs to: the outermost span of an operation gives its id to every
span inside it.  Each span is named after the per-layer metric that
its self time goes to, so aggregation needs no mapping table.

Spans stay in memory and are written out once, when the run ends.
Untraced passes use ``NULL_TRACER``, whose methods do nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self, scale: dict[int, float], default: float) -> dict[str, float]:
        """Self time summed per span name: each span's duration minus
        the part covered by its children, times the scale of its
        operation (``default`` for operations not in ``scale``).  Calls
        are sequential, so the children of a span never overlap and
        their durations add."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own * scale.get(s["op"], default)
        return out


class _NullTracer:
    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, amount: int = 1):
        pass


NULL_TRACER = _NullTracer()
