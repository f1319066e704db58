"""In-memory spans around calls into attngrad.

A span records ``(name, start, end, parent, op)``: the public function
called, its ``perf_counter`` interval, the index of the enclosing span
(or ``None``) and the id of the op that caused it. Spans are kept in a
list and written out only when the run ends, so recording costs two
clock reads and a list append.
"""

from __future__ import annotations

import contextlib
import statistics
import time


class Tracer:
    """Span recorder. ``op`` is set by the caller before each op."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, the summed self time of each span name: a span's
        duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_op: dict[int, dict[str, float]] = {}
        for index, (name, start, end, _, op) in enumerate(self.spans):
            names = per_op.setdefault(op, {})
            names[name] = names.get(name, 0.0) + (end - start) - child_time[index]
        return per_op

    def records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def median_self_time(per_op: dict[int, dict[str, float]], name: str) -> float:
    """Median over the ops that ran ``name`` of its per-op self time;
    0.0 when no op ran it."""
    values = [names[name] for names in per_op.values() if name in names]
    return statistics.median(values) if values else 0.0
