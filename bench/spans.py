"""Harness-side spans: one per call into a layer's public functions.

Spans live in memory and are summarised when the pass ends. Nothing in
``src/`` knows about them; spans inside the program are a later change.
"""

from __future__ import annotations

import time


class SpanRecorder:
    """Records ``(name, start, end, parent)`` around calls, nested by use."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def run(self, name: str, fn):
        """Call ``fn()`` inside a span named ``name``; returns its result."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            return fn()
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def summary(self) -> dict:
        """Per span name: call count, total seconds and self seconds (total
        minus the part its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            if end is None:
                continue
            row = out.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out
