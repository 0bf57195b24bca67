"""Spans recorded by the benchmark around its calls into each layer.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or -1, ``op`` the id of the benchmark operation it belongs
to. Spans are kept in memory and written out once, when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span recorder; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def mark(self) -> tuple[int, dict]:
        """Position to diff against with :meth:`since`."""
        return len(self.spans), dict(self.counts)

    def since(self, mark) -> tuple[dict, dict, dict]:
        """(total time, self time, counts) per span name after ``mark``."""
        start, counts0 = mark
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        spans = self.spans[start:]
        for i, (name, t0, t1, parent, _) in enumerate(spans, start):
            total[name] += t1 - t0
            if parent >= start:
                child[parent] += t1 - t0
        own: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(spans, start):
            own[name] += (t1 - t0) - child[i]
        counts = {k: v - counts0.get(k, 0.0) for k, v in self.counts.items()}
        return dict(total), dict(own), counts

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts}, fh)
