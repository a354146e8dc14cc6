"""In-memory spans around the benchmark's own calls into qsodyn.

A span records the operation it belongs to, the public function called, and
its start and end. Spans are kept in memory and summarised when the run
ends. The untraced run uses :data:`OFF`, whose spans record nothing.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    enabled = True

    def __init__(self):
        self.op = 0  # identifier shared by the spans of one operation
        self.round = 0
        self.spans = []  # (op, name, start, end)
        self.counts = defaultdict(int)  # work done in the first round only

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.op, name, start, time.perf_counter()))

    def record(self, name: str, seconds: float) -> None:
        """A span measured elsewhere, such as inside a child process."""
        self.spans.append((self.op, name, 0.0, seconds))

    def count(self, name: str, amount: int = 1) -> None:
        if self.round == 0:
            self.counts[name] += amount

    def durations(self, name: str) -> list:
        return [end - start for _, n, start, end in self.spans if n == name]

    def per_op(self, name: str) -> dict:
        """Total time in ``name`` for each operation that called it."""
        out = defaultdict(float)
        for op, n, start, end in self.spans:
            if n == name:
                out[op] += end - start
        return out

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def self_time(self, outer: str, *inner: str) -> float:
        """Median over operations of ``outer`` minus the ``inner`` calls that
        re-ran its public pieces on the same inputs."""
        total = self.per_op(outer)
        parts = [self.per_op(name) for name in inner]
        return statistics.median(total[op] - sum(p[op] for p in parts) for op in total)


class _Off:
    enabled = False
    op = 0
    round = 0

    def span(self, name: str):
        return nullcontext()


OFF = _Off()
