"""In-memory spans recorded by the benchmark around calls into deplin.

A span has a name, start and end (``perf_counter_ns``), the index of the span
that caused it (or -1) and the id of the sentence or sample it belongs to.
Spans stay in memory until ``dump`` writes them at the end of a run.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self, section: str):
        self.section = section
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self._stack: list[int] = []

    def begin(self, name: str, item: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0, parent, item])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def add(self, name: str, start: int, end: int, parent: int, item: int) -> None:
        """Record a finished span whose interval was measured elsewhere."""
        self.spans.append([name, start, end, parent, item])

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, total duration, total self time), in seconds.

        Self time is a span's duration minus the durations of its children.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            acc = out[name]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child_ns[i]
        return {k: (c, total / 1e9, own / 1e9) for k, (c, total, own) in out.items()}


class NullTracer:
    """Records nothing: the untraced pass of the same code."""

    def begin(self, name: str, item: int) -> int:
        return 0

    def end(self, idx: int) -> None:
        pass


def dump(tracers: list[Tracer], path: str) -> None:
    """Write every span as one tab-separated line:
    section, index, parent, item, name, start_ns, end_ns."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for tr in tracers:
            for i, (name, start, end, parent, item) in enumerate(tr.spans):
                fh.write(f"{tr.section}\t{i}\t{parent}\t{item}\t{name}\t{start}\t{end}\n")
