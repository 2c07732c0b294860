"""In-memory spans recorded from the benchmark's own files.

A span is ``(id, parent, name, start_ns, end_ns, repeat)``.  Spans wrap
the calls the benchmark makes into each layer; none are recorded inside
the program.  They are kept in memory and written out once, at exit.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Iterator, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []

    def begin(self, name: str, parent: Optional[int], repeat: int = -1) -> int:
        self.spans.append([len(self.spans), parent, name, perf_counter_ns(), 0, repeat])
        return len(self.spans) - 1

    def end(self, span: int) -> int:
        """Close a span; returns its duration in ns."""
        record = self.spans[span]
        record[4] = perf_counter_ns()
        return record[4] - record[3]

    @contextmanager
    def span(
        self, name: str, parent: Optional[int], repeat: int = -1
    ) -> Iterator[int]:
        span = self.begin(name, parent, repeat)
        try:
            yield span
        finally:
            self.end(span)

    def leaf(self, name: str, parent: int, start_ns: int, end_ns: int) -> None:
        """Record an already-timed call (the per-call spans of a rung)."""
        self.spans.append([len(self.spans), parent, name, start_ns, end_ns, -1])

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "name", "start_ns", "end_ns", "repeat")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)
