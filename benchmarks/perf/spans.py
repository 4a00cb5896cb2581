"""In-memory spans around the calls into each layer, and their self time.

The benchmark measures every layer from outside: a span is opened by
the benchmark's own code around a call into a public function of
``repro``.  Spans stay in memory until the run ends.  A span's *self
time* is its duration minus the part of it its child spans cover, so
the self times of a phase and everything under it sum to the phase's
wall time, and a layer's share of a phase is the sum of its spans' self
times.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Tracer", "self_times", "covered_length"]

_KEEP_EVERY = 64


class Tracer:
    """Collects ``(name, start, end, parent)`` spans; a no-op when disabled."""

    def __init__(self, enabled: bool, workload: str = "") -> None:
        self.enabled = enabled
        self.workload = workload
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[Optional[int]] = []
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> int:
        """Record a finished span; returns its id."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[int]]:
        """Time the body as a span under the innermost open span."""
        if not self.enabled:
            yield None
            return
        span_id = self.add(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.ends[span_id] = time.perf_counter()

    def dump(self, path: str, header: dict) -> None:
        """Write the spans as JSON; per-request spans are thinned out.

        Self times are computed over every span before thinning, so the
        file's ``self_s`` totals are exact even though only one
        ``wire.request`` span in ``_KEEP_EVERY`` is listed.
        """
        own = self_times(self.starts, self.ends, self.parents)
        totals: Dict[str, float] = {}
        for name, value in zip(self.names, own):
            totals[name] = totals.get(name, 0.0) + value
        spans = []
        skipped = 0
        for i, name in enumerate(self.names):
            if name == "wire.request":
                skipped += 1
                if skipped % _KEEP_EVERY:
                    continue
            spans.append(
                {
                    "id": i,
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                    "workload": self.workload,
                    "self_s": own[i],
                }
            )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"header": header, "self_s_by_name": totals, "spans": spans}, fh)


def covered_length(intervals: List[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(starts, ends, parents) -> List[float]:
    """Per span: its duration minus what its children cover of it.

    Children may overlap one another (requests in flight together), so
    the covered part is the length of their union, clipped to the
    parent — never their summed durations.
    """
    children: Dict[int, List[tuple]] = {}
    for i, parent in enumerate(parents):
        if parent is not None:
            lo = max(starts[i], starts[parent])
            hi = min(ends[i], ends[parent])
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    return [
        (ends[i] - starts[i]) - covered_length(children.get(i, []))
        for i in range(len(starts))
    ]
