"""Request tracing: client-allocated trace IDs, spans, tail sampling.

A trace is born at whichever edge first decides to watch a request —
a client sending ``OP_QUERY_TRACED`` with an ID it allocated, or the
server's own 1-in-K auto-sampler — and rides the request object
through the pipeline.  Each stage appends a **span**: a
``(name, start_ns, duration_ns)`` triple on the shared
``perf_counter_ns`` clock of the process doing the work.  The standard
query spans are::

    decode → cache_lookup → batch_wait → dispatch → flush

(plus ``journal_append`` / ``fsync`` on the update path and per-stage
spans in the incremental compiler), so a finished trace answers the
only question that matters when a request is slow: *where did the
milliseconds go?*

Storage is a :class:`TraceTailSampler` — **tail** sampling, decided
after the request finishes, keeping only the slowest N traces ever
seen (a min-heap on total duration).  Head sampling keeps a uniform
slice of mostly-boring requests; the tail sampler keeps exactly the
exemplars worth reading.  ``OP_TRACE`` returns them slowest-first.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
from typing import List, Optional

__all__ = ["new_trace_id", "TraceContext", "TraceTailSampler"]

_id_counter = itertools.count(1)
_id_salt = int.from_bytes(os.urandom(8), "little") | 1


def new_trace_id() -> int:
    """A process-unique non-zero u64 trace id (0 means "untraced")."""
    # A multiplicative hash of a monotone counter: unique per process,
    # well-scattered across processes (the salt is random per import),
    # and far cheaper than urandom per request.
    return (next(_id_counter) * _id_salt * 0x9E3779B97F4A7C15) % (1 << 64) or 1


class TraceContext:
    """One request's spans, accumulated as the request flows through.

    ``add_span`` may be called from any thread (connection reader,
    batcher, resolver) — list appends are atomic under the GIL, and the span
    list is only *read* after :meth:`finish`, which the completion
    callback calls exactly once.
    """

    __slots__ = ("trace_id", "origin", "start_ns", "duration_ns", "spans", "meta")

    def __init__(self, trace_id: int, origin: str = "client") -> None:
        self.trace_id = trace_id
        self.origin = origin
        self.start_ns = time.perf_counter_ns()
        self.duration_ns: Optional[int] = None
        self.spans: List[tuple] = []
        self.meta: dict = {}

    def add_span(self, name: str, start_ns: int, end_ns: int) -> None:
        self.spans.append((name, start_ns, max(0, end_ns - start_ns)))

    def finish(self, end_ns: Optional[int] = None) -> int:
        if self.duration_ns is None:
            if end_ns is None:
                end_ns = time.perf_counter_ns()
            self.duration_ns = max(0, end_ns - self.start_ns)
        return self.duration_ns

    def to_doc(self) -> dict:
        """JSON-able exemplar: spans carry offsets *relative to* start."""
        return {
            "trace_id": self.trace_id,
            "origin": self.origin,
            "duration_ns": self.duration_ns,
            "meta": dict(self.meta),
            "spans": [
                {
                    "name": name,
                    "offset_ns": max(0, start - self.start_ns),
                    "duration_ns": dur,
                }
                for name, start, dur in self.spans
            ],
        }


class TraceTailSampler:
    """Keep the slowest ``keep`` finished traces ever offered.

    A min-heap on duration: offering a trace faster than the current
    floor is one comparison and no allocation, so the sampler stays
    cheap even when every request is traced.  ``snapshot()`` returns
    exemplar docs slowest-first.
    """

    def __init__(self, keep: int = 32) -> None:
        self.keep = max(1, keep)
        self._lock = threading.Lock()
        self._heap: List[tuple] = []  # (duration_ns, seq, trace)
        self._seq = 0
        self._offered = 0

    def offer(self, trace: TraceContext) -> None:
        duration = trace.duration_ns
        if duration is None:  # pragma: no cover - finish() guards this
            duration = trace.finish()
        with self._lock:
            self._offered += 1
            if len(self._heap) < self.keep:
                self._seq += 1
                heapq.heappush(self._heap, (duration, self._seq, trace))
            elif duration > self._heap[0][0]:
                self._seq += 1
                heapq.heapreplace(self._heap, (duration, self._seq, trace))

    def snapshot(self, limit: Optional[int] = None) -> List[dict]:
        with self._lock:
            entries = sorted(self._heap, key=lambda e: -e[0])
        if limit is not None:
            entries = entries[:limit]
        return [trace.to_doc() for _dur, _seq, trace in entries]

    def stats(self) -> dict:
        with self._lock:
            return {
                "kept": len(self._heap),
                "keep": self.keep,
                "offered": self._offered,
                "slowest_ns": self._heap and max(e[0] for e in self._heap) or 0,
            }
