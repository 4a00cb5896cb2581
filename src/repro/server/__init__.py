"""Concurrent reachability query service over compiled artifacts.

The build → compile → serve lifecycle (PR 3) produces mmap-shareable
binary artifacts; this package is the process that actually *serves*
them to concurrent clients:

* :mod:`repro.server.protocol` — the length-prefixed binary wire
  protocol (one ``u32 length | u8 opcode | u64 request_id`` header per
  frame, bit-packed answers).
* :mod:`repro.server.cache` — a sharded LRU result cache with
  hit/miss/negative-answer statistics.
* :mod:`repro.server.batching` — the micro-batching front end:
  requests arriving within a configurable window (default ~1 ms)
  coalesce into one batch for the vectorized engine; a lone request
  falls back to a single scalar query.
* :mod:`repro.server.service` — :class:`QueryService` (cache →
  batcher → in-process oracle), the one answer path every front end
  shares.
* :mod:`repro.server.tcp` — :class:`ReachServer`, the TCP front end,
  and :func:`serve_artifact`, the one-call deployment path.
* :mod:`repro.server.httpd` — :class:`~repro.server.httpd.HttpFrontend`,
  the stdlib JSON/HTTP fallback for curl-style clients and scrapers.
* :mod:`repro.server.client` — :class:`ReachClient` plus the
  open-/closed-loop load generator used by the harness and
  ``benchmarks/bench_server.py``.

Answers are bit-identical to a direct
:class:`~repro.core.compiled.CompiledOracle` on the same artifact —
batching and caching change throughput and latency only, never a
single answer bit.  Scaling across cores is the replica tier's job
(:mod:`repro.cluster`): every process answers in-process.

Live serving (:mod:`repro.live`) plugs in underneath: a
:class:`QueryService` built over a versioned artifact store leases one
epoch per batch (hot swaps are batch-atomic), cache keys carry the
epoch, and the wire protocol grows ``OP_UPDATE`` (edge insertions into
a live index) and ``OP_EPOCH`` ops.
"""

from .batching import MicroBatcher
from .cache import ShardedLRUCache
from .client import LoadReport, ReachClient, percentiles, run_load
from .protocol import OverloadedError
from .service import QueryService
from .tcp import ReachServer, serve_artifact

__all__ = [
    "MicroBatcher",
    "ShardedLRUCache",
    "ReachClient",
    "LoadReport",
    "run_load",
    "percentiles",
    "OverloadedError",
    "QueryService",
    "ReachServer",
    "serve_artifact",
]
