"""The query service: cache → micro-batcher → oracle.

::

    front end (tcp.py / httpd.py) ──▶ QueryService
                                        │  cache (sharded LRU)
                                        │  MicroBatcher (≤ window_s)
                                        ▼
                                      in-process compiled oracle

Every batch is answered by ``query_batch`` on a compiled oracle (the
staged vectorized engine underneath), singletons by scalar ``query`` —
so a served answer is bit-identical to asking the oracle directly.
Dispatch is in-process and nothing else: one label intersection costs
less than shipping it to another process, so cores are used by the
replica tier (:mod:`repro.cluster`), not by a pool behind this class.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .batching import Batch, MicroBatcher
from .cache import ShardedLRUCache
from ..telemetry import Telemetry

__all__ = ["QueryService"]

Pair = Tuple[int, int]


def _oracle_bound(oracle) -> int:
    """The exclusive vertex-id bound the oracle accepts."""
    original = getattr(oracle, "original", None)
    if original is not None:  # build-mode facade
        return original.n
    condensation = getattr(oracle, "condensation", None)
    if condensation is not None:  # serve-mode facade: comp maps originals
        return len(condensation.comp)
    n = getattr(oracle, "n", None)  # compiled method oracle
    if isinstance(n, int):
        return n
    raise TypeError(f"cannot infer vertex bound of {type(oracle).__name__}")


def _memory_dedupe_updater(apply_updates):
    """Wrap a live index's update path with an in-memory dedupe window.

    Gives a plain (non-journaled) live server the same
    ``updater(edges, *, client=None, seq=None)`` shape as a
    :class:`~repro.durability.JournaledPrimary`, so ``OP_UPDATE_SEQ``
    re-sends after a lost ack dedupe instead of double-applying.  The
    window lives in memory only: idempotency holds for this server
    process's lifetime, not across a restart — durable dedupe is the
    journaled primary's job.  Un-sequenced calls (``client=None``)
    pass straight through.
    """
    from ..durability import DedupeWindow

    window = DedupeWindow()
    lock = threading.Lock()

    def updater(edges, *, client=None, seq=None):
        if client is None:
            return apply_updates(edges)
        with lock:
            cached = window.check(client, int(seq))
            if cached is not None:
                return dict(cached, deduped=True)
            summary = dict(apply_updates(edges))
            summary.update(client=client, seq=int(seq), deduped=False)
            window.record(client, int(seq), summary)
            return dict(summary)

    return updater


class QueryService:
    """Cache → batcher → oracle; the answer path shared by all frontends.

    Exactly one of ``artifact_path`` / ``oracle`` / ``store`` / ``live``
    picks the answer source:

    * ``artifact_path`` — a static artifact file (mmap-loaded in-process).
    * ``oracle`` — a live in-process oracle.
    * ``store`` — a :class:`repro.live.VersionedArtifactStore`: every
      batch leases the store's current epoch, so hot swaps published
      into the store take effect batch-atomically.
    * ``live`` — a :class:`repro.live.LiveIndex`: its store serves as
      above *and* its update path is mounted as :attr:`updater`, which
      the TCP front end exposes as the ``OP_UPDATE`` /
      ``OP_UPDATE_SEQ`` wire ops (sequenced updates dedupe through an
      in-memory window — idempotency holds for the server's lifetime
      but not across a restart).
    * ``primary`` — a :class:`repro.durability.JournaledPrimary`: its
      live index serves, and :attr:`updater` is the *journaled* update
      path — the ack implies the batch is on disk, and the dedupe
      window itself is persisted, so sequenced re-sends stay idempotent
      across a crash + recovery.

    ``window_s`` is the micro-batching window (0 disables coalescing)
    and ``adaptive_window`` lets it shrink under low arrival rate;
    ``cache_size`` the LRU entry budget (0 disables the cache) — in
    versioned modes cache keys carry the epoch, so a swap never serves
    a stale cached answer and never needs a flush.  ``owns_store``
    makes :meth:`close` close the store/live index too.

    ``allow_empty_store`` lets :meth:`start` succeed on a store with no
    published epoch — the shape of a blank replica waiting for its
    first shipped snapshot.  Queries before the first publish fail with
    a clear "no published epoch" error (never a crash), and serving
    begins the moment an epoch lands.
    """

    def __init__(
        self,
        artifact_path: Optional[str] = None,
        oracle=None,
        *,
        store=None,
        live=None,
        primary=None,
        window_s: float = 0.001,
        adaptive_window: bool = False,
        max_batch: int = 65536,
        cache_size: int = 65536,
        cache_shards: int = 8,
        owns_store: bool = False,
        allow_empty_store: bool = False,
        telemetry=True,
    ) -> None:
        sources = sum(
            x is not None for x in (artifact_path, oracle, store, live, primary)
        )
        if sources != 1:
            raise ValueError(
                "pass exactly one of artifact_path / oracle / store / live "
                "/ primary"
            )
        self._primary = primary
        if primary is not None:
            self._live = primary.live
            self._store = primary.live.store
            self.updater = primary.apply_update
        elif live is not None:
            self._live = live
            self._store = live.store
            self.updater = _memory_dedupe_updater(live.apply_updates)
        else:
            self._live = None
            self._store = store
            #: ``updater(edges, *, client=None, seq=None) -> summary``
            #: for the wire ``OP_UPDATE`` / ``OP_UPDATE_SEQ``; None on
            #: servers without an update path.
            self.updater = None
        if allow_empty_store and self._store is None:
            raise ValueError("allow_empty_store requires a store/live source")
        self.allow_empty_store = allow_empty_store
        self.artifact_path = None if artifact_path is None else str(artifact_path)
        self.window_s = window_s
        self.cache = ShardedLRUCache(cache_size, shards=cache_shards)
        self._oracle = oracle
        self._owns_store = owns_store
        self._batcher = MicroBatcher(
            self._route,
            window_s=window_s,
            max_batch=max_batch,
            adaptive=adaptive_window,
        )
        self._started = False
        self._closed = False
        self._started_at: Optional[float] = None
        self._stat_lock = threading.Lock()
        self._requests = 0
        self._pairs_in = 0
        self._singles = 0
        self._bound: Optional[int] = None
        self._epoch_bounds: Dict[int, int] = {}
        self._store_error = ""
        #: The service's observability bundle (``telemetry=True`` builds
        #: a fresh :class:`repro.telemetry.Telemetry`; ``False`` turns
        #: every instrument off; passing an instance shares one registry
        #: across co-hosted components).  Instrument handles are cached
        #: as attributes so the hot path never does a registry lookup.
        if isinstance(telemetry, bool):
            self.telemetry = Telemetry() if telemetry else None
        else:
            self.telemetry = telemetry
        self._req_hist = None
        self._req_errors = None
        self._stats_errors = None
        self._cache_hist = None
        self._lat_every = 1
        # -1 disables the sampling gate outright: ``n & -1`` is never 0
        # for a positive tick, so the hot path needs no separate
        # "telemetry off?" test.
        self._lat_mask = -1
        self._trace_mask = -1
        if self.telemetry is not None:
            registry = self.telemetry.registry
            # Sampling gates, pre-flattened into masks: the request
            # counter (already bumped under the stat lock) doubles as
            # the sampling tick, so an unsampled request pays exactly
            # one bitmask test for all of telemetry.
            self._lat_every = self.telemetry.latency_every
            self._lat_mask = self._lat_every - 1
            self._trace_mask = self.telemetry.sample_every - 1
            self._req_hist = registry.histogram(
                "repro_request_seconds",
                "service-side query latency, 1-in-%d sampled"
                % self._lat_every,
            )
            self._req_errors = registry.counter(
                "repro_request_errors_total", "requests completed with an error"
            )
            self._stats_errors = registry.counter(
                "repro_stats_errors_total",
                "stats() subsections that raised and were reported degraded",
            )
            registry.gauge(
                "repro_epoch",
                "artifact epoch currently serving (0 = static)",
                fn=lambda: self.current_epoch or 0,
            )
            registry.gauge(
                "repro_uptime_seconds",
                "seconds since the service started",
                fn=lambda: (
                    time.monotonic() - self._started_at if self._started_at else 0.0
                ),
            )
            # The cache-lookup histogram is observed *here* rather
            # than via ``cache.bind_metrics`` so the lookup is only
            # clocked on sampled requests and the cache's own hot path
            # stays identical with telemetry on or off.
            self._cache_hist = registry.histogram(
                "repro_cache_lookup_seconds",
                "wall time of one batched cache lookup (get_many), "
                "1-in-%d sampled" % self._lat_every,
            )
            self._batcher.bind_metrics(
                registry, sample_weight=self.telemetry.sample_every
            )
            # Versioned sources carry their own instrumentation points
            # (journal fsync, swap timing, compile stages): hand every
            # distinct component the same registry so one scrape sees
            # the whole pipeline.
            bound_components = []
            for component in (self._primary, self._live, self._store):
                if component is None or component in bound_components:
                    continue
                bound_components.append(component)
                bind = getattr(component, "bind_metrics", None)
                if bind is not None:
                    bind(registry)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "QueryService":
        if self._started:
            return self
        if self._store is not None:
            if self._store.current_epoch is None and not self.allow_empty_store:
                raise RuntimeError("the artifact store has no published epoch")
        elif self._oracle is None:
            from ..serialization import load_artifact

            self._oracle = load_artifact(self.artifact_path, mmap=True)
        if self._oracle is not None:
            self._bound = _oracle_bound(self._oracle)
        self._batcher.start()
        self._started = True
        self._started_at = time.monotonic()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._batcher.close()
        if self._owns_store:
            if self._primary is not None:
                self._primary.close()
            elif self._live is not None:
                self._live.close()
            elif self._store is not None:
                self._store.close()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the answer path -----------------------------------------------
    @property
    def current_epoch(self) -> Optional[int]:
        """The serving artifact epoch (None for static sources)."""
        return None if self._store is None else self._store.current_epoch

    def _bound_for(self, lease) -> int:
        """Memoized vertex-id bound of one leased epoch (the single
        implementation shared by ingress validation and _route)."""
        bound = self._epoch_bounds.get(lease.epoch)
        if bound is None:
            bound = _oracle_bound(lease.oracle)
            # Tiny monotone map (one entry per published epoch); prune
            # so a long-lived server doesn't grow one int per publish.
            if len(self._epoch_bounds) > 8:
                self._epoch_bounds.clear()
            self._epoch_bounds[lease.epoch] = bound
        return bound

    def _epoch_and_bound(self) -> Tuple[Optional[int], Optional[int]]:
        """One consistent ``(epoch, bound)`` snapshot for a request.

        Taken under a single lease: epoch and oracle must come from the
        SAME version (separate current_epoch/current_oracle reads could
        straddle a publish and cache the new oracle's bound under the
        old epoch key).  ``(None, None)`` only when a versioned store
        is unavailable — closed mid-request, or nothing published yet
        on a blank replica; the store's own message lands in
        ``_store_error`` and callers turn it into a clean error, never
        compare ids against it.
        """
        if self._store is None:
            return None, self._bound
        try:
            lease = self._store.acquire()
        except RuntimeError as exc:  # closed, or no epoch yet (blank replica)
            self._store_error = str(exc)
            return None, None
        try:
            return lease.epoch, self._bound_for(lease)
        finally:
            lease.release()

    def _current_bound(self) -> Optional[int]:
        """Vertex-id bound of whatever will answer the next batch."""
        return self._epoch_and_bound()[1]

    def _route(self, batch: Batch) -> None:
        """Batcher dispatch target: answer the batch in-process.

        Versioned sources lease the store's current epoch here — one
        lease per batch, released when the batch resolves — so every
        answer in a batch comes from exactly one artifact version.
        """
        if batch.singleton:
            with self._stat_lock:
                self._singles += 1
        lease = None
        if self._store is not None:
            try:
                lease = self._store.acquire()
            except Exception as exc:
                batch.fail(exc)
                return
            # Ingress validated against the *submission* epoch's bound;
            # if a swap to a smaller graph flipped in between, catch it
            # here with a clear error instead of letting the oracle
            # index out of range (which would surface as an opaque
            # engine exception).  Only the requests that carry
            # an out-of-range pair fail — innocent requests coalesced
            # into the same batch are re-batched and answered normally.
            bound = self._bound_for(lease)
            if any(u >= bound or v >= bound for u, v in batch.pairs):
                bad = [
                    req
                    for req in batch.requests
                    if any(u >= bound or v >= bound for u, v in req.pairs)
                ]
                good = [req for req in batch.requests if req not in bad]
                Batch(bad).fail(
                    ValueError(
                        f"request contains a vertex pair out of range for "
                        f"n={bound}: the served artifact changed to a "
                        f"smaller graph (epoch {lease.epoch}) after the "
                        "request was validated"
                    )
                )
                if not good:
                    lease.release()
                    return
                batch = Batch(good)
        try:
            oracle = self._oracle if lease is None else lease.oracle
            if batch.singleton:
                u, v = batch.pairs[0]
                answers = [bool(oracle.query(u, v))]
            else:
                answers = oracle.query_batch(batch.pairs)
            batch.resolve(answers, epoch=None if lease is None else lease.epoch)
        except Exception as exc:
            batch.fail(exc)
        finally:
            if lease is not None:
                lease.release()

    def query_pairs_async(
        self,
        pairs: Sequence[Pair],
        callback: Callable[[Optional[List[bool]], Optional[BaseException]], None],
        trace=None,
    ) -> None:
        """Answer a request without blocking the calling thread.

        ``callback(answers, error)`` fires exactly once — synchronously
        when the cache covers everything, otherwise from whichever
        thread resolves the batch.  ``trace`` (a telemetry
        :class:`~repro.telemetry.TraceContext`, usually decoded from an
        ``OP_QUERY_TRACED`` frame) collects per-stage spans; with
        telemetry enabled and no client trace, every K-th request is
        auto-traced so the tail sampler fills with organic exemplars.
        """
        if not self._started:
            raise RuntimeError("QueryService.start() has not been called")
        flush = getattr(callback, "flush_writer", None)
        req_errors = self._req_errors
        # One lease yields the request's consistent (epoch, bound):
        # the bound validates ingress, the epoch keys the cache reads.
        epoch, bound = self._epoch_and_bound()
        if bound is None:
            if req_errors is not None:
                req_errors.inc()
            callback(
                None,
                RuntimeError(self._store_error or "the artifact store is closed"),
            )
            if flush is not None:
                flush()
            return
        for u, v in pairs:
            if not (0 <= u < bound and 0 <= v < bound):
                if req_errors is not None:
                    req_errors.inc()
                callback(
                    None,
                    ValueError(
                        f"vertex pair ({u}, {v}) out of range for n={bound}"
                    ),
                )
                if flush is not None:
                    flush()
                return
        with self._stat_lock:
            self._requests = n_req = self._requests + 1
            self._pairs_in += len(pairs)
        # Telemetry gate.  The request counter just bumped under the
        # stat lock doubles as the sampling tick, so an unsampled,
        # untraced request pays exactly one bitmask test for the whole
        # observability layer (``_lat_mask`` is -1 when telemetry is
        # off, which no positive tick can mask to 0); clocks, closures,
        # and histogram locks only run for the sampled 1-in-K, whose
        # observations carry ``weight=K`` to keep the histograms
        # population-accurate.
        lat_weight = 0
        if trace is not None or not n_req & self._lat_mask:
            telemetry = self.telemetry
            if not n_req & self._lat_mask:
                lat_weight = self._lat_every
                if trace is None and not n_req & self._trace_mask:
                    trace = telemetry.new_trace(origin="server")
            t_start_ns = time.perf_counter_ns()
            if trace is not None:
                trace.meta["pairs"] = len(pairs)
            inner_callback = callback
            req_hist = self._req_hist

            def callback(answers, error):
                if lat_weight:
                    req_hist.observe_ns(
                        time.perf_counter_ns() - t_start_ns, lat_weight
                    )
                inner_callback(answers, error)

            if trace is not None:
                # The trace closes after the last work done on the
                # request's behalf: the writer flush when one exists
                # (timed as the "flush" span), else the callback.
                finished = [False]

                def _finish_trace(end_ns=None):
                    if not finished[0]:
                        finished[0] = True
                        trace.finish(end_ns)
                        if telemetry is not None:  # explicit trace, telemetry off
                            telemetry.offer(trace)

                if flush is not None:
                    inner_flush = flush

                    def flush():
                        f0 = time.perf_counter_ns()
                        inner_flush()
                        end = time.perf_counter_ns()
                        if not finished[0]:
                            trace.add_span("flush", f0, end)
                        _finish_trace(end)
                else:
                    inner_traced = callback

                    def callback(answers, error):
                        inner_traced(answers, error)
                        _finish_trace()

        # Cache reads use the epoch current at submission (from the
        # snapshot above); writes (in on_done) use the epoch that
        # actually answered the batch.  Both are correct for their own
        # version — entries never cross epochs.
        versioned = self._store is not None
        if lat_weight or trace is not None:
            c0 = time.perf_counter_ns()
            cached, missing = self.cache.get_many(pairs, epoch=epoch)
            c1 = time.perf_counter_ns()
            if trace is not None:
                trace.add_span("cache_lookup", c0, c1)
            if lat_weight:
                self._cache_hist.observe_ns(c1 - c0, lat_weight)
        else:
            cached, missing = self.cache.get_many(pairs, epoch=epoch)
        if not missing:
            callback([bool(a) for a in cached], None)
            if flush is not None:
                flush()
            return
        missing_pairs = [pairs[i] for i in missing]
        had_hits = len(missing) < len(pairs)

        def on_done(req) -> None:
            if req.error is not None:
                if req_errors is not None:
                    req_errors.inc()
                callback(None, req.error)
                return
            self.cache.put_many(
                missing_pairs,
                req.answers,
                epoch=req.epoch if versioned else None,
            )
            if versioned and had_hits and req.epoch != epoch:
                # A publish landed between the cache read (epoch) and
                # the batch lease (req.epoch): combining them would mix
                # versions inside one reply.  Re-ask the *whole* request
                # from the batcher — it rides one batch, hence one
                # epoch, so the retry cannot mix (and needs no loop).
                def on_retry(req2) -> None:
                    if req2.error is not None:
                        if req_errors is not None:
                            req_errors.inc()
                        callback(None, req2.error)
                        return
                    self.cache.put_many(pairs, req2.answers, epoch=req2.epoch)
                    callback([bool(a) for a in req2.answers], None)

                if flush is not None:
                    on_retry.flush_writer = flush
                self._batcher.submit_async(pairs, on_retry, trace)
                return
            for slot, answer in zip(missing, req.answers):
                cached[slot] = answer
            callback([bool(a) for a in cached], None)

        if flush is not None:
            # A buffering callback (TCP front end): the batch flushes
            # each distinct writer once after scattering every answer.
            on_done.flush_writer = flush
        self._batcher.submit_async(missing_pairs, on_done, trace)

    def query_pairs(self, pairs: Sequence[Pair]) -> List[bool]:
        """Blocking :meth:`query_pairs_async` (HTTP and test path)."""
        done = threading.Event()
        box: List[object] = [None, None]

        def callback(answers, error) -> None:
            box[0], box[1] = answers, error
            done.set()

        self.query_pairs_async(pairs, callback)
        done.wait()
        if box[1] is not None:
            raise box[1]
        return box[0]

    def query(self, u: int, v: int) -> bool:
        """One blocking scalar query through the full service path."""
        return self.query_pairs([(u, v)])[0]

    # -- stats ---------------------------------------------------------
    def stats(self) -> dict:
        """The structured stats document (v2).

        Version 2 adds ``stats_version``, a ``telemetry`` section
        (mergeable histogram snapshots + counters/gauges — what the
        cluster scrape aggregates), and honest failure reporting: a
        subsection whose provider raises is *named* in ``degraded``
        and counted in ``repro_stats_errors_total`` instead of being
        silently dropped.  Stats still never fail serving — a broken
        subsection costs that subsection, not the document.
        """
        with self._stat_lock:
            requests, pairs_in, singles = self._requests, self._pairs_in, self._singles
        artifact = self.artifact_path
        if artifact is None and self._store is not None:
            artifact = self._store.current_path
        doc = {
            "stats_version": 2,
            "artifact": artifact,
            "n": self._current_bound(),
            "epoch": self.current_epoch,
            "uptime_s": (
                time.monotonic() - self._started_at if self._started_at else 0.0
            ),
            "requests": requests,
            "pairs": pairs_in,
            "single_dispatches": singles,
            "cache": self.cache.stats(),
            "batcher": self._batcher.stats(),
        }
        degraded: List[str] = []

        def subsection(name: str, provider) -> None:
            try:
                doc[name] = provider()
            except Exception:  # a failed provider must not fail serving
                degraded.append(name)
                if self._stats_errors is not None:
                    self._stats_errors.inc()

        if self._primary is not None:
            subsection("durability", self._primary.stats)
        if self._live is not None:
            subsection("live", self._live.stats)
        elif self._store is not None:
            subsection("store", self._store.stats)
        if self._oracle is not None and hasattr(self._oracle, "stats"):
            subsection("oracle", self._oracle.stats)
        if degraded:
            doc["degraded"] = degraded
        if self.telemetry is not None:
            doc["telemetry"] = self.telemetry.snapshot()
        return doc
