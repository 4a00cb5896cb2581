"""Micro-batching front end: coalesce concurrent requests into batches.

The PR 2 batch engine is fastest when queries arrive in large ndarray
batches, which favours *fewer, bigger* units of work.  Individual
clients send small requests, so the batcher buys throughput with a tiny
latency deposit: the first request of a batch waits up to ``window_s``
(default 1 ms) for company, then everything that accumulated is
dispatched as one batch.

The dispatch callback receives a :class:`Batch` and resolves or fails
it (:class:`~repro.server.service.QueryService` answers it in-process
on the dispatching thread).
A batch that coalesced nothing — one request, one pair — is flagged
``singleton`` so the executor can answer it with a scalar ``query``
instead of paying array-batch setup: micro-batching under low load
degrades to exactly the unbatched path plus the window wait.

``window_s=0`` disables coalescing entirely: every request is
dispatched synchronously from its submitting thread.  That is the
"batching off" axis of ``benchmarks/bench_server.py``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["QueryRequest", "Batch", "MicroBatcher"]

Pair = Tuple[int, int]


class QueryRequest:
    """One client request: its pairs and the completion callback."""

    __slots__ = ("pairs", "callback", "answers", "error", "epoch", "trace",
                 "t_submit_ns")

    def __init__(self, pairs: Sequence[Pair], callback, trace=None) -> None:
        self.pairs = pairs
        self.callback = callback
        self.answers: Optional[List[bool]] = None
        self.error: Optional[BaseException] = None
        #: Artifact epoch that answered this request (live serving only;
        #: set by :meth:`Batch.resolve`, None for static oracles).
        self.epoch: Optional[int] = None
        #: Optional :class:`repro.telemetry.TraceContext` riding the
        #: request; stages append spans as the request flows through.
        self.trace = trace
        #: ``perf_counter_ns`` at submission (0 = telemetry disabled or
        #: not sampled); the batch-wait span/histogram measures from here.
        self.t_submit_ns = 0

    def _complete(self) -> None:
        if self.callback is not None:
            self.callback(self)


class Batch:
    """A dispatch unit: one or more requests, pairs concatenated."""

    __slots__ = ("requests", "pairs", "t_created_ns")

    def __init__(self, requests: List[QueryRequest]) -> None:
        self.requests = requests
        if len(requests) == 1:
            self.pairs = list(requests[0].pairs)
        else:
            pairs: List[Pair] = []
            for req in requests:
                pairs.extend(req.pairs)
            self.pairs = pairs
        # Batches are built at dispatch time (window drain, window=0
        # pass-through, or a re-batch), so creation marks the start of
        # the "dispatch" span for every traced member request.
        self.t_created_ns = time.perf_counter_ns()

    @property
    def singleton(self) -> bool:
        """True when nothing coalesced: one request carrying one pair."""
        return len(self.requests) == 1 and len(self.pairs) == 1

    def resolve(self, answers: Sequence[bool], epoch: Optional[int] = None) -> None:
        """Scatter batch answers back to the member requests.

        ``epoch`` records which artifact version produced the answers
        (live serving): the whole batch was answered under one epoch
        lease, so every member request gets the same value — a batch is
        never a mix of versions.
        """
        if len(answers) != len(self.pairs):
            self.fail(
                RuntimeError(
                    f"executor returned {len(answers)} answers for "
                    f"{len(self.pairs)} pairs"
                )
            )
            return
        offset = 0
        now = 0
        for req in self.requests:
            take = len(req.pairs)
            req.answers = list(answers[offset:offset + take])
            req.epoch = epoch
            offset += take
            if req.trace is not None:
                if not now:
                    now = time.perf_counter_ns()
                req.trace.add_span("dispatch", self.t_created_ns, now)
            req._complete()
        self._flush_writers()

    def fail(self, error: BaseException) -> None:
        """Propagate one executor failure to every member request."""
        now = 0
        for req in self.requests:
            req.error = error
            if req.trace is not None:
                if not now:
                    now = time.perf_counter_ns()
                req.trace.add_span("dispatch", self.t_created_ns, now)
            req._complete()
        self._flush_writers()

    def _flush_writers(self) -> None:
        """Flush each distinct buffering callback once, after all scatter.

        A callback may expose ``flush_writer`` (see the TCP server's
        buffered connection writer): completions then only *queue*
        response bytes, and one flush per (batch, connection) writes
        them — one syscall instead of one per request, which is a large
        share of the per-request cost micro-batching amortizes.
        """
        flushes = []
        for req in self.requests:
            flush = getattr(req.callback, "flush_writer", None)
            if flush is not None and flush not in flushes:
                flushes.append(flush)
        for flush in flushes:
            flush()


class MicroBatcher:
    """Coalesce requests arriving within a window into one batch.

    Parameters
    ----------
    dispatch:
        ``dispatch(batch)`` — executes (or enqueues) a :class:`Batch`
        and eventually calls ``batch.resolve(answers)`` or
        ``batch.fail(error)``.  May complete on another thread.
    window_s:
        Coalescing window.  The first request of a batch waits this
        long for companions; 0 disables coalescing (synchronous
        pass-through dispatch).
    max_batch:
        Pair-count ceiling per dispatched batch.  A full window drains
        in several batches; a window whose first requests already
        exceed the cap dispatches without waiting it out.
    adaptive:
        Scale the window with the observed arrival rate.  The batcher
        keeps an EMA of request interarrival gaps (updated at submit
        time, so it works even while the effective window is 0); the
        window a collector round actually waits is::

            window_s * min(1, window_s / (ema_gap * ADAPTIVE_TARGET))

        i.e. at least :data:`ADAPTIVE_TARGET` arrivals per full window
        are needed to justify holding it open at the ceiling, and a
        low-rate stream (interactive clients) degrades smoothly to
        dispatch-on-arrival — the latency deposit shrinks toward 0
        exactly when there is nothing to coalesce.  ``window_s``
        remains the hard ceiling at saturation.
    """

    #: Arrivals per full window at which the adaptive window saturates
    #: to its ``window_s`` ceiling (below it, the wait shrinks
    #: proportionally — one expected companion halves the window, none
    #: collapses it).
    ADAPTIVE_TARGET = 2.0

    #: Smoothing factor for the interarrival-gap EMA (per submission).
    ADAPTIVE_ALPHA = 0.2

    def __init__(
        self,
        dispatch: Callable[[Batch], None],
        window_s: float = 0.001,
        max_batch: int = 65536,
        adaptive: bool = False,
    ) -> None:
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._dispatch = dispatch
        self.window_s = window_s
        self.max_batch = max_batch
        self.adaptive = adaptive and window_s > 0
        # Interarrival EMA state (under _lock).  Seeded at one full
        # window between arrivals (= half the ceiling effectively) so a
        # cold adaptive batcher neither stalls early clients for the
        # whole window nor needs a warm-up to start coalescing.
        self._ema_gap = window_s if window_s > 0 else 0.0
        self._last_arrival: Optional[float] = None
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: List[QueryRequest] = []
        self._pending_pairs = 0
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        # counters (under _lock)
        self._submitted = 0
        self._batches = 0
        self._batched_pairs = 0
        self._coalesced_batches = 0
        self._largest_batch = 0
        # telemetry (optional; see bind_metrics)
        self._wait_hist = None
        self._wait_weight = 1
        self._stamped = False

    def bind_metrics(self, registry, sample_weight: int = 1) -> None:
        """Record batch-wait latency into a telemetry registry.

        Only *traced* requests are stamped at submission — they are
        already the service's uniform 1-in-K sample, so their waits
        observed with ``weight=sample_weight`` (= that K) estimate
        every request's wait without the untraced hot path ever
        touching a clock.  Never binding keeps the batcher
        telemetry-free: the drain skips the observation loop entirely.
        """
        self._wait_weight = max(1, sample_weight)
        self._wait_hist = registry.histogram(
            "repro_batch_wait_seconds",
            "time a request spent waiting for its micro-batch window, "
            "1-in-%d sampled" % self._wait_weight,
        )

    def _observe_batch(self, batch: Batch) -> None:
        """Batch-wait histogram + span for each stamped member request."""
        hist = self._wait_hist
        now = batch.t_created_ns
        for req in batch.requests:
            t = req.t_submit_ns
            if t:
                if req.trace is not None:
                    req.trace.add_span("batch_wait", t, now)
                if hist is not None:
                    hist.observe_ns(now - t, self._wait_weight)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "MicroBatcher":
        """Start the collector thread (no-op when ``window_s == 0``)."""
        if self.window_s > 0 and self._thread is None:
            self._thread = threading.Thread(
                target=self._collect_loop, name="repro-batcher", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop collecting; in-flight pending requests are failed."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers = self._pending
            self._pending = []
            self._pending_pairs = 0
            self._wakeup.notify_all()
        for req in leftovers:
            req.error = RuntimeError("batcher closed")
            req._complete()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- submission ----------------------------------------------------
    def submit_async(
        self, pairs: Sequence[Pair], callback, trace=None
    ) -> QueryRequest:
        """Queue a request; ``callback(request)`` fires on completion.

        Empty requests complete immediately (no dispatch).  When the
        window is 0 the request is dispatched synchronously from this
        thread as its own batch.  ``trace`` (a telemetry
        :class:`~repro.telemetry.TraceContext`) rides the request and
        collects ``batch_wait`` / ``dispatch`` spans.
        """
        req = QueryRequest(pairs, callback, trace)
        if not pairs:
            req.answers = []
            req._complete()
            return req
        if trace is not None:
            req.t_submit_ns = time.perf_counter_ns()
        if self.window_s == 0:
            with self._lock:
                if self._closed:
                    req.error = RuntimeError("batcher closed")
                    req._complete()
                    return req
                self._submitted += 1
                self._note_batch(1, len(pairs))
            batch = Batch([req])
            if req.t_submit_ns:
                self._observe_batch(batch)
            self._dispatch(batch)
            return req
        with self._lock:
            if self._closed:
                req.error = RuntimeError("batcher closed")
                req._complete()
                return req
            self._submitted += 1
            if self.adaptive:
                now = time.perf_counter()
                if self._last_arrival is not None:
                    gap = now - self._last_arrival
                    alpha = self.ADAPTIVE_ALPHA
                    self._ema_gap += alpha * (gap - self._ema_gap)
                self._last_arrival = now
            self._pending.append(req)
            if req.t_submit_ns:
                self._stamped = True
            self._pending_pairs += len(pairs)
            if len(self._pending) == 1 or self._pending_pairs >= self.max_batch:
                self._wakeup.notify()
        return req

    def submit(self, pairs: Sequence[Pair]) -> List[bool]:
        """Blocking :meth:`submit_async`: wait for and return the answers."""
        done = threading.Event()
        req = self.submit_async(pairs, lambda _req: done.set())
        done.wait()
        if req.error is not None:
            raise req.error
        assert req.answers is not None
        return req.answers

    # -- the adaptive window -------------------------------------------
    def effective_window_s(self) -> float:
        """The window the next collector round will hold open.

        Equal to ``window_s`` for a non-adaptive batcher; with
        ``adaptive=True`` it scales with the arrival rate (see the
        class docstring) — 0 when arrivals are far apart, the full
        ceiling once at least :data:`ADAPTIVE_TARGET` requests are
        expected per window.
        """
        with self._lock:
            return self._effective_window_locked()

    def _effective_window_locked(self) -> float:
        if not self.adaptive:
            return self.window_s
        gap = self._ema_gap
        if gap <= 0:
            return self.window_s
        expected_arrivals = self.window_s / gap
        return self.window_s * min(1.0, expected_arrivals / self.ADAPTIVE_TARGET)

    # -- collector -----------------------------------------------------
    def _collect_loop(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._wakeup.wait()
                if self._closed:
                    return
                first_at = time.perf_counter()
                window = self._effective_window_locked()
            # Hold the window open for companions (a full cap ends it
            # early via the submit-side notify), then drain.
            deadline = first_at + window
            with self._lock:
                while not self._closed and self._pending_pairs < self.max_batch:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._wakeup.wait(remaining)
                if self._closed:
                    return
            for batch in self._drain():
                self._dispatch(batch)

    def _drain(self) -> List[Batch]:
        """Cut the pending queue into ``max_batch``-sized batches."""
        with self._lock:
            pending = self._pending
            self._pending = []
            self._pending_pairs = 0
            stamped = self._stamped
            self._stamped = False
        batches: List[Batch] = []
        group: List[QueryRequest] = []
        group_pairs = 0
        for req in pending:
            if group and group_pairs + len(req.pairs) > self.max_batch:
                batches.append(Batch(group))
                group, group_pairs = [], 0
            group.append(req)
            group_pairs += len(req.pairs)
        if group:
            batches.append(Batch(group))
        with self._lock:
            for batch in batches:
                self._note_batch(len(batch.requests), len(batch.pairs))
        if stamped:
            # Only drains that actually hold a stamped (traced) request
            # walk the observation loop — at the default 1-in-K trace
            # rate almost every drain skips it.
            for batch in batches:
                self._observe_batch(batch)
        return batches

    def _note_batch(self, n_requests: int, n_pairs: int) -> None:
        # caller holds _lock
        self._batches += 1
        self._batched_pairs += n_pairs
        if n_requests > 1:
            self._coalesced_batches += 1
        if n_pairs > self._largest_batch:
            self._largest_batch = n_pairs

    # -- stats ---------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            batches = self._batches
            return {
                "window_ms": self.window_s * 1000.0,
                "adaptive": self.adaptive,
                "effective_window_ms": self._effective_window_locked() * 1000.0,
                "max_batch": self.max_batch,
                "requests": self._submitted,
                "batches": batches,
                "batched_pairs": self._batched_pairs,
                "coalesced_batches": self._coalesced_batches,
                "largest_batch": self._largest_batch,
                "mean_batch_pairs": (
                    self._batched_pairs / batches if batches else 0.0
                ),
            }

    def __repr__(self) -> str:
        return (
            f"MicroBatcher(window_ms={self.window_s * 1000.0:g}, "
            f"max_batch={self.max_batch})"
        )
