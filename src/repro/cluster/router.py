"""Epoch-shipping router: fan batches over replicas, retry, hedge, shed.

The router presents the same duck-typed surface as
:class:`~repro.server.service.QueryService` (``query_pairs_async`` /
``current_epoch`` / ``stats`` / ``updater``), so a plain
:class:`~repro.server.tcp.ReachServer` mounts it unchanged as the
cluster's TCP front end — clients speak the one wire protocol whether
they hit a single host or a replica set.

Failure semantics, precisely:

* **Retryable** — a transport failure (connect refused, RST, stream
  cut mid-frame, per-replica timeout) or an ``OP_OVERLOADED`` shed
  from a replica.  The sub-batch is re-dispatched to *another* replica
  after jittered exponential backoff (``backoff_base_s · 2^(k-1) ·
  U(0.5, 1.5)``, capped), up to ``max_attempts`` dispatches.  Transport
  failures also feed the health monitor, so the replica that ate a
  batch is ejected by the traffic it dropped, not a heartbeat later.
* **Not retryable** — a replica's ``OP_ERROR`` (bad pairs, server-side
  bug): replaying the same wrong request elsewhere cannot succeed, so
  it passes straight through to the client.
* **Hedged** — a dispatch quiet for ``hedge_after_s`` (tail latency,
  not yet a timeout) sends a duplicate to a second replica; the first
  ``OP_ANSWERS`` wins and the loser's late reply is dropped by id.
  Queries are read-only, so duplicates are always safe.
* **Shed** — more than ``max_inflight`` requests already routing makes
  admission fail *immediately* with
  :class:`~repro.server.protocol.OverloadedError` (the front end turns
  it into ``OP_OVERLOADED``): an explicit "back off" beats an unbounded
  queue that turns overload into timeouts for everyone.

Large requests are split into contiguous slices, one per routable
replica, answered in parallel and reassembled in order; each slice
carries its own retry/hedge lifecycle, so one slow replica delays only
its share and one dead replica costs one retryable slice.

The router's ``current_epoch`` is the running **max** over everything
its replicas have reported — monotone by construction, so a client
watching epochs through staggered replica flips never sees time move
backwards.
"""

from __future__ import annotations

import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..server import protocol as proto
from ..stats import merge_histograms
from ..telemetry import Telemetry
from .health import HealthMonitor

__all__ = ["ReplicaUnavailable", "ReplicaLink", "ReplicaRouter"]

Pair = Tuple[int, int]


def _shutdown_close(sock) -> None:
    """Shutdown, then close: the link's reader thread blocks in
    ``recv()`` on this socket, and a bare ``close()`` would leave it
    blocked forever — the syscall pins the open file description, so
    the kernel sends nothing until it returns.  ``shutdown`` acts
    immediately: the reader wakes, the replica sees the FIN."""
    import socket as _socket

    try:
        sock.shutdown(_socket.SHUT_RDWR)
    except OSError:
        pass  # already disconnected
    try:
        sock.close()
    except OSError:  # pragma: no cover
        pass


class ReplicaUnavailable(ConnectionError):
    """A transport-level replica failure; the request is safe to retry
    elsewhere (the replica never produced an answer)."""


class _Reply:
    """One in-flight request on a link; resolved by the reader thread."""

    __slots__ = ("event", "op", "payload", "error", "request_id")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.op = 0
        self.payload = b""
        self.error: Optional[BaseException] = None
        self.request_id: Optional[int] = None

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()

    def resolve(self, op: int, payload: bytes) -> None:
        self.op = op
        self.payload = payload
        self.event.set()


class ReplicaLink:
    """One replica's persistent connection + reader thread.

    Requests multiplex over a single socket (ids correlate the
    out-of-order responses); a broken connection fails every in-flight
    request as :class:`ReplicaUnavailable` — retryable, because the
    replica never answered — and the next :meth:`submit` reconnects.

    Writes are serialized by a dedicated send lock: many router
    threads (parallel slices, hedges, health probes) submit on the
    same socket, and ``sendall`` is not atomic — a partial write under
    a full send buffer would let two threads interleave frame bytes
    and corrupt the stream for every request after.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        connect_timeout_s: float = 2.0,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name or f"{host}:{port}"
        self.connect_timeout_s = connect_timeout_s
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._sock = None
        self._next_id = 0
        self._pending: Dict[int, _Reply] = {}
        self._closed = False

    # -- connection management -----------------------------------------
    def _connect_locked(self) -> None:
        import socket as _socket

        sock = _socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout_s
        )
        sock.settimeout(None)  # per-request deadlines live in the router
        sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
        self._sock = sock
        threading.Thread(
            target=self._read_loop,
            args=(sock,),
            name=f"repro-link-{self.name}",
            daemon=True,
        ).start()

    def _read_loop(self, sock) -> None:
        reader = proto.FrameReader(sock)
        try:
            while True:
                frame = reader.read_frame()
                if frame is None:
                    raise ConnectionError("replica closed the connection")
                op, request_id, payload = frame
                if (
                    op == proto.OP_ERROR
                    and request_id == proto.CONNECTION_ERROR_ID
                ):
                    raise ConnectionError(
                        f"replica connection-level error: "
                        f"{payload.decode('utf-8', 'replace')}"
                    )
                with self._lock:
                    reply = self._pending.pop(request_id, None)
                if reply is not None:  # late replies (hedge losers) drop
                    reply.resolve(op, payload)
        except (OSError, ConnectionError, proto.ProtocolError) as exc:
            self._drop_connection(sock, exc)

    def _drop_connection(self, sock, exc: BaseException) -> None:
        with self._lock:
            if self._sock is not sock:
                return  # a newer connection already replaced this one
            self._sock = None
            doomed = list(self._pending.values())
            self._pending.clear()
        _shutdown_close(sock)
        failure = ReplicaUnavailable(
            f"replica {self.name} connection failed: {exc!r}"
        )
        for reply in doomed:
            reply.fail(failure)

    # -- requests ------------------------------------------------------
    def submit(self, op: int, payload: bytes = b"") -> _Reply:
        """Fire one frame; the returned reply resolves asynchronously.

        Never raises for transport failures — they land on the reply as
        :class:`ReplicaUnavailable`, so callers have one error path.
        """
        reply = _Reply()
        with self._lock:
            if self._closed:
                reply.fail(ReplicaUnavailable(f"link {self.name} is closed"))
                return reply
            try:
                if self._sock is None:
                    self._connect_locked()
            except OSError as exc:
                reply.fail(
                    ReplicaUnavailable(
                        f"replica {self.name} unreachable: {exc!r}"
                    )
                )
                return reply
            request_id = self._next_id
            self._next_id += 1
            reply.request_id = request_id
            self._pending[request_id] = reply
            sock = self._sock
        try:
            # One frame at a time on the wire: sendall can partially
            # write under backpressure, so concurrent senders would
            # interleave bytes mid-frame without this lock.
            with self._send_lock:
                sock.sendall(proto.pack_frame(op, request_id, payload))
        except OSError as exc:
            self._drop_connection(sock, exc)
        return reply

    def forget(self, reply: _Reply) -> None:
        """Abandon a submitted request that will never be waited on.

        Timeout paths must call this: against a blackholed replica the
        reply never arrives and the connection never drops, so without
        an explicit pop the pending entry would leak forever — growing
        memory and inflating :meth:`inflight`, which feeds the router's
        least-loaded pick.  A late reply for a forgotten id is dropped
        by the reader as unknown.
        """
        rid = reply.request_id
        if rid is None:
            return
        with self._lock:
            if self._pending.get(rid) is reply:
                del self._pending[rid]

    def request(
        self, op: int, payload: bytes = b"", timeout: Optional[float] = 5.0
    ) -> Tuple[int, bytes]:
        """Blocking submit + wait; raises instead of returning errors."""
        reply = self.submit(op, payload)
        if not reply.event.wait(timeout):
            self.forget(reply)
            raise ReplicaUnavailable(
                f"replica {self.name} did not answer within {timeout}s"
            )
        if reply.error is not None:
            raise reply.error
        if reply.op == proto.OP_ERROR:
            raise RuntimeError(
                f"replica {self.name} error: "
                f"{reply.payload.decode('utf-8', 'replace')}"
            )
        if reply.op == proto.OP_OVERLOADED:
            raise proto.OverloadedError(
                reply.payload.decode("utf-8", "replace") or "replica overloaded"
            )
        return reply.op, reply.payload

    def probe_epoch(self, timeout: float = 2.0) -> int:
        """One ``OP_EPOCH`` round-trip (the health monitor's heartbeat)."""
        _, payload = self.request(proto.OP_EPOCH, timeout=timeout)
        return proto.decode_epoch(payload)

    def inflight(self) -> int:
        with self._lock:
            return len(self._pending)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sock, self._sock = self._sock, None
            doomed = list(self._pending.values())
            self._pending.clear()
        if sock is not None:
            _shutdown_close(sock)
        for reply in doomed:
            reply.fail(ReplicaUnavailable(f"link {self.name} is closed"))

    def __repr__(self) -> str:
        return f"ReplicaLink({self.name}, inflight={self.inflight()})"


class ReplicaRouter:
    """Route query batches over N replicas with retries and hedging.

    ``replicas`` is a sequence of ``(host, port)`` addresses.  The
    router exposes the :class:`QueryService` surface, so::

        router = ReplicaRouter([(h1, p1), (h2, p2)]).start()
        front = ReachServer(router, owns_service=True).start()

    is a complete fault-tolerant tier.  See the module docstring for
    the retry/hedge/shed semantics each knob controls.
    """

    #: Routers have no local update path; writes go to the primary.
    updater = None

    def __init__(
        self,
        replicas: Sequence[Tuple[str, int]],
        *,
        max_attempts: int = 4,
        backoff_base_s: float = 0.02,
        backoff_cap_s: float = 0.5,
        hedge_after_s: Optional[float] = 0.1,
        request_timeout_s: float = 5.0,
        connect_timeout_s: float = 2.0,
        max_inflight: int = 1024,
        min_slice: int = 1024,
        health_interval_s: float = 0.25,
        eject_after: int = 3,
        probation_delay_s: float = 1.0,
        executor_workers: int = 32,
        seed: int = 0,
    ) -> None:
        if not replicas:
            raise ValueError("a router needs at least one replica")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.hedge_after_s = hedge_after_s
        self.request_timeout_s = request_timeout_s
        self.max_inflight = max_inflight
        self.min_slice = max(1, min_slice)
        self._links: Dict[str, ReplicaLink] = {}
        for host, port in replicas:
            link = ReplicaLink(
                host, port, connect_timeout_s=connect_timeout_s
            )
            if link.name in self._links:
                raise ValueError(f"duplicate replica address {link.name}")
            self._links[link.name] = link
        self.telemetry = Telemetry()
        registry = self.telemetry.registry
        self._attempt_hist = registry.histogram(
            "repro_router_attempt_seconds",
            "wall time of one slice dispatch (its hedge included)",
        )
        self._attempts_hist = registry.histogram(
            "repro_router_attempts_per_slice",
            "dispatch attempts one answered slice needed",
            unit="attempts",
        )
        self._retry_counter = registry.counter(
            "repro_router_retries_total", "slice re-dispatches after a failure"
        )
        self._hedge_counter = registry.counter(
            "repro_router_hedges_total", "duplicate dispatches for tail latency"
        )
        self._ejection_counter = registry.counter(
            "repro_router_ejections_total",
            "replica transitions into the ejected state",
        )
        self._readmission_counter = registry.counter(
            "repro_router_readmissions_total",
            "replica transitions back to healthy",
        )
        self.health = HealthMonitor(
            {name: link.probe_epoch for name, link in self._links.items()},
            interval_s=health_interval_s,
            eject_after=eject_after,
            probation_delay_s=probation_delay_s,
            on_change=self._on_health_change,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="repro-router"
        )
        self._rng = random.Random(seed)
        self._stat_lock = threading.Lock()
        self._inflight = 0
        self._requests = 0
        self._slices = 0
        self._retries = 0
        self._hedges = 0
        self._hedge_wins = 0
        self._shed = 0
        self._failed = 0
        self._started = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ReplicaRouter":
        if self._started:
            return self
        self._started = True
        # Learn the replicas' epochs before serving: an immediate
        # heartbeat round means the first query routes on real health
        # instead of waiting out the first interval.
        self.health.poll_once()
        self.health.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.health.close()
        self._executor.shutdown(wait=False)
        for link in self._links.values():
            link.close()

    def __enter__(self) -> "ReplicaRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _on_health_change(self, name: str, old: str, new: str) -> None:
        """Mirror health transitions into scrapeable counters."""
        if new == "ejected":
            self._ejection_counter.inc()
        elif new == "healthy":
            self._readmission_counter.inc()

    # -- QueryService surface ------------------------------------------
    @property
    def current_epoch(self) -> int:
        """Max epoch reported by any replica, ever (monotone)."""
        return self.health.cluster_epoch

    def query_pairs_async(
        self,
        pairs: Sequence[Pair],
        callback: Callable[[Optional[List[bool]], Optional[BaseException]], None],
        trace=None,
    ) -> None:
        if not self._started:
            raise RuntimeError("ReplicaRouter.start() has not been called")
        flush = getattr(callback, "flush_writer", None)
        if trace is None and self.telemetry.should_sample():
            trace = self.telemetry.new_trace(origin="router")
        if trace is not None:
            trace.meta["pairs"] = len(pairs)

        def finish(answers, error) -> None:
            callback(answers, error)
            if flush is not None:
                flush()
            if trace is not None:
                trace.finish()
                self.telemetry.offer(trace)

        pairs = list(pairs)
        if not pairs:
            finish([], None)
            return
        with self._stat_lock:
            if self._inflight >= self.max_inflight:
                self._shed += 1
                shed = True
            else:
                shed = False
                self._inflight += 1
                self._requests += 1
        if shed:
            finish(
                None,
                proto.OverloadedError(
                    f"router at max_inflight={self.max_inflight}; "
                    "back off and retry"
                ),
            )
            return

        slices = self._slice(pairs)
        with self._stat_lock:
            self._slices += len(slices)
        state_lock = threading.Lock()
        results: List[Optional[List[bool]]] = [None] * len(slices)
        state = {"remaining": len(slices), "fired": False}

        def run(idx: int, chunk: List[Pair]) -> None:
            answers: Optional[List[bool]] = None
            error: Optional[BaseException] = None
            t0 = time.perf_counter_ns()
            try:
                answers = self._run_slice(chunk, trace=trace, slice_idx=idx)
            except BaseException as exc:
                error = exc
            if trace is not None:
                trace.add_span(f"slice{idx}", t0, time.perf_counter_ns())
            fire = None
            with state_lock:
                state["remaining"] -= 1
                drained = state["remaining"] == 0
                if error is not None:
                    if not state["fired"]:
                        state["fired"] = True
                        fire = (None, error)
                else:
                    results[idx] = answers
                    if drained and not state["fired"]:
                        state["fired"] = True
                        flat: List[bool] = []
                        for part in results:
                            flat.extend(part)
                        fire = (flat, None)
            if drained:
                with self._stat_lock:
                    self._inflight -= 1
            if fire is not None:
                if fire[1] is not None:
                    with self._stat_lock:
                        self._failed += 1
                finish(*fire)

        if len(slices) == 1:
            self._executor.submit(run, 0, slices[0])
        else:
            for idx, chunk in enumerate(slices):
                self._executor.submit(run, idx, chunk)

    def query_pairs(self, pairs: Sequence[Pair]) -> List[bool]:
        """Blocking :meth:`query_pairs_async`."""
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
        return self.query_pairs([(u, v)])[0]

    # -- routing internals ---------------------------------------------
    def _slice(self, pairs: List[Pair]) -> List[List[Pair]]:
        """Contiguous slices, at most one per routable replica.

        Small requests stay whole (splitting would add round-trips, not
        parallelism); large ones spread so each replica answers a
        share.  With no routable replicas the request rides one slice
        into the retry loop, which reports the real error.
        """
        fanout = max(1, len(self.health.routable()))
        if fanout == 1 or len(pairs) <= self.min_slice:
            return [pairs]
        per = max(self.min_slice, -(-len(pairs) // fanout))
        return [pairs[i:i + per] for i in range(0, len(pairs), per)]

    def _pick(self, exclude: Sequence[str]) -> Optional[str]:
        """One replica to dispatch to: freshest epoch, then least load.

        ``exclude`` lists replicas already tried for this slice (or
        already carrying its hedge); when *every* routable replica is
        excluded the exclusion is waived — retrying the same replica
        beats failing a request outright.
        """
        routable = self.health.routable()
        if not routable:
            return None
        candidates = [n for n in routable if n not in exclude] or routable
        # Freshness outranks load: a stale replica with a shorter queue
        # must not beat a fresh one, or clients get answers from an old
        # artifact while the front end advertises the cluster max epoch.
        # Load (then a random tiebreak) only splits equally-fresh peers.
        epochs = self.health.epochs()
        best = min(
            candidates,
            key=lambda n: (
                -epochs.get(n, 0),
                self._links[n].inflight(),
                self._rng.random(),
            ),
        )
        return best

    def _abandon(
        self,
        waiters: Sequence[Tuple[str, _Reply]],
        keep: Optional[_Reply] = None,
    ) -> None:
        """Forget every still-unanswered waiter except ``keep``.

        Called when a dispatch settles (a winner answered, or the
        request is non-retryably dead) while hedge copies are still
        outstanding on other replicas: their replies — which may never
        come — must not pin pending entries.
        """
        for wname, wreply in waiters:
            if wreply is not keep and not wreply.event.is_set():
                self._links[wname].forget(wreply)

    def _backoff(self, attempt: int) -> float:
        raw = self.backoff_base_s * (1 << (attempt - 1))
        return min(self.backoff_cap_s, raw) * self._rng.uniform(0.5, 1.5)

    def _run_slice(
        self, chunk: List[Pair], trace=None, slice_idx: int = 0
    ) -> List[bool]:
        payload = proto.encode_pairs(chunk)
        tried: List[str] = []
        last_exc: Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                with self._stat_lock:
                    self._retries += 1
                self._retry_counter.inc()
                time.sleep(self._backoff(attempt - 1))
            name = self._pick(tried)
            if name is None:
                break  # nothing routable right now; maybe after backoff
            tried.append(name)
            t0 = time.perf_counter_ns()
            try:
                answers = self._dispatch(name, payload)
            except (ReplicaUnavailable, proto.OverloadedError) as exc:
                last_exc = exc
                end = time.perf_counter_ns()
                self._attempt_hist.observe_ns(end - t0)
                if trace is not None:
                    trace.add_span(
                        f"slice{slice_idx}:attempt{attempt}:{name}", t0, end
                    )
                continue
            end = time.perf_counter_ns()
            self._attempt_hist.observe_ns(end - t0)
            self._attempts_hist.observe_ns(attempt)
            if trace is not None:
                trace.add_span(
                    f"slice{slice_idx}:attempt{attempt}:{name}", t0, end
                )
            return answers
        if last_exc is not None:
            raise last_exc
        raise proto.OverloadedError(
            "no routable replicas (all ejected or blank)"
        )

    def _dispatch(self, primary: str, payload: bytes) -> List[bool]:
        """One dispatch (plus its hedge) of a slice to ``primary``.

        Returns answers from whichever copy replies first; raises
        :class:`ReplicaUnavailable` / ``OverloadedError`` for the
        retry loop, ``RuntimeError`` straight through for replica-
        reported request errors.
        """
        waiters: List[Tuple[str, _Reply]] = [
            (primary, self._links[primary].submit(proto.OP_QUERY, payload))
        ]
        deadline = time.monotonic() + self.request_timeout_s
        hedge_at: Optional[float] = None
        if self.hedge_after_s and self.hedge_after_s < self.request_timeout_s:
            hedge_at = time.monotonic() + self.hedge_after_s
        last_exc: Optional[BaseException] = None
        while waiters:
            now = time.monotonic()
            if now >= deadline:
                timeout_exc = ReplicaUnavailable(
                    f"no answer from {[n for n, _ in waiters]} within "
                    f"{self.request_timeout_s}s"
                )
                # A replica too slow for the deadline is suspect: feed
                # the health monitor so repeated stalls eject it.  The
                # abandoned replies are forgotten so a blackholed
                # replica (open connection, no answers) cannot leak a
                # pending entry per attempt.
                for wname, wreply in waiters:
                    self.health.record_failure(wname, timeout_exc)
                    self._links[wname].forget(wreply)
                raise timeout_exc
            if hedge_at is not None and now >= hedge_at:
                hedge_at = None
                alt = self._pick([n for n, _ in waiters])
                if alt is not None and all(alt != n for n, _ in waiters):
                    with self._stat_lock:
                        self._hedges += 1
                    self._hedge_counter.inc()
                    waiters.append(
                        (alt, self._links[alt].submit(proto.OP_QUERY, payload))
                    )
            step = min(0.005, max(0.0005, deadline - now))
            done_any = waiters[0][1].event.wait(step) or any(
                reply.event.is_set() for _, reply in waiters
            )
            if not done_any:
                continue
            still: List[Tuple[str, _Reply]] = []
            for wname, reply in waiters:
                if not reply.event.is_set():
                    still.append((wname, reply))
                    continue
                if reply.error is not None:
                    self.health.record_failure(wname, reply.error)
                    last_exc = reply.error
                    continue
                if reply.op == proto.OP_ANSWERS:
                    # Liveness only — a data-path reply says nothing
                    # about the replica's epoch, so don't touch it.
                    self.health.record_success(wname)
                    if wname != primary:
                        with self._stat_lock:
                            self._hedge_wins += 1
                    self._abandon(waiters, keep=reply)
                    return proto.decode_answers(reply.payload)
                if reply.op == proto.OP_OVERLOADED:
                    last_exc = proto.OverloadedError(
                        reply.payload.decode("utf-8", "replace")
                        or f"replica {wname} overloaded"
                    )
                    continue
                if reply.op == proto.OP_ERROR:
                    # The replica understood the request and rejected
                    # it: not retryable anywhere.
                    self._abandon(waiters, keep=reply)
                    raise RuntimeError(
                        f"replica {wname} error: "
                        f"{reply.payload.decode('utf-8', 'replace')}"
                    )
                last_exc = ReplicaUnavailable(
                    f"replica {wname} sent unexpected opcode {reply.op}"
                )
            waiters = still
        raise last_exc or ReplicaUnavailable("every dispatched copy failed")

    # -- stats ---------------------------------------------------------
    def stats(self) -> dict:
        with self._stat_lock:
            doc = {
                "replicas": len(self._links),
                "epoch": self.current_epoch,
                "requests": self._requests,
                "slices": self._slices,
                "inflight": self._inflight,
                "retries": self._retries,
                "hedges": self._hedges,
                "hedge_wins": self._hedge_wins,
                "shed": self._shed,
                "failed": self._failed,
            }
        doc["health"] = self.health.stats()
        doc["links"] = {
            name: link.inflight() for name, link in self._links.items()
        }
        doc["telemetry"] = self.telemetry.snapshot()
        return doc

    # -- cluster scrape ------------------------------------------------
    def scrape(self, timeout: float = 2.0) -> dict:
        """Poll every replica's ``OP_STATS`` and merge into one view.

        Returns ``{"replicas", "cluster", "router"}``: ``replicas``
        maps each name to its raw stats document (or ``{"error": ...}``
        for members that failed the poll — a dead replica degrades the
        scrape, it does not fail it), ``cluster`` sums the replicas'
        telemetry counters and **exactly** merges their latency
        histograms bucket-wise (see
        :func:`repro.stats.merge_histograms`), so cluster-wide
        percentiles come from the true combined distribution, not an
        average of per-replica summaries.  Ejected replicas are polled
        too: scraping is diagnostics, not traffic.
        """
        per: Dict[str, dict] = {}
        hists: Dict[str, dict] = {}
        counters: Dict[str, int] = {}
        polled = failed = 0
        for name, link in self._links.items():
            polled += 1
            try:
                _, payload = link.request(proto.OP_STATS, timeout=timeout)
                doc = json.loads(payload.decode("utf-8"))
            except Exception as exc:
                failed += 1
                per[name] = {"error": repr(exc)}
                continue
            per[name] = doc
            tel = doc.get("telemetry") or {}
            for hname, snap in (tel.get("histograms") or {}).items():
                if hname in hists:
                    try:
                        hists[hname] = merge_histograms(hists[hname], snap)
                    except ValueError:
                        pass  # unit clash across versions: keep the first
                else:
                    hists[hname] = merge_histograms(snap)
            for cname, value in (tel.get("counters") or {}).items():
                counters[cname] = counters.get(cname, 0) + int(value)
        return {
            "replicas": per,
            "cluster": {
                "polled": polled,
                "failed": failed,
                "counters": counters,
                "histograms": hists,
            },
            "router": self.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"ReplicaRouter(replicas={len(self._links)}, "
            f"epoch={self.current_epoch})"
        )
