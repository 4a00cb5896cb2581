"""Client for the reachability service + open/closed-loop load generator.

:class:`ReachClient` is the simple synchronous client: one request in
flight, answers in call order.  The load generator underneath
:func:`run_load` is the measuring instrument — per connection it keeps
``pipeline`` requests in flight (closed loop) or fires on a fixed
schedule regardless of completions (open loop), records per-request
latency from the pre-encoded frame's send to its matched response, and
reassembles every answer in workload order so callers can verify the
served bits against a direct oracle.

Closed loop measures the server's *capacity* (clients wait for their
turn); open loop measures *latency under a fixed arrival rate*,
queueing included — the number a latency SLO actually cares about.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import protocol as proto
from ..stats import percentiles

__all__ = ["ReachClient", "LoadReport", "run_load", "percentiles"]

Pair = Tuple[int, int]


#: Transport-level failures a client may transparently retry for
#: idempotent requests: socket errors (``ConnectionError`` and
#: ``socket.timeout`` are ``OSError`` subclasses) and a stream cut
#: mid-frame (``ProtocolError`` from the reader).  Server-*reported*
#: errors are ``RuntimeError`` and are never retried — the request
#: itself is wrong, and a new connection won't change that.
TRANSPORT_ERRORS = (OSError, proto.ProtocolError)


class ReachClient:
    """Blocking binary-protocol client: one request in flight at a time.

    Deadlines: ``connect_timeout`` bounds connection establishment,
    ``timeout`` bounds each request round-trip (both default 30 s), so
    a hung server never blocks a call forever.  What a failure raises
    depends on the path:

    * The constructor dials eagerly and raises the socket error itself:
      ``socket.timeout`` once ``connect_timeout`` runs out on a dial
      that goes nowhere, ``ConnectionRefusedError`` on a refused port.
    * *Idempotent* requests ride out transient transport failures — a
      RST from a restarting server, an idle-connection drop, a frame
      cut mid-stream, a round-trip past ``timeout``: the client
      reconnects with bounded exponential backoff and re-sends, up to
      ``reconnect_attempts`` times, then raises ``ConnectionError``
      (also when the server hangs).  That covers
      query/ping/stats/epoch/ship *and* the default ``update`` path:
      each client carries a ``client_id`` and stamps every update batch
      with a monotonically increasing sequence number
      (``OP_UPDATE_SEQ``), so a re-send after a lost ack dedupes
      server-side instead of applying the edges twice.
    * Only the non-retryable ops — ``update(..., idempotent=False)``
      (the legacy un-sequenced ``OP_UPDATE``, for servers that predate
      sequenced updates) and ``shutdown_server`` — re-raise the raw
      socket error (``socket.timeout`` on a hung server) at once,
      leaving the re-send decision to the caller.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 30.0,
        *,
        connect_timeout: Optional[float] = None,
        reconnect_attempts: int = 2,
        reconnect_backoff_s: float = 0.05,
        client_id: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = timeout if connect_timeout is None else connect_timeout
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_backoff_s = reconnect_backoff_s
        #: Stamped on sequenced updates; a client that reconnects under
        #: the *same* id (pass one explicitly) keeps its dedupe window.
        self.client_id = client_id or uuid.uuid4().hex
        self._next_id = 0
        self._update_seq = 0
        # update() draws its sequence number before _roundtrip takes
        # self._lock (which is not reentrant), so the counter gets its
        # own lock.
        self._seq_lock = threading.Lock()
        self._lock = threading.Lock()
        self._reconnects = 0
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[proto.FrameReader] = None
        self._connect()

    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._reader = proto.FrameReader(sock)

    @property
    def reconnects(self) -> int:
        """How many times the client has re-established its connection."""
        return self._reconnects

    def _roundtrip(
        self, op: int, payload: bytes = b"", *, retryable: bool = True
    ) -> Tuple[int, bytes]:
        """Send one frame and wait for its (id-matched) response.

        ``retryable`` marks the request idempotent: a transport failure
        reconnects (bounded backoff) and re-sends the same frame rather
        than raising mid-load.
        """
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
            frame = proto.pack_frame(op, request_id, payload)
            attempts = self.reconnect_attempts if retryable else 0
            last_exc: Optional[BaseException] = None
            for attempt in range(attempts + 1):
                if attempt:
                    time.sleep(self.reconnect_backoff_s * (1 << (attempt - 1)))
                    self._reconnects += 1
                    try:
                        if self._sock is not None:
                            self._sock.close()
                        self._connect()
                    except OSError as exc:
                        last_exc = exc
                        continue
                try:
                    return self._exchange(frame, request_id)
                except TRANSPORT_ERRORS as exc:
                    last_exc = exc
                    if not retryable:
                        raise
            raise ConnectionError(
                f"request failed after {attempts} reconnect attempt(s): "
                f"{last_exc!r}"
            ) from last_exc

    def _exchange(self, frame: bytes, request_id: int) -> Tuple[int, bytes]:
        self._sock.sendall(frame)
        while True:
            reply = self._reader.read_frame()
            if reply is None:
                raise ConnectionError("server closed the connection")
            rop, rid, rpayload = reply
            if rop == proto.OP_ERROR and rid == proto.CONNECTION_ERROR_ID:
                raise ConnectionError(
                    f"server reported a connection-level error: "
                    f"{rpayload.decode('utf-8', 'replace')}"
                )
            if rid == request_id:
                if rop == proto.OP_ERROR:
                    raise RuntimeError(
                        f"server error: {rpayload.decode('utf-8', 'replace')}"
                    )
                if rop == proto.OP_OVERLOADED:
                    raise proto.OverloadedError(
                        rpayload.decode("utf-8", "replace")
                        or "server overloaded"
                    )
                return rop, rpayload
            # A stale frame (e.g. reply to an abandoned request):
            # skip — ids only move forward on this connection.

    # -- public API ----------------------------------------------------
    def query(self, u: int, v: int) -> bool:
        """Whether ``u`` reaches ``v``, by asking the server."""
        return self.query_batch([(u, v)])[0]

    def query_batch(self, pairs: Sequence[Pair]) -> List[bool]:
        """Answers for many pairs in one request frame."""
        _, payload = self._roundtrip(proto.OP_QUERY, proto.encode_pairs(pairs))
        return proto.decode_answers(payload)

    def query_batch_traced(
        self, pairs: Sequence[Pair], trace_id: Optional[int] = None
    ) -> Tuple[List[bool], int]:
        """Like :meth:`query_batch`, but the request carries a trace id.

        The id (allocated client-side unless given) rides the
        ``OP_QUERY_TRACED`` frame; the server records a span breakdown
        for this exact request and keeps it if it lands among the
        slowest exemplars — retrieve with :meth:`traces` and match on
        the returned id.  Answers are identical to the untraced path.
        """
        if trace_id is None:
            from ..telemetry import new_trace_id

            trace_id = new_trace_id()
        _, payload = self._roundtrip(
            proto.OP_QUERY_TRACED,
            proto.encode_traced_query(trace_id, pairs),
        )
        return proto.decode_answers(payload), trace_id

    def traces(self) -> List[dict]:
        """The server's slowest-trace exemplars (``OP_TRACE``).

        Each entry is a :meth:`repro.telemetry.TraceContext.to_doc`
        document: ``trace_id``, ``origin``, ``duration_ns``, and named
        ``spans`` with offsets relative to the trace start.  Slowest
        first; empty when the server runs with telemetry disabled.
        """
        _, payload = self._roundtrip(proto.OP_TRACE)
        return json.loads(payload.decode("utf-8"))

    def ping(self) -> float:
        """Round-trip time of an empty frame, in seconds."""
        t0 = time.perf_counter()
        self._roundtrip(proto.OP_PING)
        return time.perf_counter() - t0

    def stats(self) -> dict:
        """The server's stats document (service + cache + batcher)."""
        _, payload = self._roundtrip(proto.OP_STATS)
        return json.loads(payload.decode("utf-8"))

    def epoch(self) -> int:
        """The artifact epoch currently serving (0 = static server)."""
        _, payload = self._roundtrip(proto.OP_EPOCH)
        return proto.decode_epoch(payload)

    def update(
        self,
        edges: Sequence,
        *,
        seq: Optional[int] = None,
        client: Optional[str] = None,
        idempotent: bool = True,
    ) -> dict:
        """Apply edge churn to a live server; returns the publish summary.

        ``edges`` takes plain ``(u, v)`` pairs (insertions) and/or
        ``('+'|'-', u, v)`` triples — removals ride the same frame as
        a trailing bitmap, and an insert-only stream is byte-identical
        to the pre-removal wire format.  The server applies the whole
        stream in order and hot-swaps to the new artifact epoch before
        replying, so a subsequent query on *any* connection sees the
        updated graph.  Raises ``RuntimeError`` when the server has no
        live update path.

        By default the batch is *sequenced* (``OP_UPDATE_SEQ``): it
        carries ``client`` (default: this client's ``client_id``) and
        ``seq`` (default: the next value of this client's counter), the
        server echoes both in the summary, and a transport failure is
        transparently retried — a re-send of an already-applied batch
        returns the original summary with ``deduped: true`` instead of
        applying twice.  Pass an explicit ``seq`` to re-send a specific
        unacked batch after building a fresh client.

        ``idempotent=False`` sends the legacy un-sequenced
        ``OP_UPDATE`` (for pre-sequencing servers), which is **never**
        retried: a replay could apply the edge stream twice, so a
        transport error surfaces and the caller decides.
        """
        if not idempotent:
            if seq is not None or client is not None:
                raise ValueError("seq/client require idempotent=True")
            _, payload = self._roundtrip(
                proto.OP_UPDATE, proto.encode_ops(edges), retryable=False
            )
            return json.loads(payload.decode("utf-8"))
        if seq is None:
            with self._seq_lock:
                self._update_seq += 1
                seq = self._update_seq
        _, payload = self._roundtrip(
            proto.OP_UPDATE_SEQ,
            proto.encode_update_seq(client or self.client_id, seq, edges),
            retryable=True,
        )
        return json.loads(payload.decode("utf-8"))

    def ship(self, epoch: int, data: bytes) -> dict:
        """Ship one artifact epoch to a replica; returns its JSON verdict.

        Idempotent (and safe to retry): a replica that already holds
        ``epoch`` or newer answers ``{"applied": false}`` instead of
        regressing — the monotone-epoch invariant lives server-side.
        """
        _, payload = self._roundtrip(proto.OP_SHIP, proto.encode_ship(epoch, data))
        return json.loads(payload.decode("utf-8"))

    def shutdown_server(self) -> None:
        """Ask the server to stop (it acks before going down)."""
        self._roundtrip(proto.OP_SHUTDOWN, retryable=False)

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ReachClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass
class LoadReport:
    """What a load run measured: throughput, latency shape, answers."""

    mode: str
    connections: int
    pipeline: int
    pairs_per_request: int
    total_pairs: int
    total_requests: int
    wall_s: float
    qps: float
    latency_ms: Dict[str, float] = field(default_factory=dict)
    errors: int = 0
    first_error: str = ""
    answers: List[bool] = field(default_factory=list)
    #: Per-request ``(completion_stamp, latency_s)`` samples, in
    #: ``time.perf_counter`` coordinates; filled only when
    #: :func:`run_load` is called with ``keep_samples=True``.  This is
    #: what lets the live bench slice "latency during the swap window"
    #: out of a run that straddles a hot swap.
    samples: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def positives(self) -> int:
        return sum(self.answers)

    def summary(self) -> str:
        lat = self.latency_ms
        pct = (
            f"p50={lat.get('p50', 0.0):.2f} p95={lat.get('p95', 0.0):.2f} "
            f"p99={lat.get('p99', 0.0):.2f} ms"
        )
        return (
            f"{self.mode}-loop: {self.total_pairs:,} pairs in {self.wall_s:.2f}s "
            f"= {self.qps:,.0f} q/s ({pct}, errors={self.errors})"
        )


class _LoadConnection:
    """One load connection: a sender, a reader, and its latency log."""

    def __init__(
        self,
        host: str,
        port: int,
        requests: List[Tuple[int, bytes, int]],
        mode: str,
        pipeline: int,
        send_times: Optional[List[float]],
        timeout: float,
    ) -> None:
        # requests: (request_id, prebuilt frame, n_pairs); ids are the
        # global request indices, so answers reassemble by id.
        self.requests = requests
        self.mode = mode
        self.pipeline = pipeline
        self.send_times = send_times  # open loop: offsets from the epoch
        self.latencies: List[float] = []
        self.stamps: List[float] = []  # completion time per latency entry
        self.answers: Dict[int, List[bool]] = {}
        self.errors = 0
        self.first_error = ""
        self.first_send: Optional[float] = None
        self.last_recv: Optional[float] = None
        self._sent_at: Dict[int, float] = {}
        self._outstanding = threading.Semaphore(pipeline)
        self._all_done = threading.Event()
        self._received = 0
        self._dead = False
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader_thread = threading.Thread(
            target=self._read_loop, name="repro-load-reader", daemon=True
        )
        self._sender_thread = threading.Thread(
            target=self._send_loop, name="repro-load-sender", daemon=True
        )

    def start(self, epoch: float) -> None:
        self._epoch = epoch
        self._reader_thread.start()
        self._sender_thread.start()

    def join(self, timeout: float) -> None:
        self._sender_thread.join(timeout)
        self._all_done.wait(timeout)
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass
        self._reader_thread.join(timeout)

    # -- sender --------------------------------------------------------
    def _send_loop(self) -> None:
        try:
            if self.mode == "closed":
                self._send_closed()
            else:
                self._send_open()
        except OSError as exc:
            self.errors += 1
            self.first_error = self.first_error or f"send failed: {exc!r}"
            self._all_done.set()

    def _send_closed(self) -> None:
        # Greedy slot draining: block for one free pipeline slot, then
        # scoop up every other free slot and write those requests as
        # one syscall — the client-side mirror of the server's
        # micro-batched responses, and what keeps a single-host bench
        # measuring the server instead of client sendall overhead.
        requests = self.requests
        i = 0
        while i < len(requests):
            self._outstanding.acquire()
            if self._dead:  # reader died; it released us to exit
                return
            group = [requests[i]]
            i += 1
            while i < len(requests) and self._outstanding.acquire(blocking=False):
                group.append(requests[i])
                i += 1
            now = time.perf_counter()
            if self.first_send is None:
                self.first_send = now
            for request_id, _frame, _n in group:
                self._sent_at[request_id] = now
            if len(group) == 1:
                self._sock.sendall(group[0][1])
            else:
                self._sock.sendall(b"".join(frame for _rid, frame, _n in group))

    def _send_open(self) -> None:
        # Fire on the schedule, completions ignored.
        for i, (request_id, frame, _n) in enumerate(self.requests):
            delay = self._epoch + self.send_times[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            now = time.perf_counter()
            if self.first_send is None:
                self.first_send = now
            self._sent_at[request_id] = now
            self._sock.sendall(frame)

    # -- reader --------------------------------------------------------
    def _read_loop(self) -> None:
        reader = proto.FrameReader(self._sock)
        want = len(self.requests)
        try:
            while self._received < want:
                frame = reader.read_frame()
                if frame is None:
                    raise ConnectionError("server closed during load run")
                op, request_id, payload = frame
                if (
                    op == proto.OP_ERROR
                    and request_id == proto.CONNECTION_ERROR_ID
                ):
                    raise ConnectionError(
                        f"connection-level server error: "
                        f"{payload.decode('utf-8', 'replace')}"
                    )
                now = time.perf_counter()
                self.last_recv = now
                sent = self._sent_at.pop(request_id, None)
                if sent is not None:
                    self.latencies.append(now - sent)
                    self.stamps.append(now)
                if op == proto.OP_ANSWERS:
                    self.answers[request_id] = proto.decode_answers(payload)
                else:
                    self.errors += 1
                    if not self.first_error:
                        self.first_error = payload.decode("utf-8", "replace")
                self._received += 1
                if self.mode == "closed":
                    self._outstanding.release()
        except (OSError, ConnectionError, proto.ProtocolError) as exc:
            self.errors += 1
            self.first_error = self.first_error or repr(exc)
        finally:
            # Unblock a sender parked on the pipeline semaphore (it
            # would otherwise wait out the whole join timeout) and make
            # its next sendall fail fast.
            self._dead = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            for _ in range(self.pipeline):
                self._outstanding.release()
            self._all_done.set()


def run_load(
    host: str,
    port: int,
    pairs: Sequence[Pair],
    *,
    mode: str = "closed",
    connections: int = 4,
    pipeline: int = 32,
    pairs_per_request: int = 1,
    rate: Optional[float] = None,
    timeout: float = 120.0,
    keep_samples: bool = False,
) -> LoadReport:
    """Drive a server with a workload; returns throughput + latency.

    Parameters
    ----------
    pairs:
        The workload, answered in order in ``report.answers``.
    mode:
        ``"closed"`` — each connection keeps ``pipeline`` requests in
        flight and sends the next as one completes (capacity probe).
        ``"open"`` — requests fire on a fixed schedule derived from
        ``rate`` (required, in requests/second across all
        connections), whether or not earlier ones finished (latency
        under load, queueing included).
    pairs_per_request:
        How many pairs each request frame carries.  1 (default) is the
        interactive shape that exercises server-side micro-batching;
        larger values emulate clients that batch for themselves.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    if mode == "open" and (rate is None or rate <= 0):
        raise ValueError("open-loop mode needs rate=<requests/second>")
    if not pairs:
        raise ValueError("empty workload")
    connections = max(1, min(connections, len(pairs)))

    # Pre-encode every frame so the timed region measures the server,
    # not the client's struct packing.
    requests: List[Tuple[int, bytes, int]] = []
    for request_id, start in enumerate(range(0, len(pairs), pairs_per_request)):
        chunk = list(pairs[start:start + pairs_per_request])
        frame = proto.pack_frame(
            proto.OP_QUERY, request_id, proto.encode_pairs(chunk)
        )
        requests.append((request_id, frame, len(chunk)))

    per_conn: List[List[Tuple[int, bytes, int]]] = [[] for _ in range(connections)]
    for i, req in enumerate(requests):
        per_conn[i % connections].append(req)

    conns: List[_LoadConnection] = []
    for reqs in per_conn:
        # Open loop: schedule by *global* request id so arrivals across
        # connections interleave uniformly at `rate` — per-connection
        # i*interval offsets would fire synchronized bursts instead.
        send_times = (
            [request_id / rate for request_id, _f, _n in reqs]
            if mode == "open" else None
        )
        conns.append(
            _LoadConnection(host, port, reqs, mode, pipeline, send_times, timeout)
        )

    epoch = time.perf_counter() + 0.005  # open-loop schedule t0
    for conn in conns:
        conn.start(epoch)
    for conn in conns:
        conn.join(timeout)

    latencies: List[float] = []
    samples: List[Tuple[float, float]] = []
    answers_by_id: Dict[int, List[bool]] = {}
    errors = 0
    first_error = ""
    first_send = None
    last_recv = None
    for conn in conns:
        latencies.extend(conn.latencies)
        if keep_samples:
            samples.extend(zip(conn.stamps, conn.latencies))
        answers_by_id.update(conn.answers)
        errors += conn.errors
        first_error = first_error or conn.first_error
        if conn.first_send is not None:
            first_send = (
                conn.first_send if first_send is None
                else min(first_send, conn.first_send)
            )
        if conn.last_recv is not None:
            last_recv = (
                conn.last_recv if last_recv is None
                else max(last_recv, conn.last_recv)
            )
    # Wall clock spans the first byte sent to the last answer received —
    # immune to thread start-up stagger on tiny runs.
    wall = (last_recv - first_send) if first_send and last_recv else 0.0

    answers: List[bool] = []
    for request_id, _frame, n in requests:
        answers.extend(answers_by_id.get(request_id, [False] * n))

    pct = percentiles(latencies)
    return LoadReport(
        mode=mode,
        connections=connections,
        pipeline=pipeline,
        pairs_per_request=pairs_per_request,
        total_pairs=len(pairs),
        total_requests=len(requests),
        wall_s=wall,
        qps=len(pairs) / wall if wall > 0 else 0.0,
        latency_ms={k: v * 1000.0 for k, v in pct.items()},
        errors=errors,
        first_error=first_error,
        answers=answers,
        samples=sorted(samples) if keep_samples else [],
    )
