"""The TCP front end: binary frames in, :class:`QueryService` answers out.

::

    clients ──TCP──▶ ReachServer ──▶ QueryService (cache → batcher → oracle)

One reader thread per connection decodes frames
(:mod:`repro.server.protocol`) and hands queries to the service's
asynchronous answer path; completions queue reply frames on the
connection's :class:`_ConnWriter`, flushed once per (batch, connection).
:func:`serve_artifact` is the one-call deployment path over a saved
artifact file.
"""

from __future__ import annotations

import json
import os
import socket as _socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from . import protocol as proto
from .service import QueryService

__all__ = ["ReachServer", "serve_artifact"]


# ----------------------------------------------------------------------
# TCP front end
# ----------------------------------------------------------------------
def _is_loopback(host: str) -> bool:
    """Whether a bind host only reaches local clients."""
    return host in ("127.0.0.1", "localhost", "::1") or host.startswith("127.")


class _ConnWriter:
    """Per-connection response writer that batches frames per flush.

    Query completions *queue* frames; one :meth:`flush` per
    (batch, connection) concatenates and writes them — one syscall for
    a whole micro-batch of responses instead of one per request.
    Control replies (ping, stats, errors) use :meth:`send_now`.
    """

    __slots__ = ("_conn", "_frames", "_buf_lock", "_send_lock", "_dead")

    def __init__(self, conn) -> None:
        self._conn = conn
        self._frames: List[bytes] = []
        self._buf_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._dead = False

    def queue(self, op: int, request_id: int, payload: bytes = b"") -> None:
        frame = proto.pack_frame(op, request_id, payload)
        with self._buf_lock:
            if not self._dead:
                self._frames.append(frame)

    def flush(self) -> None:
        with self._buf_lock:
            if self._dead or not self._frames:
                return
            data = b"".join(self._frames)
            self._frames.clear()
        try:
            with self._send_lock:
                self._conn.sendall(data)
        except OSError:
            # A failed/timed-out sendall may have written PART of a
            # frame; anything sent afterwards would be parsed mid-frame
            # by the client.  The stream is unrecoverable: mark the
            # writer dead and drop the connection (the reader thread
            # wakes from recv() and cleans up).
            with self._buf_lock:
                self._dead = True
                self._frames.clear()
            try:
                self._conn.shutdown(_socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._conn.close()
            except OSError:  # pragma: no cover
                pass

    def send_now(self, op: int, request_id: int, payload: bytes = b"") -> None:
        self.queue(op, request_id, payload)
        self.flush()


class ReachServer:
    """Threaded TCP server speaking the binary frame protocol.

    One reader thread per connection; responses are written from
    whichever thread resolves the batch (a per-connection lock keeps
    frames whole), so a pipelining client gets true request
    concurrency — which is what feeds the micro-batcher.

    ``port=0`` binds an ephemeral port (see :attr:`address`).
    ``allow_shutdown`` honours the ``OP_SHUTDOWN`` frame.  The frame is
    unauthenticated, so the default (``None``) enables it only when
    ``host`` is loopback; binding other interfaces disables it unless a
    caller passes ``True`` explicitly.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        allow_shutdown: Optional[bool] = None,
        backlog: int = 128,
        owns_service: bool = False,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        if allow_shutdown is None:
            allow_shutdown = _is_loopback(host)
        self.allow_shutdown = allow_shutdown
        self.backlog = backlog
        self._owns_service = owns_service
        self._listener = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_lock = threading.Lock()
        self._conns: List[object] = []
        self._conn_threads: List[threading.Thread] = []
        self._done = threading.Event()
        self._closed = False
        self._connections_total = 0
        #: Files the server owns and deletes on close (e.g. the temp
        #: artifact a build-mode facade saved for its replicas).
        self.cleanup_paths: List[str] = []
        #: Callables run during close(), after connections drain but
        #: before the owned service shuts down — watchers, live
        #: indices, anything whose lifetime is tied to this server.
        #: Exceptions are swallowed: shutdown must finish.
        self.cleanup_callbacks: List[Callable[[], None]] = []
        #: Extension opcodes: ``{op: fn(request_id, payload, writer)}``,
        #: consulted before the "unexpected opcode" error.  This is how
        #: a replica mounts ``OP_SHIP`` (epoch replication) on a plain
        #: ReachServer without subclassing; handlers run on the
        #: connection's reader thread and reply through ``writer``.
        self.handlers: Dict[int, Callable[[int, bytes, _ConnWriter], None]] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ReachServer":
        # Resolve the bind family from the host ('::1' needs AF_INET6).
        family, socktype, protocol, _cname, addr = _socket.getaddrinfo(
            self.host, self.port, type=_socket.SOCK_STREAM
        )[0]
        sock = _socket.socket(family, socktype, protocol)
        try:
            sock.setsockopt(_socket.SOL_SOCKET, _socket.SO_REUSEADDR, 1)
            sock.bind(addr)
            sock.listen(self.backlog)
        except BaseException:
            # A failed start leaves no socket behind, and close() on
            # the unstarted server stays a clean no-op.
            sock.close()
            raise
        self._listener = sock
        self.port = sock.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server closes; True if it did."""
        return self._done.wait(timeout)

    def close(self) -> None:
        """Stop accepting, drop connections, join threads."""
        with self._conn_lock:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns)
            threads = list(self._conn_threads)
        if self._listener is not None:
            # shutdown() is what actually wakes a thread blocked in
            # accept(); close() alone leaves it sleeping on Linux.
            try:
                self._listener.shutdown(_socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        for conn in conns:
            # Same shutdown-then-close dance as the listener: close()
            # alone leaves a thread blocked in recv() sleeping forever.
            try:
                conn.shutdown(_socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        current = threading.current_thread()
        if self._accept_thread is not None and self._accept_thread is not current:
            self._accept_thread.join(timeout=5.0)
        for thread in threads:
            if thread is not current:
                thread.join(timeout=5.0)
        # Callbacks first (watchers must stop publishing before the
        # service closes the store they publish into), then the service.
        for callback in self.cleanup_callbacks:
            try:
                callback()
            except Exception:  # pragma: no cover - shutdown must finish
                pass
        if self._owns_service:
            self.service.close()
        for path in self.cleanup_paths:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - already gone
                pass
        self._done.set()

    def __enter__(self) -> "ReachServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- connection handling -------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed
                return
            # Per-connection setup must not be able to kill the accept
            # loop: a client that connects and immediately resets can
            # make setsockopt raise on some platforms (the socket is
            # already dead), and losing the accept thread to one broken
            # peer would refuse every future connection.
            try:
                conn.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
                # A send timeout (send only — recv must keep blocking
                # for idle keep-alive clients) so one client that stops
                # reading cannot park the shared resolver thread in
                # sendall() forever and head-of-line-block every other
                # connection.
                try:
                    import struct as _struct

                    conn.setsockopt(
                        _socket.SOL_SOCKET,
                        _socket.SO_SNDTIMEO,
                        _struct.pack("ll", 30, 0),
                    )
                except (AttributeError, OSError):  # pragma: no cover
                    pass  # platform without SO_SNDTIMEO: degrade
            except OSError:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
                continue
            with self._conn_lock:
                if self._closed:
                    conn.close()
                    return
                self._conns.append(conn)
                self._connections_total += 1
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name="repro-server-conn",
                    daemon=True,
                )
                self._conn_threads.append(thread)
                # Start under the lock: close() must never snapshot a
                # registered-but-unstarted thread (join would raise and
                # abort shutdown half-done).
                thread.start()

    def _serve_connection(self, conn) -> None:
        reader = proto.FrameReader(conn)
        writer = _ConnWriter(conn)
        send = writer.send_now
        try:
            while True:
                try:
                    frame = reader.read_frame()
                except proto.ProtocolError as exc:
                    send(
                        proto.OP_ERROR,
                        proto.CONNECTION_ERROR_ID,
                        repr(exc).encode("utf-8"),
                    )
                    return
                except OSError:
                    return
                if frame is None:
                    return
                op, request_id, payload = frame
                try:
                    if op == proto.OP_QUERY:
                        self._handle_query(request_id, payload, writer)
                    elif op == proto.OP_QUERY_TRACED:
                        self._handle_query(
                            request_id, payload, writer, traced=True
                        )
                    elif op == proto.OP_TRACE:
                        telemetry = getattr(self.service, "telemetry", None)
                        traces = (
                            []
                            if telemetry is None
                            else telemetry.sampler.snapshot()
                        )
                        send(
                            proto.OP_TRACE_REPLY,
                            request_id,
                            json.dumps(traces).encode("utf-8"),
                        )
                    elif op == proto.OP_PING:
                        send(proto.OP_PONG, request_id)
                    elif op == proto.OP_EPOCH:
                        send(
                            proto.OP_EPOCH_REPLY,
                            request_id,
                            proto.encode_epoch(self.service.current_epoch),
                        )
                    elif op == proto.OP_UPDATE:
                        self._handle_update(request_id, payload, send)
                    elif op == proto.OP_UPDATE_SEQ:
                        self._handle_update(
                            request_id, payload, send, sequenced=True
                        )
                    elif op == proto.OP_STATS:
                        doc = dict(self.service.stats())
                        doc["connections_total"] = self._connections_total
                        send(
                            proto.OP_STATS_REPLY,
                            request_id,
                            json.dumps(doc).encode("utf-8"),
                        )
                    elif op == proto.OP_SHUTDOWN:
                        if self.allow_shutdown:
                            send(proto.OP_PONG, request_id)
                            self.close()
                            return
                        send(
                            proto.OP_ERROR,
                            request_id,
                            b"shutdown disabled on this server",
                        )
                    elif op in self.handlers:
                        self.handlers[op](request_id, payload, writer)
                    else:
                        send(
                            proto.OP_ERROR,
                            request_id,
                            f"unexpected opcode {op}".encode("utf-8"),
                        )
                except Exception as exc:
                    # A handler bug (or a malformed payload it did not
                    # expect) costs the one request that triggered it,
                    # never the connection — and the accept loop is a
                    # different thread entirely, so the server keeps
                    # serving either way.
                    send(proto.OP_ERROR, request_id, repr(exc).encode("utf-8"))
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            current = threading.current_thread()
            with self._conn_lock:
                if conn in self._conns:
                    self._conns.remove(conn)
                # Drop the finished thread's bookkeeping too, or a
                # long-lived server grows a list of dead threads (one
                # per connection ever accepted).
                if current in self._conn_threads:
                    self._conn_threads.remove(current)

    def _handle_update(
        self, request_id: int, payload: bytes, send, *, sequenced: bool = False
    ) -> None:
        """``OP_UPDATE``(+``_SEQ``): apply an edge stream to a live index.

        Runs on the connection's reader thread — updates serialise on
        the live index's lock anyway, and a pipelining client can keep
        querying on other connections while its update compiles.  The
        reply is the JSON publish summary (new ``epoch``, ``changed``
        count, ``swap_s``…).  A sequenced request carries
        ``(client, seq)`` and its summary echoes them plus ``deduped``;
        a duplicate returns the original summary unapplied.
        """
        if self.service.updater is None:
            send(
                proto.OP_ERROR,
                request_id,
                b"this server has no update path (serve a live index: "
                b"Reachability.serve(live=True))",
            )
            return
        try:
            if sequenced:
                client, seq, ops = proto.decode_update_seq(payload)
            else:
                client, seq = None, None
                ops = proto.decode_ops(payload)
        except proto.ProtocolError as exc:
            send(proto.OP_ERROR, request_id, repr(exc).encode("utf-8"))
            return
        try:
            if sequenced:
                summary = self.service.updater(ops, client=client, seq=seq)
            else:
                summary = self.service.updater(ops)
        except Exception as exc:  # bad edges must not kill the connection
            send(proto.OP_ERROR, request_id, repr(exc).encode("utf-8"))
            return
        send(
            proto.OP_UPDATE_REPLY,
            request_id,
            json.dumps(summary).encode("utf-8"),
        )

    def _handle_query(
        self, request_id: int, payload: bytes, writer, *, traced: bool = False
    ) -> None:
        trace = None
        try:
            if traced:
                t0 = time.perf_counter_ns()
                trace_id, pairs = proto.decode_traced_query(payload)
                telemetry = getattr(self.service, "telemetry", None)
                if telemetry is not None:
                    # The client allocated the id; the span clock is
                    # this server's.  A telemetry-off server answers
                    # normally and just drops the id.
                    trace = telemetry.new_trace(trace_id)
                    trace.start_ns = t0  # the request began at decode
                    trace.add_span("decode", t0, time.perf_counter_ns())
            else:
                pairs = proto.decode_pairs(payload)
        except proto.ProtocolError as exc:
            writer.send_now(proto.OP_ERROR, request_id, repr(exc).encode("utf-8"))
            return

        def on_answers(answers, error) -> None:
            if error is None:
                writer.queue(
                    proto.OP_ANSWERS, request_id, proto.encode_answers(answers)
                )
            elif isinstance(error, proto.OverloadedError):
                # Distinct wire op: a shed request failed *because of
                # pressure*, not because it was wrong — a router retries
                # it on another replica, a client backs off.
                writer.queue(
                    proto.OP_OVERLOADED, request_id, str(error).encode("utf-8")
                )
            else:
                writer.queue(
                    proto.OP_ERROR, request_id, repr(error).encode("utf-8")
                )

        # Completions only queue; the batch (or the service's
        # synchronous paths) flushes each connection once per batch.
        on_answers.flush_writer = writer.flush
        self.service.query_pairs_async(pairs, on_answers, trace=trace)


# ----------------------------------------------------------------------
# Convenience entry point
# ----------------------------------------------------------------------
def serve_artifact(
    artifact_path: str,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    window_s: float = 0.001,
    adaptive_window: bool = False,
    max_batch: int = 65536,
    cache_size: int = 65536,
    allow_shutdown: Optional[bool] = None,
    watch: bool = False,
    watch_interval_s: float = 0.5,
    telemetry=True,
) -> ReachServer:
    """Start a TCP server over a saved artifact; returns the running server.

    The one-call deployment path::

        server = serve_artifact("kegg.rpro", port=7431)
        server.wait()

    ``watch=True`` serves the artifact through an epoch-versioned store
    and polls the file every ``watch_interval_s``: atomically replacing
    it on disk (write new + ``os.rename``) hot-swaps the served version
    without dropping a connection.  The returned server owns its
    :class:`QueryService` (and, when watching, the store + watcher) —
    ``close()`` (or a client's ``OP_SHUTDOWN``) tears everything down.
    ``allow_shutdown=None`` (default) honours the unauthenticated
    shutdown frame only on loopback hosts.
    """
    watcher = None
    if watch:
        from ..live import ArtifactWatcher, VersionedArtifactStore

        store = VersionedArtifactStore()
        # The watcher publishes epoch 1 too: every epoch is a private
        # snapshot (hard link) of the watched file, so epoch -> content
        # stays bound however fast the operator replaces the path, and
        # the pre-load signature capture closes the replace-during-load
        # race.
        watcher = ArtifactWatcher(store, artifact_path, interval_s=watch_interval_s)
        try:
            watcher.publish_current()
        except BaseException:
            watcher.close()
            store.close()
            raise
        service = QueryService(
            store=store,
            window_s=window_s,
            adaptive_window=adaptive_window,
            max_batch=max_batch,
            cache_size=cache_size,
            owns_store=True,
            telemetry=telemetry,
        )
    else:
        service = QueryService(
            artifact_path,
            window_s=window_s,
            adaptive_window=adaptive_window,
            max_batch=max_batch,
            cache_size=cache_size,
            telemetry=telemetry,
        )
    try:
        service.start()
        server = ReachServer(
            service,
            host,
            port,
            allow_shutdown=allow_shutdown,
            owns_service=True,
        )
        if watcher is not None:
            # Stop polling before the service (and its store) go down.
            server.cleanup_callbacks.append(watcher.close)
            watcher.start()
        return server.start()
    except BaseException:
        if watcher is not None:
            watcher.close()
        service.close()
        raise
