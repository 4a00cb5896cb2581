"""The benchmark's load generator: one thread, non-blocking sockets.

A load is a list of :class:`Lane` objects, one TCP connection each.  A
lane holds pre-encoded request frames, the time each is *due* (seconds
after the common start) and how many may be in flight.  The three load
shapes the benchmark needs are the same loop with different lanes:

* closed loop  — every frame due at 0, ``max_inflight`` = the window;
* open loop    — frames due on a fixed schedule, unbounded in flight;
* update stream — frames due on a schedule, one in flight (the shape of
  a blocking ``ReachClient.update`` caller that paces itself).

Latency is always taken from the due time, so a stall — in the server
or in this generator — is charged to every request that was due while
it lasted (no coordinated omission); how late the generator actually
sent is kept beside it.  ``repro.server.client.run_load`` stamps at the
actual send and needs two threads per connection, which is why the
benchmark does not use it.
"""

from __future__ import annotations

import select
import socket
import struct
import time
from typing import List, Optional, Sequence, Tuple

__all__ = ["Lane", "frame", "run"]

#: The wire header of ``repro.server.protocol``: payload length, opcode,
#: request id.  Restated here so the generator's hot loop parses replies
#: without a call into the code under test.
_HEADER = struct.Struct("<IBQ")
_HEADER_SIZE = _HEADER.size
_MAX_PAYLOAD = 64 * 1024 * 1024

#: Below this distance to the next due time the loop spins on a
#: zero-timeout poll instead of sleeping: ``poll`` wakes a millisecond
#: late, which at 8 000 requests/s is eight requests.
_SPIN_BELOW_S = 0.002


def frame(op: int, request_id: int, payload: bytes) -> bytes:
    """One wire frame: header, then payload."""
    return _HEADER.pack(len(payload), op, request_id) + payload


class Lane:
    """One connection's requests and, after :func:`run`, their outcome.

    ``frames[i]`` must carry request id ``i``.  ``due[i]`` is seconds
    after the run's start and must not decrease.  After the run,
    ``sent[i]`` and ``done[i]`` are seconds after the start (``None``
    where it never happened), ``ops[i]`` is the reply's opcode (0 for no
    reply), ``payloads[i]`` its payload, and ``error`` says why the
    connection was given up, if it was.
    """

    def __init__(
        self,
        frames: Sequence[bytes],
        due: Sequence[float],
        max_inflight: Optional[int] = None,
    ) -> None:
        if len(frames) != len(due):
            raise ValueError("one due time per frame")
        self.frames = frames
        self.due = due
        self.max_inflight = len(frames) if max_inflight is None else max_inflight
        n = len(frames)
        self.sent: List[Optional[float]] = [None] * n
        self.done: List[Optional[float]] = [None] * n
        self.ops = [0] * n
        self.payloads: List[Optional[bytes]] = [None] * n
        self.error = ""

    def __len__(self) -> int:
        return len(self.frames)

    def latencies_ms(self) -> List[float]:
        """Reply time minus *due* time, for the requests that got a reply."""
        due = self.due
        return [(d - due[i]) * 1000.0 for i, d in enumerate(self.done) if d is not None]

    def lateness_ms(self) -> List[float]:
        """How long after its due time each request was actually sent."""
        due = self.due
        return [(s - due[i]) * 1000.0 for i, s in enumerate(self.sent) if s is not None]


class _Conn:
    """A lane's socket and how far along it is."""

    __slots__ = ("lane", "sock", "next", "inflight", "rbuf", "wbuf", "open")

    def __init__(self, lane: Lane, sock: socket.socket) -> None:
        self.lane = lane
        self.sock = sock
        self.next = 0
        self.inflight = 0
        self.rbuf = bytearray()
        self.wbuf = b""
        self.open = True

    def send(self, data: bytes) -> None:
        """Write what the socket takes now; keep the rest for the next turn."""
        try:
            sent = self.sock.send(data)
        except BlockingIOError:
            sent = 0
        self.wbuf = data[sent:] if sent < len(data) else b""


def run(
    address: Tuple[str, int],
    lanes: Sequence[Lane],
    *,
    grace_s: float = 10.0,
    tracer=None,
    parent=None,
) -> float:
    """Drive ``lanes`` against ``address``; returns the wall time in seconds.

    The wall time runs from the common start to the last reply.  A lane
    whose connection fails keeps what it has; its unanswered requests
    stay ``done is None`` and its ``error`` says why.  The run gives up
    ``grace_s`` after the last due time.  With a ``tracer``, every
    reply also records a ``wire.request`` span (sent → reply) under
    ``parent`` — the per-request tracing whose cost the traced run
    reports.
    """
    conns: List[_Conn] = []
    try:
        for lane in lanes:
            sock = socket.create_connection(address, timeout=10.0)
            conns.append(_Conn(lane, sock))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
        return _loop(conns, grace_s, tracer, parent)
    finally:
        for conn in conns:
            conn.sock.close()


def _loop(conns: List[_Conn], grace_s: float, tracer, parent) -> float:
    clock = time.perf_counter
    poller = select.poll()
    by_fd = {conn.sock.fileno(): conn for conn in conns}
    for fd in by_fd:
        poller.register(fd, select.POLLIN)
    remaining = sum(len(c.lane) for c in conns)
    deadline = max((c.lane.due[-1] for c in conns if len(c.lane)), default=0.0) + grace_s
    end = 0.0

    def give_up(conn: _Conn, why: str) -> int:
        """Close a lane early; returns how many replies will now never come."""
        conn.lane.error = conn.lane.error or why
        conn.open = False
        poller.unregister(conn.sock.fileno())
        return sum(1 for d in conn.lane.done if d is None)

    t0 = clock()
    while remaining > 0:
        now = clock() - t0
        if now > deadline:
            for conn in conns:
                if conn.open:
                    give_up(conn, "no reply within the grace period")
            break
        next_due = deadline
        for conn in conns:
            if not conn.open:
                continue
            lane = conn.lane
            try:
                if conn.wbuf:
                    conn.send(conn.wbuf)
                    if conn.wbuf:
                        next_due = now  # keep turning until the socket drains
                        continue
                i = conn.next
                n = len(lane.frames)
                limit = min(n, i + lane.max_inflight - conn.inflight)
                due = lane.due
                j = i
                while j < limit and due[j] <= now:
                    j += 1
                if j > i:
                    frames = lane.frames
                    sent = lane.sent
                    for k in range(i, j):
                        sent[k] = now
                    conn.next = j
                    conn.inflight += j - i
                    conn.send(frames[i] if j == i + 1 else b"".join(frames[i:j]))
            except OSError as exc:
                remaining -= give_up(conn, repr(exc))
                continue
            if j < limit and due[j] < next_due:
                next_due = due[j]
        wait = next_due - (clock() - t0)
        if wait < _SPIN_BELOW_S:
            events = poller.poll(0)
        else:
            events = poller.poll((wait - _SPIN_BELOW_S / 2) * 1000.0)
        for fd, _ in events:
            conn = by_fd[fd]
            if not conn.open:
                continue
            try:
                chunk = conn.sock.recv(1 << 18)
            except BlockingIOError:
                continue
            except OSError as exc:
                remaining -= give_up(conn, repr(exc))
                continue
            if not chunk:
                remaining -= give_up(conn, "server closed the connection")
                continue
            now = clock() - t0
            lane = conn.lane
            done = lane.done
            buf = conn.rbuf
            buf += chunk
            size = len(buf)
            off = 0
            while size - off >= _HEADER_SIZE:
                length, op, rid = _HEADER.unpack_from(buf, off)
                if length > _MAX_PAYLOAD:
                    remaining -= give_up(conn, f"reply announces {length} bytes")
                    break
                stop = off + _HEADER_SIZE + length
                if stop > size:
                    break
                if rid < conn.next and done[rid] is None:
                    done[rid] = now
                    lane.ops[rid] = op
                    lane.payloads[rid] = bytes(buf[off + _HEADER_SIZE:stop])
                    conn.inflight -= 1
                    remaining -= 1
                    end = now
                    if tracer is not None:
                        tracer.add("wire.request", t0 + lane.sent[rid], t0 + now, parent)
                off = stop
            del buf[:off]
    return end
