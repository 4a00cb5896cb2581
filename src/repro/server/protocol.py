"""Wire protocol for the reachability service: binary frames.

The primary protocol is length-prefixed binary — the cheapest thing a
Python front end can parse per request, and self-delimiting so one
``recv`` can carry many pipelined frames:

========  =======  ==================================================
field     size     meaning
========  =======  ==================================================
length    u32 LE   payload byte count (excludes this 13-byte header)
opcode    u8       one of the ``OP_*`` constants below
request   u64 LE   client-chosen correlation id, echoed verbatim
payload   length   opcode-specific body
========  =======  ==================================================

Payloads:

* ``OP_QUERY``    — ``u32 count`` then ``count`` × (``u32 u``,
  ``u32 v``) little-endian vertex pairs.
* ``OP_ANSWERS``  — ``u32 count`` then ``ceil(count / 8)`` bytes of
  LSB-first answer bits (bit *i* = answer to pair *i*).
* ``OP_STATS`` / ``OP_STATS_REPLY`` — empty request; UTF-8 JSON reply.
* ``OP_PING`` / ``OP_PONG`` — empty; liveness and RTT probes.
* ``OP_SHUTDOWN`` — empty; the server acks with ``OP_PONG`` and stops
  (used by tests, CI, and the CLI for clean remote shutdown).
* ``OP_ERROR``    — UTF-8 message; sent instead of the normal reply.
* ``OP_UPDATE`` / ``OP_UPDATE_REPLY`` — edge churn for a live server:
  the request payload is the ``OP_QUERY`` pair encoding (each pair an
  edge ``u -> v``), optionally followed by a **removal bitmap** of
  ``ceil(count / 8)`` LSB-first bytes (bit *i* set = edge *i* is a
  removal, clear = insertion).  A payload of exactly
  ``4 + count * 8`` bytes is an insert-only stream — the pre-removal
  wire format, still emitted for insert-only batches, so old servers
  and new clients interoperate until a delete is actually sent.  The
  reply is a UTF-8 JSON summary (``epoch``, ``changed``,
  ``swap_s``…).  Servers without a live index answer ``OP_ERROR``.
* ``OP_UPDATE_SEQ`` — the idempotent update: the payload prefixes the
  ops encoding with a client id (``u16`` length + UTF-8 bytes) and a
  client-assigned ``u64`` sequence number, echoed back in the
  ``OP_UPDATE_REPLY`` JSON (``client``, ``seq``, ``deduped``).  A
  server that already applied this ``(client, seq)`` replies with the
  original summary and ``deduped: true`` instead of applying twice —
  which is what makes re-sending an unacked update after a reconnect
  safe (plain ``OP_UPDATE`` must never be retried).
* ``OP_EPOCH`` / ``OP_EPOCH_REPLY`` — empty request; the reply payload
  is one little-endian ``u64``: the artifact epoch currently serving,
  or 0 for a static (non-versioned) server.
* ``OP_OVERLOADED`` — UTF-8 message; sent instead of ``OP_ANSWERS``
  when the server (or the replica router) sheds the request rather
  than queueing it unboundedly.  Clients see
  :class:`OverloadedError`; a router treats it as "try another
  replica", never as a replica fault.
* ``OP_SHIP`` / ``OP_SHIP_REPLY`` — the replication channel: the
  request payload is ``u64 epoch`` followed by the raw artifact bytes
  of that epoch's file; the reply is UTF-8 JSON
  (``{"applied": bool, "epoch": int, "reason": str}``).  Replicas
  apply shipped epochs through
  :meth:`repro.live.VersionedArtifactStore.publish_snapshot` with the
  explicit epoch number, so replica epochs mirror the primary's and
  stay monotone.  Servers without a ship handler answer ``OP_ERROR``.
* ``OP_QUERY_TRACED`` — ``OP_QUERY`` with observability: the payload
  prefixes the pair encoding with a client-allocated non-zero ``u64``
  **trace id** (:func:`repro.telemetry.new_trace_id`).  The server
  answers with a normal ``OP_ANSWERS`` frame and records per-stage
  spans (decode → cache → batch wait → dispatch → flush) for the
  request into its slowest-trace tail sampler, keyed by that id.
  Servers running with telemetry disabled still answer — the trace id
  is simply dropped (tracing changes what is *recorded*, never what
  is answered).
* ``OP_TRACE`` / ``OP_TRACE_REPLY`` — the ``OP_STATS`` sibling for
  exemplars: empty request; the reply is UTF-8 JSON — a list of the
  slowest trace documents the server has retained (tail sampling),
  slowest first, each with its ``trace_id``, total ``duration_ns``
  and named spans with start offsets.  This is how a slow
  ``OP_QUERY_TRACED`` request is retrieved after the fact.

Responses may arrive out of submission order (micro-batching reorders
freely); the request id is the only correlation contract.

The JSON/HTTP fallback for stdlib-only or shell clients lives in
:mod:`repro.server.httpd`; this module is the binary codec only.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "OP_QUERY",
    "OP_ANSWERS",
    "OP_STATS",
    "OP_STATS_REPLY",
    "OP_PING",
    "OP_PONG",
    "OP_SHUTDOWN",
    "OP_ERROR",
    "OP_UPDATE",
    "OP_UPDATE_REPLY",
    "OP_UPDATE_SEQ",
    "OP_EPOCH",
    "OP_EPOCH_REPLY",
    "OP_OVERLOADED",
    "OP_SHIP",
    "OP_SHIP_REPLY",
    "OP_TRACE",
    "OP_TRACE_REPLY",
    "OP_QUERY_TRACED",
    "HEADER",
    "MAX_PAYLOAD",
    "CONNECTION_ERROR_ID",
    "pack_frame",
    "unpack_header",
    "encode_pairs",
    "decode_pairs",
    "encode_ops",
    "decode_ops",
    "encode_answers",
    "decode_answers",
    "encode_epoch",
    "decode_epoch",
    "encode_ship",
    "decode_ship",
    "encode_update_seq",
    "decode_update_seq",
    "encode_traced_query",
    "decode_traced_query",
    "FrameReader",
    "ProtocolError",
    "OverloadedError",
]

OP_QUERY = 1
OP_ANSWERS = 2
OP_STATS = 3
OP_STATS_REPLY = 4
OP_PING = 5
OP_PONG = 6
OP_SHUTDOWN = 7
OP_ERROR = 8
OP_UPDATE = 9
OP_UPDATE_REPLY = 10
OP_EPOCH = 11
OP_EPOCH_REPLY = 12
OP_OVERLOADED = 13
OP_SHIP = 14
OP_SHIP_REPLY = 15
OP_UPDATE_SEQ = 16
OP_TRACE = 17
OP_TRACE_REPLY = 18
OP_QUERY_TRACED = 19

_OPS = frozenset(
    (OP_QUERY, OP_ANSWERS, OP_STATS, OP_STATS_REPLY, OP_PING, OP_PONG,
     OP_SHUTDOWN, OP_ERROR, OP_UPDATE, OP_UPDATE_REPLY, OP_EPOCH,
     OP_EPOCH_REPLY, OP_OVERLOADED, OP_SHIP, OP_SHIP_REPLY, OP_UPDATE_SEQ,
     OP_TRACE, OP_TRACE_REPLY, OP_QUERY_TRACED)
)

#: Frame header: payload length, opcode, request id.
HEADER = struct.Struct("<IBQ")

#: Hard per-frame payload cap — large enough for a 4M-pair batch,
#: small enough that a garbage length prefix fails fast instead of
#: allocating gigabytes.
MAX_PAYLOAD = 64 * 1024 * 1024

#: Request id reserved for connection-level ``OP_ERROR`` frames (a
#: framing error has no request to blame; clients number requests from
#: 0, so 0 would mis-attribute the error to a real in-flight request).
CONNECTION_ERROR_ID = (1 << 64) - 1

_COUNT = struct.Struct("<I")
_PAIR = struct.Struct("<II")


class ProtocolError(ValueError):
    """A malformed frame or payload (bad opcode, length, or body)."""


class OverloadedError(RuntimeError):
    """The server shed the request instead of queueing it unboundedly.

    Raised client-side on an ``OP_OVERLOADED`` reply, and raised (or
    passed to completion callbacks) server-side by admission control.
    A :class:`ReachServer` answering a query whose error is an
    ``OverloadedError`` sends ``OP_OVERLOADED`` rather than
    ``OP_ERROR`` — the two must stay distinguishable, because overload
    means "back off / try elsewhere" while an error means "this request
    can never succeed here".
    """


def pack_frame(op: int, request_id: int, payload: bytes = b"") -> bytes:
    """One wire frame: header + payload as a single bytes object."""
    if op not in _OPS:
        raise ProtocolError(f"unknown opcode {op}")
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {len(payload)} bytes exceeds cap")
    return HEADER.pack(len(payload), op, request_id) + payload


def unpack_header(buf: bytes, offset: int = 0) -> Tuple[int, int, int]:
    """``(payload_len, opcode, request_id)`` from a header at ``offset``."""
    length, op, request_id = HEADER.unpack_from(buf, offset)
    if op not in _OPS:
        raise ProtocolError(f"unknown opcode {op}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame announces {length} bytes, cap is {MAX_PAYLOAD}")
    return length, op, request_id


def encode_pairs(pairs: Sequence[Tuple[int, int]]) -> bytes:
    """``OP_QUERY`` payload for a pair workload (u32 vertex ids)."""
    out = bytearray(_COUNT.pack(len(pairs)))
    pack = _PAIR.pack
    try:
        for u, v in pairs:
            out += pack(u, v)
    except struct.error as exc:
        raise ProtocolError(f"vertex id out of u32 range: {exc}") from None
    return bytes(out)


def decode_pairs(payload: bytes) -> List[Tuple[int, int]]:
    """Parse an ``OP_QUERY`` payload back into ``(u, v)`` tuples."""
    if len(payload) < _COUNT.size:
        raise ProtocolError("query payload shorter than its count field")
    (count,) = _COUNT.unpack_from(payload, 0)
    body = memoryview(payload)[_COUNT.size:]
    if len(body) != count * _PAIR.size:
        raise ProtocolError(
            f"query payload announces {count} pairs but carries {len(body)} bytes"
        )
    return list(_PAIR.iter_unpack(body))


def encode_ops(ops: Sequence[Tuple[str, int, int]]) -> bytes:
    """``OP_UPDATE`` payload for a mixed ``('+'|'-', u, v)`` op stream.

    Insert-only streams use the bare pair encoding (identical bytes to
    the pre-removal protocol); any removal appends the LSB-first
    removal bitmap.  Accepts plain ``(u, v)`` pairs too (inserts).
    """
    kinds: List[bool] = []
    pairs: List[Tuple[int, int]] = []
    for item in ops:
        fields = tuple(item)
        if len(fields) == 2:
            kinds.append(False)
            pairs.append((fields[0], fields[1]))
        else:
            op, u, v = fields
            if op == "+":
                kinds.append(False)
            elif op == "-":
                kinds.append(True)
            else:
                raise ProtocolError(f"unknown update op {op!r}")
            pairs.append((u, v))
    body = encode_pairs(pairs)
    if not any(kinds):
        return body
    bitmap = bytearray((len(kinds) + 7) // 8)
    for i, is_removal in enumerate(kinds):
        if is_removal:
            bitmap[i >> 3] |= 1 << (i & 7)
    return body + bytes(bitmap)


def decode_ops(payload: bytes) -> List[Tuple[str, int, int]]:
    """Parse an ``OP_UPDATE`` payload into ``('+'|'-', u, v)`` triples.

    A payload without the trailing removal bitmap (the pre-removal
    format) is an insert-only stream.
    """
    if len(payload) < _COUNT.size:
        raise ProtocolError("update payload shorter than its count field")
    (count,) = _COUNT.unpack_from(payload, 0)
    body = memoryview(payload)[_COUNT.size:]
    pairs_len = count * _PAIR.size
    bitmap_len = (count + 7) // 8
    if len(body) == pairs_len:
        bitmap = None
    elif len(body) == pairs_len + bitmap_len:
        bitmap = body[pairs_len:]
        body = body[:pairs_len]
    else:
        raise ProtocolError(
            f"update payload announces {count} ops but carries "
            f"{len(body)} bytes (expected {pairs_len} or "
            f"{pairs_len + bitmap_len})"
        )
    ops: List[Tuple[str, int, int]] = []
    for i, (u, v) in enumerate(_PAIR.iter_unpack(body)):
        removal = bitmap is not None and bool(bitmap[i >> 3] & (1 << (i & 7)))
        ops.append(("-" if removal else "+", u, v))
    return ops


def encode_answers(answers: Sequence[bool]) -> bytes:
    """``OP_ANSWERS`` payload: count + LSB-first packed answer bits."""
    count = len(answers)
    bits = bytearray((count + 7) // 8)
    for i, a in enumerate(answers):
        if a:
            bits[i >> 3] |= 1 << (i & 7)
    return _COUNT.pack(count) + bytes(bits)


def decode_answers(payload: bytes) -> List[bool]:
    """Parse an ``OP_ANSWERS`` payload back into a bool list."""
    if len(payload) < _COUNT.size:
        raise ProtocolError("answers payload shorter than its count field")
    (count,) = _COUNT.unpack_from(payload, 0)
    bits = memoryview(payload)[_COUNT.size:]
    if len(bits) != (count + 7) // 8:
        raise ProtocolError(
            f"answers payload announces {count} answers but carries "
            f"{len(bits)} bit bytes"
        )
    return [bool(bits[i >> 3] & (1 << (i & 7))) for i in range(count)]


_EPOCH = struct.Struct("<Q")


def encode_epoch(epoch: Optional[int]) -> bytes:
    """``OP_EPOCH_REPLY`` payload: the epoch as u64 (0 = static server)."""
    return _EPOCH.pack(0 if epoch is None else int(epoch))


def decode_epoch(payload: bytes) -> int:
    """Parse an ``OP_EPOCH_REPLY`` payload (0 means static serving)."""
    if len(payload) != _EPOCH.size:
        raise ProtocolError(
            f"epoch payload is {len(payload)} bytes, expected {_EPOCH.size}"
        )
    return _EPOCH.unpack(payload)[0]


def encode_ship(epoch: int, data: bytes) -> bytes:
    """``OP_SHIP`` payload: the epoch number + the artifact file bytes."""
    if epoch < 1:
        raise ProtocolError(f"shipped epochs start at 1, got {epoch}")
    if _EPOCH.size + len(data) > MAX_PAYLOAD:
        raise ProtocolError(
            f"artifact of {len(data)} bytes exceeds the frame payload cap"
        )
    return _EPOCH.pack(epoch) + data


def decode_ship(payload: bytes) -> Tuple[int, bytes]:
    """Parse an ``OP_SHIP`` payload into ``(epoch, artifact_bytes)``."""
    if len(payload) < _EPOCH.size:
        raise ProtocolError("ship payload shorter than its epoch field")
    epoch = _EPOCH.unpack_from(payload, 0)[0]
    if epoch < 1:
        raise ProtocolError(f"shipped epochs start at 1, got {epoch}")
    return epoch, bytes(memoryview(payload)[_EPOCH.size:])


_CLIENT_LEN = struct.Struct("<H")


def encode_update_seq(
    client: str, seq: int, ops: Sequence
) -> bytes:
    """``OP_UPDATE_SEQ`` payload: client id + sequence + ops stream.

    ``ops`` takes anything :func:`encode_ops` accepts — plain ``(u, v)``
    pairs and/or ``('+'|'-', u, v)`` triples.
    """
    cb = client.encode("utf-8")
    if not cb:
        raise ProtocolError("sequenced updates need a non-empty client id")
    if len(cb) > 0xFFFF:
        raise ProtocolError(f"client id of {len(cb)} bytes exceeds u16 cap")
    if seq < 0:
        raise ProtocolError(f"sequence numbers are unsigned, got {seq}")
    return (
        _CLIENT_LEN.pack(len(cb)) + cb + _EPOCH.pack(seq) + encode_ops(ops)
    )


def decode_update_seq(payload: bytes) -> Tuple[str, int, List[Tuple[str, int, int]]]:
    """Parse an ``OP_UPDATE_SEQ`` payload into ``(client, seq, ops)``.

    ``ops`` are canonical ``('+'|'-', u, v)`` triples (insert-only
    payloads in the pre-removal format decode to all-``'+'``).
    """
    view = memoryview(payload)
    if len(view) < _CLIENT_LEN.size:
        raise ProtocolError("sequenced update shorter than its client length")
    (client_len,) = _CLIENT_LEN.unpack_from(view, 0)
    off = _CLIENT_LEN.size
    if client_len == 0:
        raise ProtocolError("sequenced updates need a non-empty client id")
    if len(view) < off + client_len + _EPOCH.size:
        raise ProtocolError("sequenced update truncated before its sequence")
    client = bytes(view[off:off + client_len]).decode("utf-8")
    off += client_len
    (seq,) = _EPOCH.unpack_from(view, off)
    off += _EPOCH.size
    return client, seq, decode_ops(bytes(view[off:]))


_TRACE_ID = struct.Struct("<Q")


def encode_traced_query(trace_id: int, pairs: Sequence[Tuple[int, int]]) -> bytes:
    """``OP_QUERY_TRACED`` payload: non-zero u64 trace id + pair stream."""
    if not (0 < trace_id < (1 << 64)):
        raise ProtocolError(f"trace ids are non-zero u64, got {trace_id}")
    return _TRACE_ID.pack(trace_id) + encode_pairs(pairs)


def decode_traced_query(payload: bytes) -> Tuple[int, List[Tuple[int, int]]]:
    """Parse an ``OP_QUERY_TRACED`` payload into ``(trace_id, pairs)``."""
    if len(payload) < _TRACE_ID.size:
        raise ProtocolError("traced query shorter than its trace id")
    (trace_id,) = _TRACE_ID.unpack_from(payload, 0)
    if trace_id == 0:
        raise ProtocolError("trace ids are non-zero (0 means untraced)")
    return trace_id, decode_pairs(bytes(memoryview(payload)[_TRACE_ID.size:]))


class FrameReader:
    """Buffered frame parser over a socket (or any ``recv``-alike).

    One ``recv`` may deliver several pipelined frames or a fraction of
    one; the reader buffers across calls and yields complete frames.
    ``read_frame`` returns ``None`` on clean EOF and raises
    :class:`ProtocolError` on garbage.
    """

    def __init__(self, sock, recv_size: int = 1 << 16) -> None:
        self._sock = sock
        self._recv_size = recv_size
        self._buf = bytearray()

    def read_frame(self) -> Optional[Tuple[int, int, bytes]]:
        """The next ``(opcode, request_id, payload)``, or ``None`` at EOF."""
        if not self._fill(HEADER.size):
            if self._buf:
                raise ProtocolError("connection closed mid-header")
            return None
        length, op, request_id = unpack_header(self._buf)
        if not self._fill(HEADER.size + length):
            raise ProtocolError("connection closed mid-frame")
        payload = bytes(memoryview(self._buf)[HEADER.size:HEADER.size + length])
        del self._buf[:HEADER.size + length]
        return op, request_id, payload

    def _fill(self, want: int) -> bool:
        """Buffer until ``want`` bytes are available; False on EOF first."""
        while len(self._buf) < want:
            chunk = self._sock.recv(self._recv_size)
            if not chunk:
                return False
            self._buf += chunk
        return True

    def pending(self) -> int:
        """Buffered byte count (diagnostics only)."""
        return len(self._buf)
