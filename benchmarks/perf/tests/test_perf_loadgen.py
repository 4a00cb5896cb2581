"""Latency is charged from the due time, in arithmetic and over a real socket."""

import socket
import struct
import threading
import time

import loadgen

HEADER = struct.Struct("<IBQ")


def test_latency_is_taken_from_due_time_not_send_time():
    lane = loadgen.Lane([b"a", b"b", b"c"], [0.000, 0.001, 0.002])
    # The generator stalled for 5 ms after the first request: the other
    # two went out late and were answered 1 ms after they were sent.
    lane.sent = [0.000, 0.005, 0.005]
    lane.done = [0.001, 0.006, 0.006]
    assert [round(x, 6) for x in lane.latencies_ms()] == [1.0, 5.0, 4.0]
    assert [round(x, 6) for x in lane.lateness_ms()] == [0.0, 4.0, 3.0]


def test_unanswered_requests_have_no_latency():
    lane = loadgen.Lane([b"a", b"b"], [0.0, 0.0])
    lane.sent = [0.0, 0.0]
    lane.done = [0.002, None]
    assert lane.latencies_ms() == [2.0]


def _echo_server(stall_at: int, stall_s: float):
    """Echo every frame's header back with an empty payload; stall once."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        conn, _ = listener.accept()
        buf = b""
        with conn:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buf += chunk
                while len(buf) >= HEADER.size:
                    length, op, rid = HEADER.unpack_from(buf)
                    if len(buf) < HEADER.size + length:
                        break
                    buf = buf[HEADER.size + length:]
                    if rid == stall_at:
                        time.sleep(stall_s)
                    conn.sendall(HEADER.pack(0, op, rid))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


def test_a_server_stall_is_charged_to_every_request_due_during_it():
    stall_s, rate, count = 0.2, 500.0, 150
    listener, thread = _echo_server(stall_at=10, stall_s=stall_s)
    try:
        frames = [HEADER.pack(0, 5, i) for i in range(count)]
        lane = loadgen.Lane(frames, [i / rate for i in range(count)])
        loadgen.run(listener.getsockname(), [lane], grace_s=5.0)
    finally:
        listener.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert all(done is not None for done in lane.done)
    latencies = lane.latencies_ms()
    # Requests 10..~110 were due while the server slept.  An open loop
    # that stamps at the due time sees the remaining stall on each of
    # them; a generator that waited for request 10 before sending the
    # next would have reported one slow request and 149 fast ones.
    slow = sum(1 for x in latencies if x > 20.0)
    assert slow >= 60, slow
    assert max(latencies) >= stall_s * 1000.0 * 0.9
    # The generator itself was never late: lateness is its own number.
    assert sorted(lane.lateness_ms())[int(count * 0.9)] < 20.0


def test_one_in_flight_lane_waits_for_the_reply_but_keeps_the_due_time():
    listener, thread = _echo_server(stall_at=0, stall_s=0.1)
    try:
        frames = [HEADER.pack(0, 5, i) for i in range(3)]
        lane = loadgen.Lane(frames, [0.0, 0.01, 0.02], max_inflight=1)
        loadgen.run(listener.getsockname(), [lane], grace_s=5.0)
    finally:
        listener.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    # The second request could only go out after the first reply (100 ms
    # in), yet its latency counts from when it was due (10 ms in).
    assert lane.sent[1] >= 0.09
    assert lane.latencies_ms()[1] >= 80.0
