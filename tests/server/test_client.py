"""Tests for the client and the open/closed-loop load generator."""

import random

import pytest

from repro.facade import Reachability
from repro.graph.generators import random_dag
from repro.serialization import load_artifact
from repro.server import percentiles, run_load, serve_artifact


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    g = random_dag(100, 260, seed=31)
    reach = Reachability(g, "DL")
    path = str(tmp_path_factory.mktemp("load") / "g.rpro")
    reach.save(path)
    direct = load_artifact(path)
    rng = random.Random(32)
    pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(240)]
    expected = [bool(a) for a in direct.query_batch(pairs)]
    server = serve_artifact(path, cache_size=0)
    yield server, pairs, expected
    server.close()


class TestPercentiles:
    def test_known_distribution(self):
        samples = list(range(1, 101))  # 1..100
        pct = percentiles(samples)
        assert pct["p50"] == 50
        assert pct["p95"] == 95
        assert pct["p99"] == 99
        assert pct["p99.9"] == 100  # nearest-rank: ceil(.999 * 100) = 100

    def test_empty_and_single(self):
        assert percentiles([]) == {}
        pct = percentiles([7.0])
        assert pct == {"p50": 7.0, "p95": 7.0, "p99": 7.0, "p99.9": 7.0}

    def test_odd_count_median_is_true_median(self):
        # nearest-rank, not banker's rounding: p50 of 5 samples is the
        # 3rd ordered value
        assert percentiles([5, 4, 3, 2, 1])["p50"] == 3


class TestClosedLoop:
    def test_answers_in_workload_order(self, served):
        server, pairs, expected = served
        report = run_load(*server.address, pairs, connections=3, pipeline=8)
        assert report.errors == 0, report.first_error
        assert report.answers == expected
        assert report.total_pairs == len(pairs)
        assert report.qps > 0
        assert report.positives == sum(expected)

    def test_latency_percentiles_present_and_ordered(self, served):
        server, pairs, _expected = served
        report = run_load(*server.address, pairs, connections=2, pipeline=16)
        lat = report.latency_ms
        assert set(lat) == {"p50", "p95", "p99", "p99.9"}
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["p99.9"]
        assert "q/s" in report.summary()

    def test_multi_pair_requests(self, served):
        server, pairs, expected = served
        report = run_load(
            *server.address, pairs, connections=2, pairs_per_request=7
        )
        assert report.errors == 0
        assert report.answers == expected
        assert report.total_requests == (len(pairs) + 6) // 7


class TestOpenLoop:
    def test_fixed_rate_run(self, served):
        server, pairs, expected = served
        report = run_load(
            *server.address,
            pairs[:100],
            mode="open",
            rate=4000,
            connections=2,
        )
        assert report.errors == 0, report.first_error
        assert report.answers == expected[:100]
        # 100 requests at 4000/s should take about 25 ms; allow wild
        # scheduler noise but catch a broken pacing loop (instant or
        # minutes-long runs).
        assert 0.01 <= report.wall_s <= 5.0

    def test_open_loop_requires_rate(self, served):
        server, pairs, _expected = served
        with pytest.raises(ValueError, match="rate"):
            run_load(*server.address, pairs, mode="open")

    def test_unknown_mode_rejected(self, served):
        server, pairs, _expected = served
        with pytest.raises(ValueError, match="mode"):
            run_load(*server.address, pairs, mode="sideways")

    def test_empty_workload_rejected(self, served):
        server, _pairs, _expected = served
        with pytest.raises(ValueError, match="empty"):
            run_load(*server.address, [])


class TestReconnect:
    """Satellite hardening: connect/request deadlines and bounded
    reconnect-with-backoff on transport failures."""

    def _fresh_server(self, served):
        # A second server over the same artifact, for restart drills.
        server, _pairs, _expected = served
        return server

    def test_client_rides_out_a_server_restart(self, tmp_path):
        from repro.server import ReachClient, serve_artifact

        g = random_dag(60, 150, seed=41)
        path = str(tmp_path / "g.rpro")
        Reachability(g, "DL").save(path)
        direct = load_artifact(path)
        rng = random.Random(42)
        pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(50)]
        expected = [bool(a) for a in direct.query_batch(pairs)]

        server = serve_artifact(path)
        host, port = server.address
        client = ReachClient(
            host, port, reconnect_attempts=3, reconnect_backoff_s=0.05
        )
        try:
            assert client.query_batch(pairs) == expected
            server.close()  # the established connection dies
            server = serve_artifact(path, host=host, port=port)  # same port
            assert client.query_batch(pairs) == expected
            assert client.reconnects >= 1
        finally:
            client.close()
            server.close()

    def test_retries_exhausted_is_a_clear_connection_error(self, tmp_path):
        from repro.server import ReachClient, serve_artifact

        g = random_dag(40, 90, seed=43)
        path = str(tmp_path / "g.rpro")
        Reachability(g, "DL").save(path)
        server = serve_artifact(path)
        client = ReachClient(
            *server.address, reconnect_attempts=2, reconnect_backoff_s=0.01,
            connect_timeout=0.3,
        )
        try:
            assert client.ping()
            server.close()  # gone for good: every reconnect is refused
            with pytest.raises(ConnectionError, match="2 reconnect attempt"):
                client.ping()
        finally:
            client.close()

    def test_refused_dial_surfaces_at_construction(self):
        # The client connects eagerly: a dead port fails the constructor
        # with a ConnectionError, not a later request.
        from repro.server import ReachClient

        with pytest.raises(ConnectionError):
            ReachClient("127.0.0.1", 1, connect_timeout=0.3,
                        reconnect_attempts=0)

    def test_connect_timeout_bounds_the_first_dial(self):
        import socket
        import time

        from repro.server import ReachClient

        # A loopback listener whose accept queue is full drops further
        # SYNs, so a dial to it goes nowhere on any host, with or
        # without a network.  listen(0) and no accept(): fill the queue
        # until one dial times out, which proves later SYNs are dropped.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        fillers = []
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(0)
            address = listener.getsockname()
            for _ in range(16):
                try:
                    fillers.append(
                        socket.create_connection(address, timeout=0.2)
                    )
                except socket.timeout:
                    break
            else:
                pytest.fail("the listener kept answering: queue never filled")

            # The client dials eagerly, so the constructor is the first
            # dial; a hung dial raises socket.timeout after connect_timeout.
            t0 = time.monotonic()
            with pytest.raises(socket.timeout):
                ReachClient(*address, connect_timeout=0.3,
                            reconnect_attempts=0)
            assert time.monotonic() - t0 < 5.0
        finally:
            for sock in fillers:
                sock.close()
            listener.close()

    def test_unsequenced_updates_are_never_retried_across_reconnects(
        self, served
    ):
        # Legacy OP_UPDATE carries no dedupe identity, so a transport
        # error mid-update must surface, not silently re-apply on a
        # fresh connection.
        from repro.server import ReachClient

        server, _pairs, _expected = served
        client = ReachClient(
            *server.address, reconnect_attempts=3, reconnect_backoff_s=0.01
        )
        try:
            client._sock.close()  # sabotage the established connection
            with pytest.raises((OSError, ConnectionError)) as excinfo:
                client.update([(0, 1)], idempotent=False)
            # and it failed without burning reconnect attempts
            assert "reconnect attempt" not in str(excinfo.value)
        finally:
            client.close()

    def test_sequenced_updates_retry_across_reconnects(self, served):
        # The default path carries (client, seq), so the client IS
        # allowed to re-send it on a fresh connection.  This artifact
        # server has no update path at all, so reaching its application
        # error proves the retry crossed the reconnect.
        from repro.server import ReachClient

        server, _pairs, _expected = served
        client = ReachClient(
            *server.address, reconnect_attempts=3, reconnect_backoff_s=0.01
        )
        try:
            client._sock.close()  # sabotage the established connection
            with pytest.raises(RuntimeError, match="update"):
                client.update([(0, 1)])
            assert client.reconnects >= 1
        finally:
            client.close()

    def test_close_is_idempotent(self, served):
        from repro.server import ReachClient

        server, _pairs, _expected = served
        client = ReachClient(*server.address)
        client.close()
        client.close()
