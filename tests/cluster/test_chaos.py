"""ChaosProxy: every failure mode produces the *right* client failure.

The proxy sits between a ReachClient and a real server; the point of
each test is that misbehavior surfaces as a retryable transport error
(or a deadline), never as silently wrong answers.
"""

import random

import pytest

from repro.cluster import ChaosProxy
from repro.cluster.chaos import MODES
from repro.facade import Reachability
from repro.graph.generators import random_dag
from repro.serialization import load_artifact
from repro.server import ReachClient
from repro.server.service import QueryService
from repro.server.tcp import ReachServer


@pytest.fixture(scope="module")
def backend(tmp_path_factory):
    g = random_dag(80, 200, seed=9)
    path = str(tmp_path_factory.mktemp("chaos") / "dl.rpro")
    Reachability(g, "DL").save(path)
    direct = load_artifact(path)
    rng = random.Random(2)
    pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(60)]
    expected = [bool(a) for a in direct.query_batch(pairs)]
    server = ReachServer(
        QueryService(path).start(), owns_service=True
    ).start()
    yield server, pairs, expected
    server.close()


@pytest.fixture()
def proxy(backend):
    server, _pairs, _expected = backend
    with ChaosProxy(*server.address) as chaos:
        yield chaos


class TestModes:
    def test_pass_mode_is_a_faithful_wire(self, backend, proxy):
        _server, pairs, expected = backend
        with ReachClient(proxy.host, proxy.port) as client:
            assert client.query_batch(pairs) == expected
        doc = proxy.stats()
        assert doc["bytes_forwarded"] > 0
        assert doc["connections_total"] >= 1

    def test_delay_mode_still_answers_correctly(self, backend, proxy):
        _server, pairs, expected = backend
        proxy.set_mode("delay", delay_s=0.05)
        with ReachClient(proxy.host, proxy.port, timeout=10.0) as client:
            assert client.query_batch(pairs[:5]) == expected[:5]

    def test_reset_mode_kills_existing_and_new_connections(self, proxy):
        client = ReachClient(
            proxy.host, proxy.port, reconnect_attempts=1,
            reconnect_backoff_s=0.01,
        )
        assert client.ping()
        proxy.set_mode("reset")
        with pytest.raises((ConnectionError, RuntimeError)):
            client.ping()
        client.close()

    def test_reset_then_heal_lets_retries_win(self, backend, proxy):
        """The client's reconnect-with-backoff rides out a reset storm
        that ends before its attempts run out."""
        _server, pairs, expected = backend
        client = ReachClient(
            proxy.host, proxy.port, reconnect_attempts=2,
            reconnect_backoff_s=0.05,
        )
        assert client.query_batch(pairs) == expected
        proxy.set_mode("reset")  # RSTs the established connection
        proxy.set_mode("pass")  # ...but new connections are fine
        assert client.query_batch(pairs) == expected
        assert client.reconnects >= 1
        client.close()

    def test_half_write_surfaces_as_transport_error_not_garbage(self, proxy):
        proxy.set_mode("half_write", half_write_bytes=5)
        client = ReachClient(
            proxy.host, proxy.port, reconnect_attempts=1,
            reconnect_backoff_s=0.01,
        )
        with pytest.raises(ConnectionError):
            client.ping()
        client.close()

    def test_blackhole_mode_times_out_instead_of_hanging(self, proxy):
        proxy.set_mode("blackhole")
        client = ReachClient(
            proxy.host, proxy.port, timeout=0.3, reconnect_attempts=1,
            reconnect_backoff_s=0.01,
        )
        with pytest.raises(ConnectionError):
            client.ping()
        client.close()

    def test_unknown_mode_rejected(self, proxy):
        with pytest.raises(ValueError):
            proxy.set_mode("gremlins")
        with pytest.raises(ValueError):
            ChaosProxy("127.0.0.1", 1, mode="gremlins")
        assert proxy.mode in MODES


class TestLifecycle:
    def test_close_is_idempotent_and_drops_connections(self, backend):
        server, _pairs, _expected = backend
        chaos = ChaosProxy(*server.address)
        client = ReachClient(
            chaos.host, chaos.port, reconnect_attempts=0
        )
        assert client.ping()
        chaos.close()
        chaos.close()
        with pytest.raises((ConnectionError, RuntimeError, OSError)):
            client.ping()
        client.close()

    def test_proxy_to_nowhere_rejects_connections(self):
        with ChaosProxy("127.0.0.1", 1) as chaos:
            client = ReachClient(
                chaos.host, chaos.port, reconnect_attempts=1,
                reconnect_backoff_s=0.01, timeout=2.0,
            )
            with pytest.raises((ConnectionError, RuntimeError)):
                client.ping()
            client.close()
