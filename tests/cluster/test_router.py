"""ReplicaRouter over real in-process servers: routing, retries,
hedging, shedding, and the static-tier epoch rule."""

import random

import pytest

from repro.cluster import ChaosProxy, ReplicaRouter
from repro.cluster.router import ReplicaLink, ReplicaUnavailable
from repro.facade import Reachability
from repro.graph.generators import random_dag
from repro.serialization import load_artifact
from repro.server import protocol as proto
from repro.server.protocol import OverloadedError
from repro.server.service import QueryService
from repro.server.tcp import ReachServer


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    g = random_dag(120, 320, seed=3)
    path = str(tmp_path_factory.mktemp("cluster") / "dl.rpro")
    Reachability(g, "DL").save(path)
    direct = load_artifact(path)
    rng = random.Random(4)
    pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(400)]
    expected = [bool(a) for a in direct.query_batch(pairs)]
    return path, pairs, expected


def _static_server(path):
    return ReachServer(
        QueryService(path).start(), owns_service=True
    ).start()


@pytest.fixture()
def tier(artifact):
    """Two static replica servers + a fast-knobbed router over them."""
    path, pairs, expected = artifact
    servers = [_static_server(path), _static_server(path)]
    router = ReplicaRouter(
        [s.address for s in servers],
        health_interval_s=0.05,
        probation_delay_s=0.2,
        eject_after=2,
        backoff_base_s=0.005,
        request_timeout_s=3.0,
        min_slice=8,
    ).start()
    yield router, servers, pairs, expected
    router.close()
    for server in servers:
        server.close()


class TestRouting:
    def test_routed_answers_match_direct(self, tier):
        router, _servers, pairs, expected = tier
        assert router.query_pairs(pairs) == expected
        assert router.query(*pairs[0]) == expected[0]
        assert router.query_pairs([]) == []

    def test_large_requests_fan_out_in_slices(self, tier):
        router, _servers, pairs, _expected = tier
        router.query_pairs(pairs)  # 400 pairs, min_slice=8, 2 replicas
        doc = router.stats()
        assert doc["requests"] >= 1
        assert doc["slices"] >= 2 * doc["requests"]

    def test_static_tier_is_routable_at_epoch_zero(self, tier):
        """Plain servers answer OP_EPOCH with 0; with no epochs anywhere
        in the cluster that must not make them unroutable."""
        router, _servers, _pairs, _expected = tier
        assert router.current_epoch == 0
        assert len(router.health.routable()) == 2

    def test_duplicate_replica_addresses_rejected(self):
        with pytest.raises(ValueError):
            ReplicaRouter([("127.0.0.1", 1), ("127.0.0.1", 1)])

    def test_query_before_start_raises(self, artifact):
        path, _pairs, _expected = artifact
        router = ReplicaRouter([("127.0.0.1", 1)])
        with pytest.raises(RuntimeError):
            router.query_pairs([(0, 1)])
        router.close()


class TestFailover:
    def test_dead_replica_is_retried_elsewhere(self, tier):
        router, servers, pairs, expected = tier
        servers[0].close()  # in-flight connections die with RSTs
        assert router.query_pairs(pairs) == expected
        doc = router.stats()
        assert doc["failed"] == 0

    def test_dead_replica_gets_ejected_by_heartbeats(self, tier):
        import time

        router, servers, _pairs, _expected = tier
        dead = f"{servers[0].address[0]}:{servers[0].address[1]}"
        servers[0].close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if router.health.state_of(dead)["state"] == "ejected":
                break
            time.sleep(0.02)
        assert router.health.state_of(dead)["state"] == "ejected"
        assert len(router.health.routable()) == 1

    def test_all_replicas_down_is_an_explicit_overload(self, tier):
        router, servers, pairs, _expected = tier
        for server in servers:
            server.close()
        for _ in range(40):  # let the heartbeat eject both
            router.health.poll_once()
            if not router.health.routable():
                break
        with pytest.raises((OverloadedError, ReplicaUnavailable)):
            router.query_pairs(pairs)

    def test_shedding_at_max_inflight(self, artifact):
        path, pairs, _expected = artifact
        server = _static_server(path)
        router = ReplicaRouter([server.address], max_inflight=0).start()
        try:
            with pytest.raises(OverloadedError):
                router.query_pairs(pairs)
            assert router.stats()["shed"] == 1
        finally:
            router.close()
            server.close()

    def test_hedged_dispatch_beats_a_slow_replica(self, artifact):
        path, pairs, expected = artifact
        fast = _static_server(path)
        slow = _static_server(path)
        proxy = ChaosProxy(*slow.address, mode="delay", delay_s=0.4)
        router = ReplicaRouter(
            [fast.address, proxy.address],
            hedge_after_s=0.03,
            request_timeout_s=5.0,
            health_interval_s=0.05,
            min_slice=len(pairs) + 1,  # keep requests whole
        ).start()
        try:
            for _ in range(12):
                assert router.query_pairs(pairs[:40]) == expected[:40]
            doc = router.stats()
            # With two equally-loaded replicas the slow one is primary
            # about half the time; twelve rounds make a zero-hedge run
            # astronomically unlikely.
            assert doc["hedges"] >= 1
            assert doc["failed"] == 0
        finally:
            router.close()
            proxy.close()
            fast.close()
            slow.close()


class TestReplicaLink:
    def test_unreachable_link_fails_requests_not_constructor(self):
        link = ReplicaLink("127.0.0.1", 1, connect_timeout_s=0.2)
        with pytest.raises(ReplicaUnavailable):
            link.request(proto.OP_PING, timeout=1.0)
        link.close()

    def test_closed_link_fails_fast(self, artifact):
        path, _pairs, _expected = artifact
        server = _static_server(path)
        link = ReplicaLink(*server.address)
        assert link.probe_epoch() == 0
        link.close()
        with pytest.raises(ReplicaUnavailable):
            link.request(proto.OP_PING, timeout=1.0)
        server.close()
