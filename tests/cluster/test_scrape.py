"""Cluster scrape: merged replica histograms and failure visibility.

Replicas run with ``Telemetry(sample_every=1, latency_every=1)`` so
every request lands in the histograms — the production 1-in-K rates
record nothing deterministic on a short test workload.
"""

import random
import time

import pytest

from repro.cluster import ReplicaRouter
from repro.facade import Reachability
from repro.graph.generators import random_dag
from repro.serialization import load_artifact
from repro.server.service import QueryService
from repro.server.tcp import ReachServer
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    g = random_dag(120, 320, seed=3)
    path = str(tmp_path_factory.mktemp("scrape") / "dl.rpro")
    Reachability(g, "DL").save(path)
    direct = load_artifact(path)
    rng = random.Random(4)
    pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(400)]
    expected = [bool(a) for a in direct.query_batch(pairs)]
    return path, pairs, expected


def _observed_server(path):
    service = QueryService(
        path,
        telemetry=Telemetry(sample_every=1, latency_every=1),
    ).start()
    return ReachServer(service, owns_service=True).start()


@pytest.fixture()
def tier(artifact):
    path, pairs, expected = artifact
    servers = [_observed_server(path), _observed_server(path)]
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


class TestScrapeMerge:
    def test_cluster_histogram_is_sum_of_replicas(self, tier):
        router, _servers, pairs, expected = tier
        assert router.query_pairs(pairs) == expected
        doc = router.scrape()
        assert doc["cluster"]["polled"] == 2
        assert doc["cluster"]["failed"] == 0
        assert len(doc["replicas"]) == 2
        per_replica = [
            rep["telemetry"]["histograms"]["repro_request_seconds"]
            for rep in doc["replicas"].values()
        ]
        # min_slice=8 over 400 pairs: both replicas served traffic
        assert all(h["count"] >= 1 for h in per_replica)
        merged = doc["cluster"]["histograms"]["repro_request_seconds"]
        assert merged["count"] == sum(h["count"] for h in per_replica)
        assert merged["sum"] == sum(h["sum"] for h in per_replica)

    def test_replica_stats_docs_are_v2(self, tier):
        router, _servers, _pairs, _expected = tier
        doc = router.scrape()
        for rep in doc["replicas"].values():
            assert rep["stats_version"] == 2
        assert "telemetry" in doc["router"]

    def test_counters_sum_across_replicas(self, tier):
        router, _servers, pairs, expected = tier
        assert router.query_pairs(pairs) == expected
        doc = router.scrape()
        counters = doc["cluster"]["counters"]
        per = [
            rep["telemetry"]["counters"]
            for rep in doc["replicas"].values()
        ]
        for name, total in counters.items():
            assert total == sum(c.get(name, 0) for c in per)


class TestScrapeUnderFailure:
    def test_dead_replica_degrades_scrape_not_fails_it(self, tier):
        router, servers, pairs, expected = tier
        assert router.query_pairs(pairs) == expected
        dead = f"{servers[0].address[0]}:{servers[0].address[1]}"
        servers[0].close()
        doc = router.scrape()
        assert doc["cluster"]["polled"] == 2
        assert doc["cluster"]["failed"] == 1
        assert "error" in doc["replicas"][dead]
        # the survivor's histograms still make it into the cluster view
        assert doc["cluster"]["histograms"]["repro_request_seconds"]["count"] >= 1

    def test_replica_kill_is_visible_in_router_metrics(self, tier):
        router, servers, pairs, expected = tier
        servers[0].close()
        # retried slices still answer correctly off the survivor
        assert router.query_pairs(pairs) == expected
        counters = router.telemetry.registry.snapshot()["counters"]
        assert counters["repro_router_retries_total"] >= 1
        # the heartbeat then ejects the dead member, and that ejection
        # is a first-class counter in the scraped router section
        dead = f"{servers[0].address[0]}:{servers[0].address[1]}"
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if router.health.state_of(dead)["state"] == "ejected":
                break
            time.sleep(0.02)
        doc = router.scrape()
        tel = doc["router"]["telemetry"]
        assert tel["counters"]["repro_router_ejections_total"] >= 1
        attempts = tel["histograms"]["repro_router_attempts_per_slice"]
        assert attempts["count"] >= 1
        assert attempts["unit"] == "attempts"
