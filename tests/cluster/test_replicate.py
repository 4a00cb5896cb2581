"""Epoch shipping, replica processes, and the tier's acceptance drill.

The headline chaos test lives here
(:class:`TestKillAReplicaUnderLoad`): SIGKILL a replica mid-load and
zero client requests fail; client-observed epochs stay monotone
through staggered flips; the replica restarts blank, bootstraps from
the newest shipped epoch, and is re-admitted.
"""

import random
import threading
import time

import pytest

from repro.cluster import (
    EpochShipper,
    ReplicaProcess,
    install_ship_handler,
    serve_replicated,
)
from repro.facade import Reachability
from repro.graph.generators import random_dag
from repro.live import VersionedArtifactStore
from repro.serialization import load_artifact
from repro.server import ReachClient, run_load
from repro.server.service import QueryService
from repro.server.tcp import ReachServer


def _wait_for(predicate, timeout_s, message):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    pytest.fail(message)


@pytest.fixture(scope="module")
def two_artifacts(tmp_path_factory):
    """v1/v2 artifacts over evolving graphs + workloads and answers."""
    g1 = random_dag(100, 260, seed=6)
    g2 = random_dag(100, 300, seed=6)  # superset-ish: same n, more edges
    tmp = tmp_path_factory.mktemp("ship")
    p1, p2 = str(tmp / "v1.rpro"), str(tmp / "v2.rpro")
    Reachability(g1, "DL").save(p1)
    Reachability(g2, "DL").save(p2)
    rng = random.Random(8)
    pairs = [(rng.randrange(100), rng.randrange(100)) for _ in range(300)]
    exp1 = [bool(a) for a in load_artifact(p1).query_batch(pairs)]
    exp2 = [bool(a) for a in load_artifact(p2).query_batch(pairs)]
    return p1, p2, pairs, exp1, exp2


class TestShipHandler:
    @pytest.fixture()
    def replica(self):
        """An in-process store-backed server with the ship handler."""
        store = VersionedArtifactStore()
        service = QueryService(
            store=store, owns_store=True, allow_empty_store=True
        ).start()
        server = ReachServer(service, owns_service=True)
        install_ship_handler(server, store)
        server.start()
        yield server, store
        server.close()

    def test_ship_fills_a_blank_replica(self, two_artifacts, replica):
        p1, _p2, pairs, exp1, _exp2 = two_artifacts
        server, store = replica
        with open(p1, "rb") as fh:
            data = fh.read()
        with ReachClient(*server.address) as client:
            reply = client.ship(7, data)
            assert reply["applied"] is True
            assert reply["epoch"] == 7
            assert client.epoch() == 7
            assert client.query_batch(pairs) == exp1
        assert store.current_epoch == 7

    def test_stale_ship_is_an_idempotent_no_op(self, two_artifacts, replica):
        p1, p2, pairs, _exp1, exp2 = two_artifacts
        server, store = replica
        data1 = open(p1, "rb").read()
        data2 = open(p2, "rb").read()
        with ReachClient(*server.address) as client:
            assert client.ship(5, data2)["applied"] is True
            for stale_epoch in (5, 3):  # equal and older both refuse
                reply = client.ship(stale_epoch, data1)
                assert reply["applied"] is False
                assert "stale" in reply["reason"]
            assert client.epoch() == 5
            assert client.query_batch(pairs) == exp2  # v2 still serving
        assert store.current_epoch == 5

    def test_corrupt_ship_payload_reports_not_kills(self, replica):
        server, _store = replica
        with ReachClient(*server.address) as client:
            reply = client.ship(1, b"this is not an artifact")
            assert reply["applied"] is False
            assert client.ping()  # connection survived


class TestEpochShipper:
    def test_shipper_syncs_blank_and_lagging_replicas(self, two_artifacts):
        p1, p2, pairs, _exp1, exp2 = two_artifacts
        store = VersionedArtifactStore()
        proc = ReplicaProcess()  # blank: no seed artifact
        shipper = None
        try:
            port = proc.start()
            store.publish_snapshot(p1)
            shipper = EpochShipper(
                store, [("127.0.0.1", port)], sync_interval_s=0.1
            ).start()
            with ReachClient("127.0.0.1", port) as client:
                _wait_for(
                    lambda: client.epoch() == 1, 15.0,
                    "blank replica was never bootstrapped",
                )
                # A publish hook wakes the shipper: the next epoch
                # arrives without waiting out sync_interval_s rounds.
                store.publish_snapshot(p2)
                _wait_for(
                    lambda: client.epoch() == 2, 15.0,
                    "follow-up epoch was never shipped",
                )
                assert client.query_batch(pairs) == exp2
            doc = shipper.stats()
            assert doc["ships_applied"] >= 2
        finally:
            if shipper is not None:
                shipper.close()
            proc.stop()
            store.close()


class TestReplicaProcess:
    def test_lifecycle_and_blank_restart(self, two_artifacts):
        p1, _p2, pairs, exp1, _exp2 = two_artifacts
        proc = ReplicaProcess(seed_path=p1)
        try:
            port = proc.start()
            assert proc.is_alive()
            with ReachClient("127.0.0.1", port) as client:
                assert client.epoch() == 1
                assert client.query_batch(pairs) == exp1
            proc.kill()
            assert not proc.is_alive()
            assert proc.restart() == port  # same port, blank by default
            assert proc.restarts == 1
            with ReachClient("127.0.0.1", port) as client:
                assert client.epoch() == 0  # blank: waiting for a ship
            proc.kill()
            assert proc.restart(seed=True) == port
            with ReachClient("127.0.0.1", port) as client:
                assert client.epoch() == 1  # reseeded from the artifact
        finally:
            proc.stop()

    def test_stop_is_idempotent(self):
        proc = ReplicaProcess()
        proc.start()
        proc.stop()
        proc.stop()
        assert not proc.is_alive()


class TestKillAReplicaUnderLoad:
    """The acceptance criteria, verbatim."""

    def test_zero_failures_monotone_epochs_bootstrap_readmission(
        self, two_artifacts
    ):
        p1, p2, pairs, _exp1, exp2 = two_artifacts
        server = serve_replicated(
            p1,
            replicas=2,
            sync_interval_s=0.1,
            health_interval_s=0.05,
            probation_delay_s=0.2,
            eject_after=2,
            backoff_base_s=0.005,
        )
        router = server.router
        try:
            host, port = server.address
            victim = server.replicas[0]
            victim_name = f"{victim.host}:{victim.port}"

            # Client-observed epochs, polled throughout the whole run.
            epochs = []
            stop = threading.Event()

            def poll_epochs():
                with ReachClient(host, port) as poller:
                    while not stop.is_set():
                        epochs.append(poller.epoch())
                        time.sleep(0.01)

            watcher = threading.Thread(target=poll_epochs)
            watcher.start()

            # Mixed load: reads stream while an epoch flip (the "update"
            # on a frozen-artifact tier) ships replica by replica...
            flipper = threading.Timer(
                0.05, lambda: server.store.publish_snapshot(p2)
            )
            flipper.start()
            # ...and the victim is SIGKILLed with requests in flight.
            killer = threading.Timer(0.1, victim.kill)
            killer.start()
            report = run_load(
                host, port, pairs * 20, connections=4, pipeline=16
            )
            flipper.join()
            killer.join()

            # 1. Zero failed client requests under mixed load.
            assert report.errors == 0, f"dropped: {report.first_error}"

            # The dead replica gets ejected...
            _wait_for(
                lambda: router.health.state_of(victim_name)["state"]
                == "ejected",
                10.0,
                "dead replica never ejected",
            )
            # ...while the tier serves on, now at epoch 2.
            _wait_for(
                lambda: router.current_epoch >= 2, 10.0,
                "shipped epoch never reached the router",
            )
            with ReachClient(host, port) as client:
                assert client.query_batch(pairs) == exp2

            # 2. Blank restart bootstraps from the latest epoch and is
            #    re-admitted at full routability.
            victim.restart()
            _wait_for(
                lambda: len(router.health.routable()) == 2, 20.0,
                "restarted replica never re-admitted",
            )
            assert (
                router.health.state_of(victim_name)["epoch"]
                == server.store.current_epoch
            )
            after = run_load(host, port, pairs, connections=2, pipeline=8)
            assert after.errors == 0

            stop.set()
            watcher.join()

            # 3. Client-observed epochs are monotone through the
            #    staggered per-replica flips.
            assert epochs, "the epoch watcher never sampled"
            assert all(a <= b for a, b in zip(epochs, epochs[1:])), (
                f"epochs went backwards: {epochs}"
            )
            assert epochs[-1] == 2
        finally:
            server.close()
