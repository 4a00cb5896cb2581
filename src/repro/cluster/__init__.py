"""Fault-tolerant replica tier: router, health, replication, chaos.

A single reachability server (:mod:`repro.server`) dies with its host.
This package turns N of them into a tier that survives any one of them:

* :mod:`repro.cluster.router` — :class:`ReplicaRouter` fans query
  batches over replicas with per-replica timeouts, retries on another
  replica (jittered exponential backoff), hedged dispatch for tail
  requests, and explicit overload shedding.  It duck-types
  :class:`~repro.server.service.QueryService`, so a plain
  :class:`~repro.server.tcp.ReachServer` is the tier's front end.
* :mod:`repro.cluster.health` — :class:`HealthMonitor` heartbeats
  every replica (``OP_EPOCH``), ejects after consecutive failures,
  re-admits through half-open probation, and flags epoch-lagging
  replicas stale (still serving, visibly degraded).
* :mod:`repro.cluster.replicate` — :class:`EpochShipper` pushes each
  published epoch from the primary's
  :class:`~repro.live.VersionedArtifactStore` to every replica over
  the wire (``OP_SHIP``); replicas apply via ``publish_snapshot`` with
  the primary's epoch number, so epochs stay monotone and comparable
  cluster-wide, and a blank or rejoining replica bootstraps from the
  newest epoch automatically.
* :mod:`repro.cluster.chaos` — :class:`ChaosProxy` (delay, blackhole,
  reset, half-write) plus :class:`ReplicaProcess` kill/restart: the
  harness that proves the above under fire.

The headline guarantee, enforced by the chaos tests: SIGKILL a replica
under mixed read/update load and **zero client requests fail** — the
router retries the dead replica's slices elsewhere, the health monitor
ejects it, and when it comes back blank the shipper re-fills it and
probation re-admits it.
"""

from .chaos import ChaosProxy
from .health import HealthMonitor
from .replicate import (
    EpochShipper,
    PrimaryProcess,
    ReplicaProcess,
    install_ship_handler,
)
from .router import ReplicaLink, ReplicaRouter, ReplicaUnavailable

__all__ = [
    "ChaosProxy",
    "HealthMonitor",
    "EpochShipper",
    "PrimaryProcess",
    "ReplicaProcess",
    "install_ship_handler",
    "ReplicaLink",
    "ReplicaRouter",
    "ReplicaUnavailable",
    "serve_replicated",
]


def serve_replicated(
    artifact_path: str = None,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    replicas: int = 2,
    allow_shutdown=None,
    sync_interval_s: float = 0.5,
    data_dir: str = None,
    graph=None,
    sync: str = "interval",
    bootstrap_timeout_s: float = 60.0,
    **router_kwargs,
):
    """One-call replica tier; returns the front-end server.

    Two modes, selected by which source argument is given:

    * ``artifact_path`` — the static tier: ``replicas`` seeded
      :class:`ReplicaProcess`es, an in-process
      :class:`~repro.live.VersionedArtifactStore` + :class:`EpochShipper`
      (which re-fills any replica that restarts blank), a
      :class:`ReplicaRouter` over them, and a
      :class:`~repro.server.tcp.ReachServer` front end speaking the
      ordinary wire protocol.
    * ``data_dir`` (+ ``graph`` for the first boot, ``sync`` for the
      journal's fsync policy) — the **durable** tier: a killable
      :class:`PrimaryProcess` (journaled primary, recovered from
      ``data_dir`` when it already has a manifest) ships epochs to
      ``replicas`` *blank* replicas, the router serves reads over the
      replicas, and sequenced updates through the front end are
      forwarded to the primary — whose ack means the batch is on disk.
      The call returns once every replica has bootstrapped to the
      primary's epoch (bounded by ``bootstrap_timeout_s``).

    ``server.close()`` tears the whole tier down.  The running pieces
    hang off the returned server as ``server.router``,
    ``server.replicas`` and ``server.shipper`` (static mode) or
    ``server.primary`` (durable mode) — which is exactly what a chaos
    harness needs to reach in and kill things.

    Extra keyword arguments go to :class:`ReplicaRouter` (timeouts,
    hedging, health knobs).
    """
    from ..live.store import VersionedArtifactStore
    from ..server.tcp import ReachServer

    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if (artifact_path is None) == (data_dir is None):
        raise ValueError("pass exactly one of artifact_path / data_dir")
    if data_dir is not None:
        return _serve_replicated_durable(
            data_dir,
            graph,
            host,
            port,
            replicas=replicas,
            allow_shutdown=allow_shutdown,
            sync=sync,
            bootstrap_timeout_s=bootstrap_timeout_s,
            **router_kwargs,
        )
    store = VersionedArtifactStore()
    procs = []
    shipper = None
    router = None
    try:
        store.publish_snapshot(artifact_path)
        addresses = []
        for _ in range(replicas):
            proc = ReplicaProcess(seed_path=artifact_path)
            procs.append(proc)
            addresses.append(("127.0.0.1", proc.start()))
        shipper = EpochShipper(
            store, addresses, sync_interval_s=sync_interval_s
        ).start()
        router = ReplicaRouter(addresses, **router_kwargs).start()
        server = ReachServer(
            router, host, port, allow_shutdown=allow_shutdown, owns_service=True
        )
        server.cleanup_callbacks.append(shipper.close)
        server.cleanup_callbacks.extend(proc.stop for proc in procs)
        server.cleanup_callbacks.append(store.close)
        server.router = router
        server.replicas = procs
        server.shipper = shipper
        server.store = store
        return server.start()
    except BaseException:
        if shipper is not None:
            shipper.close()
        if router is not None:
            router.close()
        for proc in procs:
            proc.stop()
        store.close()
        raise


def _serve_replicated_durable(
    data_dir,
    graph,
    host,
    port,
    *,
    replicas,
    allow_shutdown,
    sync,
    bootstrap_timeout_s,
    **router_kwargs,
):
    """The durable tier: journaled PrimaryProcess + blank replicas.

    Reads fan over the replicas through the router; updates forward to
    the primary over a sequenced :class:`~repro.server.ReachClient`
    connection (the caller's ``(client, seq)`` ride through verbatim,
    so end-to-end idempotency is the primary's dedupe window, not
    anything this layer invents).
    """
    import threading
    import time

    from ..server.client import ReachClient
    from ..server.tcp import ReachServer
    from .replicate import PrimaryProcess, ReplicaProcess

    procs = []
    primary = None
    router = None
    try:
        addresses = []
        for _ in range(replicas):
            proc = ReplicaProcess()  # blank: bootstrapped by the shipper
            procs.append(proc)
            addresses.append(("127.0.0.1", proc.start()))
        primary = PrimaryProcess(
            data_dir, graph, replicas=addresses, sync=sync
        )
        primary.start()
        with ReachClient("127.0.0.1", primary.port) as pc:
            target_epoch = pc.epoch()
        # Block until every replica holds the primary's epoch: fronting
        # blank replicas would serve "no published epoch" errors for
        # the first shipper pass.
        deadline = time.monotonic() + bootstrap_timeout_s
        for rhost, rport in addresses:
            with ReachClient(rhost, rport) as rc:
                while rc.epoch() < target_epoch:
                    if time.monotonic() > deadline:
                        raise RuntimeError(
                            f"replica {rhost}:{rport} did not bootstrap to "
                            f"epoch {target_epoch} in {bootstrap_timeout_s}s"
                        )
                    time.sleep(0.05)
        router = ReplicaRouter(addresses, **router_kwargs).start()

        # One cached forwarding connection, rebuilt after any failure
        # (e.g. across a primary restart — the port survives, the TCP
        # connection does not).
        fwd_lock = threading.Lock()
        fwd = {"client": None}

        def _forward_client():
            with fwd_lock:
                if fwd["client"] is None:
                    fwd["client"] = ReachClient(primary.host, primary.port)
                return fwd["client"]

        def _drop_forward_client():
            with fwd_lock:
                client, fwd["client"] = fwd["client"], None
            if client is not None:
                client.close()

        def updater(edges, *, client=None, seq=None):
            conn = _forward_client()
            try:
                if client is None:
                    # Legacy un-sequenced update: not safe to retry, so
                    # it forwards exactly once.
                    return conn.update(edges, idempotent=False)
                return conn.update(edges, client=client, seq=seq)
            except Exception:
                _drop_forward_client()
                raise

        router.updater = updater
        server = ReachServer(
            router, host, port, allow_shutdown=allow_shutdown, owns_service=True
        )
        server.cleanup_callbacks.append(_drop_forward_client)
        server.cleanup_callbacks.append(primary.stop)
        server.cleanup_callbacks.extend(proc.stop for proc in procs)
        server.router = router
        server.replicas = procs
        server.primary = primary
        return server.start()
    except BaseException:
        if router is not None:
            router.close()
        if primary is not None:
            primary.stop()
        for proc in procs:
            proc.stop()
        raise
