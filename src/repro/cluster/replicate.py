"""Epoch replication: primary → replicas, snapshot by snapshot.

Three pieces:

* :func:`make_ship_handler` / :func:`install_ship_handler` — the
  replica side of ``OP_SHIP``: payload bytes land in a temp file and
  enter the replica's :class:`~repro.live.VersionedArtifactStore` via
  ``publish_snapshot(path, epoch=primary_epoch)``, so the replica's
  epoch numbers ARE the primary's (a router comparing epochs across
  replicas compares the same clock).  A ship at or below the replica's
  current epoch answers ``{"applied": false}`` instead of regressing —
  the monotone-epoch invariant is enforced where the data lives, which
  makes shipping idempotent and ship retries safe.
* :class:`EpochShipper` — the primary side: a publish hook on the
  store wakes the shipping loop the moment an epoch flips, and a
  periodic sync pass compares each replica's ``OP_EPOCH`` against the
  primary's current epoch and ships the newest snapshot to whoever is
  behind.  One mechanism covers all three cases — steady-state
  replication, a blank replica bootstrapping from nothing, and a
  restarted replica rejoining after missed flips — because "behind" is
  the only state the loop ever has to fix.  The artifact's bytes are
  read under an epoch lease, so a concurrent flip can never unlink the
  file mid-read.
* :class:`ReplicaProcess` — a replica as a child process (blank or
  seeded store + ``QueryService`` + ``ReachServer`` with the ship
  handler mounted), with ``kill()`` (SIGKILL, the chaos primitive) and
  ``restart()`` (same port, blank store — it re-bootstraps through the
  shipper) helpers.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..server import protocol as proto
from ..server.client import ReachClient

__all__ = [
    "make_ship_handler",
    "install_ship_handler",
    "EpochShipper",
    "ReplicaProcess",
    "PrimaryProcess",
]


# ----------------------------------------------------------------------
# Replica side: the OP_SHIP handler
# ----------------------------------------------------------------------
def make_ship_handler(store) -> Callable[[int, bytes, object], None]:
    """A ``handlers[OP_SHIP]`` callable applying ships into ``store``.

    Replies ``OP_SHIP_REPLY`` with ``{"applied", "epoch", "reason"}``;
    ``epoch`` is the replica's epoch *after* the call either way.
    Decode errors propagate to the server's per-request catch-all
    (which answers ``OP_ERROR``), so a corrupt frame costs one request,
    never the replica.
    """

    def handle_ship(request_id: int, payload: bytes, writer) -> None:
        epoch, data = proto.decode_ship(payload)
        current = store.current_epoch or 0
        if epoch <= current:
            doc = {
                "applied": False,
                "epoch": current,
                "reason": (
                    f"stale ship: replica already at epoch {current}, "
                    f"offered {epoch} (epochs are monotone)"
                ),
            }
        else:
            fd, tmp = tempfile.mkstemp(prefix="repro-ship-", suffix=".rpro")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                try:
                    store.publish_snapshot(tmp, epoch=epoch)
                except ValueError as exc:
                    # Lost a publish race after the pre-check (two
                    # shippers, or a local publish): still monotone,
                    # still not an error.
                    doc = {
                        "applied": False,
                        "epoch": store.current_epoch or 0,
                        "reason": str(exc),
                    }
                else:
                    doc = {"applied": True, "epoch": epoch, "reason": ""}
            finally:
                try:
                    os.unlink(tmp)  # publish_snapshot pinned its own link
                except OSError:  # pragma: no cover
                    pass
        writer.send_now(
            proto.OP_SHIP_REPLY, request_id, json.dumps(doc).encode("utf-8")
        )

    return handle_ship


def install_ship_handler(server, store) -> None:
    """Mount ``OP_SHIP`` on a :class:`ReachServer` serving ``store``."""
    server.handlers[proto.OP_SHIP] = make_ship_handler(store)


# ----------------------------------------------------------------------
# Primary side: the shipper
# ----------------------------------------------------------------------
class EpochShipper:
    """Keep every replica's store at the primary store's epoch.

    Event-driven with a periodic safety net: the store's publish hook
    wakes the loop instantly on each flip, and every
    ``sync_interval_s`` the loop re-checks all replicas anyway — that
    periodic pass is what bootstraps blank replicas and re-fills
    restarted ones without any extra protocol.  Only the *newest*
    epoch ever ships (a replica three flips behind catches up in one
    transfer); intermediate epochs it missed are simply skipped, which
    is sound because every snapshot is self-contained.
    """

    def __init__(
        self,
        store,
        replicas: Sequence[Tuple[str, int]],
        *,
        sync_interval_s: float = 0.5,
        connect_timeout_s: float = 2.0,
        request_timeout_s: float = 30.0,
    ) -> None:
        self.store = store
        self.sync_interval_s = sync_interval_s
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self._addresses: List[Tuple[str, int]] = [
            (host, int(port)) for host, port in replicas
        ]
        self._clients: Dict[str, Optional[ReachClient]] = {
            f"{host}:{port}": None for host, port in self._addresses
        }
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._ships_applied = 0
        self._ships_stale = 0
        self._ship_failures = 0
        self._last_shipped: Dict[str, int] = {}
        store.add_publish_hook(self._on_publish)

    def _on_publish(self, epoch: int, path: str) -> None:
        self._wake.set()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "EpochShipper":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-epoch-shipper", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        with self._lock:
            clients = [c for c in self._clients.values() if c is not None]
            self._clients = {name: None for name in self._clients}
        for client in clients:
            client.close()

    def __enter__(self) -> "EpochShipper":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _loop(self) -> None:
        while True:
            self._wake.wait(self.sync_interval_s)
            self._wake.clear()
            if self._stop.is_set():
                return
            try:
                self.sync_once()
            except Exception:  # pragma: no cover - loop must survive
                pass

    # -- shipping ------------------------------------------------------
    def _client(self, name: str, host: str, port: int) -> Optional[ReachClient]:
        with self._lock:
            client = self._clients.get(name)
        if client is not None:
            return client
        try:
            client = ReachClient(
                host,
                port,
                timeout=self.request_timeout_s,
                connect_timeout=self.connect_timeout_s,
            )
        except OSError:
            return None  # replica down; the next sync pass retries
        with self._lock:
            self._clients[name] = client
        return client

    def _drop_client(self, name: str) -> None:
        with self._lock:
            client, self._clients[name] = self._clients.get(name), None
        if client is not None:
            client.close()

    def sync_once(self) -> int:
        """One pass: ship the current epoch to every lagging replica.

        Returns how many ships were applied.  Callable directly (tests,
        or a caller that wants synchronous ship-on-publish); the
        background loop just invokes it on wake/interval.
        """
        try:
            lease = self.store.acquire()
        except RuntimeError:
            return 0  # nothing published yet, or store closed
        applied = 0
        try:
            epoch = lease.epoch
            data: Optional[bytes] = None
            for host, port in self._addresses:
                name = f"{host}:{port}"
                client = self._client(name, host, port)
                if client is None:
                    self._ship_failures += 1
                    continue
                try:
                    replica_epoch = client.epoch()
                    if replica_epoch >= epoch:
                        continue
                    if data is None:  # read once, under the lease
                        with open(lease.path, "rb") as fh:
                            data = fh.read()
                    verdict = client.ship(epoch, data)
                except (OSError, proto.ProtocolError, RuntimeError):
                    # RuntimeError covers a replica that answered
                    # OP_ERROR (e.g. mid-restart with no handler yet);
                    # drop the connection and retry next pass.
                    self._ship_failures += 1
                    self._drop_client(name)
                    continue
                if verdict.get("applied"):
                    applied += 1
                    self._ships_applied += 1
                    self._last_shipped[name] = epoch
                else:
                    self._ships_stale += 1
                    self._last_shipped[name] = int(verdict.get("epoch", 0))
        finally:
            lease.release()
        return applied

    def stats(self) -> dict:
        with self._lock:
            connected = sum(1 for c in self._clients.values() if c is not None)
        return {
            "replicas": len(self._addresses),
            "connected": connected,
            "ships_applied": self._ships_applied,
            "ships_stale": self._ships_stale,
            "ship_failures": self._ship_failures,
            "last_shipped": dict(self._last_shipped),
        }

    def __repr__(self) -> str:
        return (
            f"EpochShipper(replicas={len(self._addresses)}, "
            f"applied={self._ships_applied})"
        )


# ----------------------------------------------------------------------
# A replica as a child process
# ----------------------------------------------------------------------
def _replica_main(host: str, port: int, seed_path: Optional[str], ready) -> None:
    """Child entry point: blank-or-seeded store behind a ReachServer."""
    from ..live.store import VersionedArtifactStore
    from ..server.service import QueryService
    from ..server.tcp import ReachServer

    store = VersionedArtifactStore()
    try:
        if seed_path:
            store.publish_snapshot(seed_path)
        service = QueryService(
            store=store,
            allow_empty_store=True,
            owns_store=True,
        )
        service.start()
        server = ReachServer(
            service, host, port, allow_shutdown=True, owns_service=True
        )
        install_ship_handler(server, store)
        server.start()
    except BaseException as exc:
        ready.put(("error", repr(exc)))
        return
    ready.put(("ok", server.port))
    server.wait()


class ReplicaProcess:
    """One replica in a child process, with chaos-grade lifecycle.

    ``start()`` forks the replica and blocks until its server is
    accepting (returning the bound port); ``kill()`` is a SIGKILL — no
    cleanup, no goodbye, exactly what the chaos tests need; ``stop()``
    is the polite SIGTERM; ``restart()`` brings a *blank* replica back
    up on the same port (state died with the process — rejoining and
    catching up is the :class:`EpochShipper`'s job, and proving that
    happens is the point of the chaos harness).

    ``seed_path`` pre-publishes an artifact so the replica serves from
    birth (epoch 1) instead of bootstrapping over the wire.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        seed_path: Optional[str] = None,
    ) -> None:
        import multiprocessing as mp

        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            self._ctx = mp.get_context("spawn")
        self.host = host
        self.port = port
        self.seed_path = seed_path
        self._proc = None
        self.restarts = 0

    # -- lifecycle -----------------------------------------------------
    def start(self, timeout: float = 30.0) -> int:
        if self._proc is not None and self._proc.is_alive():
            return self.port
        ready = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_replica_main,
            args=(self.host, self.port, self.seed_path, ready),
            daemon=True,
            name=f"repro-replica-{self.host}:{self.port or 'ephemeral'}",
        )
        proc.start()
        import queue as _queue

        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.terminate()
                raise RuntimeError("replica did not come up in time")
            try:
                status, value = ready.get(timeout=min(0.25, remaining))
                break
            except _queue.Empty:
                if not proc.is_alive():
                    raise RuntimeError(
                        "replica process died during startup"
                    ) from None
        if status == "error":
            proc.join(timeout=5.0)
            raise RuntimeError(f"replica failed to start: {value}")
        self.port = int(value)
        self._proc = proc
        return self.port

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def pid(self) -> Optional[int]:
        return None if self._proc is None else self._proc.pid

    def is_alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def kill(self) -> None:
        """SIGKILL — the replica vanishes mid-whatever-it-was-doing."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.join(timeout=10.0)

    def stop(self) -> None:
        """SIGTERM + join (the polite teardown for test cleanup)."""
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join(timeout=10.0)
            self._proc = None

    def restart(self, timeout: float = 30.0, *, seed: bool = False) -> int:
        """Bring the replica back up on the same port.

        ``seed=False`` (default) restarts *blank*: the old store died
        with the process, and the rejoin path under test is the shipper
        re-filling it from the primary's newest epoch.
        """
        if self.is_alive():
            self.stop()
        self._proc = None
        self.restarts += 1
        if seed:
            return self.start(timeout=timeout)
        keep, self.seed_path = self.seed_path, None
        try:
            return self.start(timeout=timeout)
        finally:
            self.seed_path = keep

    def __enter__(self) -> "ReplicaProcess":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "alive" if self.is_alive() else "down"
        return f"ReplicaProcess({self.host}:{self.port}, {state})"


# ----------------------------------------------------------------------
# A journaled primary as a child process
# ----------------------------------------------------------------------
def _primary_main(
    host: str,
    port: int,
    data_dir: str,
    graph_spec: Optional[Tuple[int, List[Tuple[int, int]]]],
    sync: str,
    replica_addrs: Sequence[Tuple[str, int]],
    ready,
) -> None:
    """Child entry point: a JournaledPrimary behind a ReachServer.

    The primary recovers from ``data_dir`` when a manifest exists (the
    restart-after-kill path) and builds fresh from ``graph_spec``
    otherwise; either way it serves queries, journals sequenced
    updates, and (when replicas are given) ships each published epoch
    to them.
    """
    from ..durability import JournaledPrimary
    from ..graph.digraph import DiGraph
    from ..server.service import QueryService
    from ..server.tcp import ReachServer

    graph = (
        DiGraph.from_edges(graph_spec[0], graph_spec[1])
        if graph_spec is not None
        else None
    )
    shipper = None
    try:
        primary = JournaledPrimary(data_dir, graph, sync=sync)
        service = QueryService(primary=primary, owns_store=True)
        service.start()
        server = ReachServer(
            service, host, port, allow_shutdown=True, owns_service=True
        )
        install_ship_handler(server, primary.store)
        if replica_addrs:
            shipper = EpochShipper(primary.store, replica_addrs)
            shipper.start()
        server.start()
    except BaseException as exc:
        ready.put(("error", repr(exc)))
        return
    ready.put(("ok", (server.port, dict(primary.recovery_info))))
    server.wait()
    if shipper is not None:
        shipper.close()


class PrimaryProcess:
    """A journaled primary in a child process — the killable kind.

    The durable sibling of :class:`ReplicaProcess`: ``start()`` forks a
    child that mounts a :class:`~repro.durability.JournaledPrimary`
    over ``data_dir`` behind a :class:`~repro.server.ReachServer`
    (queries + sequenced updates + ``OP_SHIP`` source via an
    :class:`EpochShipper` when ``replicas`` are given), ``kill()`` is
    SIGKILL mid-whatever, and ``restart()`` brings it back *on the same
    data dir* — recovery (manifest + journal replay) is the child's
    startup path, and ``recovery_info`` from the latest start reports
    what it found.  The initial ``graph`` is only consulted when
    ``data_dir`` has no manifest yet; after that the disk is the truth.
    """

    def __init__(
        self,
        data_dir: str,
        graph=None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        replicas: Sequence[Tuple[str, int]] = (),
        sync: str = "interval",
    ) -> None:
        import multiprocessing as mp

        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            self._ctx = mp.get_context("spawn")
        self.data_dir = str(data_dir)
        # (n, edges) survives a spawn-context pickle; the child rebuilds.
        self._graph_spec = (
            None if graph is None else (graph.n, list(graph.edges()))
        )
        self.host = host
        self.port = port
        self.replicas = [(h, int(p)) for h, p in replicas]
        self.sync = sync
        self.recovery_info: dict = {}
        self._proc = None
        self.restarts = 0

    # -- lifecycle -----------------------------------------------------
    def start(self, timeout: float = 60.0) -> int:
        if self._proc is not None and self._proc.is_alive():
            return self.port
        ready = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_primary_main,
            args=(
                self.host,
                self.port,
                self.data_dir,
                self._graph_spec,
                self.sync,
                self.replicas,
                ready,
            ),
            daemon=True,
            name=f"repro-primary-{self.host}:{self.port or 'ephemeral'}",
        )
        proc.start()
        import queue as _queue

        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.terminate()
                raise RuntimeError("primary did not come up in time")
            try:
                status, value = ready.get(timeout=min(0.25, remaining))
                break
            except _queue.Empty:
                if not proc.is_alive():
                    raise RuntimeError(
                        "primary process died during startup"
                    ) from None
        if status == "error":
            proc.join(timeout=5.0)
            raise RuntimeError(f"primary failed to start: {value}")
        self.port, self.recovery_info = int(value[0]), dict(value[1])
        self._proc = proc
        return self.port

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def pid(self) -> Optional[int]:
        return None if self._proc is None else self._proc.pid

    def is_alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def kill(self) -> None:
        """SIGKILL — no flush, no checkpoint, no goodbye."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.join(timeout=10.0)

    def stop(self) -> None:
        """SIGTERM + join (test-cleanup teardown)."""
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join(timeout=10.0)
            self._proc = None

    def restart(self, timeout: float = 60.0) -> int:
        """Bring the primary back up on the same port and data dir.

        Unlike a replica restart this is *not* blank: the child finds
        the manifest in ``data_dir`` and runs crash recovery — every
        acked update is back before the port opens.
        """
        if self.is_alive():
            self.stop()
        self._proc = None
        self.restarts += 1
        return self.start(timeout=timeout)

    def __enter__(self) -> "PrimaryProcess":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "alive" if self.is_alive() else "down"
        return f"PrimaryProcess({self.host}:{self.port}, {state}, dir={self.data_dir})"
