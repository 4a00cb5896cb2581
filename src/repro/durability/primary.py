"""JournaledPrimary: a live update path whose acks survive kill -9.

This is the durable assembly of the pieces this package provides::

    data_dir/
      base.edges            the graph the first build compiled (n m header)
      manifest.json         epoch -> artifact binding (atomic commits)
      epochs/epoch-NNNNNN.rpro   published artifact files
      journal/journal-NNNNNNNN.seg   the write-ahead update journal

Update protocol (``apply_update``), in the only order that makes
"ack => durable" true:

1. dedupe — a re-sent ``(client, seq)`` returns its original summary,
2. validate the whole edge stream (a rejected stream journals nothing
   and applies nothing: all-or-nothing holds at the batch level),
3. **journal append** — blocks until durable per the sync policy;
   this is the ack barrier,
4. apply through the :class:`~repro.live.IncrementalCompiler` and
   publish the next epoch,
5. checkpoint (every ``checkpoint_every`` updates): commit the
   manifest binding the new epoch to its artifact + watermark LSN +
   dedupe snapshot, then compact journal segments and prune stale
   artifact files — both only *after* the commit, so a crash at any
   byte of this sequence recovers.

Recovery (``__init__`` on a dir with a manifest):

1. reopen the journal (torn tail truncated — a torn record is one
   whose append never returned, so nothing acked is lost),
2. rebuild the base graph from ``base.edges`` plus every journal
   record ``lsn <= watermark`` (those ops are already *in* the
   manifest's artifact; the graph needs them because artifacts carry
   labels, not edges).  Removals fold in physically — recovery's
   graph is the *compacted* view, which answers identically to the
   tombstoned artifact it resumes serving from,
3. publish the manifest's artifact at its recorded epoch — serving
   resumes immediately, before any recompilation,
4. replay records ``lsn > watermark`` into the compiler, compile once,
   publish epoch N+1, checkpoint.

Crash-window audit: a record journaled but not yet applied (crash
between 3 and 4) is replayed — the client never got its ack, but
re-sending the same ``(client, seq)`` dedupes against the replayed
window, so the retry acks without double-applying.  A torn tail is a
batch that was never acked and is dropped whole.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.digraph import DiGraph
from ..graph.io import read_edge_list, write_edge_list
from ..live.compiler import IncrementalCompiler, normalize_ops
from ..live.index import LiveIndex
from ..live.store import VersionedArtifactStore
from .dedupe import DedupeWindow
from .journal import UpdateJournal, _fsync_path
from .manifest import EpochManifest

__all__ = ["JournaledPrimary"]

Edge = Tuple[int, int]

BASE_EDGES_NAME = "base.edges"
EPOCHS_DIR_NAME = "epochs"
JOURNAL_DIR_NAME = "journal"


class JournaledPrimary:
    """A :class:`~repro.live.LiveIndex` wrapped in WAL + manifest.

    Construct over an empty ``data_dir`` with a ``graph`` (or a
    prebuilt ``compiler``) to initialise; construct over a dir holding
    a manifest to **recover** — the graph argument is then ignored,
    the durable state wins.  ``recovery_info`` reports what happened.

    ``checkpoint_every=1`` (default) commits the manifest after every
    published epoch: restart replays nothing and recovery time is
    journal-independent.  Larger values trade restart replay work for
    fewer manifest fsyncs; ``checkpoint_every=0`` never checkpoints
    automatically (call :meth:`checkpoint` yourself — mostly a test
    and benchmark knob for growing long replay tails on purpose).
    """

    def __init__(
        self,
        data_dir: str,
        graph: Optional[DiGraph] = None,
        *,
        compiler: Optional[IncrementalCompiler] = None,
        sync: str = "interval",
        sync_interval_s: float = 0.005,
        segment_bytes: int = 8 * 1024 * 1024,
        checkpoint_every: int = 1,
        order: str = "degree_product",
        dedupe_clients: int = 4096,
        keep_artifacts: int = 2,
        dirt_threshold: float = 0.25,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if keep_artifacts < 2:
            raise ValueError(
                f"keep_artifacts must be >= 2 (current + draining), "
                f"got {keep_artifacts}"
            )
        self.data_dir = str(data_dir)
        self._sync = sync
        self._checkpoint_every = checkpoint_every
        self._keep_artifacts = keep_artifacts
        self._epochs_dir = os.path.join(self.data_dir, EPOCHS_DIR_NAME)
        self._base_path = os.path.join(self.data_dir, BASE_EDGES_NAME)
        os.makedirs(self._epochs_dir, exist_ok=True)
        self._manifest = EpochManifest(self.data_dir)
        self._lock = threading.Lock()
        self._closed = False
        self._updates = 0
        self._deduped = 0
        self._update_hist = None
        self._checkpoints = 0
        self._since_checkpoint = 0
        self.recovery_info: Dict[str, object] = {"recovered": False}

        doc = self._manifest.load()
        journal_dir = os.path.join(self.data_dir, JOURNAL_DIR_NAME)
        if doc is None:
            if compiler is None:
                if graph is None:
                    raise ValueError(
                        f"data dir {self.data_dir!r} holds no manifest: "
                        "initialising a fresh primary needs graph= (or "
                        "compiler=)"
                    )
                compiler = IncrementalCompiler(graph, order=order)
            # The artifact holds labels, not edges; recovery needs the
            # graph itself, so persist it once, durably, before the
            # journal can accept anything that builds on it.
            write_edge_list(compiler.original, self._base_path)
            _fsync_path(self._base_path)
            _fsync_path(self.data_dir)
            self._journal = UpdateJournal(
                journal_dir,
                sync=sync,
                sync_interval_s=sync_interval_s,
                segment_bytes=segment_bytes,
            )
            self._dedupe = DedupeWindow(max_clients=dedupe_clients)
            try:
                self.live = LiveIndex(
                    compiler,
                    artifact_dir=self._epochs_dir,
                    own_files=False,
                    dirt_threshold=dirt_threshold,
                )
                self._checkpoint_locked(watermark=0)
            except BaseException:
                self._journal.close()
                raise
        else:
            t0 = time.perf_counter()
            self._journal = UpdateJournal(
                journal_dir,
                sync=sync,
                sync_interval_s=sync_interval_s,
                segment_bytes=segment_bytes,
            )
            epoch = int(doc["epoch"])
            watermark = int(doc["watermark"])
            artifact = os.path.join(self._epochs_dir, str(doc["artifact"]))
            if not os.path.exists(artifact):
                raise RuntimeError(
                    f"manifest names artifact {artifact!r} but the file is "
                    "gone: the data dir was tampered with below the "
                    "manifest's commit protocol"
                )
            # read_edge_list freezes; the replay below mutates.
            base = read_edge_list(self._base_path).copy()
            # Records at or below the watermark are already inside the
            # manifest's artifact; fold them into the graph so the
            # compiler's view matches what the artifact serves.
            applied_below = 0
            replayed: List = []
            for rec in self._journal.replay():
                if rec.lsn <= watermark:
                    for op, u, v in rec.ops:
                        if op == "-":
                            base.remove_edge(u, v)
                        else:
                            base.add_edge(u, v)
                    applied_below += 1
                else:
                    replayed.append(rec)
            compiler = IncrementalCompiler(base, order=order)
            self._dedupe = DedupeWindow.from_snapshot(
                doc.get("dedupe"), max_clients=dedupe_clients
            )
            # Serving resumes from the recovered artifact immediately —
            # the store holds epoch N before any replay compile runs.
            store = VersionedArtifactStore()
            try:
                store.publish(artifact, owns_file=False, epoch=epoch)
                last = watermark
                for rec in replayed:
                    compiler.apply_ops(list(rec.ops))
                    if rec.client is not None:
                        self._dedupe.record(
                            rec.client,
                            rec.seq,
                            {
                                "lsn": rec.lsn,
                                "replayed": True,
                                "changed": None,
                                "published": True,
                            },
                        )
                    last = rec.lsn
                # One compile covers the whole replayed tail: the
                # LiveIndex constructor publishes epoch N+1 from the
                # compiler's (replayed) state.
                self.live = LiveIndex(
                    compiler,
                    artifact_dir=self._epochs_dir,
                    store=store,
                    own_files=False,
                    seq_start=epoch,
                    dirt_threshold=dirt_threshold,
                )
            except BaseException:
                store.close()
                self._journal.close()
                raise
            self._checkpoint_locked(watermark=last)
            self.recovery_info = {
                "recovered": True,
                "manifest_epoch": epoch,
                "watermark": watermark,
                "records_in_artifact": applied_below,
                "records_replayed": len(replayed),
                "journal_truncated_bytes": self._journal.recovery[
                    "truncated_bytes"
                ],
                "recovery_s": time.perf_counter() - t0,
            }

    # ------------------------------------------------------------------
    @property
    def store(self) -> VersionedArtifactStore:
        return self.live.store

    @property
    def current_epoch(self) -> Optional[int]:
        return self.live.current_epoch

    @property
    def journal(self) -> UpdateJournal:
        return self._journal

    @property
    def dedupe(self) -> DedupeWindow:
        return self._dedupe

    # -- telemetry -----------------------------------------------------
    def bind_metrics(self, registry) -> None:
        """Instrument the durable update path end to end.

        One histogram covers the whole ``apply_update`` (validate +
        journal + compile + publish + checkpoint); the journal and the
        live index each bind their own finer-grained instruments so a
        slow update can be attributed to fsync vs. recompilation.
        """
        self._update_hist = registry.histogram(
            "repro_update_apply_seconds",
            "wall time of one durable apply_update (ack latency)",
        )
        self._journal.bind_metrics(registry)
        bind_live = getattr(self.live, "bind_metrics", None)
        if bind_live is not None:
            bind_live(registry)

    # -- the durable update path ---------------------------------------
    def apply_update(
        self,
        edges: Sequence[Edge],
        *,
        client: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> Dict[str, object]:
        """Durably apply one update batch; the returned summary is the ack.

        ``edges`` is an op stream: ``(u, v)`` pairs insert, and
        ``('+', u, v)`` / ``('-', u, v)`` triples insert or remove.
        Mixed batches journal as churn records (kind 2).

        Ordering is the contract: the summary is returned only after
        the batch's journal record is durable under the sync policy,
        so an acked update survives SIGKILL.  A duplicate
        ``(client, seq)`` returns its original summary with
        ``deduped: true``.  A stream with any invalid op raises
        before journaling — nothing of it is applied (all-or-nothing).
        """
        ops = normalize_ops(edges)
        sequenced = client is not None and seq is not None
        hist = self._update_hist
        t0 = time.perf_counter_ns() if hist is not None else 0
        with self._lock:
            if self._closed:
                raise RuntimeError("journaled primary is closed")
            if sequenced:
                cached = self._dedupe.check(client, int(seq))
                if cached is not None:
                    self._deduped += 1
                    return dict(cached, deduped=True)
            for _, u, v in ops:
                self.live.compiler.validate_edge(u, v)
            lsn = self._journal.append(
                ops, client=client if sequenced else None,
                seq=int(seq) if sequenced else None,
            )
            summary = self.live.apply_ops(ops)
            summary["lsn"] = lsn
            summary["sync"] = self._sync
            summary["deduped"] = False
            if sequenced:
                summary["client"] = client
                summary["seq"] = int(seq)
                self._dedupe.record(client, int(seq), summary)
            self._updates += 1
            self._since_checkpoint += 1
            if (
                self._checkpoint_every
                and self._since_checkpoint >= self._checkpoint_every
            ):
                self._checkpoint_locked(watermark=lsn)
            if hist is not None:
                hist.observe_ns(time.perf_counter_ns() - t0)
            return dict(summary)

    # -- checkpointing -------------------------------------------------
    def checkpoint(self) -> Dict[str, object]:
        """Commit the manifest at the journal's current tip explicitly."""
        with self._lock:
            if self._closed:
                raise RuntimeError("journaled primary is closed")
            return self._checkpoint_locked(watermark=self._journal.last_lsn)

    def _checkpoint_locked(self, watermark: int) -> Dict[str, object]:
        current_path = self.store.current_path
        doc = {
            "epoch": self.store.current_epoch,
            "artifact": os.path.basename(current_path),
            "watermark": int(watermark),
            "dedupe": self._dedupe.snapshot(),
            "sync": self._sync,
        }
        # Compaction below is unlink-only, and the base-graph rebuild
        # on recovery folds journal records <= watermark on top of
        # base.edges — so before a checkpoint may delete any of those
        # records, the base snapshot must absorb them.  Rewriting is
        # atomic (tmp + rename) and happens *before* the commit: a
        # crash in between leaves base.edges ahead of the manifest's
        # watermark, which recovery tolerates (re-replaying an op onto
        # a graph that already reflects it is a no-op per edge).
        if self._journal.compactable(watermark):
            self._rewrite_base_locked()
        self._manifest.commit(doc)
        # Only after the commit is anything below it garbage: journal
        # records <= watermark are folded into the manifest's artifact,
        # and artifact files older than the retention window can no
        # longer be named by any manifest a crash could resurrect.
        self._journal.compact(watermark)
        self._prune_artifacts(keep_from=os.path.basename(current_path))
        self._checkpoints += 1
        self._since_checkpoint = 0
        return doc

    def _rewrite_base_locked(self) -> None:
        """Atomically replace ``base.edges`` with the current live graph."""
        tmp = self._base_path + ".tmp"
        write_edge_list(self.live.compiler.original, tmp)
        _fsync_path(tmp)
        os.replace(tmp, self._base_path)
        _fsync_path(self.data_dir)

    def _prune_artifacts(self, keep_from: str) -> None:
        """Unlink epoch files older than the retention window.

        ``own_files=False`` means nobody else deletes them.  The newest
        ``keep_artifacts`` files always survive: the current epoch plus
        recent predecessors that a shipper holding an old lease may not
        have opened yet (the store's lease pins the *path*, not the
        inode, until the reader opens it).
        """
        try:
            names = sorted(
                n for n in os.listdir(self._epochs_dir) if n.endswith(".rpro")
            )
        except OSError:  # pragma: no cover - dir vanished under us
            return
        if keep_from in names:
            names = names[: names.index(keep_from)]
        # ``names`` is now strictly older than the current epoch's file;
        # keep the newest (keep_artifacts - 1) of those.
        for name in names[: -(self._keep_artifacts - 1)]:
            try:
                os.unlink(os.path.join(self._epochs_dir, name))
            except OSError:  # pragma: no cover - already gone
                pass

    # -- introspection / lifecycle -------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            doc = {
                "sync": self._sync,
                "updates": self._updates,
                "deduped": self._deduped,
                "checkpoints": self._checkpoints,
                "since_checkpoint": self._since_checkpoint,
                "dedupe_clients": len(self._dedupe),
                "recovery": dict(self.recovery_info),
            }
        doc["journal"] = self._journal.stats()
        doc["live"] = self.live.stats()
        return doc

    def close(self) -> None:
        """Checkpoint, then close the journal and the live index."""
        with self._lock:
            if self._closed:
                return
            try:
                self._checkpoint_locked(watermark=self._journal.last_lsn)
            except Exception:  # pragma: no cover - close must finish
                pass
            self._closed = True
        self._journal.close()
        self.live.close()

    def __enter__(self) -> "JournaledPrimary":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"JournaledPrimary({self.data_dir!r}, epoch={self.current_epoch}, "
            f"sync={self._sync}, updates={self._updates})"
        )
