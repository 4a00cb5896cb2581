"""Epoch-versioned artifact store: load side-by-side, flip, drain.

A running server must move from artifact version N to N+1 without
dropping a connection or mixing versions inside a batch.  The store
gives that three guarantees:

* **Monotone epochs.**  Every :meth:`VersionedArtifactStore.publish`
  loads the new artifact *next to* the live one and assigns the next
  integer epoch; the current-epoch pointer flips atomically under the
  store lock.  Epoch numbers never repeat or go backwards, so an epoch
  is a valid cache-key component (stale entries become unreachable the
  moment the pointer moves — no global cache flush).
* **Leased reads.**  A batch executor takes an :class:`EpochLease`
  (refcount +1 on that epoch's entry), answers the whole batch against
  the leased oracle, and releases.  One batch therefore sees exactly
  one version — never a mix — whatever publishes happen meanwhile.
* **Deterministic drain.**  A publish retires the previous epoch; its
  mmap is closed (and its file unlinked, when the store owns it) as
  soon as its refcount reaches zero — immediately if nothing is in
  flight, otherwise when the last leased batch resolves.  A serving
  process's address space holds at most ``1 + in-flight versions``
  mappings, not one per publish ever made.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from typing import Callable, Dict, List, Optional

__all__ = ["EpochLease", "VersionedArtifactStore", "artifact_of"]


def _default_loader(path: str):
    from ..serialization import load_artifact

    return load_artifact(path, mmap=True)


def artifact_of(oracle):
    """The backing :class:`~repro.artifact.Artifact`, if the oracle has one.

    Compiled method oracles carry it as ``oracle.artifact``; a
    serve-mode facade carries it on its inner index.  The one place
    that knows where an oracle keeps its mapping.
    """
    art = getattr(oracle, "artifact", None)
    if art is None:
        art = getattr(getattr(oracle, "index", None), "artifact", None)
    return art


class _Epoch:
    """One loaded artifact version and its lease bookkeeping."""

    __slots__ = ("epoch", "path", "oracle", "refs", "retired", "owns_file")

    def __init__(self, epoch: int, path: str, oracle, owns_file: bool) -> None:
        self.epoch = epoch
        self.path = path
        self.oracle = oracle
        self.refs = 0
        self.retired = False
        self.owns_file = owns_file


class EpochLease:
    """A refcounted read lease on one epoch's oracle.

    Hold it for exactly one batch: every answer produced under the
    lease comes from one artifact version, and releasing it is what
    lets a retired version's mmap actually unmap.  Usable as a context
    manager; releasing twice is a no-op.
    """

    __slots__ = ("epoch", "oracle", "path", "_store", "_released")

    def __init__(self, store: "VersionedArtifactStore", entry: _Epoch) -> None:
        self.epoch = entry.epoch
        self.oracle = entry.oracle
        self.path = entry.path
        self._store = store
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self.oracle = None  # the lease must not outlive its refcount
        self._store._release(self.epoch)

    def __enter__(self) -> "EpochLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else "held"
        return f"EpochLease(epoch={self.epoch}, {state})"


class VersionedArtifactStore:
    """Artifact versions behind an atomic current-epoch pointer.

    Parameters
    ----------
    loader:
        ``loader(path) -> oracle`` used by :meth:`publish`; defaults to
        :func:`repro.serialization.load_artifact` with ``mmap=True``.
        The returned oracle only needs ``query``/``query_batch``.

    ``publish(path, owns_file=True)`` transfers the file to the store:
    it is unlinked when that epoch drains (the incremental compiler
    publishes a fresh temp file per epoch and would otherwise leak one
    per update).  Externally owned files (``owns_file=False``, the
    default) are never touched on disk.
    """

    def __init__(self, loader: Optional[Callable[[str], object]] = None) -> None:
        self._loader = loader or _default_loader
        self._lock = threading.Lock()
        self._entries: Dict[int, _Epoch] = {}
        self._next_epoch = 1
        self._current: Optional[_Epoch] = None
        self._closed = False
        self._publishes = 0
        self._drains = 0
        self._snap_dir: Optional[str] = None
        self._snap_seq = 0
        self._publish_hooks: List[Callable[[int, str], None]] = []

    # -- publishing ----------------------------------------------------
    def add_publish_hook(self, hook: Callable[[int, str], None]) -> None:
        """Register ``hook(epoch, path)`` to fire after every flip.

        Hooks run on the publishing thread, after the pointer moved and
        outside the store lock; exceptions are swallowed (an observer —
        a replication shipper, a log line — must never fail a publish).
        Anything that needs the epoch's *content* must ``acquire()`` a
        lease inside the hook (or later): the path alone may be
        unlinked once the epoch drains.
        """
        with self._lock:
            self._publish_hooks.append(hook)

    def publish(self, path, *, owns_file: bool = False,
                epoch: Optional[int] = None) -> int:
        """Load ``path`` as the next epoch and flip the pointer to it.

        The load happens *outside* the store lock (readers keep leasing
        the live epoch throughout), the flip inside it.  Returns the
        new epoch.  A load failure leaves the store exactly as it was.

        ``epoch`` pins the new version's number instead of taking the
        next local one — the replication path, where a replica must
        mirror the primary's epoch so clients see one monotone epoch
        sequence whichever replica answers.  An explicit epoch that is
        not strictly greater than the current one raises ``ValueError``
        and changes nothing: epoch numbers never repeat or go
        backwards, on replicas exactly as on the primary.
        """
        path = str(path)
        if epoch is not None:
            epoch = int(epoch)
            with self._lock:
                current = None if self._current is None else self._current.epoch
                if epoch <= (current or 0):
                    raise ValueError(
                        f"explicit epoch {epoch} is not ahead of the "
                        f"current epoch {current} (epochs are monotone)"
                    )
        oracle = self._loader(path)  # may raise: store state untouched
        drain: List[_Epoch] = []
        stale: Optional[str] = None
        with self._lock:
            if self._closed:
                raise RuntimeError("artifact store is closed")
            if epoch is not None:
                current = None if self._current is None else self._current.epoch
                if epoch <= (current or 0):  # re-check: publishes raced
                    stale = (
                        f"explicit epoch {epoch} is not ahead of the "
                        f"current epoch {current} (epochs are monotone)"
                    )
                else:
                    number = epoch
                    self._next_epoch = max(self._next_epoch, epoch + 1)
            else:
                number = self._next_epoch
                self._next_epoch += 1
            if stale is None:
                entry = _Epoch(number, path, oracle, owns_file)
                self._entries[entry.epoch] = entry
                previous, self._current = self._current, entry
                self._publishes += 1
                hooks = list(self._publish_hooks)
                if previous is not None:
                    previous.retired = True
                    if previous.refs == 0:
                        drain.append(self._entries.pop(previous.epoch))
        if stale is not None:
            # Unmap the version we just loaded but will never serve.
            art = artifact_of(oracle)
            del oracle
            if art is not None:
                art.close()
            raise ValueError(stale)
        for old in drain:
            self._drain(old)
        for hook in hooks:
            try:
                hook(entry.epoch, path)
            except Exception:  # pragma: no cover - observers must not fail us
                pass
        return entry.epoch

    def publish_snapshot(self, path, *, epoch: Optional[int] = None) -> int:
        """Publish a *pinned* copy of ``path`` as the next epoch.

        The file at ``path`` is hard-linked (byte-copied where linking
        is impossible) under a store-private name, and the snapshot —
        not the caller's path — becomes the epoch's file, owned and
        unlinked by the store on drain.  This is mandatory for any
        externally-owned file that may be replaced or deleted while an
        epoch still references it: the replica shipper re-opens the
        epoch's path under a lease to ship it, and the caller's
        path would alias whatever content is there *by then*.  The
        snapshot pins the exact inode published, so epoch → content
        holds however the original file churns.

        ``epoch`` pins the published epoch number (replication; see
        :meth:`publish`).
        """
        path = str(path)
        with self._lock:
            if self._closed:
                raise RuntimeError("artifact store is closed")
            if self._snap_dir is None:
                self._snap_dir = tempfile.mkdtemp(prefix="repro-store-")
            self._snap_seq += 1
            snap = os.path.join(self._snap_dir, f"snap-{self._snap_seq:06d}.rpro")
        try:
            os.link(path, snap)
        except OSError:  # cross-device or FS without hard links
            shutil.copy2(path, snap)
        try:
            return self.publish(snap, owns_file=True, epoch=epoch)
        except BaseException:
            try:
                os.unlink(snap)
            except OSError:  # pragma: no cover - already gone
                pass
            raise

    # -- leasing -------------------------------------------------------
    def acquire(self) -> EpochLease:
        """Lease the current epoch (refcount +1) for one batch."""
        with self._lock:
            entry = self._current
            if entry is None or self._closed:
                raise RuntimeError(
                    "artifact store has no published epoch"
                    if not self._closed
                    else "artifact store is closed"
                )
            entry.refs += 1
            return EpochLease(self, entry)

    def _release(self, epoch: int) -> None:
        drain: Optional[_Epoch] = None
        with self._lock:
            entry = self._entries.get(epoch)
            if entry is None:  # already drained (double release is a no-op)
                return
            entry.refs -= 1
            if entry.retired and entry.refs == 0:
                drain = self._entries.pop(epoch)
        if drain is not None:
            self._drain(drain)
            snap_dir = None
            with self._lock:
                if self._closed and not self._entries:
                    snap_dir, self._snap_dir = self._snap_dir, None
            if snap_dir is not None:  # last lease after close: tidy up
                shutil.rmtree(snap_dir, ignore_errors=True)

    # -- drain ---------------------------------------------------------
    def _drain(self, entry: _Epoch) -> None:
        """Unmap a fully-released retired epoch (and unlink owned files)."""
        oracle, entry.oracle = entry.oracle, None
        art = artifact_of(oracle)
        del oracle  # drop the last array references before closing
        if art is not None:
            art.close()
        if entry.owns_file:
            try:
                os.unlink(entry.path)
            except OSError:  # pragma: no cover - already gone
                pass
        with self._lock:
            self._drains += 1

    # -- introspection -------------------------------------------------
    @property
    def current_epoch(self) -> Optional[int]:
        with self._lock:
            return None if self._current is None else self._current.epoch

    @property
    def current_path(self) -> Optional[str]:
        with self._lock:
            return None if self._current is None else self._current.path

    def current_oracle(self):
        """The live oracle *without* a lease — metadata peeks only.

        Anything that answers queries must :meth:`acquire` instead, or
        a concurrent publish may unmap the arrays mid-read.
        """
        with self._lock:
            return None if self._current is None else self._current.oracle

    def loaded_epochs(self) -> List[int]:
        with self._lock:
            return sorted(self._entries)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            current = self._current
            return {
                "epoch": None if current is None else current.epoch,
                "path": None if current is None else current.path,
                "loaded_versions": len(self._entries),
                "retired_waiting": sum(
                    1 for e in self._entries.values() if e.retired
                ),
                "in_flight_leases": sum(e.refs for e in self._entries.values()),
                "publishes": self._publishes,
                "drains": self._drains,
            }

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Retire everything; versions with live leases drain on release."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._current = None
            drain = [e for e in self._entries.values() if e.refs == 0]
            for entry in drain:
                del self._entries[entry.epoch]
            for entry in self._entries.values():
                entry.retired = True
        for entry in drain:
            self._drain(entry)
        if self._snap_dir is not None and not self._entries:
            shutil.rmtree(self._snap_dir, ignore_errors=True)
            self._snap_dir = None

    def __enter__(self) -> "VersionedArtifactStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"VersionedArtifactStore(epoch={self.current_epoch}, "
            f"loaded={len(self._entries)})"
        )
