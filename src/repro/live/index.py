"""LiveIndex: the compiler + store pair a live server mounts.

One object owning the whole update path: edge insertions run through
the :class:`~repro.live.compiler.IncrementalCompiler` under a single
update lock, each publish writes the next epoch's artifact file into a
store-owned directory, and the
:class:`~repro.live.store.VersionedArtifactStore` flips the serving
pointer.  Query traffic never takes the update lock — it leases epochs
from the store — so updates and queries only meet at the atomic epoch
flip.

``swap_artifact`` publishes an externally-built artifact file.  Doing
so *detaches* the compiler (its graph no longer describes what is being
served), after which ``apply_updates`` refuses with a clear error; a
swap-only ``LiveIndex`` (no compiler, e.g. ``serve --watch``) starts
detached.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from .compiler import IncrementalCompiler, normalize_ops
from .store import VersionedArtifactStore

__all__ = ["LiveIndex"]

Edge = Tuple[int, int]


class LiveIndex:
    """Versioned serving state with (optionally) an attached update path.

    Exactly one of ``compiler`` / ``initial_path`` selects the mode:

    * **compiler mode** — the compiler's current state is compiled and
      published as epoch 1; :meth:`apply_updates` inserts edges and
      publishes the next epoch.
    * **swap-only mode** — ``initial_path`` is published as epoch 1;
      new versions arrive via :meth:`swap_artifact` (or a watcher).

    ``artifact_dir`` is where compiler-mode epochs are written.  The
    default is a **private temp directory whose lifetime is this
    process**: it is removed on :meth:`close` (and by the OS's tmp
    reaper eventually), so nothing served from it survives a crash or
    restart — pass a persistent ``artifact_dir`` when epoch files must
    outlive the process.  With the default ``own_files=True`` the
    store unlinks each epoch file as soon as its version drains (the
    right economics for a throwaway dir); ``own_files=False`` leaves
    every published file on disk for the *caller* to manage — the mode
    a durable primary uses, where the crash-recovery manifest decides
    which artifact files may be deleted, not the drain order.

    ``seq_start`` offsets the epoch file numbering (files are named
    ``epoch-NNNNNN.rpro`` from ``seq_start + 1``), so a recovery path
    that pre-publishes epoch N into ``store`` can continue file names
    (and store epochs) from N+1 without colliding with the survivor.
    """

    def __init__(
        self,
        compiler: Optional[IncrementalCompiler] = None,
        *,
        initial_path: Optional[str] = None,
        artifact_dir: Optional[str] = None,
        store: Optional[VersionedArtifactStore] = None,
        own_files: bool = True,
        seq_start: int = 0,
        dirt_threshold: float = 0.25,
    ) -> None:
        if (compiler is None) == (initial_path is None):
            raise ValueError("pass exactly one of compiler / initial_path")
        self.compiler = compiler
        self._owns_store = store is None
        self.store = store or VersionedArtifactStore()
        self._update_lock = threading.Lock()
        self._detached = compiler is None
        self._closed = False
        self._own_files = own_files
        self._seq = int(seq_start)
        self._updates = 0
        self._swaps = 0
        #: Tombstone dirt ratio at/above which a background full
        #: recompile (compact + full publish) is scheduled; 0 disables.
        self._dirt_threshold = float(dirt_threshold)
        self._recompile_thread: Optional[threading.Thread] = None
        self._recompiles = 0
        self._recompile_error: Optional[str] = None
        self._last_publish: Dict[str, object] = {}
        self._last_publish_ts = time.time()
        self._apply_hist = None
        self._publish_hist = None
        self._owns_dir = False
        self._dir: Optional[str] = None
        try:
            if compiler is not None:
                if artifact_dir is None:
                    self._dir = tempfile.mkdtemp(prefix="repro-live-")
                    self._owns_dir = True
                else:
                    os.makedirs(artifact_dir, exist_ok=True)
                    self._dir = artifact_dir
                self._publish_compiled(full=True)
            else:
                # Snapshot even the initial file: the caller may replace
                # it on disk while epoch 1 still serves (see
                # VersionedArtifactStore.publish_snapshot).
                self.store.publish_snapshot(initial_path)
        except BaseException:
            # The constructor is the only owner at this point: a failed
            # first publish must not leak the temp dir / partial file.
            if self._owns_dir and self._dir is not None:
                shutil.rmtree(self._dir, ignore_errors=True)
            if self._owns_store:
                self.store.close()
            raise

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def detached(self) -> bool:
        """True when the compiler no longer matches the served artifact."""
        return self._detached

    @property
    def current_epoch(self) -> Optional[int]:
        return self.store.current_epoch

    # -- telemetry -----------------------------------------------------
    def bind_metrics(self, registry) -> None:
        """Instrument the update/publish path into a telemetry registry.

        Two histograms split a slow update between compute
        (``apply_ops`` wall time, compile included) and the epoch flip
        itself; the epoch-age gauge answers "how stale is what we are
        serving" — it resets on every publish or swap, so a live tier
        that stopped publishing shows up as unbounded age.
        """
        self._apply_hist = registry.histogram(
            "repro_live_apply_seconds",
            "wall time of one apply_ops (compile + publish included)",
        )
        self._publish_hist = registry.histogram(
            "repro_epoch_publish_seconds",
            "wall time of one store epoch flip",
        )
        registry.gauge(
            "repro_epoch_age_seconds",
            "seconds since the serving epoch last changed",
            fn=lambda: time.time() - self._last_publish_ts,
        )
        bind_compiler = getattr(self.compiler, "bind_metrics", None)
        if bind_compiler is not None:
            bind_compiler(registry)

    # ------------------------------------------------------------------
    def _next_path(self) -> str:
        self._seq += 1
        return os.path.join(self._dir, f"epoch-{self._seq:06d}.rpro")

    def _publish_compiled(self, full: Optional[bool] = None) -> Dict[str, object]:
        """Compile the compiler's current state and flip the store to it."""
        path = self._next_path()
        info = self.compiler.compile_to(path, full=full)
        t0 = time.perf_counter()
        epoch = self.store.publish(path, owns_file=self._own_files)
        info["publish_s"] = time.perf_counter() - t0
        info["epoch"] = epoch
        info["path"] = path
        self._last_publish = info
        self._last_publish_ts = time.time()
        if self._publish_hist is not None:
            self._publish_hist.observe_s(info["publish_s"])
        return info

    # ------------------------------------------------------------------
    # The update path
    # ------------------------------------------------------------------
    def apply_ops(self, ops) -> Dict[str, object]:
        """Apply a mixed insert/remove stream and publish in one step.

        ``ops`` is anything :func:`~repro.live.compiler.normalize_ops`
        accepts — plain ``(u, v)`` pairs (inserts) and/or ``(op, u, v)``
        triples.  Returns the compiler's op summary merged with the
        publish record: ``epoch``, ``changed``, ``rebuilds``, ``full``
        (whether the compile fell back to the full profile), ``bytes``,
        ``compile_s``/``publish_s``/``swap_s``, ``published``.  A
        stream that changed no reachable pair (duplicates, intra-SCC
        edges, already-reachable insertions, redundant removals) skips
        the compile and the epoch flip entirely — publishing would only
        churn artifact files and orphan every epoch-keyed cache entry
        for answers that are all still identical — and reports
        ``published: False`` with the current epoch.  When the
        tombstone dirt ratio reaches ``dirt_threshold`` a background
        full recompile (compact + full publish) is scheduled; see
        :meth:`recompile_wait`.  Raises ``RuntimeError`` when no
        compiler is attached (swap-only mode, or after
        :meth:`swap_artifact` detached it).
        """
        if self._closed:
            raise RuntimeError("live index is closed")
        if self.compiler is None or self._detached:
            raise RuntimeError(
                "no attached compiler: this live index serves swapped-in "
                "artifact files only (updates need a build-mode "
                "Reachability.serve(live=True) pipeline)"
            )
        ops = normalize_ops(ops)
        # Validate the whole stream before touching anything: a client
        # whose mid-stream edge is rejected must be able to assume NONE
        # of the stream was applied (partially-applied edges would ride
        # out silently with the next unrelated publish).
        for _, u, v in ops:
            self.compiler.validate_edge(u, v)
        with self._update_lock:
            t0 = time.perf_counter()
            summary = self.compiler.apply_ops(ops)
            if summary["changed"] or summary["rebuilds"] or summary["scc_merges"]:
                summary.update(self._publish_compiled())
                summary["published"] = True
            else:
                summary["epoch"] = self.store.current_epoch
                summary["published"] = False
            summary["swap_s"] = time.perf_counter() - t0
            if self._apply_hist is not None:
                self._apply_hist.observe_s(summary["swap_s"])
            self._updates += 1
            self._maybe_schedule_recompile()
            return summary

    def apply_updates(self, edges: List[Edge]) -> Dict[str, object]:
        """Back-compat alias of :meth:`apply_ops` reporting ``edges``."""
        summary = self.apply_ops(edges)
        summary["edges"] = summary["ops"]
        return summary

    # ------------------------------------------------------------------
    # Background recompile (tombstone dirt control)
    # ------------------------------------------------------------------
    def _maybe_schedule_recompile(self) -> None:
        """Schedule a compact + full publish once dirt crosses the bar.

        Caller holds ``_update_lock``.  Trigger rule is boundary-exact:
        fires iff ``dirt_ratio >= dirt_threshold``.  At most one
        recompile thread runs at a time; the thread serialises on the
        update lock, so in-flight updates finish first.
        """
        thr = self._dirt_threshold
        if not thr or self.compiler is None or self._detached:
            return
        if self.compiler.dirt_ratio < thr:
            return
        t = self._recompile_thread
        if t is not None and t.is_alive():
            return
        t = threading.Thread(
            target=self._recompile_now, name="live-recompile", daemon=True
        )
        self._recompile_thread = t
        t.start()

    def _recompile_now(self) -> None:
        try:
            with self._update_lock:
                if self._closed or self._detached or self.compiler is None:
                    return
                if not self.compiler.dirt_ratio:
                    return  # an interleaved update already compacted
                self.compiler.compact()
                self._publish_compiled(full=True)
                self._recompiles += 1
        except Exception as exc:  # pragma: no cover - diagnostics only
            self._recompile_error = repr(exc)

    def recompile_wait(self, timeout: Optional[float] = None) -> bool:
        """Join any in-flight background recompile (tests/shutdown hook).

        Returns True when no recompile is running afterwards.
        """
        t = self._recompile_thread
        if t is None:
            return True
        t.join(timeout)
        return not t.is_alive()

    @property
    def recompiles(self) -> int:
        """Completed background recompiles (dirt-triggered)."""
        return self._recompiles

    def swap_artifact(self, path: str) -> int:
        """Publish an externally-built artifact as the next epoch.

        What is published is a store-owned *snapshot* (hard link) of
        the file, so the caller may freely replace or delete their copy
        afterwards — the epoch's content stays pinned for every reader
        that still has to open it.  An attached compiler is detached
        (see the class docstring).  Returns the new epoch.
        """
        if self._closed:
            raise RuntimeError("live index is closed")
        with self._update_lock:
            epoch = self.store.publish_snapshot(str(path))
            self._detached = self.compiler is not None or self._detached
            self._swaps += 1
            self._last_publish_ts = time.time()
            return epoch

    @property
    def swaps(self) -> int:
        """How many external artifacts were swapped in over this index."""
        return self._swaps

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "store": self.store.stats(),
            "updates": self._updates,
            "swaps": self._swaps,
            "detached": self._detached,
            "dirt_threshold": self._dirt_threshold,
            "recompiles": self._recompiles,
            "recompile_error": self._recompile_error,
            "last_publish": dict(self._last_publish),
        }
        if self.compiler is not None:
            doc["compiler"] = self.compiler.stats()
        return doc

    def close(self) -> None:
        """Close the store; the compiler (if any) survives for a re-serve."""
        if self._closed:
            return
        self._closed = True
        t = self._recompile_thread
        if t is not None and t.is_alive():
            t.join(timeout=30)
        self.store.close()
        if self._owns_dir and self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "LiveIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"LiveIndex(epoch={self.current_epoch}, "
            f"mode={'swap-only' if self.compiler is None else 'compiler'}, "
            f"detached={self._detached})"
        )
