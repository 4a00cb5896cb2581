"""User-facing facade: reachability on arbitrary directed graphs.

Every index in this library operates on a DAG, per the standard
preprocessing the paper describes in §2: "the directed graph is typically
transformed into a DAG by coalescing strongly connected components".
:class:`Reachability` packages that pipeline — condensation, index
construction, query translation — behind one object, so a user can throw
any digraph (cycles, self-references via SCCs, disconnected pieces) at
it:

>>> from repro import Reachability
>>> from repro.graph.digraph import DiGraph
>>> g = DiGraph(4)
>>> for u, v in [(0, 1), (1, 2), (2, 0), (2, 3)]:
...     _ = g.add_edge(u, v)
>>> r = Reachability(g)              # DL oracle by default
>>> r.query(0, 3), r.query(3, 0)
(True, False)
>>> r.query(1, 0)                    # same SCC
True
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .graph.digraph import DiGraph
from .graph.scc import Condensation, condense
from .core.base import ReachabilityIndex, get_method

__all__ = ["Reachability"]


class _ServeCondensation:
    """Condensation restored from an artifact: the ``comp`` map only.

    Quacks like :class:`~repro.graph.scc.Condensation` for everything
    query-side (``comp``, ``n_components``, ``component_of``,
    per-component sizes); the DAG and member lists stay on the build
    side of the lifecycle.
    """

    __slots__ = ("comp", "n_components", "_sizes")

    def __init__(self, comp, n_components: int) -> None:
        self.comp = comp
        self.n_components = n_components
        self._sizes = None

    def component_of(self, v: int) -> int:
        return self.comp[v]

    def component_sizes(self) -> List[int]:
        """Vertices per component (computed lazily from ``comp``)."""
        if self._sizes is None:
            sizes = [0] * self.n_components
            for c in self.comp:
                sizes[c] += 1
            self._sizes = sizes
        return self._sizes

    def __repr__(self) -> str:
        return f"_ServeCondensation(components={self.n_components})"


class Reachability:
    """Reachability oracle over an arbitrary directed graph.

    Parameters
    ----------
    graph:
        Any :class:`DiGraph` (cycles allowed).
    method:
        Either a paper abbreviation (``"DL"``, ``"HL"``, ``"PT"``, …) or
        a callable ``DiGraph -> ReachabilityIndex`` applied to the
        condensation DAG.  Defaults to Distribution-Labeling, the
        paper's recommended all-round method.
    **params:
        Forwarded to the index constructor.  The kernel-aware methods
        (``DL``, ``HL``, ``GL``, ``PL``) accept
        ``backend={"auto", "python", "numpy"}`` and ``DL`` additionally
        ``workers=N`` for multi-core sharded construction; results are
        bit-identical across backends and worker counts.
    """

    def __init__(
        self,
        graph: DiGraph,
        method: Union[str, Callable[..., ReachabilityIndex]] = "DL",
        **params,
    ) -> None:
        self.original = graph
        self.condensation: Condensation = condense(graph)
        factory = get_method(method) if isinstance(method, str) else method
        self.index: ReachabilityIndex = factory(self.condensation.dag, **params)
        self._comp_arr = None  # lazy int64 mirror of condensation.comp
        self._serve_meta = None  # artifact header in serve mode
        self._live = None  # LiveIndex while (or after) serving live
        self._primary = None  # JournaledPrimary when serving durably

    # ------------------------------------------------------------------
    # build → compile → serve
    # ------------------------------------------------------------------
    def save(self, path, profile: str = "mmap") -> int:
        """Persist the full pipeline — condensation *and* index — as a
        binary artifact; returns bytes written.

        Unlike the v1 ``save_labels`` JSON (which stores bare labels
        and therefore cannot answer original-graph queries), the
        artifact keeps the SCC ``comp`` map, so :meth:`load` serves the
        exact original-graph semantics, same-SCC pairs included.
        ``profile``: ``"mmap"`` (default, zero-copy shared serving) or
        ``"compact"`` (deflated, smallest file) — see
        :data:`repro.serialization.PROFILES`.
        """
        from .serialization import save_artifact

        return save_artifact(self, path, profile=profile)

    @classmethod
    def load(cls, path, mmap: bool = True) -> "Reachability":
        """Serve-mode pipeline from a :meth:`save` artifact.

        With ``mmap=True`` (default) the index arrays are zero-copy
        views over a shared read-only mapping — N serving processes
        loading the same artifact share one physical copy.
        """
        from .artifact import read_artifact

        return cls.from_artifact(read_artifact(path, mmap=mmap))

    @classmethod
    def from_artifact(cls, source) -> "Reachability":
        """A serve-mode facade over a parsed pipeline artifact.

        ``source`` is a path or a :class:`repro.artifact.Artifact` of
        kind ``"pipeline"``.  The result answers :meth:`query` /
        :meth:`query_batch` / :meth:`same_scc` /
        :meth:`reachable_count_from` with **no DiGraph in memory**;
        graph-walking helpers (:meth:`path`) need the build side and
        raise.
        """
        from .artifact import Artifact, read_artifact
        from .serialization import PIPELINE_KIND, _oracle_from_artifact

        art = source if isinstance(source, Artifact) else read_artifact(source)
        if art.kind != PIPELINE_KIND:
            raise ValueError(
                f"expected a pipeline artifact, got kind {art.kind!r} — "
                "use repro.serialization.load_artifact for method artifacts"
            )
        self = cls.__new__(cls)
        self.original = None
        self.condensation = _ServeCondensation(
            art.section("comp"), int(art.meta["dag_n"])
        )
        self.index = _oracle_from_artifact(art, "inner")
        self._comp_arr = None
        self._serve_meta = dict(art.meta)
        self._live = None
        self._primary = None
        return self

    @property
    def is_serving(self) -> bool:
        """Whether this facade is on the serve side of the lifecycle.

        True for a pipeline restored by :meth:`load` /
        :meth:`from_artifact` — compiled query arrays only, no
        :class:`DiGraph` — and False for a facade built from a graph.
        Graph-walking helpers (:meth:`path`) need ``is_serving`` to be
        False; everything query-shaped works either way.
        """
        return self.original is None

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batch_window_s: float = 0.001,
        adaptive_window: bool = False,
        max_batch: int = 65536,
        cache_size: int = 65536,
        artifact_path=None,
        allow_shutdown=None,
        live: bool = False,
        replicas: int = 0,
        data_dir=None,
        sync: str = "interval",
        dirt_threshold: float = 0.25,
    ):
        """Start a TCP query server over this pipeline; returns it running.

        The server answers the binary wire protocol of
        :mod:`repro.server` with exactly this facade's semantics
        (original-graph ids, same-SCC pairs included), in-process.
        ``batch_window_s`` is the micro-batching window in
        **seconds** (the CLI's ``--batch-window`` flag is milliseconds;
        ``adaptive_window`` lets it shrink under low arrival rate);
        ``cache_size`` the LRU result-cache budget (0 disables).

        ``live=True`` serves through an epoch-versioned
        :class:`repro.live.LiveIndex` instead of a frozen snapshot:
        :meth:`add_edge` / :meth:`add_edges` then update the *running*
        server (and the wire ``OP_UPDATE`` op works), and
        :meth:`swap_artifact` hot-swaps a whole new artifact — all
        without dropping a connection.  A build-mode facade gets the
        full update path (edges are applied incrementally through a
        ``DynamicDL``-backed compiler — the serving labels are DL
        regardless of this facade's ``method``, answers identical); a
        serve-mode facade gets hot swap only.  The live pipeline
        survives ``server.close()``: a later ``serve(live=True)``
        resumes from the updated graph, not the original build.

        ``replicas=N`` (N ≥ 1) serves through a fault-tolerant tier
        instead of a single process: N replica processes each hold the
        artifact, an epoch-shipping
        :class:`~repro.cluster.ReplicaRouter` fronts them with
        retries, health checks and hedging, and losing any one replica
        costs retried requests, not failed ones.  A build-mode facade
        saves its artifact to ``artifact_path`` (or a temp file the
        server deletes on close); a serve-mode facade reuses the
        artifact it was loaded from.  See
        :func:`repro.cluster.serve_replicated` (which this delegates
        to) for the moving parts; mutually exclusive with ``live``.

        ``data_dir`` (with ``live=True``) makes the live server
        **durable**: updates run through a
        :class:`repro.durability.JournaledPrimary` in that directory —
        the ack means the batch hit the write-ahead journal (fsync
        policy ``sync``: ``always`` / ``interval`` / ``off``), and a
        process that dies mid-anything recovers every acked update on
        the next ``serve(live=True, data_dir=...)`` over the same
        directory.  When the directory already holds a manifest the
        recovered state wins and this pipeline's graph is ignored — the
        disk is the truth.

        ``dirt_threshold`` (with ``live=True``) bounds removal debt:
        deleted edges are served through query-time tombstones, and
        once ``tombstones / edges`` reaches the threshold a background
        full recompile compacts them away.  ``0`` disables automatic
        compaction (tombstones accumulate until an explicit rebuild).

        >>> from repro.graph.digraph import DiGraph
        >>> g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        >>> server = Reachability(g).serve()          # ephemeral port
        >>> from repro.server import ReachClient
        >>> with ReachClient(*server.address) as client:
        ...     client.query(0, 3), client.query(3, 0)
        (True, False)
        >>> server.close()
        """
        from .server.service import QueryService
        from .server.tcp import ReachServer

        if data_dir is not None and not live:
            raise ValueError(
                "data_dir is the durable *live* mode: pass live=True "
                "(a static artifact server has nothing to journal)"
            )
        if replicas > 0:
            if live:
                raise ValueError(
                    "live=True and replicas are mutually exclusive: "
                    "replication ships frozen artifact epochs"
                )
            import os

            from .cluster import serve_replicated

            path = artifact_path
            temp_paths: list = []
            if path is None and self.is_serving:
                art = getattr(self.index, "artifact", None)
                path = getattr(art, "path", None)
            if path is None:
                import tempfile

                fd, path = tempfile.mkstemp(
                    suffix=".rpro", prefix="repro-serve-"
                )
                os.close(fd)
                self.save(path)
                temp_paths.append(path)
            elif not self.is_serving:
                # Build mode with an explicit path: (re)save, so the
                # replicas serve THIS pipeline.
                self.save(path)
            try:
                server = serve_replicated(
                    path,
                    host,
                    port,
                    replicas=replicas,
                    allow_shutdown=allow_shutdown,
                )
            except BaseException:
                for tmp in temp_paths:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                raise
            server.cleanup_paths.extend(temp_paths)
            return server

        if live:
            return self._serve_live(
                host,
                port,
                batch_window_s=batch_window_s,
                adaptive_window=adaptive_window,
                max_batch=max_batch,
                cache_size=cache_size,
                allow_shutdown=allow_shutdown,
                data_dir=data_dir,
                sync=sync,
                dirt_threshold=dirt_threshold,
            )
        service = QueryService(
            oracle=self,
            window_s=batch_window_s,
            adaptive_window=adaptive_window,
            max_batch=max_batch,
            cache_size=cache_size,
        )
        try:
            service.start()
            server = ReachServer(
                service,
                host,
                port,
                allow_shutdown=allow_shutdown,
                owns_service=True,
            )
            return server.start()
        except BaseException:
            service.close()
            raise

    # ------------------------------------------------------------------
    # Live serving (hot swap + incremental updates)
    # ------------------------------------------------------------------
    def _serve_live(
        self,
        host: str,
        port: int,
        *,
        batch_window_s: float,
        adaptive_window: bool,
        max_batch: int,
        cache_size: int,
        allow_shutdown,
        data_dir=None,
        sync: str = "interval",
        dirt_threshold: float = 0.25,
    ):
        """The ``serve(live=True)`` path: mount (or remount) a LiveIndex."""
        from .live import IncrementalCompiler, LiveIndex
        from .server.service import QueryService
        from .server.tcp import ReachServer

        if self._live is not None and not self._live.closed:
            raise RuntimeError(
                "this Reachability is already serving live; close() the "
                "running server before starting another"
            )
        if data_dir is not None:
            return self._serve_durable(
                host,
                port,
                data_dir=data_dir,
                sync=sync,
                dirt_threshold=dirt_threshold,
                batch_window_s=batch_window_s,
                adaptive_window=adaptive_window,
                max_batch=max_batch,
                cache_size=cache_size,
                allow_shutdown=allow_shutdown,
            )
        if self._live is not None:
            # Re-serve after a close: the compiler (updated graph
            # included) survives the dead server's store.  A swap-only
            # live index restarts from the facade's own artifact file.
            compiler = self._live.compiler
            if self._live.swaps > 0:
                # swap_artifact() replaced the served data with an
                # external file this facade cannot reproduce; reviving
                # the pre-swap compiler (build mode) or republishing
                # this facade's own artifact (serve mode) would silently
                # roll that back.
                raise RuntimeError(
                    "cannot re-serve live: an external artifact was "
                    "swapped in over this pipeline, and its file is the "
                    "source of truth now — serve it directly "
                    "(Reachability.load(path).serve(live=True)) or "
                    "rebuild from a graph"
                )
            if compiler is not None:
                live = LiveIndex(compiler, dirt_threshold=dirt_threshold)
            else:
                live = LiveIndex(initial_path=self._live_initial_path())
        elif self.is_serving:
            # Serve-mode facade: no graph to compile, so no update path
            # — but the artifact file can still be hot-swapped.
            live = LiveIndex(initial_path=self._live_initial_path())
        else:
            # Reuse this facade's condensation (and, for DL, its built
            # labels) rather than building the pipeline a second time.
            live = LiveIndex(
                IncrementalCompiler.from_pipeline(self),
                dirt_threshold=dirt_threshold,
            )
        self._live = live
        service = QueryService(
            live=live,
            window_s=batch_window_s,
            adaptive_window=adaptive_window,
            max_batch=max_batch,
            cache_size=cache_size,
        )
        try:
            service.start()
            server = ReachServer(
                service,
                host,
                port,
                allow_shutdown=allow_shutdown,
                owns_service=True,
            )
            # The store dies with the server; the compiler stays on the
            # facade so a later serve(live=True) resumes the stream.
            server.cleanup_callbacks.append(live.close)
            return server.start()
        except BaseException:
            service.close()
            live.close()
            raise

    def _serve_durable(
        self,
        host: str,
        port: int,
        *,
        data_dir,
        sync: str,
        dirt_threshold: float,
        batch_window_s: float,
        adaptive_window: bool,
        max_batch: int,
        cache_size: int,
        allow_shutdown,
    ):
        """``serve(live=True, data_dir=...)``: a journaled live server.

        First boot over an empty directory seeds it from this pipeline
        (build mode only — a serve-mode facade holds labels, not the
        graph the journal's recovery path needs).  Every later boot
        recovers from the directory and ignores the in-memory pipeline:
        acked updates from the previous life are already in the served
        state before the port opens.
        """
        from .durability import JournaledPrimary
        from .durability.manifest import EpochManifest
        from .live import IncrementalCompiler
        from .server.service import QueryService
        from .server.tcp import ReachServer

        compiler = None
        if EpochManifest(data_dir).load() is None:
            if self.is_serving:
                raise RuntimeError(
                    "a serve-mode Reachability cannot initialise a durable "
                    f"data dir ({str(data_dir)!r} has no manifest): the "
                    "journal's recovery path needs the original graph, "
                    "which artifacts do not carry — boot the directory "
                    "once from a build-mode pipeline"
                )
            compiler = IncrementalCompiler.from_pipeline(self)
        primary = JournaledPrimary(
            data_dir, compiler=compiler, sync=sync,
            dirt_threshold=dirt_threshold,
        )
        self._primary = primary
        self._live = primary.live
        service = QueryService(
            primary=primary,
            window_s=batch_window_s,
            adaptive_window=adaptive_window,
            max_batch=max_batch,
            cache_size=cache_size,
        )
        try:
            service.start()
            server = ReachServer(
                service,
                host,
                port,
                allow_shutdown=allow_shutdown,
                owns_service=True,
            )
            # Unlike the in-memory live path, everything that matters
            # survives in data_dir — closing the server checkpoints and
            # releases the journal so another process can recover it.
            server.cleanup_callbacks.append(primary.close)
            return server.start()
        except BaseException:
            service.close()
            primary.close()
            raise

    def _live_initial_path(self) -> str:
        """The on-disk artifact behind a serve-mode facade (checked)."""
        import os

        art = getattr(self.index, "artifact", None)
        path = getattr(art, "path", None)
        if path is None or not os.path.exists(path):
            raise FileNotFoundError(
                "live serving a serve-mode Reachability needs its artifact "
                f"file on disk, but {path!r} is gone; restore it or rebuild "
                "from the graph"
            )
        return path

    def add_edge(self, u: int, v: int) -> Dict[str, object]:
        """Insert original-graph edge ``u -> v`` into the live server.

        Only available while serving live (``serve(live=True)`` from a
        build-mode facade): the edge flows through the incremental
        compiler and the resulting artifact epoch is published to the
        running server before this returns — queries on any connection
        then see the new edge.  Returns the publish summary (``epoch``,
        ``changed``, ``swap_s``…).

        The facade's own :meth:`query` keeps answering from its
        build-time snapshot; the live pipeline (and anything served) is
        what advances.  Use the returned epoch / server queries to
        observe updates, and ``serve(live=True)`` after a close to
        resume from the updated graph.
        """
        return self.add_edges([(u, v)])

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> Dict[str, object]:
        """Insert an edge stream and publish one epoch for all of it.

        On a durable server (``serve(live=True, data_dir=...)``) the
        stream goes through the journal first — when this returns, the
        batch survives a crash.
        """
        return self.apply_ops(list(edges))

    def remove_edge(self, u: int, v: int) -> Dict[str, object]:
        """Delete original-graph edge ``u -> v`` from the live server.

        The edge stops contributing to reachability immediately (via a
        query-time tombstone); the label structure is compacted in the
        background once the configured ``dirt_threshold`` is reached.
        Removing an edge that is not in the live graph raises
        ``ValueError`` and applies nothing.
        """
        return self.apply_ops([("-", u, v)])

    def remove_edges(
        self, edges: Iterable[Tuple[int, int]]
    ) -> Dict[str, object]:
        """Delete an edge stream and publish one epoch for all of it."""
        return self.apply_ops([("-", u, v) for u, v in edges])

    def apply_ops(self, ops: Iterable) -> Dict[str, object]:
        """Apply a mixed insert/remove stream as one atomic batch.

        ``ops`` mixes ``(u, v)`` pairs (inserts) with ``('+', u, v)`` /
        ``('-', u, v)`` triples; the whole stream is validated first
        and applied all-or-nothing, then one epoch is published.  On a
        durable server the batch is journaled before it is applied.
        """
        live = self._require_live(update=True)
        if self._primary is not None and self._primary.live is live:
            return self._primary.apply_update(list(ops))
        return live.apply_ops(list(ops))

    def swap_artifact(self, path) -> int:
        """Hot-swap the live server to the artifact at ``path``.

        The file is loaded side-by-side, published as the next epoch,
        and the old version drains once its in-flight batches finish —
        zero dropped connections, batch-atomic answers.  Returns the
        new epoch.  After swapping an external artifact over a
        build-mode live pipeline, :meth:`add_edge` is disabled (the
        compiler no longer describes what is served).
        """
        live = self._require_live(update=False)
        return live.swap_artifact(str(path))

    def _require_live(self, update: bool):
        live = self._live
        if live is None or live.closed:
            raise RuntimeError(
                "no live server is attached: start one with "
                "Reachability.serve(live=True) (updates need a build-mode "
                "facade; hot swap works for serve-mode too)"
            )
        if update and (live.compiler is None or live.detached):
            raise RuntimeError(
                "this live server has no update path: it serves swapped-in "
                "artifacts only (updates need serve(live=True) on a "
                "build-mode Reachability whose compiler is still attached)"
            )
        return live

    @property
    def live_epoch(self) -> Optional[int]:
        """The serving artifact epoch, or None when not serving live."""
        if self._live is None or self._live.closed:
            return None
        return self._live.current_epoch

    # ------------------------------------------------------------------
    def query(self, u: int, v: int) -> bool:
        """Whether original-graph vertex ``u`` reaches ``v``.

        Vertices in the same SCC reach each other by definition (the
        trivial case the DAG transformation removes).
        """
        cu = self.condensation.comp[u]
        cv = self.condensation.comp[v]
        if cu == cv:
            return True
        return self.index.query(cu, cv)

    def query_batch(self, pairs: Iterable[Tuple[int, int]]) -> List[bool]:
        """Vectorised :meth:`query` over many pairs.

        Translates the whole workload into condensation space and hands
        it to the index's batch fast path.  A NumPy ``(P, 2)`` array is
        translated by one gather and stays an array, so it reaches the
        vectorized engine without a Python round trip.  No same-SCC
        special case is needed: ``query(c, c)`` is reflexively True for
        every index, per the :class:`ReachabilityIndex` contract.
        """
        comp = self.condensation.comp
        from .kernels import numpy_or_none

        np = numpy_or_none()
        if np is not None and isinstance(pairs, np.ndarray):
            if self._comp_arr is None:
                self._comp_arr = np.asarray(comp, dtype=np.int64)
            return self.index.query_batch(self._comp_arr[pairs])
        return self.index.query_batch([(comp[u], comp[v]) for u, v in pairs])

    def same_scc(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are strongly connected."""
        return self.condensation.comp[u] == self.condensation.comp[v]

    def path(self, u: int, v: int) -> Optional[List[int]]:
        """An explicit vertex path from ``u`` to ``v``, or ``None``.

        The oracle answers the decision problem in microseconds; this
        helper produces a human-auditable certificate on demand (one
        BFS over the original graph, so only for positive answers you
        actually want to explain).

        Examples
        --------
        >>> from repro.graph.digraph import DiGraph
        >>> g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        >>> Reachability(g).path(0, 3)
        [0, 1, 2, 3]
        """
        if self.is_serving:
            raise RuntimeError(
                "path() needs the original DiGraph, but this Reachability "
                "is serve-mode (is_serving=True): it was restored by "
                "Reachability.load()/from_artifact(), and artifacts keep "
                "only the compiled query arrays — the graph stays on the "
                "build side of the build -> compile -> serve lifecycle. "
                "query()/query_batch()/same_scc()/reachable_count_from() "
                "all work here; for path certificates rebuild with "
                "Reachability(graph, method) on the build side (and use "
                ".save(path) there if you want both from one build)"
            )
        if not self.query(u, v):
            return None
        if u == v:
            return [u]
        out_adj = self.original.out_adj
        parent = {u: -1}
        frontier = [u]
        qi = 0
        while qi < len(frontier):
            x = frontier[qi]
            qi += 1
            for w in out_adj[x]:
                if w not in parent:
                    parent[w] = x
                    if w == v:
                        path = [v]
                        while path[-1] != u:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    frontier.append(w)
        raise AssertionError(
            f"oracle claims {u} -> {v} but BFS found no path; index corrupt"
        )

    def reachable_count_from(self, u: int) -> int:
        """Number of original vertices reachable from ``u`` (incl. itself).

        Convenience analytics helper (counts SCC members through the
        condensation); cost is one scan over SCC sizes.
        """
        cu = self.condensation.comp[u]
        sizes = self.condensation.component_sizes()
        total = 0
        for c in range(self.condensation.n_components):
            if c == cu or self.index.query(cu, c):
                total += sizes[c]
        return total

    def stats(self) -> Dict[str, object]:
        """Pipeline statistics: original size, DAG size, index stats."""
        if self.original is None:
            meta = self._serve_meta or {}
            return {
                "original_n": meta.get("original_n"),
                "original_m": meta.get("original_m"),
                "dag_n": self.condensation.n_components,
                "dag_m": meta.get("dag_m"),
                "serve_mode": True,
                "index": self.index.stats(),
            }
        return {
            "original_n": self.original.n,
            "original_m": self.original.m,
            "dag_n": self.condensation.dag.n,
            "dag_m": self.condensation.dag.m,
            "index": self.index.stats(),
        }

    def __repr__(self) -> str:
        if self.original is None:
            meta = self._serve_meta or {}
            return (
                f"Reachability(method={self.index.short_name}, serve_mode, "
                f"n={meta.get('original_n')}, dag_n={self.condensation.n_components})"
            )
        return (
            f"Reachability(method={self.index.short_name}, "
            f"n={self.original.n}, dag_n={self.condensation.dag.n})"
        )
