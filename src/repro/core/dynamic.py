"""Incremental *and* decremental updates for the DL oracle.

The paper closes with "In the future, we will investigate the labeling
on dynamic graphs".  This module implements that program on top of
Distribution-Labeling, in three layers:

**Single-edge insertion** (:meth:`DynamicDL.insert_edge`) — the
reference scalar path, a label-flooding update whose completeness
argument is three lines long:

    Inserting ``u -> v`` (acyclic, not previously reachable) creates
    exactly the pairs ``(x, y)`` with ``x -> u`` and ``v -> y`` in the
    old graph.  Old labels already certify ``x -> u`` with some hop
    ``h ∈ Lout(x) ∩ Lin(u)``.  Therefore unioning ``Lin(u) ∪ {u}``
    into ``Lin(y)`` for every ``y ∈ desc(v)`` covers every new pair:
    ``h ∈ Lout(x)`` held before, and ``h ∈ Lin(y)`` holds after.

Soundness is equally direct: every hop added to ``Lin(y)`` reaches
``u`` (it was in ``Lin(u)``), hence reaches ``y`` through the new edge.

**Batched insertion** (:meth:`DynamicDL.insert_edges`) — the live
update path.  The whole stream is classified up front (duplicate /
already-reachable / novel, stream-atomic cycle rejection) and all novel
floods collapse into ONE multi-source sweep with vectorized label
merges, through :mod:`repro.kernels.dynamic` — selectable via the
``backend={auto,python,numpy}`` axis and property-tested bit-identical
to replaying :meth:`insert_edge` sequentially.

**Deletion** (:meth:`DynamicDL.remove_edge`) — decremental updates by
*tombstone*: the edge stays in the oracle's ghost graph (so the labels
remain exact for it) and joins a removed set consulted at query time.
A positive label answer is demoted to an exact live BFS only when some
tombstone could explain it (:class:`repro.kernels.dynamic.TombstoneFilter`);
negative label answers are always final, because removing edges can
never create reachability.  :meth:`compact` physically drops the
tombstones and rebuilds minimal labels; the ``dirt_ratio`` property is
what :class:`repro.live.index.LiveIndex` watches to schedule that
recompile in the background.

**Derived state** — the oracle owns what its consumers would otherwise
recompute from the whole graph on every batch: longest-path-to-sink
:attr:`DynamicDL.heights` of the ghost graph (an inserted edge only
ever *raises* heights, relaxed upward through ``in_adj``; tombstoned
edges stay in the ghost graph, so heights never fall between
rebuilds), a running label-size counter, and the rows touched since
the incremental compiler last called :meth:`DynamicDL.drain_touched`.
Every update path — scalar, batched on either backend — keeps all
three exact, so a 5-edge batch costs its cone, not the graph.

The trade-off versus a rebuild is the one the paper would expect:
updates are cheap but the labeling loses Theorem 4's non-redundancy —
labels grow monotonically over a long insert stream.
:meth:`DynamicDL.rebuild` restores the minimal static labeling; the
``auto_rebuild_factor`` parameter does so automatically once the index
has bloated past a configurable factor of its last rebuilt size.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..graph.digraph import DiGraph
from ..kernels import numpy_or_none, resolve_backend
from ..kernels.grail import compute_heights
from ..kernels.dynamic import (
    CycleInBatch,
    TombstoneFilter,
    classify_batch,
    flood_batch_numpy,
    flood_batch_python,
    merge_sorted,
)
from .distribution import DistributionLabeling

__all__ = ["DynamicDL", "CycleInBatch"]

# Backwards-compatible alias (tests and older callers import it).
_merge_into = merge_sorted


def _fresh_counters() -> Dict[str, int]:
    return {
        "batches": 0,
        "novel": 0,
        "noop": 0,
        "duplicate": 0,
        "resurrected": 0,
        "removals": 0,
        "removals_redundant": 0,
        "compacts": 0,
        "frontier_vertices": 0,
        "labels_merged": 0,
        "patterns": 0,
    }


class DynamicDL:
    """A Distribution-Labeling oracle that accepts edge churn.

    Parameters
    ----------
    graph:
        Initial DAG; copied, so the caller's graph is never mutated.
    order:
        Rank strategy for (re)builds, as in
        :class:`~repro.core.distribution.DistributionLabeling`.
    auto_rebuild_factor:
        When the label size exceeds this multiple of the size at the
        last rebuild, the oracle rebuilds itself (0 disables).
    backend:
        Default backend for :meth:`insert_edges` (``None`` = the
        ``auto`` resolution of :func:`repro.kernels.resolve_backend`,
        honouring ``REPRO_BACKEND``).

    Examples
    --------
    >>> from repro.graph.generators import path_dag
    >>> dyn = DynamicDL(path_dag(4))
    >>> dyn.query(3, 0)
    False
    >>> dyn.insert_edge(3, 0)
    Traceback (most recent call last):
        ...
    ValueError: inserting 3->0 would create a cycle
    """

    def __init__(
        self,
        graph: DiGraph,
        order: str = "degree_product",
        auto_rebuild_factor: float = 4.0,
        seed_index=None,
        backend: Optional[str] = None,
    ) -> None:
        self._graph = graph.copy()
        self._order = order
        self.auto_rebuild_factor = auto_rebuild_factor
        self._backend = backend
        self._removed: set = set()
        self._filter: Optional[TombstoneFilter] = None
        self._counters = _fresh_counters()
        if seed_index is None or not self._adopt_seed(seed_index):
            self._rebuild_from_graph()

    def _adopt_seed(self, index) -> bool:
        """Adopt a prebuilt DL's labels instead of rebuilding them.

        ``seed_index`` must be a :class:`DistributionLabeling` built on
        *this same graph* (the caller's contract; only the cheap n/m
        shape is checked here).  Labels, rank and order are deep-copied
        — this oracle mutates its labels on every insert, and sharing
        them would silently corrupt the seed index's answers.  Returns
        False when the seed does not fit, falling back to a fresh
        build; either way the resulting labeling is bit-identical to
        one built directly.
        """
        from .labels import LabelSet

        graph = getattr(index, "graph", None)
        labels = getattr(index, "labels", None)
        if (
            graph is None
            or labels is None
            or graph.n != self._graph.n
            or graph.m != self._graph.m
        ):
            return False
        copy = LabelSet(labels.n)
        copy.lout = [list(lab) for lab in labels.lout]
        copy.lin = [list(lab) for lab in labels.lin]
        if labels._out_masks is not None:
            copy.attach_masks(list(labels._out_masks), list(labels._in_masks))
        else:
            copy.seal()
        self._labels = copy
        self._rank = list(index.rank)
        self._order_list = list(index.order_list)
        self._reset_derived(index.index_size_ints())
        return True

    # ------------------------------------------------------------------
    def _rebuild_from_graph(self) -> None:
        frozen = self._graph.copy().freeze()
        dl = DistributionLabeling(frozen, order=self._order)
        self._labels = dl.labels
        self._rank = dl.rank
        self._order_list = dl.order_list
        self._reset_derived(dl.index_size_ints())

    def _reset_derived(self, size_ints: int) -> None:
        """Recompute the maintained state after the labels were replaced."""
        self._size_ints = size_ints
        self._base_size = max(1, size_ints)
        self._inserts_since_rebuild = 0
        self._heights = compute_heights(self._graph)
        self._rebuilt = True
        self._lin_touched: set = set()
        self._out_touched: set = set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._graph.n

    @property
    def m(self) -> int:
        """Edge count of the ghost graph (tombstoned edges included)."""
        return self._graph.m

    @property
    def live_m(self) -> int:
        """Edge count with tombstoned edges excluded."""
        return self._graph.m - len(self._removed)

    @property
    def graph(self) -> DiGraph:
        """The oracle's own (mutable) *ghost* graph copy.

        Inserted edges are present; tombstoned edges are **still
        present** (the labels are exact for this graph — that is the
        tombstone invariant).  Read-only by contract: mutate it through
        :meth:`insert_edge` / :meth:`remove_edge` only, or the labels
        silently go stale.  The incremental compiler reads it to
        recompute the engine's graph certificates at publish time.
        """
        return self._graph

    @property
    def labels(self):
        """The live :class:`~repro.core.labels.LabelSet` (rank space)."""
        return self._labels

    @property
    def rank(self) -> List[int]:
        """Vertex -> rank map of the last (re)build."""
        return self._rank

    @property
    def order_list(self) -> List[int]:
        """Rank -> vertex map (the DL hop->vertex witness table)."""
        return self._order_list

    @property
    def tombstones(self) -> List[Tuple[int, int]]:
        """Currently tombstoned edges, sorted (deterministic)."""
        return sorted(self._removed)

    def is_tombstoned(self, u: int, v: int) -> bool:
        """Whether edge ``u -> v`` is currently tombstoned."""
        return (u, v) in self._removed

    @property
    def tombstone_count(self) -> int:
        """How many edges are currently tombstoned."""
        return len(self._removed)

    @property
    def compacts(self) -> int:
        """How many :meth:`compact` calls dropped tombstones so far."""
        return self._counters["compacts"]

    @property
    def inserts_since_rebuild(self) -> int:
        """Novel edges flooded since the labels were last rebuilt minimal."""
        return self._inserts_since_rebuild

    @property
    def heights(self) -> List[int]:
        """Longest-path-to-sink height per vertex of the ghost graph.

        Always equal to ``compute_heights(self.graph)`` (read-only by
        contract); the batch flood orders its levels by it and the
        incremental compiler packs it as the engine's height filter.
        """
        return self._heights

    def drain_touched(self) -> Optional[Tuple[set, set]]:
        """Rows changed since the last drain, handing them to the caller.

        Returns ``(lin_rows, out_rows)``: the vertices whose ``Lin``
        may have changed, and those whose *live* out-adjacency changed
        (an edge added, tombstoned or resurrected at that source) — or
        ``None`` when the labels were rebuilt in between, i.e. every
        row of everything changed.  This is what lets the incremental
        compiler splice a publish instead of re-flattening the graph.
        """
        rows = None if self._rebuilt else (self._lin_touched, self._out_touched)
        self._rebuilt = False
        self._lin_touched = set()
        self._out_touched = set()
        return rows

    @property
    def dirt_ratio(self) -> float:
        """Tombstoned fraction of the ghost edge set.

        The live tier compares this against its recompile threshold;
        :meth:`compact` resets it to zero.
        """
        return len(self._removed) / max(1, self._graph.m)

    def _label_reach(self, u: int, v: int) -> bool:
        """Reflexive reachability in ghost (label) space."""
        return u == v or self._labels.query(u, v)

    def tombstone_filter(self) -> TombstoneFilter:
        """The (cached) query-time corrector for the current tombstones."""
        f = self._filter
        if f is None:
            removed = self._removed
            out_adj = self._graph.out_adj

            def neighbors(w, _out=out_adj, _removed=removed):
                for x in _out[w]:
                    if (w, x) not in _removed:
                        yield x

            f = TombstoneFilter(sorted(removed), self._label_reach, neighbors)
            self._filter = f
        return f

    def live_out_adj(self) -> List[List[int]]:
        """Forward adjacency with tombstoned edges filtered out."""
        if not self._removed:
            return self._graph.out_adj
        removed = self._removed
        return [
            [x for x in row if (w, x) not in removed]
            for w, row in enumerate(self._graph.out_adj)
        ]

    def query(self, u: int, v: int) -> bool:
        """Whether ``u`` currently reaches ``v`` (tombstone-aware)."""
        if u == v:
            return True
        # Edge inserts only mutate Lin lists; the sealed Lout mirror
        # built at (re)build time stays valid throughout.
        if not self._labels.query(u, v):
            return False
        if not self._removed:
            return True
        return self.tombstone_filter().check(u, v)

    def query_batch(self, pairs: Iterable[Tuple[int, int]]) -> List[bool]:
        """Vectorised :meth:`query`."""
        return [self.query(u, v) for u, v in pairs]

    def index_size_ints(self) -> int:
        """Current label size in stored integers (a running counter)."""
        return self._size_ints

    def _add_ghost_edge(self, u: int, v: int) -> None:
        """Add ``u -> v`` to the ghost graph, keeping heights exact.

        ``height[u] = max(height[u], height[v] + 1)``, relaxed upward
        through ``in_adj`` for as long as an ancestor's height rises —
        the longest path to a sink can only grow under insertion.
        """
        self._graph.add_edge(u, v)
        self._out_touched.add(u)
        height = self._heights
        if height[v] < height[u]:
            return
        height[u] = height[v] + 1
        in_adj = self._graph.in_adj
        stack = [u]
        while stack:
            w = stack.pop()
            above = height[w] + 1
            for p in in_adj[w]:
                if height[p] < above:
                    height[p] = above
                    stack.append(p)

    # ------------------------------------------------------------------
    # Updates: insertion
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> bool:
        """Insert edge ``u -> v``; returns True if reachability changed.

        This is the sequential reference path; :meth:`insert_edges` is
        property-tested to produce bit-identical labels for whole
        batches.

        Raises
        ------
        ValueError
            If the edge would create a cycle (``v`` already reaches
            ``u``) or is a self-loop.
        """
        if u == v:
            raise ValueError("self-loops are not allowed in a DAG oracle")
        if (u, v) in self._removed:
            # Resurrection: the ghost edge never left the graph and the
            # labels still cover it — dropping the tombstone is the
            # whole update.
            changed = not self.query(u, v)
            self._removed.discard((u, v))
            self._filter = None
            self._out_touched.add(u)
            self._counters["resurrected"] += 1
            return changed
        if self._label_reach(v, u):
            if not self._removed or self.query(v, u):
                raise ValueError(f"inserting {u}->{v} would create a cycle")
            # The cycle exists only through tombstoned ghost edges:
            # compact them away and retry against clean labels.
            self.compact()
            return self.insert_edge(u, v)
        already_reachable = self._label_reach(u, v)
        live_already = already_reachable and (
            not self._removed or self.query(u, v)
        )
        self._add_ghost_edge(u, v)
        if already_reachable:
            # The edge adds no new ghost pairs; labels stay valid.  It
            # may still create *live* pairs when tombstones hid the old
            # path — the tombstone filter's BFS sees the new edge.
            self._counters["noop"] += 1
            return not live_already

        # Flood Lin(u) ∪ {u} into every descendant of v.
        addition = merge_sorted(self._labels.lin[u], [self._rank[u]])
        add_mask = 0
        for h in addition:
            add_mask |= 1 << h
        labels = self._labels
        lin = labels.lin
        out_adj = self._graph.out_adj
        seen = {v}
        frontier = [v]
        qi = 0
        while qi < len(frontier):
            w = frontier[qi]
            qi += 1
            merged = merge_sorted(lin[w], addition)
            self._size_ints += len(merged) - len(lin[w])
            lin[w] = merged
            # Keep the sealed bigint mask coherent with the merged list.
            labels.or_in_mask(w, add_mask)
            for x in out_adj[w]:
                if x not in seen:
                    seen.add(x)
                    frontier.append(x)

        self._lin_touched.update(frontier)
        self._counters["novel"] += 1
        self._counters["frontier_vertices"] += len(frontier)
        self._counters["labels_merged"] += len(frontier)
        self._inserts_since_rebuild += 1
        if (
            self.auto_rebuild_factor
            and self.index_size_ints() > self.auto_rebuild_factor * self._base_size
        ):
            self.rebuild()
        return True

    def insert_edges(
        self, edges: Iterable[Tuple[int, int]], backend: Optional[str] = None
    ) -> Dict[str, object]:
        """Insert a whole edge stream in one batched sweep.

        Classifies every edge up front, then applies all novel-edge
        label deltas with ONE multi-source flood and vectorized merges
        (:mod:`repro.kernels.dynamic`).  The result is bit-identical to
        replaying :meth:`insert_edge` in stream order (with rebuilds
        disabled; an auto-rebuild collapses both paths to the same
        minimal labeling anyway, deferred here to the end of the
        batch).

        Stream-atomic on rejection: a self-loop raises ``ValueError``
        and a cycle raises :class:`CycleInBatch` (carrying the stream
        index) *before anything is applied*, unlike the sequential
        loop which would stop mid-stream.

        Returns a per-edge classification summary::

            {"edges", "novel", "noop", "duplicate", "resurrected",
             "changed", "backend", "frontier_vertices", "patterns",
             "auto_rebuilt"}

        A fully no-op batch (all duplicate / already-reachable) leaves
        the label generation untouched, so downstream snapshot reuse
        (batch-engine arenas, packed artifact sections) stays valid.
        """
        items = [(int(u), int(v)) for u, v in edges]
        summary: Dict[str, object] = {
            "edges": len(items),
            "novel": 0,
            "noop": 0,
            "duplicate": 0,
            "resurrected": 0,
            "changed": 0,
            "backend": "python",
            "frontier_vertices": 0,
            "patterns": 0,
            "auto_rebuilt": False,
        }
        self._counters["batches"] += 1
        if not items:
            return summary

        mode = resolve_backend(
            backend if backend is not None else self._backend, n=self._graph.n
        )
        np_mod = numpy_or_none() if mode == "numpy" else None
        summary["backend"] = mode

        # Classify against pre-batch labels (+ batch closure); nothing
        # is applied until the whole stream is accepted.  A cycle that
        # exists only through tombstoned edges is retried once after a
        # compact.
        for attempt in (0, 1):
            resurrect: Dict[int, bool] = {}
            pending = set()
            for t, e in enumerate(items):
                if e in self._removed and e not in pending:
                    pending.add(e)
                    resurrect[t] = True
            try:
                kinds, novel_idx = classify_batch(
                    items, self._labels, self._graph.has_edge, np=np_mod
                )
                break
            except CycleInBatch:
                if attempt or not self._removed:
                    raise
                self.compact()

        counters = self._counters
        changed = 0
        for t, (u, v) in enumerate(items):
            if resurrect.get(t):
                if not self.query(u, v):
                    changed += 1
                self._removed.discard((u, v))
                self._filter = None
                self._out_touched.add(u)
                summary["resurrected"] += 1
                counters["resurrected"] += 1
                continue
            kind = kinds[t]
            if kind == "noop" and self._removed and not self.query(u, v):
                # Ghost-reachable but live-unreachable: the new edge
                # changes live answers even though labels stay put.
                changed += 1
            self._add_ghost_edge(u, v)
            summary[kind] += 1
            counters[kind] += 1

        novel_idx = [t for t in novel_idx if not resurrect.get(t)]
        if not novel_idx:
            summary["changed"] = changed
            return summary

        novel_edges = [items[t] for t in novel_idx]
        # Pre-batch additions: by the confluence argument (see
        # repro.kernels.dynamic) flooding each novel edge's *old*
        # Lin(u) ∪ {rank(u)} over its final-graph descendant cone
        # reaches the exact sequential fixpoint.
        additions = []
        add_masks = []
        for bu, _ in novel_edges:
            lst = merge_sorted(self._labels.lin[bu], [self._rank[bu]])
            m = 0
            for h in lst:
                m |= 1 << h
            additions.append(lst)
            add_masks.append(m)

        if np_mod is not None:
            stats = flood_batch_numpy(
                np_mod,
                self._graph.out_adj,
                self._heights,
                novel_edges,
                additions,
                add_masks,
                self._labels,
            )
        else:
            stats = flood_batch_python(
                self._graph.out_adj, novel_edges, additions, add_masks, self._labels
            )
        self._size_ints += stats["ints_added"]
        self._lin_touched.update(stats["touched"])
        changed += len(novel_edges)
        summary["changed"] = changed
        summary["frontier_vertices"] = stats["frontier_vertices"]
        summary["patterns"] = stats["patterns"]
        counters["frontier_vertices"] += stats["frontier_vertices"]
        counters["labels_merged"] += stats["labels_merged"]
        counters["patterns"] += stats["patterns"]

        self._inserts_since_rebuild += len(novel_edges)
        if (
            self.auto_rebuild_factor
            and self.index_size_ints() > self.auto_rebuild_factor * self._base_size
        ):
            self.rebuild()
            summary["auto_rebuilt"] = True
        return summary

    # ------------------------------------------------------------------
    # Updates: deletion
    # ------------------------------------------------------------------
    def remove_edge(self, u: int, v: int) -> bool:
        """Tombstone edge ``u -> v``; returns True if live reachability changed.

        The edge stays in the ghost graph (labels remain exact for it)
        and joins the tombstone set checked at query time.  Removing an
        edge can only *destroy* reachability, so the changed test is a
        single live probe of the endpoints: if ``u`` still reaches
        ``v`` through other live edges, no pair changed at all.

        Raises
        ------
        ValueError
            If the edge is not (live) in the graph.
        """
        edge = (int(u), int(v))
        if not self._graph.has_edge(*edge) or edge in self._removed:
            raise ValueError(f"edge {u}->{v} is not in the live graph")
        self._removed.add(edge)
        self._filter = None
        self._out_touched.add(edge[0])
        self._counters["removals"] += 1
        changed = not self.query(*edge)
        if not changed:
            self._counters["removals_redundant"] += 1
        return changed

    def compact(self) -> int:
        """Physically drop tombstones and rebuild minimal labels.

        Returns the number of edges dropped.  After a compact the
        labels are exact for the live graph again and ``dirt_ratio``
        is zero; the live tier calls this (in a background thread)
        once the dirt ratio crosses its recompile threshold.
        """
        if not self._removed:
            return 0
        dropped = len(self._removed)
        for edge in self._removed:
            self._graph.remove_edge(*edge)
        self._removed.clear()
        self._filter = None
        self._counters["compacts"] += 1
        self._rebuild_from_graph()
        return dropped

    def rebuild(self) -> None:
        """Recompute the minimal static DL labeling for the ghost graph."""
        self._rebuild_from_graph()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Current oracle statistics (update-path counters included)."""
        return {
            "method": "DynamicDL",
            "n": self._graph.n,
            "m": self._graph.m,
            "live_m": self.live_m,
            "tombstones": len(self._removed),
            "dirt_ratio": self.dirt_ratio,
            "index_size_ints": self.index_size_ints(),
            "inserts_since_rebuild": self._inserts_since_rebuild,
            "size_at_last_rebuild": self._base_size,
            "updates": dict(self._counters),
        }

    def __repr__(self) -> str:
        return (
            f"DynamicDL(n={self._graph.n}, m={self._graph.m}, "
            f"ints={self.index_size_ints()})"
        )
