"""Incremental artifact compiler: edge stream in, next pipeline artifact out.

The build side of live serving.  :class:`IncrementalCompiler` keeps a
mutable original graph, its SCC condensation, and a
:class:`~repro.core.dynamic.DynamicDL` oracle over the condensation
DAG; edge insertions flow through ``DynamicDL``'s label flooding (cheap
— one forward BFS plus sorted merges), and each :meth:`compile_to`
writes the *same* pipeline-artifact layout as
:meth:`repro.facade.Reachability.save`, so the serving side cannot tell
an incremental artifact from a fresh build.

What "incremental" buys at compile time: DL insertions mutate only the
**in-side** labels, so between publishes the compiler reuses the packed
bytes of every untouched section — the out-side arena, the hop→vertex
witness table, and the SCC ``comp`` map — and repacks only the in-side
arena.  That arena (and, while tombstones exist, the live forward CSR)
is kept flat between publishes and only the rows the oracle reports
through :meth:`DynamicDL.drain_touched` are *spliced* into it, so a
publish costs O(touched rows) plus one sequential write of the file —
never a walk over the graph.  The graph-derived engine certificates
are the exception to the reuse: the height filter must track the
current graph (a stale height table would filter *new* positive pairs
as negative), so the oracle's maintained heights are repacked on every
publish, while the five interval rounds — the expensive certificates —
are only rebuilt on **full** compiles and dropped from incremental
ones exactly like the ``compact`` profile drops them: answers are
bit-identical either way, negatives just lean on the later engine
stages.

Full-recompile fallbacks (everything repacked):

* ``auto_rebuild_factor`` — ``DynamicDL`` rebuilt itself because the
  flooded labels bloated past the configured multiple of the last
  minimal build (Theorem 4 non-redundancy is restored).
* **SCC merge** — an insertion closed a cycle at the DAG level; the
  original graph is recondensed and the oracle rebuilt over the new
  DAG (``comp`` changes, so every epoch-keyed answer shape can change).
* **SCC split** — a removal disconnected a strongly connected
  component; same recondense-and-rebuild.
* **compact** — the tombstone dirt ratio crossed the live tier's
  threshold and the ghost edges were dropped for a minimal rebuild.

Removals classify cheaply before they ever touch the oracle: an edge
that is absent, intra-SCC with the component still strongly connected,
or one of several parallel original edges mapping to the same DAG edge
(tracked by a lazy multiplicity map) changes no answer and costs no
label work.  Only the last original edge behind a live DAG edge becomes
a :meth:`DynamicDL.remove_edge` tombstone, published to artifacts as
the ``inner/tomb_*`` + ``inner/live_*`` optional sections.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..artifact import pack_section, write_artifact
from ..core.dynamic import CycleInBatch, DynamicDL
from ..graph.csr import build_csr_arrays
from ..graph.digraph import DiGraph
from ..graph.scc import condense
from ..kernels import numpy_or_none

__all__ = ["IncrementalCompiler", "normalize_ops"]

Edge = Tuple[int, int]

#: The canonical mixed-update item: ``(op, u, v)`` with op ``+``/``-``.
Op = Tuple[str, int, int]


def normalize_ops(items: Iterable) -> List[Op]:
    """Canonicalise a mixed update stream to ``('+'|'-', u, v)`` triples.

    Accepts plain ``(u, v)`` pairs (inserts) and ``(op, u, v)`` triples
    where ``op`` is ``"+"``/``"insert"``/``"add"`` or
    ``"-"``/``"remove"``/``"delete"``.  Shared by every update entry
    point (live index, journaled primary, server, facade, CLI) so the
    whole write path speaks one ops dialect.
    """
    out: List[Op] = []
    for item in items:
        fields = tuple(item)
        if len(fields) == 2:
            u, v = fields
            out.append(("+", int(u), int(v)))
        elif len(fields) == 3:
            op, u, v = fields
            if op in ("+", "insert", "add"):
                out.append(("+", int(u), int(v)))
            elif op in ("-", "remove", "delete", "del"):
                out.append(("-", int(u), int(v)))
            else:
                raise ValueError(f"unknown update op {op!r}")
        else:
            raise ValueError(f"malformed update item {item!r}")
    return out

_TOMB_SECTIONS = (
    "inner/tomb_u",
    "inner/tomb_v",
    "inner/live_offs",
    "inner/live_tgts",
)


def _flatten_rows(np, rows: Sequence[Sequence[int]]):
    """``(values, offsets)`` of a list of int rows, as flat arrays.

    ``values[offsets[i]:offsets[i + 1]]`` is row ``i`` — the arena /
    CSR layout every artifact section uses.  ndarrays when ``np`` is
    given (views over the ``array`` buffers), plain arrays otherwise.
    """
    offsets, values = build_csr_arrays(rows)
    if np is None:
        return values, offsets
    dtype = np.dtype(f"i{values.itemsize}")
    return np.frombuffer(values, dtype=dtype), np.frombuffer(offsets, dtype=dtype)


def _splice_rows(np, values, offsets, idx: List[int], rows: Sequence[Sequence[int]]):
    """``(values, offsets)`` with rows ``idx`` (ascending) replaced by ``rows``.

    One concatenate over the ≤ ``len(idx) + 1`` untouched slices and
    the new rows, one cumsum for the offsets: the interpreter's work is
    O(touched rows), the rest is memcpy.
    """
    new_values, new_offsets = _flatten_rows(np, rows)
    at = np.asarray(idx, dtype=np.int64)
    lens = np.diff(offsets)
    lens[at] = np.diff(new_offsets)
    out_offsets = np.zeros(len(offsets), dtype=np.int64)
    np.cumsum(lens, out=out_offsets[1:])
    pieces = []
    kept_from = 0
    new_cuts = new_offsets.tolist()
    for i, (start, stop) in enumerate(
        zip(offsets[at].tolist(), offsets[at + 1].tolist())
    ):
        pieces.append(values[kept_from:start])
        pieces.append(new_values[new_cuts[i] : new_cuts[i + 1]])
        kept_from = stop
    pieces.append(values[kept_from:])
    return np.concatenate(pieces), out_offsets


class IncrementalCompiler:
    """Build-side live pipeline: mutable graph -> versioned artifacts.

    Parameters
    ----------
    graph:
        The original directed graph (cycles allowed); copied, never
        mutated.
    order:
        DL rank strategy for (re)builds.
    auto_rebuild_factor:
        Forwarded to :class:`~repro.core.dynamic.DynamicDL`: labels
        bloated past this multiple of the last minimal build trigger a
        full rebuild (0 disables).

    Thread safety: :meth:`add_edge` / :meth:`insert_edges` /
    :meth:`compile_to` serialise on one internal lock, so a server's
    update handler can call them from connection threads directly.
    """

    def __init__(
        self,
        graph: DiGraph,
        *,
        order: str = "degree_product",
        auto_rebuild_factor: float = 4.0,
    ) -> None:
        self._init_state(graph, order, auto_rebuild_factor)
        self._rebuild_pipeline()

    def _init_state(
        self, graph: DiGraph, order: str, auto_rebuild_factor: float
    ) -> None:
        self._lock = threading.RLock()
        self._order = order
        self._auto_rebuild_factor = auto_rebuild_factor
        self._original = graph.copy()
        self._sections: Dict[str, Tuple[str, bytes]] = {}
        #: Flat ``(values, offsets)`` of the in-side labels and of the
        #: tombstone-free forward CSR as last published; incremental
        #: compiles splice the oracle's touched rows into them.
        self._in_arena = None
        self._live_csr = None
        #: Lazy ``(cu, cv) -> count`` of original cross-component edges
        #: behind each DAG edge; None until a removal needs it, cleared
        #: by every pipeline rebuild.
        self._dag_mult: Optional[Dict[Edge, int]] = None
        self._inserts = 0
        self._intra_scc = 0
        self._noop_inserts = 0
        self._duplicate_edges = 0
        self._auto_rebuilds = 0
        self._scc_merges = 0
        self._removals = 0
        self._absent_removals = 0
        self._intra_scc_removals = 0
        self._multi_edge_removals = 0
        self._tombstoned_removals = 0
        self._scc_splits = 0
        self._compacts = 0
        self._full_compiles = 0
        self._incremental_compiles = 0
        self._sections_reused = 0
        self._sections_repacked = 0
        self._compile_hist = None
        self._pack_hist = None
        self._cert_hist = None

    @classmethod
    def from_pipeline(cls, reach, *, auto_rebuild_factor: float = 4.0):
        """Seed a compiler from a built build-mode facade without
        rebuilding its index.

        ``Reachability.serve(live=True)`` already paid for a
        condensation and (when ``method`` is DL) a full label build;
        this adopts both — the condensation is reused as-is and
        :class:`~repro.core.dynamic.DynamicDL` deep-copies the DL
        labels — instead of constructing them a second time.  Facades
        built with any other method fall back to a fresh DL build (the
        live pipeline always serves DL labels; answers are identical).
        """
        from ..core.distribution import DistributionLabeling

        if reach.original is None:
            raise TypeError(
                "from_pipeline needs a build-mode Reachability (a "
                "serve-mode facade has no graph to update)"
            )
        index = reach.index
        if not isinstance(index, DistributionLabeling):
            return cls(reach.original, auto_rebuild_factor=auto_rebuild_factor)
        order = (getattr(index, "params", None) or {}).get(
            "order", "degree_product"
        )
        self = cls.__new__(cls)
        self._init_state(reach.original, order, auto_rebuild_factor)
        self._cond = reach.condensation
        self._dyn = DynamicDL(
            self._cond.dag,
            order=order,
            auto_rebuild_factor=auto_rebuild_factor,
            seed_index=index,
        )
        return self

    # ------------------------------------------------------------------
    def _rebuild_pipeline(self) -> None:
        """(Re)condense the original graph and rebuild the DL oracle."""
        self._cond = condense(self._original)
        self._dyn = DynamicDL(
            self._cond.dag,
            order=self._order,
            auto_rebuild_factor=self._auto_rebuild_factor,
        )
        self._dag_mult = None
        self._sections.clear()

    # ------------------------------------------------------------------
    # Properties / queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._original.n

    @property
    def m(self) -> int:
        return self._original.m

    @property
    def original(self) -> DiGraph:
        """The compiler's graph copy (read-only by contract)."""
        return self._original

    @property
    def condensation(self):
        return self._cond

    def query(self, u: int, v: int) -> bool:
        """Original-graph reachability on the *current* (updated) state."""
        with self._lock:
            cu = self._cond.comp[u]
            cv = self._cond.comp[v]
            if cu == cv:
                return True
            return self._dyn.query(cu, cv)

    def query_batch(self, pairs) -> List[bool]:
        return [self.query(u, v) for u, v in pairs]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> Dict[str, object]:
        """Insert original-graph edge ``u -> v``; returns what happened.

        The result's ``kind`` is one of

        * ``duplicate`` — edge already present, nothing touched;
        * ``intra-scc`` — both endpoints in one SCC: graph grows, labels
          untouched (the pair was already reachable both ways);
        * ``inserted`` — new DAG edge, labels flooded incrementally
          (``changed`` says whether any new pair became reachable,
          ``rebuilt`` whether the bloat threshold forced a rebuild);
        * ``scc-merge`` — the edge closed a cycle: recondensed and fully
          rebuilt (``rebuilt`` is always True).

        Raises ``ValueError`` on self-loops or out-of-range vertices.
        """
        self.validate_edge(u, v)
        with self._lock:
            if self._original.has_edge(u, v):
                self._duplicate_edges += 1
                return {"kind": "duplicate", "changed": False, "rebuilt": False}
            self._original.add_edge(u, v)
            self._inserts += 1
            cu = self._cond.comp[u]
            cv = self._cond.comp[v]
            if cu == cv:
                self._intra_scc += 1
                return {"kind": "intra-scc", "changed": False, "rebuilt": False}
            if self._dyn.query(cv, cu):
                # The new edge closes a cycle at the DAG level: the two
                # components (and everything between) merge into one SCC.
                self._scc_merges += 1
                self._rebuild_pipeline()
                return {"kind": "scc-merge", "changed": True, "rebuilt": True}
            resurrect = self._dyn.is_tombstoned(cu, cv)
            compacts0 = self._dyn.compacts
            changed = self._dyn.insert_edge(cu, cv)
            if self._dag_mult is not None:
                self._dag_mult[(cu, cv)] = self._dag_mult.get((cu, cv), 0) + 1
            if resurrect:
                # The DAG edge came back from a tombstone: labels are
                # untouched, and the oracle reports the source row whose
                # live adjacency (and tombstone set) the publish repacks.
                return {"kind": "inserted", "changed": changed, "rebuilt": False}
            rebuilt = False
            if self._dyn.compacts != compacts0:
                # A ghost-only cycle forced a compact: the tombstones
                # were dropped and the labels rebuilt minimal.
                self._compacts += 1
                rebuilt = True
            elif changed:
                if self._dyn.inserts_since_rebuild == 0:
                    # DynamicDL hit its bloat threshold and rebuilt:
                    # the out side (and witness order) changed too.
                    rebuilt = True
                    self._auto_rebuilds += 1
            else:
                self._noop_inserts += 1
            return {"kind": "inserted", "changed": changed, "rebuilt": rebuilt}

    def validate_edge(self, u: int, v: int) -> None:
        """Raise ``ValueError`` for edges no insert could ever accept.

        Checked up front by :meth:`add_edge` and — over whole streams —
        by :meth:`repro.live.LiveIndex.apply_updates`, so a bad edge in
        the middle of a stream rejects the *entire* stream before any
        mutation instead of leaving earlier edges half-applied.
        """
        n = self._original.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError("self-loops cannot change reachability; rejected")

    def insert_edges(self, edges) -> Dict[str, int]:
        """Apply a stream of edges (batched); aggregate counts by kind."""
        summary = self.apply_ops([("+", u, v) for u, v in edges])
        summary["edges"] = summary["ops"]
        return summary

    def remove_edge(self, u: int, v: int) -> Dict[str, object]:
        """Remove original-graph edge ``u -> v``; returns what happened.

        The result's ``kind`` is one of

        * ``absent`` — the edge is not in the graph, nothing touched;
        * ``intra-scc`` — both endpoints in one SCC and the component
          stays strongly connected without the edge: no answer changes;
        * ``scc-split`` — the removal disconnected its SCC: recondensed
          and fully rebuilt (``rebuilt`` is always True);
        * ``multi-edge`` — other original edges still map to the same
          DAG edge: graph shrinks, oracle untouched;
        * ``tombstoned`` — the last original copy of a live DAG edge:
          :meth:`DynamicDL.remove_edge` tombstone (``changed`` says
          whether any live answer flipped).

        Raises ``ValueError`` on self-loops or out-of-range vertices.
        """
        self.validate_edge(u, v)
        with self._lock:
            return self._remove_edge_locked(u, v)

    def _remove_edge_locked(self, u: int, v: int) -> Dict[str, object]:
        if not self._original.has_edge(u, v):
            self._absent_removals += 1
            return {"kind": "absent", "changed": False, "rebuilt": False}
        self._removals += 1
        cu = self._cond.comp[u]
        cv = self._cond.comp[v]
        if cu == cv:
            self._original.remove_edge(u, v)
            if self._scc_intact(u, v):
                self._intra_scc_removals += 1
                return {"kind": "intra-scc", "changed": False, "rebuilt": False}
            # The component is no longer strongly connected: every
            # epoch-keyed answer shape can change, so recondense.
            self._scc_splits += 1
            self._rebuild_pipeline()
            return {"kind": "scc-split", "changed": True, "rebuilt": True}
        # Build the multiplicity map BEFORE the physical removal so the
        # edge being removed is still counted.
        mult = self._dag_multiplicity()
        self._original.remove_edge(u, v)
        left = mult.get((cu, cv), 0) - 1
        if left > 0:
            mult[(cu, cv)] = left
            self._multi_edge_removals += 1
            return {"kind": "multi-edge", "changed": False, "rebuilt": False}
        mult.pop((cu, cv), None)
        changed = self._dyn.remove_edge(cu, cv)
        self._tombstoned_removals += 1
        return {"kind": "tombstoned", "changed": changed, "rebuilt": False}

    def _scc_intact(self, u: int, v: int) -> bool:
        """Whether ``u``'s SCC survives losing edge ``u -> v``.

        The component stays strongly connected iff ``u`` still reaches
        ``v`` after the removal.  Any such path stays *inside* the
        component (``v`` still reaches ``u``, so every vertex on a
        ``u``-to-``v`` path is mutually reachable with both), which
        makes this a local DFS over the component's vertices instead
        of a recondensation of the whole graph.
        """
        comp = self._cond.comp
        cid = comp[u]
        out = self._original.out_adj
        stack = [u]
        seen = {u}
        while stack:
            x = stack.pop()
            for y in out[x]:
                if comp[y] != cid or y in seen:
                    continue
                if y == v:
                    return True
                seen.add(y)
                stack.append(y)
        return False

    def _dag_multiplicity(self) -> Dict[Edge, int]:
        """Lazy ``(cu, cv) -> count`` of original edges per DAG edge."""
        if self._dag_mult is None:
            comp = self._cond.comp
            mult: Dict[Edge, int] = {}
            for x, y in self._original.edges():
                cx, cy = comp[x], comp[y]
                if cx != cy:
                    key = (cx, cy)
                    mult[key] = mult.get(key, 0) + 1
            self._dag_mult = mult
        return self._dag_mult

    def apply_ops(self, ops: Iterable) -> Dict[str, object]:
        """Apply a mixed insert/remove stream in order; batched inserts.

        ``ops`` is anything :func:`normalize_ops` accepts.  Maximal
        runs of consecutive inserts go through the batched
        :meth:`DynamicDL.insert_edges` kernel; removals flush the run
        first so stream order is preserved.  The whole stream is
        validated before any mutation (stream-atomic rejection of bad
        vertices / self-loops).
        """
        ops = normalize_ops(ops)
        for _, u, v in ops:
            self.validate_edge(u, v)
        summary: Dict[str, object] = {
            "ops": len(ops),
            "inserts": 0,
            "removals": 0,
            "changed": 0,
            "duplicate": 0,
            "noop": 0,
            "intra_scc": 0,
            "scc_merges": 0,
            "rebuilds": 0,
            "absent": 0,
            "multi_edge": 0,
            "intra_scc_removals": 0,
            "scc_splits": 0,
            "tombstoned": 0,
        }
        with self._lock:
            run: List[Edge] = []
            for op, u, v in ops:
                if op == "+":
                    run.append((u, v))
                    continue
                if run:
                    self._apply_insert_run(run, summary)
                    run = []
                info = self._remove_edge_locked(u, v)
                summary["removals"] += 1
                kind = info["kind"]
                if kind == "absent":
                    summary["absent"] += 1
                elif kind == "intra-scc":
                    summary["intra_scc_removals"] += 1
                elif kind == "multi-edge":
                    summary["multi_edge"] += 1
                elif kind == "scc-split":
                    summary["scc_splits"] += 1
                    summary["rebuilds"] += 1
                elif kind == "tombstoned":
                    summary["tombstoned"] += 1
                if info["changed"]:
                    summary["changed"] += 1
            if run:
                self._apply_insert_run(run, summary)
            summary["tombstones"] = self._dyn.tombstone_count
            summary["dirt_ratio"] = self._dyn.dirt_ratio
        return summary

    def _apply_insert_run(self, run: Sequence[Edge], summary: Dict) -> None:
        """Apply a run of inserts through the batched oracle kernel.

        All original edges are added up front; the DAG-level remainder
        goes through :meth:`DynamicDL.insert_edges` in one sweep.  A
        :class:`CycleInBatch` means some edge merges SCCs: the
        cycle-free prefix is applied batched, then one recondense of
        the original graph (which already holds the *entire* run)
        absorbs the merge edge and everything after it.
        """
        pending: List[Edge] = []
        for u, v in run:
            summary["inserts"] += 1
            if self._original.has_edge(u, v):
                self._duplicate_edges += 1
                summary["duplicate"] += 1
                continue
            self._original.add_edge(u, v)
            self._inserts += 1
            pending.append((u, v))
        if not pending:
            return
        comp = self._cond.comp
        mapped: List[Edge] = []
        for u, v in pending:
            cu, cv = comp[u], comp[v]
            if cu == cv:
                self._intra_scc += 1
                summary["intra_scc"] += 1
                continue
            mapped.append((cu, cv))
        if not mapped:
            return
        mult = self._dag_mult
        compacts0 = self._dyn.compacts
        try:
            s = self._dyn.insert_edges(mapped)
        except CycleInBatch as exc:
            prefix = mapped[: exc.index]
            if prefix:
                s = self._dyn.insert_edges(prefix)
                if mult is not None:
                    for e in prefix:
                        mult[e] = mult.get(e, 0) + 1
                self._absorb_dyn_summary(s, summary)
            # mapped[exc.index] closes a cycle at the DAG level; the
            # recondense also absorbs every edge after it (they are
            # already in the original graph).
            self._scc_merges += 1
            summary["scc_merges"] += 1
            summary["rebuilds"] += 1
            summary["changed"] += 1
            self._rebuild_pipeline()
            return
        if mult is not None:
            for e in mapped:
                mult[e] = mult.get(e, 0) + 1
        if self._dyn.compacts != compacts0:
            # A ghost-only cycle forced a compact mid-batch.
            self._compacts += 1
            summary["rebuilds"] += 1
        self._absorb_dyn_summary(s, summary)

    def _absorb_dyn_summary(self, s: Dict, summary: Dict) -> None:
        """Fold a :meth:`DynamicDL.insert_edges` summary into ours."""
        summary["changed"] += s["changed"]
        noop = s["noop"] + s["duplicate"]
        self._noop_inserts += noop
        summary["noop"] += noop
        if s["auto_rebuilt"]:
            self._auto_rebuilds += 1
            summary["rebuilds"] += 1

    def compact(self) -> Dict[str, object]:
        """Physically drop the oracle's tombstones (minimal rebuild).

        Returns ``{"dropped", "rebuilt"}``.  A no-op when there are no
        tombstones.  The live tier calls this before a full recompile
        once ``dirt_ratio`` crosses its threshold.
        """
        with self._lock:
            dropped = self._dyn.compact()
            if dropped:
                self._compacts += 1
            return {"dropped": dropped, "rebuilt": bool(dropped)}

    @property
    def dirt_ratio(self) -> float:
        """Tombstoned fraction of the oracle's ghost edge set."""
        return self._dyn.dirt_ratio

    # -- telemetry -----------------------------------------------------
    def bind_metrics(self, registry) -> None:
        """Time the compile stages into a telemetry registry.

        ``compile`` is the whole :meth:`compile_to`; ``pack`` and
        ``certs`` split it into section (re)packing vs. graph
        certificate recomputation, the two stages whose relative cost
        flips between incremental and full profiles.
        """
        self._compile_hist = registry.histogram(
            "repro_compile_seconds",
            "wall time of one compile_to (any profile)",
        )
        self._pack_hist = registry.histogram(
            "repro_compile_pack_seconds",
            "compile stage: label/tombstone section packing",
        )
        self._cert_hist = registry.histogram(
            "repro_compile_certs_seconds",
            "compile stage: height/interval certificate recomputation",
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _pack(self, name: str, data, dtype: Optional[str], dirty: bool) -> None:
        """Cache-aware :func:`pack_section` into the working section map."""
        if dirty or name not in self._sections:
            self._sections[name] = pack_section(data, dtype) if dtype else pack_section(data)
            self._sections_repacked += 1
        else:
            self._sections_reused += 1

    def compile_to(self, path, *, full: Optional[bool] = None) -> Dict[str, object]:
        """Write the current state as a pipeline artifact at ``path``.

        ``full=None`` (default) compiles fully when the out side is
        dirty (first compile, auto rebuild, SCC merge) and
        incrementally otherwise; ``full=True`` forces the full profile
        (all sections repacked, interval certificates included).
        Returns ``{"bytes", "full", "sections_reused",
        "sections_repacked", "compile_s"}``.
        """
        t0 = time.perf_counter()
        with self._lock:
            dyn = self._dyn
            labels = dyn.labels
            np = numpy_or_none()
            # None: the oracle's labels were (re)built since the last
            # publish — first compile, bloat rebuild, compact, SCC merge
            # or split — so both sides changed in every row, whatever
            # profile was requested.
            touched = dyn.drain_touched()
            lin_rows, out_rows = touched or ((), ())
            do_full = bool(full) or touched is None
            reused0, repacked0 = self._sections_reused, self._sections_repacked
            t_pack0 = time.perf_counter()

            self._pack("comp", self._cond.comp, None, do_full)
            if do_full:
                out_hops, out_offs = _flatten_rows(np, labels.lout)
                self._pack("inner/out_hops", out_hops, None, True)
                self._pack("inner/out_offs", out_offs, "<i8", True)
            else:
                self._sections_reused += 2
            self._pack("inner/hop_vertex", dyn.order_list, None, do_full)
            lin = labels.lin
            if do_full or (lin_rows and np is None):
                self._in_arena = _flatten_rows(np, lin)
            elif lin_rows:
                rows = sorted(lin_rows)
                self._in_arena = _splice_rows(
                    np, *self._in_arena, rows, [lin[y] for y in rows]
                )
            in_dirty = do_full or bool(lin_rows)
            self._pack("inner/in_hops", self._in_arena[0], None, in_dirty)
            self._pack("inner/in_offs", self._in_arena[1], "<i8", in_dirty)

            # Tombstone sections (optional): the serving side needs the
            # removed DAG edges plus a live (tombstone-free) forward CSR
            # to demote suspect label positives to exact live answers.
            # Every change to either — a tombstone set or cleared, an
            # edge added beside existing tombstones — touches an out row.
            if not dyn.tombstone_count:
                self._live_csr = None
                for name in _TOMB_SECTIONS:
                    self._sections.pop(name, None)
            elif out_rows or do_full or self._live_csr is None:
                if do_full or np is None or self._live_csr is None:
                    self._live_csr = _flatten_rows(np, dyn.live_out_adj())
                else:
                    rows = sorted(out_rows)
                    out_adj = dyn.graph.out_adj
                    self._live_csr = _splice_rows(
                        np,
                        *self._live_csr,
                        rows,
                        [
                            [x for x in out_adj[w] if not dyn.is_tombstoned(w, x)]
                            for w in rows
                        ],
                    )
                live_tgts, live_offs = self._live_csr
                tombs = dyn.tombstones
                self._pack("inner/tomb_u", [e[0] for e in tombs], None, True)
                self._pack("inner/tomb_v", [e[1] for e in tombs], None, True)
                self._pack("inner/live_offs", live_offs, "<i8", True)
                self._pack("inner/live_tgts", live_tgts, None, True)
            else:
                self._sections_reused += 4

            # Graph certificates: the height filter must match the
            # *current* graph on every publish (the oracle maintains
            # it); the interval rounds are full-compile-only (see the
            # module docstring).
            t_cert0 = time.perf_counter()
            rounds: List[Tuple[object, object]] = []
            if do_full:
                from ..kernels.batchquery import compile_graph_aux

                _, rounds = compile_graph_aux(dyn.graph, dyn.heights)
            stale_rounds = [
                name for name in self._sections if name.startswith("inner/iv_")
            ]
            for name in stale_rounds:
                del self._sections[name]
            self._sections["inner/height"] = pack_section(dyn.heights)
            self._sections_repacked += 1
            for i, (low, post) in enumerate(rounds):
                self._sections[f"inner/iv_low_{i}"] = pack_section(low)
                self._sections[f"inner/iv_post_{i}"] = pack_section(post)
                self._sections_repacked += 2
            t_cert1 = time.perf_counter()

            meta = {
                "original_n": self._original.n,
                "original_m": self._original.m,
                "dag_n": self._cond.dag.n,
                "dag_m": dyn.m,
                "method": "DL",
                "live": {
                    "inserts": self._inserts,
                    "removals": self._removals,
                    "tombstones": dyn.tombstone_count,
                    "full_compile": do_full,
                },
                "inner": {
                    "kind": "labels",
                    "meta": {
                        "method": "DL",
                        "n": dyn.n,
                        "params": {"order": self._order},
                        "rank_space": True,
                        "reflexive": False,
                        "rounds": len(rounds),
                    },
                },
            }
            from ..serialization import PIPELINE_KIND

            nbytes = write_artifact(path, PIPELINE_KIND, meta, dict(self._sections))
            if do_full:
                self._full_compiles += 1
            else:
                self._incremental_compiles += 1
            compile_s = time.perf_counter() - t0
            if self._compile_hist is not None:
                self._compile_hist.observe_s(compile_s)
                self._pack_hist.observe_s(t_cert0 - t_pack0)
                self._cert_hist.observe_s(t_cert1 - t_cert0)
            return {
                "bytes": nbytes,
                "full": do_full,
                "sections_reused": self._sections_reused - reused0,
                "sections_repacked": self._sections_repacked - repacked0,
                "compile_s": compile_s,
            }

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "n": self._original.n,
                "m": self._original.m,
                "dag_n": self._cond.dag.n,
                "inserts": self._inserts,
                "intra_scc_edges": self._intra_scc,
                "noop_inserts": self._noop_inserts,
                "duplicate_edges": self._duplicate_edges,
                "auto_rebuilds": self._auto_rebuilds,
                "scc_merges": self._scc_merges,
                "removals": self._removals,
                "absent_removals": self._absent_removals,
                "intra_scc_removals": self._intra_scc_removals,
                "multi_edge_removals": self._multi_edge_removals,
                "tombstoned_removals": self._tombstoned_removals,
                "scc_splits": self._scc_splits,
                "compacts": self._compacts,
                "tombstones": self._dyn.tombstone_count,
                "dirt_ratio": self._dyn.dirt_ratio,
                "full_compiles": self._full_compiles,
                "incremental_compiles": self._incremental_compiles,
                "sections_reused": self._sections_reused,
                "sections_repacked": self._sections_repacked,
                "index_size_ints": self._dyn.index_size_ints(),
                "oracle": self._dyn.stats(),
            }

    def __repr__(self) -> str:
        return (
            f"IncrementalCompiler(n={self._original.n}, m={self._original.m}, "
            f"inserts={self._inserts})"
        )
