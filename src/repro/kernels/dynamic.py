"""Batched update kernels for the dynamic DL oracle.

:class:`repro.core.dynamic.DynamicDL` historically applied an edge
stream one edge at a time: a label-space cycle check, then a descendant
flood merging ``Lin(u) ∪ {rank(u)}`` into every descendant of ``v``.
BENCH_live.json pins ~85% of a 50-edge live update on that pure-Python
loop.  This module batches the whole stream into three array passes:

1. **Classification** (:func:`classify_batch`) — every edge is judged
   against the closure of the *pre-batch* labels plus the batch edges
   accepted so far, restricted to the ≤ 2·B batch endpoints (exact: any
   path through batch edges decomposes into old-graph segments between
   endpoints, and the old labels certify those).  Each edge comes out
   ``duplicate`` / ``noop`` (already reachable) / ``novel``, or the
   whole batch is rejected with :class:`CycleInBatch` before anything
   is applied — batch inserts are stream-atomic.
2. **One multi-source flood** (:func:`flood_batch_numpy` /
   :func:`flood_batch_python`) — instead of one BFS per novel edge, a
   single sweep over the union of the descendant cones.  Each cone
   vertex accumulates a chunked-uint64 bitset of *which* batch sources
   reach it, propagated level-by-level in topological (height) order
   through segmented gathers over the cone's own sub-CSR.  Nothing is
   sized by the graph: a 5-edge batch whose cone is 200 vertices costs
   200 rows of work on a 20 000-vertex DAG.
3. **Vectorized write-back** — cone vertices are grouped by bitset
   pattern; each pattern's label delta is built once (a sorted union of
   the relevant per-edge additions) and merged into every member's
   ``Lin`` with one sorted-unique pass over ``cone_id·n + hop`` keys.

Why pre-batch additions suffice (the confluence argument): let
``B_j = Lin_old(u_j) ∪ {rank(u_j)}`` for novel edge ``j``.  Sequential
insertion floods, for edge ``j``, the *current* ``Lin(u_j)`` — which by
induction equals ``B_j ∪ ⋃{B_i : v_i ⇝ u_j so far}``.  Every such
``B_i`` also lands on all ``y ∈ desc(v_j)`` via edge ``i``'s own cone
in the final graph (``v_i ⇝ u_j → v_j ⇝ y``), so the sequential
fixpoint is exactly ``Lin_old(y) ∪ ⋃{B_j : v_j ⇝ y in the final
graph}`` — which is what the batched sweep computes.  The two paths are
therefore bit-identical (property-tested in
``tests/kernels/test_dynamic_batch.py``).

The module also hosts :class:`TombstoneFilter`, the query-time
correction stage for decremental updates: labels stay exact for the
*ghost* graph (removed edges kept), and a positive label answer is
demoted to an exact live BFS only when some tombstone could explain it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import numpy_or_none

__all__ = [
    "CycleInBatch",
    "merge_sorted",
    "classify_batch",
    "flood_batch_python",
    "flood_batch_numpy",
    "TombstoneFilter",
]


class CycleInBatch(ValueError):
    """Edge ``index`` of the batch would close a cycle.

    Subclasses ``ValueError`` so callers of the sequential path keep
    working unchanged.  Nothing from the batch has been applied when
    this is raised — the caller may retry the prefix ``edges[:index]``
    and handle the offending edge separately (the incremental compiler
    turns it into an SCC merge).
    """

    def __init__(self, index: int, edge: Tuple[int, int]) -> None:
        u, v = edge
        super().__init__(
            f"inserting {u}->{v} (edge {index} of the batch) would create a cycle"
        )
        self.index = index
        self.edge = edge


def merge_sorted(target: Sequence[int], extra: Sequence[int]) -> List[int]:
    """Sorted union of two sorted unique int sequences (a new list)."""
    out: List[int] = []
    i = j = 0
    ni, nj = len(target), len(extra)
    while i < ni and j < nj:
        a, b = target[i], extra[j]
        if a == b:
            out.append(a)
            i += 1
            j += 1
        elif a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
    out.extend(target[i:])
    out.extend(extra[j:])
    return out


# ----------------------------------------------------------------------
# Stage 1: batch classification via the endpoint contact closure
# ----------------------------------------------------------------------
#: Endpoint-pair counts at or above this consider the vectorized batch
#: query engine for the closure seed; below it scalar queries win.
_CLOSURE_ENGINE_MIN = 4096

#: Endpoint counts at or above this use the compressed-universe bitset
#: seed (NumPy); below it the per-pair scalar loop's setup-free path is
#: already fast enough.
_CLOSURE_BITSET_MIN = 8


def _endpoint_bitset_seed(labels, verts: List[int], np):
    """``verts × verts`` label reachability via compressed hop bitsets.

    The batch engine hashes EVERY vertex's labels (cost ~ total label
    mass), which swamps a small batch on a large graph.  Here only the
    ``k`` endpoint labels are touched: their hop values are remapped
    onto a dense universe (``np.unique``), each Lout/Lin becomes a row
    of ``uint64`` words, and a pair is reachable iff its rows
    intersect — exactly ``Lout(u) ∩ Lin(v) ≠ ∅``.
    """
    k = len(verts)
    lout, lin = labels.lout, labels.lin
    out_rows = [lout[x] for x in verts]
    in_rows = [lin[x] for x in verts]
    flat = [h for row in out_rows for h in row]
    n_out = len(flat)
    flat += [h for row in in_rows for h in row]
    if not flat:
        return np.zeros(k * k, dtype=bool)
    uniq, inv = np.unique(np.asarray(flat, dtype=np.int64), return_inverse=True)
    inv = inv.reshape(-1)
    words = (len(uniq) + 63) >> 6
    out_bits = np.zeros((k, words), dtype=np.uint64)
    in_bits = np.zeros((k, words), dtype=np.uint64)
    one = np.uint64(1)
    for bits, rows, ids in (
        (out_bits, out_rows, inv[:n_out]),
        (in_bits, in_rows, inv[n_out:]),
    ):
        lens = np.fromiter((len(r) for r in rows), dtype=np.int64, count=k)
        owner = np.repeat(np.arange(k), lens)
        np.bitwise_or.at(
            bits,
            (owner, ids >> 6),
            one << (ids & 63).astype(np.uint64),
        )
    if k * k * words <= (1 << 23):
        # One broadcast (≤64 MiB temp): a single kernel call, which
        # matters under serving load where every GIL round trip can
        # cost a scheduler quantum.
        reach = (out_bits[:, None, :] & in_bits[None, :, :]).any(axis=2)
    else:
        reach = np.zeros((k, k), dtype=bool)
        for i in range(k):  # row blocks keep the temp at O(k·words)
            reach[i] = (out_bits[i] & in_bits).any(axis=1)
    return reach.reshape(-1)


def _contact_closure_seed(labels, verts: List[int], np):
    """Reachability over ``verts × verts`` in pre-batch label space.

    Returns a flat list/array of ``k·k`` booleans (row-major); the
    caller forces the diagonal True (reflexive reachability, as the
    oracle's ``query`` defines it).  Three gears, by shape: the batch
    engine only when the pair count rivals the graph size its build
    cost scales with, the endpoint bitset for everything NumPy-sized
    below that, scalar queries for tiny batches.
    """
    k = len(verts)
    if np is not None and k * k >= max(_CLOSURE_ENGINE_MIN, labels.n):
        from .batchquery import engine_query_batch

        class _Holder:  # engine cache scope = this one classification
            pass

        pairs = [(a, b) for a in verts for b in verts]
        return engine_query_batch(_Holder(), labels, None, pairs)
    if np is not None and k >= _CLOSURE_BITSET_MIN:
        return _endpoint_bitset_seed(labels, verts, np)
    return labels.query_batch([(a, b) for a in verts for b in verts])


def classify_batch(
    edges: Sequence[Tuple[int, int]],
    labels,
    has_edge: Callable[[int, int], bool],
    np=None,
) -> Tuple[List[str], List[int]]:
    """Classify an insert stream without touching any state.

    ``labels`` is the pre-batch :class:`~repro.core.labels.LabelSet`
    (rank space; exact for the oracle's current ghost graph) and
    ``has_edge`` the membership test of that graph.  Returns
    ``(kinds, novel_indices)`` where ``kinds[i]`` is one of
    ``"duplicate"`` / ``"noop"`` / ``"novel"``, mirroring what the
    sequential path would decide edge by edge.  Raises
    :class:`CycleInBatch` on the first edge (in stream order) that
    would close a cycle, and plain ``ValueError`` on a self-loop —
    in both cases before the caller applies anything.
    """
    verts = sorted({x for e in edges for x in e})
    idx = {v: i for i, v in enumerate(verts)}
    k = len(verts)
    seed = _contact_closure_seed(labels, verts, np)

    kinds: List[str] = []
    novel: List[int] = []
    seen_batch = set()
    if np is not None:
        reach = np.asarray(seed, dtype=bool).reshape(k, k)
        diag = np.arange(k)
        reach[diag, diag] = True
        for t, (u, v) in enumerate(edges):
            if u == v:
                raise ValueError("self-loops are not allowed in a DAG oracle")
            iu, iv = idx[u], idx[v]
            if reach[iv, iu]:
                raise CycleInBatch(t, (u, v))
            if has_edge(u, v) or (u, v) in seen_batch:
                kinds.append("duplicate")
                continue
            seen_batch.add((u, v))
            if reach[iu, iv]:
                kinds.append("noop")
                continue
            kinds.append("novel")
            novel.append(t)
            # Close the contact graph over the new edge: everything
            # reaching u now reaches everything v reaches.
            reach[reach[:, iu]] |= reach[iv]
    else:
        rows = [0] * k
        pos = 0
        for i in range(k):
            m = 0
            for j in range(k):
                if seed[pos]:
                    m |= 1 << j
                pos += 1
            rows[i] = m | (1 << i)
        for t, (u, v) in enumerate(edges):
            if u == v:
                raise ValueError("self-loops are not allowed in a DAG oracle")
            iu, iv = idx[u], idx[v]
            if (rows[iv] >> iu) & 1:
                raise CycleInBatch(t, (u, v))
            if has_edge(u, v) or (u, v) in seen_batch:
                kinds.append("duplicate")
                continue
            seen_batch.add((u, v))
            if (rows[iu] >> iv) & 1:
                kinds.append("noop")
                continue
            kinds.append("novel")
            novel.append(t)
            riv = rows[iv]
            bit = 1 << iu
            for a in range(k):
                if rows[a] & bit:
                    rows[a] |= riv
    return kinds, novel


# ----------------------------------------------------------------------
# Stages 2+3, scalar twin: cone Kahn sweep + per-pattern merges
# ----------------------------------------------------------------------
def _descendant_cone(out_adj, sources: Iterable[int]) -> List[int]:
    """The sources and everything they reach, each vertex once."""
    cone = list(dict.fromkeys(sources))
    seen = set(cone)
    for w in cone:  # grows while iterated: a BFS queue
        for x in out_adj[w]:
            if x not in seen:
                seen.add(x)
                cone.append(x)
    return cone


def flood_batch_python(
    out_adj: Sequence[Sequence[int]],
    novel_edges: Sequence[Tuple[int, int]],
    additions: Sequence[List[int]],
    add_masks: Sequence[int],
    labels,
) -> Dict[str, object]:
    """Apply all novel-edge label deltas in one scalar sweep.

    The graph behind ``out_adj`` must already contain every batch edge.
    ``additions[j]`` / ``add_masks[j]`` are the pre-batch
    ``Lin_old(u_j) ∪ {rank(u_j)}`` list and its bigint mask.  Bitsets
    over batch indices are Python bigints; propagation runs in Kahn
    (topological) order over the cone subgraph, so each vertex's source
    set is final when its out-edges are expanded.  Besides the sweep
    counters the result reports ``touched`` (the cone: every row whose
    ``Lin`` may have changed) and ``ints_added`` (net label growth).
    """
    lin = labels.lin
    source_bits: Dict[int, int] = {}
    for j, (_, v) in enumerate(novel_edges):
        source_bits[v] = source_bits.get(v, 0) | (1 << j)

    cone = _descendant_cone(out_adj, source_bits)

    # Kahn order restricted to the cone (every out-neighbour of a cone
    # vertex is itself in the cone, so in-degrees need no membership
    # filter).
    indeg = dict.fromkeys(cone, 0)
    for w in cone:
        for x in out_adj[w]:
            indeg[x] += 1
    order = [w for w in cone if indeg[w] == 0]
    qi = 0
    while qi < len(order):
        w = order[qi]
        qi += 1
        sw = source_bits.get(w, 0)
        for x in out_adj[w]:
            if sw:
                source_bits[x] = source_bits.get(x, 0) | sw
            indeg[x] -= 1
            if indeg[x] == 0:
                order.append(x)

    # Group cone vertices by source pattern; build each pattern's delta
    # once, then merge it into every member.
    groups: Dict[int, List[int]] = {}
    for w in cone:
        groups.setdefault(source_bits[w], []).append(w)
    ints_added = 0
    for pattern, members in groups.items():
        delta: Optional[List[int]] = None
        mask = 0
        p = pattern
        while p:
            j = (p & -p).bit_length() - 1
            p &= p - 1
            delta = additions[j] if delta is None else merge_sorted(delta, additions[j])
            mask |= add_masks[j]
        for w in members:
            merged = merge_sorted(lin[w], delta)
            ints_added += len(merged) - len(lin[w])
            lin[w] = merged
            labels.or_in_mask(w, mask)
    return {
        "frontier_vertices": len(cone),
        "labels_merged": len(cone),
        "patterns": len(groups),
        "touched": cone,
        "ints_added": ints_added,
    }


# ----------------------------------------------------------------------
# Stages 2+3, NumPy: segmented gathers + one sorted-unique pass, all
# over the cone alone
# ----------------------------------------------------------------------
def flood_batch_numpy(
    np,
    out_adj: Sequence[Sequence[int]],
    heights: Sequence[int],
    novel_edges: Sequence[Tuple[int, int]],
    additions: Sequence[List[int]],
    add_masks: Sequence[int],
    labels,
) -> Dict[str, object]:
    """Vectorized twin of :func:`flood_batch_python` (same final labels).

    Every array is sized by the descendant cone of the batch, never by
    the graph: the cone is discovered over the adjacency lists, its
    sub-CSR and a ``(cone, words)`` source bitset are built in cone-local
    ids, the topological level order comes from ``heights`` (which the
    caller maintains for the post-batch graph), and one ``np.unique``
    union keyed on ``local_id·n + hop`` writes the rows back.
    """
    from itertools import chain

    from .frontier import segmented_gather

    n = labels.n
    cone = sorted(_descendant_cone(out_adj, (v for _, v in novel_edges)))
    size = len(cone)
    cids = np.fromiter(cone, dtype=np.int64, count=size)
    # Out-neighbours of a cone vertex are in the cone, so the sub-CSR
    # keeps every edge; searchsorted renames targets to local ids.
    offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter((len(out_adj[y]) for y in cone), dtype=np.int64, count=size),
        out=offsets[1:],
    )
    targets = np.searchsorted(
        cids,
        np.fromiter(
            chain.from_iterable(out_adj[y] for y in cone),
            dtype=np.int64,
            count=int(offsets[-1]),
        ),
    )

    k = len(novel_edges)
    words = (k + 63) >> 6
    source_bits = np.zeros((size, words), dtype=np.uint64)
    srcs = np.searchsorted(
        cids, np.fromiter((v for _, v in novel_edges), dtype=np.int64, count=k)
    )
    js = np.arange(k, dtype=np.int64)
    np.bitwise_or.at(
        source_bits.reshape(-1),
        srcs * words + (js >> 6),
        np.uint64(1) << (js & 63).astype(np.uint64),
    )

    # Propagate source bitsets level-synchronously in descending height
    # order: every edge drops strictly in height, so a level's incoming
    # bits are final before its out-edges are expanded.
    hs = np.fromiter((heights[y] for y in cone), dtype=np.int64, count=size)
    by_level = np.argsort(-hs, kind="stable")
    hs = hs[by_level]
    bounds = np.flatnonzero(hs[1:] != hs[:-1]) + 1
    start = 0
    for stop in bounds.tolist() + [size]:
        level = by_level[start:stop]
        start = stop
        seg, vals = segmented_gather(offsets, targets, level)
        if len(vals):
            np.bitwise_or.at(source_bits, vals, source_bits[level[seg]])

    # Group by pattern; build one delta (and one bigint mask) per group.
    patterns, inv = np.unique(source_bits, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    pattern_bits = np.unpackbits(
        patterns.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little"
    )[:, :k]
    add_arrs = [np.asarray(a, dtype=np.int64) for a in additions]
    deltas: List = []
    masks: List[int] = []
    for p in range(len(patterns)):
        members = np.flatnonzero(pattern_bits[p])
        if len(members) == 1:
            delta = add_arrs[int(members[0])]
        else:
            delta = np.unique(np.concatenate([add_arrs[int(j)] for j in members]))
        deltas.append(delta)
        mask = 0
        for j in members.tolist():
            mask |= add_masks[j]
        masks.append(mask)

    # One sorted-unique union over (local id, hop) keys.
    lin = labels.lin
    counts = np.fromiter((len(lin[y]) for y in cone), dtype=np.int64, count=size)
    total_old = int(counts.sum())
    old_hops = np.fromiter(
        chain.from_iterable(lin[y] for y in cone), dtype=np.int64, count=total_old
    )
    local = np.arange(size, dtype=np.int64)
    key_parts = [np.repeat(local, counts) * n + old_hops]
    for p in range(len(patterns)):
        ys = local[inv == p]
        dlt = deltas[p]
        key_parts.append((np.repeat(ys, len(dlt)) * n) + np.tile(dlt, len(ys)))
    keys = np.unique(np.concatenate(key_parts))
    cuts = np.searchsorted(keys, np.arange(size + 1, dtype=np.int64) * n).tolist()
    hops = keys % n
    for i, y in enumerate(cone):
        lin[y] = hops[cuts[i] : cuts[i + 1]].tolist()
    for w, p in zip(cone, inv.tolist()):
        labels.or_in_mask(w, masks[p])
    return {
        "frontier_vertices": size,
        "labels_merged": size,
        "patterns": int(len(patterns)),
        "touched": cone,
        "ints_added": int(len(keys)) - total_old,
    }


# ----------------------------------------------------------------------
# Decremental updates: the query-time tombstone filter
# ----------------------------------------------------------------------
class TombstoneFilter:
    """Restore exactness of label answers over tombstoned edges.

    After a deletion the labels stay exact for the *ghost* graph (the
    one still containing every removed edge), which over-approximates
    live reachability.  A positive label answer for ``(u, v)`` can only
    be wrong if some removed edge ``(x, y)`` could sit on a ``u → v``
    path — i.e. ``u ⇝ x`` and ``y ⇝ v`` in ghost (label) space.  Pairs
    with no such *suspect* tombstone keep their label answer; suspect
    pairs fall back to an exact BFS over the live adjacency, pruned by
    the ghost reachability (live paths are a subset of ghost paths).

    ``reach(a, b)`` must be reflexive ghost reachability;
    ``neighbors(w)`` must yield live out-neighbours only (tombstoned
    edges excluded).  Every tombstone stays in the filter even when it
    looks redundant — an edge made redundant by a parallel path can
    become load-bearing again after a later removal.
    """

    __slots__ = ("tombs", "reach", "neighbors")

    def __init__(
        self,
        tombs: Iterable[Tuple[int, int]],
        reach: Callable[[int, int], bool],
        neighbors: Callable[[int], Iterable[int]],
    ) -> None:
        self.tombs = list(tombs)
        self.reach = reach
        self.neighbors = neighbors

    def __len__(self) -> int:
        return len(self.tombs)

    def suspect(self, u: int, v: int) -> bool:
        """Whether any tombstone could explain a false positive."""
        reach = self.reach
        for x, y in self.tombs:
            if reach(u, x) and reach(y, v):
                return True
        return False

    def verify(self, u: int, v: int) -> bool:
        """Exact live reachability by ghost-pruned DFS."""
        if u == v:
            return True
        reach = self.reach
        neighbors = self.neighbors
        seen = {u}
        stack = [u]
        while stack:
            w = stack.pop()
            for x in neighbors(w):
                if x == v:
                    return True
                if x not in seen and reach(x, v):
                    seen.add(x)
                    stack.append(x)
        return False

    def check(self, u: int, v: int) -> bool:
        """Correct one *positive* label answer."""
        if not self.tombs or not self.suspect(u, v):
            return True
        return self.verify(u, v)
