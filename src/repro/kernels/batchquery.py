"""Staged vectorized batch query engine for sealed hop labels.

The scalar batch path costs a few hundred nanoseconds per pair on the
bigint-mask layout (growing with the mask word count) and 0.4-4 µs per
pair on the arena/hybrid layout that large or sparse graphs use (``n``
above the mask limit, or density below the mask floor).  This engine
replaces both for large batches with a ladder of exact vectorized
stages, each either *certifying* some pairs (positively or negatively)
or passing them on:

1. **reflexive** — ``u == v`` answered by the scalar label test (never
   assumed true: the engine must equal ``LabelSet.query_batch`` bit for
   bit on any labels).
2. **height filter** (graph-backed) — ``height(u) <= height(v)``
   certifies non-reachability.
3. **range certificates** — per-vertex ``[min_hop, max_hop]`` rows:
   disjoint hop ranges certify negatives (this alone kills most
   negatives on every benchmark family), equal minima or maxima
   certify positives.
3b. **head bitset** — 128 bits of low hop ids per vertex, one AND over
   the survivors certifies positives.  Sample-gated: hub-concentrated
   labelings resolve most positives here, spread-out ones skip it.
4. **interval filter** (graph-backed) — GRAIL-style containment over
   the sort-based rounds of :mod:`repro.kernels.grail`; violated
   containment certifies negatives.  Sample-gated: on dense
   reachability structures it filters nothing and would be pure
   overhead.
5. **tier-2 bitset** — chunks 2..15 of the hop space (hops 128-1023) as
   a second positive certificate, sample-gated, for survivors only.
6. **residual** — the undecided rest, by exact label intersection:
   a scalar loop for tiny counts; otherwise each pair expands its
   *smaller* label and probes the other side's ``(vertex, hop)``
   membership through an open-addressing hash table (one gather per
   element in the common case — binary search pays ~log(len) gathers).
   When the packed keys overflow int32 the probe falls back to a
   lock-step binary search of the arena slices.

Every stage is exact, so stage and strategy selection can never change
answers — only timings.  Thresholds were tuned with
``benchmarks/bench_kernels.py`` (see ``BENCH_kernels.json``) and the
committed ``BENCH_vectorized_*.json`` artifacts.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import List

from . import numpy_or_none

__all__ = ["BatchQueryEngine", "engine_query_batch", "compile_graph_aux"]

#: Below this many pairs the fixed cost of array conversion and stage
#: dispatch outweighs the vectorized inner loops; callers keep the
#: scalar path.
_MIN_BATCH = 4096

#: Bigint-mask-sealed labels only switch to the engine at this many
#: vertices: below it one C-level AND per pair is already optimal (the
#: ``engine_vs_masks`` sweep crosses between n=2048 and n=4096).
_MASK_LABELS_MIN_N = 4096

#: Head bitset: 2 uint64 words per vertex = hop ids below 128.
_HEAD_CHUNKS = 2
#: Tier-2 bitset: chunks 2..15 = hop ids 128..1023.
_TIER2_CHUNKS = 14
_TIER2_BASE = _HEAD_CHUNKS * 64

#: Interval rounds built for the negative filter.  Five rounds: each
#: surviving-pair test is two gathers, and on the dense families the
#: extra rounds keep shaving pairs off the (much more expensive)
#: residual stage.
_IV_ROUNDS = 5

#: Sample size for the per-workload stage decisions.
_SAMPLE = 512

#: Minimum sampled kill rate for the interval filter to run in full.
_IV_MIN_KILL = 0.10

#: Minimum sampled decisiveness (certified fraction) for the height and
#: range stages to run in full — all-positive workloads skip both.
_STAGE_MIN_DECIDE = 0.05

#: Minimum sampled hit rate for the head bitset to run in full; below
#: it the batch goes straight to the residual (labelings whose common
#: hops are spread across the rank space gain nothing from bitsets).
_HEAD_MIN_HIT = 0.05

#: Minimum sampled hit rate for the tier-2 bitset to run in full: the
#: full gather costs ~0.2 ms per 1000 undecided pairs, so a marginal
#: hit rate loses to just running the residual on those pairs.
_TIER2_MIN_HIT = 0.25

#: Residual counts at or below this go through the scalar loop (per
#: pair ~1 µs) instead of the vectorized paths (fixed ~0.4 ms).
_SCALAR_RESIDUAL = 512

#: Hash-probe membership tables pack ``vertex * n + hop`` into int32 —
#: usable while n² fits a signed 32-bit key.
_HASH_MAX_N = 46340

#: Early-exit probing: the first columns of each pair's smaller label
#: are probed one at a time (positives usually resolve within a couple
#: of hops); pairs still undecided after this many columns fall through
#: to one batched probe of their remaining elements.
_EARLY_COLUMNS = 4
#: Column 0 is always probed alone; further per-column rounds only pay
#: when they actually retire pairs, so they require this hit rate.
_EARLY_MIN_HIT = 0.2

_BIG = 1 << 60


class BatchQueryEngine:
    """Immutable query accelerator snapshot of one sealed ``LabelSet``.

    Build cost is one pass over the labels plus (when ``graph`` is
    given) heights and ``_IV_ROUNDS`` interval rounds — amortized over
    every subsequent batch.  The engine snapshots the arena, so it must
    be discarded when the labels are resealed or mutated; ``stale()``
    checks the :class:`LabelSet` mutation generation.
    """

    MIN_BATCH = _MIN_BATCH

    def __init__(self, np, labels, graph=None, aux=None) -> None:
        self.np = np
        self.labels = labels
        self.generation = labels.generation
        n = labels.n
        self.n = n
        oh, oo, ih, io = labels.arena()
        # Offsets must be int64 for the index arithmetic below;
        # ``astype(copy=False)`` keeps artifact-loaded int64 mmaps
        # zero-copy and upcasts everything else (n+1 entries — tiny).
        self.OO = self._offsets_np(oo)
        self.IO = self._offsets_np(io)
        # Hop arenas: mmap-backed ndarrays are used in place (residual
        # probes gather from them directly, any int dtype works), while
        # ``array('l')`` arenas from live builds get the historical
        # int32 copy — residual probes are memory bound and hop ids
        # always fit (they index vertices/ranks).
        self.OH = self._hops_np(oh)
        self.IH = self._hops_np(ih)

        # Per-side empty-label sentinels must never collide across
        # sides: an empty label has to certify *negative* through range
        # disjointness, and equal sentinels would satisfy the positive
        # min/max-equality test first.
        self.range_out = self._minmax(self.OH, self.OO, _BIG, -1)
        self.range_in = self._minmax(self.IH, self.IO, _BIG - 1, -2)
        self.head_out = self._bitset(self.OH, self.OO, 0, _HEAD_CHUNKS)
        self.head_in = self._bitset(self.IH, self.IO, 0, _HEAD_CHUNKS)
        self.tier2_out = self._bitset(self.OH, self.OO, _TIER2_BASE, _TIER2_CHUNKS)
        self.tier2_in = self._bitset(self.IH, self.IO, _TIER2_BASE, _TIER2_CHUNKS)
        self._hash_tables = {}  # side -> (table, bits), built lazily

        self.height = None
        self.rounds = []
        if aux is not None:
            # Precompiled height/interval certificates (artifact serve
            # path — no graph in memory): adopt the flat arrays as-is.
            height, rounds = aux
            if height is not None and len(height) == n:
                self.height = np.asarray(height)
            for low, post in rounds or ():
                self.rounds.append((np.asarray(low), np.asarray(post)))
        elif graph is not None and graph.n == n:
            try:
                self._build_graph_aux(graph)
            except ValueError:
                # Cyclic input: no topological aux; label stages still apply.
                self.height = None
                self.rounds = []

    # ------------------------------------------------------------------
    # Build helpers
    # ------------------------------------------------------------------
    def _offsets_np(self, offs):
        np = self.np
        if isinstance(offs, np.ndarray):
            return offs.astype(np.int64, copy=False)
        return np.frombuffer(offs, dtype=np.dtype(f"i{offs.itemsize}")).astype(
            np.int64
        )

    def _hops_np(self, hops):
        np = self.np
        if isinstance(hops, np.ndarray):
            return hops
        if not len(hops):
            return np.empty(0, np.int32)
        # The arena is array('l'): derive the dtype from the platform
        # item size (4 bytes on LLP64 Windows), as CSRView.as_numpy does.
        return np.frombuffer(hops, dtype=np.dtype(f"i{hops.itemsize}")).astype(
            np.int32
        )

    def _minmax(self, hops, offs, empty_min: int, empty_max: int):
        """Per-vertex ``[min, max]`` rows with the side's empty sentinels."""
        np = self.np
        sig = np.empty((self.n, 2), dtype=np.int64)
        lo = offs[:-1]
        hi = offs[1:]
        empty = lo == hi
        if len(hops):
            sig[:, 0] = np.where(empty, empty_min, hops[np.minimum(lo, len(hops) - 1)])
            sig[:, 1] = np.where(empty, empty_max, hops[np.maximum(hi - 1, 0)])
        else:
            sig[:, 0] = empty_min
            sig[:, 1] = empty_max
        return sig

    def _bitset(self, hops, offs, base: int, chunks: int):
        """``(n, chunks)`` bit rows over hop ids ``[base, base + 64·chunks)``."""
        np = self.np
        mask = np.zeros((self.n, chunks), dtype=np.int64)
        if len(hops):
            sel = (hops >= base) & (hops < base + chunks * 64)
            if sel.any():
                rows = np.repeat(
                    np.arange(self.n, dtype=np.int64), offs[1:] - offs[:-1]
                )[sel]
                vals = hops[sel].astype(np.int64) - base
                np.bitwise_or.at(
                    mask.reshape(-1),
                    rows * chunks + (vals >> 6),
                    np.int64(1) << (vals & 63),
                )
        return mask

    def _build_graph_aux(self, graph) -> None:
        np = self.np
        from .frontier import HeightLevels, compute_heights_numpy
        from .grail import interval_rounds_numpy

        csr_np = graph.csr().as_numpy()
        height = compute_heights_numpy(np, csr_np)
        self.height = height
        levels = HeightLevels(height)
        rng = random.Random(0x9E3779B1)
        self.rounds = [
            (np.asarray(low, dtype=np.int64), np.asarray(post, dtype=np.int64))
            for low, post in interval_rounds_numpy(
                np, csr_np, levels, rng, _IV_ROUNDS
            )
        ]

    # ------------------------------------------------------------------
    def stale(self, labels) -> bool:
        return labels is not self.labels or labels.generation != self.generation

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    @staticmethod
    def as_pair_arrays(np, pairs):
        """``(u, v)`` int64 arrays from a pair list or ``(P, 2)`` array."""
        if isinstance(pairs, np.ndarray):
            arr = np.ascontiguousarray(pairs, dtype=np.int64)
            return arr[:, 0].copy(), arr[:, 1].copy()
        flat = np.fromiter(
            chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs)
        )
        return flat[0::2].copy(), flat[1::2].copy()

    def query_batch(self, pairs) -> List[bool]:
        np = self.np
        u, v = self.as_pair_arrays(np, pairs)
        res = np.zeros(len(u), dtype=bool)
        query = self.labels.query

        # Stage 1: reflexive pairs via the scalar label test.
        eq = np.nonzero(u == v)[0]
        if len(eq):
            for i, x in zip(eq.tolist(), u[eq].tolist()):
                res[i] = query(x, x)
        alive = np.nonzero(u != v)[0]

        # Stage 2: height filter (sample-gated).
        if self.height is not None and len(alive):
            sample = alive[:_SAMPLE]
            keep = self.height[u[sample]] > self.height[v[sample]]
            if 1.0 - keep.sum() / len(sample) >= _STAGE_MIN_DECIDE:
                if len(sample) == len(alive):
                    alive = alive[keep]
                else:
                    alive = alive[self.height[u[alive]] > self.height[v[alive]]]

        # Stage 3: range certificates (sample-gated).
        if len(alive):
            sample = alive[:_SAMPLE]
            so = self.range_out[u[sample]]
            si = self.range_in[v[sample]]
            positive = (so[:, 0] == si[:, 0]) | (so[:, 1] == si[:, 1])
            negative = (so[:, 0] > si[:, 1]) | (si[:, 0] > so[:, 1])
            decide = (positive | negative).sum() / len(sample)
            if decide >= _STAGE_MIN_DECIDE:
                if len(sample) != len(alive):
                    so = self.range_out[u[alive]]
                    si = self.range_in[v[alive]]
                    positive = (so[:, 0] == si[:, 0]) | (so[:, 1] == si[:, 1])
                    negative = (so[:, 0] > si[:, 1]) | (si[:, 0] > so[:, 1])
                res[alive[positive]] = True
                alive = alive[~positive & ~negative]

        # Stage 3b: head bitset certificate (sample-gated).
        if len(alive):
            alive = self._bitset_stage(
                res, u, v, alive, self.head_out, self.head_in, _HEAD_MIN_HIT
            )

        # Stage 4: interval filter (sample-gated).
        if self.rounds and len(alive):
            if self._sampled_interval_kill(u, v, alive) >= _IV_MIN_KILL:
                for low, post in self.rounds:
                    ua, va = u[alive], v[alive]
                    alive = alive[(low[va] >= low[ua]) & (post[va] <= post[ua])]
                    if not len(alive):
                        break

        # Stage 5: tier-2 bitset certificate (sample-gated).
        if len(alive):
            alive = self._bitset_stage(
                res, u, v, alive, self.tier2_out, self.tier2_in, _TIER2_MIN_HIT
            )

        # Stage 6: residual — exact intersection for what is left.
        if len(alive):
            if len(alive) <= _SCALAR_RESIDUAL:
                for i, (x, y) in zip(
                    alive.tolist(), zip(u[alive].tolist(), v[alive].tolist())
                ):
                    res[i] = query(x, y)
            else:
                hit = self._residual(u[alive], v[alive])
                res[alive[hit]] = True
        return res.tolist()

    def _bitset_stage(self, res, u, v, alive, out_bits, in_bits, min_hit):
        """Run one positive-certificate bitset stage if a sampled probe
        shows it decides at least ``min_hit`` of this workload."""
        sample = alive[:_SAMPLE]
        hit = (out_bits[u[sample]] & in_bits[v[sample]]).any(axis=1)
        if hit.sum() / len(sample) < min_hit:
            return alive
        if len(sample) == len(alive):
            hits = hit
        else:
            hits = (out_bits[u[alive]] & in_bits[v[alive]]).any(axis=1)
        res[alive[hits]] = True
        return alive[~hits]

    def _sampled_interval_kill(self, u, v, alive) -> float:
        sample = alive[:_SAMPLE]
        us, vs = u[sample], v[sample]
        keep = self.np.ones(len(sample), dtype=bool)
        for low, post in self.rounds:
            keep &= (low[vs] >= low[us]) & (post[vs] <= post[us])
        return 1.0 - keep.sum() / len(sample)

    # ------------------------------------------------------------------
    # Residual: exact per-pair intersection
    # ------------------------------------------------------------------
    def _residual(self, ur, vr):
        """Probe each pair's smaller label against the other side.

        The first ``_EARLY_COLUMNS`` label entries are probed one column
        at a time with per-pair early exit — a positive pair usually
        shares one of its first few (highest-ranked) hops, so most
        positives finish after one or two probes.  Whatever remains
        (negatives, deep positives) is expanded once and probed in one
        batch.
        """
        np = self.np
        res = np.zeros(len(ur), dtype=bool)
        alen = self.OO[ur + 1] - self.OO[ur]
        blen = self.IO[vr + 1] - self.IO[vr]
        small_b = blen <= alen
        jobs = (
            (small_b, self.IO, self.IH, "out", vr, ur),
            (~small_b, self.OO, self.OH, "in", ur, vr),
        )
        for sel, eoffs, evals, probe_side, esrc_all, ssrc_all in jobs:
            idxs = np.nonzero(sel)[0]
            if not len(idxs):
                continue
            esrc = esrc_all[idxs]
            ssrc = ssrc_all[idxs]
            start = eoffs[esrc]
            lens = eoffs[esrc + 1] - start
            # --- early-exit columns -------------------------------------
            active = np.nonzero(lens > 0)[0]
            k = 0
            while len(active) and k < _EARLY_COLUMNS:
                x = evals[start[active] + k]
                hit = self._probe_one(probe_side, ssrc[active], x)
                res[idxs[active[hit]]] = True
                rate = hit.sum() / len(active)
                k += 1
                active = active[~hit]
                if len(active):
                    active = active[lens[active] > k]
                if rate < _EARLY_MIN_HIT:
                    break  # negative-heavy: finish in one batched probe
            # --- batched tail -------------------------------------------
            if len(active):
                tail_src = esrc[active]
                tail_lens = lens[active] - k
                csum = np.cumsum(tail_lens)
                total = int(csum[-1])
                if total:
                    e_pair = np.repeat(
                        np.arange(len(active), dtype=np.int64), tail_lens
                    )
                    ramp = np.arange(total, dtype=np.int64) - np.repeat(
                        csum - tail_lens, tail_lens
                    )
                    x = evals[np.repeat(eoffs[tail_src] + k, tail_lens) + ramp]
                    hit = self._probe_one(probe_side, ssrc[active][e_pair], x)
                    got = np.bincount(e_pair[hit], minlength=len(active)) > 0
                    res[idxs[active[got]]] = True
        return res

    def _probe_one(self, probe_side, vertices, hops):
        """Membership of each ``(vertex, hop)`` in one side's labels."""
        table = self._hash_table(probe_side)
        if table is not None:
            return self._hash_contains(table, vertices, hops)
        soffs, svals = (
            (self.OO, self.OH) if probe_side == "out" else (self.IO, self.IH)
        )
        lo = soffs[vertices]
        hi = soffs[vertices + 1]
        return self._slice_contains(svals, lo, hi, hops)

    def _hash_table(self, side):
        """Lazy open-addressing ``(vertex, hop)`` membership table.

        Keys pack as ``vertex * n + hop`` into int32 (``None`` when the
        hop space is too large — callers fall back to binary search).
        Shared machinery: :func:`repro.kernels.frontier.hashset_build`.
        """
        cached = self._hash_tables.get(side)
        if cached is not None:
            return cached
        if self.n > _HASH_MAX_N or self.n == 0:
            return None
        np = self.np
        from .frontier import hashset_build

        offs, vals = (self.OO, self.OH) if side == "out" else (self.IO, self.IH)
        if not len(vals):
            return None
        rows = np.repeat(np.arange(self.n, dtype=np.int64), offs[1:] - offs[:-1])
        keys = (rows * self.n + vals).astype(np.int32)
        result = hashset_build(np, keys)
        self._hash_tables[side] = result
        return result

    def _hash_contains(self, table_bits, vertices, hops):
        """Vectorized membership probes: resolve on hit or empty slot."""
        from .frontier import hashset_contains

        keys = (vertices * self.n + hops).astype(self.np.int32)
        return hashset_contains(self.np, table_bits, keys)

    def _slice_contains(self, vals, lo, hi, x):
        """Whether sorted ``vals[lo_i:hi_i]`` contains ``x_i``, per i.

        Fixed-depth lock-step binary search: every element runs
        ``ceil(log2(max_width))`` rounds (converged elements keep
        ``lo == hi`` stable), which drops the per-round convergence
        bookkeeping entirely.
        """
        np = self.np
        nv = len(vals)
        if not nv or not len(x):
            return np.zeros(len(x), dtype=bool)
        hi_orig = hi
        lo = lo.copy()
        hi = hi.copy()
        max_width = int((hi - lo).max())
        rounds = max_width.bit_length()
        last = nv - 1
        for _ in range(rounds):
            mid = (lo + hi) >> 1
            go = (vals[np.minimum(mid, last)] < x) & (lo < hi)
            lo = np.where(go, mid + 1, lo)
            hi = np.where(go | (lo >= hi), hi, mid)
        found = lo < hi_orig
        found &= vals[np.minimum(lo, last)] == x
        return found


def compile_graph_aux(graph, height=None):
    """``(height, rounds)`` engine certificates, computed at compile time.

    The scalar twin of :meth:`BatchQueryEngine._build_graph_aux` (same
    round count, same ``random.Random`` seed, and the backends'
    interval rounds are bit-identical), runnable without NumPy — this
    is what :meth:`ReachabilityIndex.compile` bakes into a label
    artifact so the engine's height/interval stages survive losing the
    graph.  A caller that already holds the graph's heights passes them
    in.  Returns ``(None, [])`` for cyclic input.
    """
    from .grail import compute_heights, interval_round_python

    if height is None:
        try:
            height = compute_heights(graph)
        except ValueError:
            return None, []
    rng = random.Random(0x9E3779B1)
    rounds = [
        interval_round_python(graph, height, rng) for _ in range(_IV_ROUNDS)
    ]
    return height, rounds


def engine_query_batch(holder, labels, graph, pairs, aux=None):
    """Batch queries through the engine when it applies, scalar otherwise.

    ``holder`` caches the engine across batches (any object accepting a
    ``_batch_engine`` attribute).  The engine engages whenever NumPy is
    importable, the labels are sealed, and the batch is big enough to
    amortize array conversion — on the arena/hybrid layout it replaces
    per-pair probing, and on the bigint-mask layout it replaces the
    C-level AND loop (whose per-pair cost grows with the mask word
    count; the ``engine_vs_masks`` sweep in
    ``benchmarks/bench_kernels.py`` measures the engine ahead from
    n≈4096 up).

    ``aux`` supplies precompiled ``(height, interval_rounds)``
    certificates for graph-free serving (compiled artifacts); when
    given, the graph-backed stages run off those arrays and ``graph``
    is ignored.
    """
    if not hasattr(pairs, "__len__"):
        pairs = list(pairs)
    np = numpy_or_none()
    if (
        np is None
        or not labels.sealed
        or len(pairs) < _MIN_BATCH
        or (labels._out_masks is not None and labels.n < _MASK_LABELS_MIN_N)
    ):
        return labels.query_batch(pairs)
    engine = getattr(holder, "_batch_engine", None)
    if engine is None or engine.stale(labels):
        engine = BatchQueryEngine(np, labels, graph, aux=aux)
        holder._batch_engine = engine
    return engine.query_batch(pairs)
