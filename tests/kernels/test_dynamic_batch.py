"""Batched update kernels vs the sequential scalar path.

The contract under test (:mod:`repro.kernels.dynamic`): replaying an
acyclic insert stream through ``DynamicDL.insert_edges`` produces
labels **bit-identical** to ``insert_edge`` in stream order, on both
backends; a cyclic stream is rejected stream-atomically (nothing
applied, index intact); and mixed insert/remove churn keeps every
query equal to BFS over the live graph, through compacts included.
"""

import random

import pytest

from repro.core.dynamic import DynamicDL
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.traversal import bfs_reaches
from repro.kernels import numpy_or_none
from repro.kernels.dynamic import CycleInBatch

BACKENDS = ["python"] + (["numpy"] if numpy_or_none() is not None else [])

SEEDS = range(50)


def _labels_of(dyn):
    return (
        [list(lab) for lab in dyn.labels.lout],
        [list(lab) for lab in dyn.labels.lin],
        list(dyn.rank),
    )


def _make_stream(rng, shadow, size):
    """An acyclic candidate stream: novel, redundant and duplicate edges."""
    n = shadow.n
    stream = []
    for _ in range(size):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or bfs_reaches(shadow.out_adj, v, u):
            continue
        shadow.add_edge(u, v)
        stream.append((u, v))
        if stream and rng.random() < 0.25:
            stream.append(rng.choice(stream))  # in-batch duplicate
    return stream


# ----------------------------------------------------------------------
# Bit-identical parity with the sequential reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_insert_matches_sequential(backend):
    for seed in SEEDS:
        rng = random.Random(seed)
        n = rng.randrange(4, 28)
        g = random_dag(n, rng.randrange(0, 3 * n), seed=seed)
        stream = _make_stream(rng, g.copy(), rng.randrange(1, 24))

        seq = DynamicDL(g, auto_rebuild_factor=0)
        for u, v in stream:
            seq.insert_edge(u, v)

        bat = DynamicDL(g, auto_rebuild_factor=0)
        summary = bat.insert_edges(stream, backend=backend)

        if stream:  # an empty batch returns before backend resolution
            assert summary["backend"] == backend
        assert summary["edges"] == len(stream)
        assert _labels_of(bat) == _labels_of(seq), f"seed {seed}"
        pairs = [(u, v) for u in range(n) for v in range(n)]
        assert bat.query_batch(pairs) == seq.query_batch(pairs), f"seed {seed}"
        assert bat.m == seq.m


@pytest.mark.parametrize("backend", BACKENDS)
def test_backends_agree_and_split_batches_converge(backend):
    """One big batch == the same stream split into arbitrary sub-batches."""
    for seed in range(20):
        rng = random.Random(1000 + seed)
        n = rng.randrange(6, 24)
        g = random_dag(n, n, seed=seed)
        stream = _make_stream(rng, g.copy(), 18)

        whole = DynamicDL(g, auto_rebuild_factor=0)
        whole.insert_edges(stream, backend=backend)

        split = DynamicDL(g, auto_rebuild_factor=0)
        i = 0
        while i < len(stream):
            step = rng.randrange(1, 5)
            split.insert_edges(stream[i : i + step], backend=backend)
            i += step

        assert _labels_of(whole) == _labels_of(split), f"seed {seed}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_cyclic_stream_is_rejected_atomically(backend):
    for seed in range(25):
        rng = random.Random(2000 + seed)
        n = rng.randrange(4, 20)
        g = random_dag(n, 2 * n, seed=seed)
        shadow = g.copy()
        stream = _make_stream(rng, shadow, 8)
        # Find an edge that closes a cycle in the final graph and bury
        # it at a random position of the stream.
        closing = None
        for u in range(n):
            for v in range(n):
                if u != v and bfs_reaches(shadow.out_adj, v, u):
                    closing = (u, v)
                    break
            if closing:
                break
        if closing is None:
            continue
        stream.insert(rng.randrange(len(stream) + 1), closing)

        dyn = DynamicDL(g, auto_rebuild_factor=0)
        before = _labels_of(dyn)
        m_before = dyn.m
        with pytest.raises(CycleInBatch) as exc:
            dyn.insert_edges(stream, backend=backend)
        assert stream[exc.value.index] == exc.value.edge
        # Stream-atomic: nothing of the batch was applied.
        assert _labels_of(dyn) == before
        assert dyn.m == m_before


# ----------------------------------------------------------------------
# Mixed insert/remove churn vs BFS ground truth
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_churn_matches_bfs(backend):
    for seed in range(30):
        rng = random.Random(3000 + seed)
        n = rng.randrange(5, 22)
        g = random_dag(n, 2 * n, seed=seed)
        dyn = DynamicDL(g, auto_rebuild_factor=0)
        live = {(u, v) for u in range(n) for v in g.out_adj[u]}

        for _ in range(30):
            roll = rng.random()
            if roll < 0.45 and live:
                u, v = rng.choice(sorted(live))
                dyn.remove_edge(u, v)
                live.discard((u, v))
            elif roll < 0.55 and rng.random() < 0.5 and dyn.tombstones:
                dyn.compact()
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                adj = [
                    [x for x in row if (w, x) in live]
                    for w, row in enumerate(dyn.graph.out_adj)
                ]
                if u == v or bfs_reaches(adj, v, u):
                    continue
                if rng.random() < 0.5:
                    dyn.insert_edge(u, v)
                else:
                    dyn.insert_edges([(u, v)], backend=backend)
                live.add((u, v))

            adj = [
                [x for x in row if (w, x) in live]
                for w, row in enumerate(dyn.graph.out_adj)
            ]
            for _ in range(15):
                a, b = rng.randrange(n), rng.randrange(n)
                assert dyn.query(a, b) == (
                    a == b or bfs_reaches(adj, a, b)
                ), f"seed {seed}: {a}->{b}"

        assert dyn.live_m == len(live)


def test_remove_then_batch_insert_resurrects():
    g = random_dag(6, 0, seed=0)
    dyn = DynamicDL(g, auto_rebuild_factor=0)
    dyn.insert_edges([(0, 1), (1, 2), (2, 3)])
    assert dyn.query(0, 3) is True
    dyn.remove_edge(1, 2)
    assert dyn.query(0, 3) is False
    summary = dyn.insert_edges([(1, 2), (3, 4)])
    assert summary["resurrected"] == 1
    assert summary["novel"] == 1
    assert dyn.query(0, 4) is True
    assert dyn.tombstones == []


# ----------------------------------------------------------------------
# Cone-local kernel: extreme cone shapes
# ----------------------------------------------------------------------
def _assert_parity(g, stream, backend):
    seq = DynamicDL(g, auto_rebuild_factor=0)
    for u, v in stream:
        seq.insert_edge(u, v)
    bat = DynamicDL(g, auto_rebuild_factor=0)
    summary = bat.insert_edges(stream, backend=backend)
    assert _labels_of(bat) == _labels_of(seq)
    pairs = [(u, v) for u in range(g.n) for v in range(g.n)]
    assert bat.query_batch(pairs) == seq.query_batch(pairs)
    assert bat.heights == seq.heights
    assert bat.index_size_ints() == seq.index_size_ints() == bat.labels.size_ints()
    return summary


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_whose_cone_is_the_whole_graph(backend):
    # Vertex 0 starts isolated and is wired above every root of the
    # rest: the flood's cone is every vertex but 0 itself.
    n = 40
    rest = random_dag(n - 1, 90, seed=5)
    g = DiGraph(n)
    for u, v in rest.edges():
        g.add_edge(u + 1, v + 1)
    stream = [(0, v) for v in range(1, n) if not g.in_adj[v]]
    summary = _assert_parity(g, stream, backend)
    assert summary["frontier_vertices"] == n - 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_with_more_than_64_novel_edges(backend):
    # 70 disjoint 2-paths joined pairwise: 70 novel edges in one batch
    # spill the per-vertex source bitset into a second uint64 word, and
    # the chain below vertex 0's target collects bits from both words.
    k = 70
    n = 2 * k + 1
    g = random_dag(n, 0, seed=0).copy()
    for i in range(k):
        g.add_edge(2 * i + 1, n - 1)
    stream = [(2 * i, 2 * i + 1) for i in range(k)]
    summary = _assert_parity(g, stream, backend)
    assert summary["novel"] == k
    assert summary["patterns"] > 64
