"""Incremental publishes splice touched rows; they must equal a re-flatten.

The compiler keeps the in-side arena (and, beside tombstones, the live
forward CSR) flat between publishes and splices in only the rows the
oracle reports touched.  Every published artifact must be byte-equal
to what a from-scratch flatten of the same state writes, and must
answer like BFS on the live graph — including insert-only batches
published while tombstones exist, which once shipped a stale live CSR.
"""

import random

import pytest

import repro.live.compiler as compiler_mod
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.traversal import bfs_reaches
from repro.kernels import numpy_or_none
from repro.live import IncrementalCompiler
from repro.live.compiler import _flatten_rows, _splice_rows
from repro.serialization import load_artifact

np = numpy_or_none()
needs_numpy = pytest.mark.skipif(np is None, reason="the splice is the NumPy path")


def _bfs_truth(graph, pairs):
    return [u == v or bfs_reaches(graph.out_adj, u, v) for u, v in pairs]


@needs_numpy
def test_splice_rows_equals_flatten():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(1, 12)
        rows = [[rng.randrange(50) for _ in range(rng.randrange(4))] for _ in range(n)]
        idx = sorted(rng.sample(range(n), rng.randrange(n + 1)))
        new = [[rng.randrange(50) for _ in range(rng.randrange(5))] for _ in idx]
        values, offsets = _splice_rows(np, *_flatten_rows(np, rows), idx, new)
        for i, row in zip(idx, new):
            rows[i] = row
        want_values, want_offsets = _flatten_rows(np, rows)
        assert values.tolist() == want_values.tolist()
        assert offsets.tolist() == want_offsets.tolist()


def test_insert_after_delete_ships_the_new_edges(tmp_path):
    # 0 -> 1 -> 2 -> 4; tombstone 1->2, publish, then route around it
    # with an insert-only batch: the served live CSR must see 1->3->2.
    g = DiGraph(5)
    for u, v in [(0, 1), (1, 2), (2, 4)]:
        g.add_edge(u, v)
    comp = IncrementalCompiler(g)
    comp.apply_ops([("-", 1, 2)])
    comp.compile_to(str(tmp_path / "a.rpro"))
    comp.apply_ops([("+", 1, 3), ("+", 3, 2)])
    info = comp.compile_to(str(tmp_path / "b.rpro"))
    assert info["full"] is False
    pairs = [(0, 2), (0, 4), (1, 2)]
    assert comp.query_batch(pairs) == [True, True, True]
    assert load_artifact(str(tmp_path / "b.rpro")).query_batch(pairs) == [True, True, True]


def _churn_ops(rng, shadow, inserted):
    """One batch: deletes of earlier inserts and/or fresh acyclic inserts."""
    ops = []
    n = shadow.n
    if inserted and rng.random() < 0.6:
        for _ in range(rng.randrange(1, 3)):
            if inserted:
                u, v = inserted.pop(rng.randrange(len(inserted)))
                shadow.remove_edge(u, v)
                ops.append(("-", u, v))
    if not ops or rng.random() < 0.7:
        for _ in range(rng.randrange(1, 5)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or shadow.has_edge(u, v) or bfs_reaches(shadow.out_adj, v, u):
                continue
            shadow.add_edge(u, v)
            inserted.append((u, v))
            ops.append(("+", u, v))
    return ops


@pytest.mark.parametrize("seed", range(8))
def test_delete_then_insert_streams_match_bfs(tmp_path, seed):
    rng = random.Random(500 + seed)
    n = 50
    g = random_dag(n, 90, seed=seed)
    comp = IncrementalCompiler(g, auto_rebuild_factor=0)
    comp.compile_to(str(tmp_path / "e0.rpro"))
    shadow = g.copy()
    inserted = []
    pairs = [(u, v) for u in range(n) for v in range(n)]
    for step in range(12):
        ops = _churn_ops(rng, shadow, inserted)
        comp.apply_ops(ops)
        path = str(tmp_path / f"e{step + 1}.rpro")
        comp.compile_to(path)
        truth = _bfs_truth(shadow, pairs)
        assert load_artifact(path).query_batch(pairs) == truth, f"step {step}"
        assert comp.query_batch(pairs) == truth, f"step {step}"


def _run_stream(tmp_path, tag, seed, check):
    """Publish after every batch of a seeded churn stream; return the files' bytes."""
    rng = random.Random(900 + seed)
    n = 60
    g = random_dag(n, 120, seed=seed)
    comp = IncrementalCompiler(g, auto_rebuild_factor=1.6)
    shadow = g.copy()
    inserted = []
    out = []
    for step in range(16):
        comp.apply_ops(_churn_ops(rng, shadow, inserted))
        if step == 9:
            comp.compact()
        path = tmp_path / f"{tag}-{step}.rpro"
        comp.compile_to(str(path))
        out.append(path.read_bytes())
        check(comp)
    stats = comp.stats()
    assert stats["incremental_compiles"] and stats["full_compiles"] > 1
    return out


@needs_numpy
@pytest.mark.parametrize("seed", range(4))
def test_spliced_bytes_equal_a_full_reflatten(tmp_path, monkeypatch, seed):
    def arenas_match_the_oracle(comp):
        dyn = comp._dyn
        values, offsets = comp._in_arena
        want_values, want_offsets = _flatten_rows(np, dyn.labels.lin)
        assert values.tolist() == want_values.tolist()
        assert offsets.tolist() == want_offsets.tolist()
        assert (comp._live_csr is not None) == bool(dyn.tombstones)
        if dyn.tombstones:
            values, offsets = comp._live_csr
            want_values, want_offsets = _flatten_rows(np, dyn.live_out_adj())
            assert values.tolist() == want_values.tolist()
            assert offsets.tolist() == want_offsets.tolist()

    spliced = _run_stream(tmp_path, "splice", seed, arenas_match_the_oracle)
    # Without NumPy the compiler re-flattens every dirty side from the
    # label lists instead of splicing: the reference for the bytes.
    monkeypatch.setattr(compiler_mod, "numpy_or_none", lambda: None)
    reference = _run_stream(tmp_path, "flat", seed, lambda comp: None)
    assert spliced == reference
