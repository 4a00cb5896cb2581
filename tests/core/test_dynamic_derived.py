"""The state DynamicDL maintains instead of recomputing.

Heights, the label-size counter and the touched-row report are what
make the live write path O(touched); every update path — scalar
inserts, batches on either backend, removals, resurrections, compacts
and bloat-triggered rebuilds — must keep them equal to a from-scratch
recomputation.
"""

import random

import pytest

from repro.core.dynamic import DynamicDL
from repro.graph.generators import random_dag
from repro.graph.traversal import bfs_reaches
from repro.kernels import numpy_or_none
from repro.kernels.grail import compute_heights

BACKENDS = ["python"] + (["numpy"] if numpy_or_none() is not None else [])


def _live_rows(dyn):
    return [list(row) for row in dyn.live_out_adj()]


def _lin_rows(dyn):
    return [list(row) for row in dyn.labels.lin]


def _random_step(dyn, rng, backend):
    """One random update; returns False when nothing was attempted."""
    n = dyn.n
    roll = rng.random()
    if roll < 0.2 and dyn.live_m:
        live = [e for e in dyn.graph.edges() if not dyn.is_tombstoned(*e)]
        dyn.remove_edge(*rng.choice(live))
    elif roll < 0.3 and dyn.tombstones:
        edge = rng.choice(dyn.tombstones)  # resurrection
        if rng.random() < 0.5:
            dyn.insert_edge(*edge)
        else:
            dyn.insert_edges([edge], backend=backend)
    elif roll < 0.35 and dyn.tombstones:
        dyn.compact()
    else:
        batch = []
        shadow = dyn.graph.copy()
        for _ in range(rng.randrange(1, 7)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or bfs_reaches(shadow.out_adj, v, u):
                continue
            shadow.add_edge(u, v)
            batch.append((u, v))
        if not batch:
            return False
        if rng.random() < 0.3:
            for u, v in batch:
                dyn.insert_edge(u, v)
        else:
            dyn.insert_edges(batch, backend=backend)
    return True


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("rebuild_factor", [0, 1.5])
def test_maintained_state_matches_recomputation(backend, rebuild_factor):
    rebuilds = 0
    for seed in range(25):
        rng = random.Random(7000 + seed)
        n = rng.randrange(6, 30)
        dyn = DynamicDL(
            random_dag(n, rng.randrange(0, 2 * n), seed=seed),
            auto_rebuild_factor=rebuild_factor,
        )
        assert dyn.drain_touched() is None  # a fresh build touches everything
        for step in range(25):
            lin0, live0 = _lin_rows(dyn), _live_rows(dyn)
            if not _random_step(dyn, rng, backend):
                continue
            where = f"seed {seed} step {step}"
            assert dyn.heights == compute_heights(dyn.graph), where
            assert dyn.index_size_ints() == dyn.labels.size_ints(), where
            assert dyn.stats()["index_size_ints"] == dyn.labels.size_ints()
            assert dyn.tombstone_count == len(dyn.tombstones)
            touched = dyn.drain_touched()
            if touched is None:
                rebuilds += 1
                continue
            lin_rows, out_rows = touched
            lin1, live1 = _lin_rows(dyn), _live_rows(dyn)
            assert {y for y in range(n) if lin0[y] != lin1[y]} <= lin_rows, where
            assert {w for w in range(n) if live0[w] != live1[w]} <= out_rows, where
            assert dyn.drain_touched() == (set(), set())
    assert rebuilds  # compacts (and, with a factor, bloat rebuilds) were exercised


def test_bloat_rebuild_is_reported_and_resets_counters():
    dyn = DynamicDL(random_dag(30, 20, seed=3), auto_rebuild_factor=1.2)
    dyn.drain_touched()
    rng = random.Random(3)
    while dyn.inserts_since_rebuild or not dyn.stats()["updates"]["novel"]:
        u, v = rng.randrange(30), rng.randrange(30)
        if u != v and not dyn.query(v, u) and not dyn.query(u, v):
            dyn.insert_edge(u, v)
    assert dyn.drain_touched() is None
    assert dyn.index_size_ints() == dyn.labels.size_ints()
    assert dyn.heights == compute_heights(dyn.graph)
    assert dyn.compacts == 0


def test_seed_adoption_computes_derived_state():
    from repro.core.distribution import DistributionLabeling

    g = random_dag(40, 100, seed=8)
    dyn = DynamicDL(g, seed_index=DistributionLabeling(g))
    assert dyn.heights == compute_heights(g)
    assert dyn.index_size_ints() == dyn.labels.size_ints()
    assert dyn.drain_touched() is None
