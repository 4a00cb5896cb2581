"""JournaledPrimary: ack ⇒ durable, recovery, dedupe, housekeeping.

The "crash" here is in-process: drop the store and the journal handles
without checkpointing — exactly the state kill -9 leaves on disk (the
process-level drill lives in tests/cluster/test_primary_process.py).
"""

import os
import random

import pytest

from repro.cluster.chaos import _bfs_answers
from repro.durability import JournaledPrimary, StaleSequenceError
from repro.durability.primary import EPOCHS_DIR_NAME, JOURNAL_DIR_NAME
from repro.graph.digraph import DiGraph
from repro.graph.generators import novel_acyclic_edges, sparse_dag
from repro.server.service import QueryService


def _crash(p):
    """Simulate kill -9: no checkpoint, no manifest commit, no pruning."""
    p.live.store.close()
    p._journal.close()
    p._closed = True


def _answers(p, pairs):
    svc = QueryService(primary=p).start()
    try:
        return [bool(a) for a in svc.query_pairs(pairs)]
    finally:
        svc.close()


@pytest.fixture()
def setup(tmp_path):
    g = sparse_dag(90, seed=4)
    edges, _ = novel_acyclic_edges(g, 9, seed=4)
    rng = random.Random(5)
    pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(200)]
    return str(tmp_path / "data"), g, edges, pairs


def _truth(g, extra, pairs):
    full = DiGraph.from_edges(g.n, list(g.edges()) + list(extra))
    return _bfs_answers(full, pairs)


def test_ack_implies_durable_without_checkpoint(setup):
    d, g, edges, pairs = setup
    p = JournaledPrimary(d, g, sync="always", checkpoint_every=0)
    for i, e in enumerate(edges[:3]):
        summary = p.apply_update([e], client="t", seq=i + 1)
        assert summary["lsn"] == i + 1
    _crash(p)

    p2 = JournaledPrimary(d)
    try:
        info = p2.recovery_info
        assert info["recovered"] is True
        assert info["records_replayed"] == 3
        assert info["records_in_artifact"] == 0
        assert _answers(p2, pairs) == _truth(g, edges[:3], pairs)
    finally:
        p2.close()


def test_all_or_nothing_on_invalid_stream(setup):
    d, g, edges, pairs = setup
    p = JournaledPrimary(d, g, sync="off")
    before = _answers(p, pairs)
    with pytest.raises(ValueError):
        p.apply_update([edges[0], (0, 10**9)])  # second edge out of range
    # nothing journaled, nothing applied — the whole stream vanished
    assert p.journal.last_lsn == 0
    assert _answers(p, pairs) == before
    _crash(p)
    p2 = JournaledPrimary(d)
    try:
        assert _answers(p2, pairs) == before
        assert p2.recovery_info["records_replayed"] == 0
    finally:
        p2.close()


def test_dedupe_survives_crash_and_recovery(setup):
    d, g, edges, pairs = setup
    p = JournaledPrimary(d, g, sync="off", checkpoint_every=0)
    first = p.apply_update([edges[0]], client="cli", seq=1)
    assert first["deduped"] is False
    _crash(p)

    p2 = JournaledPrimary(d)
    try:
        # the replayed journal record rebuilt the window entry
        again = p2.apply_update([edges[0]], client="cli", seq=1)
        assert again["deduped"] is True
        assert again["lsn"] == first["lsn"]
        # and the edge applied exactly once
        assert _answers(p2, pairs) == _truth(g, edges[:1], pairs)
        with pytest.raises(StaleSequenceError):
            p2.apply_update([edges[1]], client="cli", seq=0)
    finally:
        p2.close()


def test_checkpoint_compacts_journal_and_prunes_artifacts(setup):
    d, g, edges, pairs = setup
    p = JournaledPrimary(
        d, g, sync="off", checkpoint_every=1, segment_bytes=1024
    )
    try:
        for i, e in enumerate(edges):
            p.apply_update([e], client="t", seq=i + 1)
        epoch_files = os.listdir(os.path.join(d, EPOCHS_DIR_NAME))
        assert len(epoch_files) <= 2  # current + draining predecessor
        segs = os.listdir(os.path.join(d, JOURNAL_DIR_NAME))
        # per-update checkpoints keep the journal near-empty: every
        # full segment at or below the watermark is gone
        assert len(segs) <= 2
    finally:
        p.close()


def test_recovery_prefers_disk_over_given_graph(setup):
    d, g, edges, pairs = setup
    p = JournaledPrimary(d, g, sync="off")
    p.apply_update([edges[0]])
    p.close()
    # a different graph argument must be ignored: the data dir wins
    other = sparse_dag(10, seed=99)
    p2 = JournaledPrimary(d, other)
    try:
        assert p2.recovery_info["recovered"] is True
        assert _answers(p2, pairs) == _truth(g, edges[:1], pairs)
    finally:
        p2.close()


def test_clean_close_then_reopen_replays_nothing(setup):
    d, g, edges, pairs = setup
    p = JournaledPrimary(d, g, sync="interval")
    for i, e in enumerate(edges[:4]):
        p.apply_update([e], client="t", seq=i + 1)
    p.close()
    p2 = JournaledPrimary(d)
    try:
        info = p2.recovery_info
        assert info["recovered"] is True
        assert info["records_replayed"] == 0  # close() checkpointed
        assert _answers(p2, pairs) == _truth(g, edges[:4], pairs)
    finally:
        p2.close()


# ----------------------------------------------------------------------
# Churn: removals through the WAL, across crashes and checkpoints
# ----------------------------------------------------------------------
def _live_truth(g, ops, pairs):
    full = g.copy()
    for op, u, v in ops:
        if op == "-":
            full.remove_edge(u, v)
        else:
            full.add_edge(u, v)
    return _bfs_answers(full, pairs)


def test_churn_acks_survive_crash(setup):
    d, g, edges, pairs = setup
    victims = [next(iter(g.edges()))]
    ops = [("+", *edges[0]), ("-", *victims[0]), ("+", *edges[1])]
    p = JournaledPrimary(d, g, sync="always", checkpoint_every=0)
    summary = p.apply_update(ops, client="t", seq=1)
    assert summary["removals"] == 1 and summary["inserts"] == 2
    want = _live_truth(g, ops, pairs)
    assert _answers(p, pairs) == want
    _crash(p)

    p2 = JournaledPrimary(d)
    try:
        assert p2.recovery_info["records_replayed"] == 1
        assert _answers(p2, pairs) == want
        # the retry of the acked batch dedupes instead of re-applying
        again = p2.apply_update(ops, client="t", seq=1)
        assert again["deduped"] is True
        assert _answers(p2, pairs) == want
    finally:
        p2.close()


def test_churn_folds_below_watermark_after_checkpoint(setup):
    d, g, edges, pairs = setup
    victims = list(g.edges())[:2]
    ops = [("-", *victims[0]), ("+", *edges[0]), ("-", *victims[1])]
    p = JournaledPrimary(d, g, sync="always")  # checkpoint_every=1
    p.apply_update(ops)
    want = _live_truth(g, ops, pairs)
    p.close()

    # close() checkpointed: recovery folds the removals into the base
    # graph instead of replaying them.
    p2 = JournaledPrimary(d)
    try:
        assert p2.recovery_info["records_replayed"] == 0
        assert _answers(p2, pairs) == want
    finally:
        p2.close()


def test_recovery_survives_segment_compaction(setup):
    """Checkpoint compaction deletes below-watermark segments; the base
    snapshot must have absorbed their ops first or recovery rebuilds a
    graph missing them (and the first post-recovery publish serves it)."""
    d, g, edges, pairs = setup
    victims = list(g.edges())[:3]
    p = JournaledPrimary(d, g, sync="always", segment_bytes=1024)
    ops = []
    for i, e in enumerate(edges[:6]):
        # pad each batch past the segment size so every update rotates
        # (duplicate inserts are idempotent and journal like any op)
        op = [("+", *e)] * 140
        if i < len(victims):
            op.append(("-", *victims[i]))
        p.apply_update(op)  # checkpoint_every=1: compacts as it rotates
        ops.extend(op)
    segs = sorted(os.listdir(os.path.join(d, JOURNAL_DIR_NAME)))
    assert segs and "00000001" not in segs[0]  # first segment compacted away
    want = _live_truth(g, ops, pairs)
    assert _answers(p, pairs) == want
    _crash(p)

    p2 = JournaledPrimary(d)
    try:
        assert _answers(p2, pairs) == want
        # ... including after the next publish, which is compiled from
        # the recovered graph rather than served from the old artifact
        extra = edges[6]
        p2.apply_update([extra])
        assert _answers(p2, pairs) == _live_truth(g, ops + [("+", *extra)], pairs)
    finally:
        p2.close()
