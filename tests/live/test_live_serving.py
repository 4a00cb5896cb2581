"""Live serving end-to-end: epoch plumbing, wire ops, hot swap, watcher."""

import os
import random
import threading
import time

import pytest

from repro.facade import Reachability
from repro.graph.digraph import DiGraph
from repro.graph.generators import novel_acyclic_edges, path_dag, random_dag
from repro.live import ArtifactWatcher, IncrementalCompiler, LiveIndex, VersionedArtifactStore
from repro.server import ReachClient, run_load
from repro.server.service import QueryService
from repro.server.tcp import ReachServer, serve_artifact


@pytest.fixture()
def live_index():
    g = random_dag(150, 380, seed=21)
    li = LiveIndex(IncrementalCompiler(g))
    yield g, li
    li.close()


class TestQueryServiceStoreMode:
    def test_store_mode_serves_and_reports_epoch(self, live_index):
        _g, li = live_index
        with QueryService(live=li, window_s=0) as service:
            assert service.current_epoch == 1
            assert service.stats()["epoch"] == 1
            assert isinstance(service.query(0, 149), bool)

    def test_epoch_advances_and_answers_follow(self, live_index):
        g, li = live_index
        with QueryService(live=li, window_s=0) as service:
            edges, shadow = novel_acyclic_edges(g, 10, seed=22)
            li.apply_updates(edges)
            assert service.current_epoch == 2
            fresh = Reachability(shadow, "DL")
            rng = random.Random(23)
            pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(800)]
            assert service.query_pairs(pairs) == fresh.query_batch(pairs)

    def test_cache_entries_do_not_leak_across_epochs(self):
        # Two chains; the update joins them.  A cached False from epoch
        # 1 must not answer the same pair at epoch 2 (and no flush is
        # ever issued — keys simply carry the epoch).
        g = DiGraph.from_edges(4, [(0, 1), (2, 3)])
        li = LiveIndex(IncrementalCompiler(g))
        try:
            with QueryService(live=li, window_s=0, cache_size=1024) as service:
                assert service.query(0, 3) is False
                assert service.query(0, 3) is False  # now cached
                assert service.cache.stats()["hits"] >= 1
                li.apply_updates([(1, 2)])
                assert service.query(0, 3) is True
        finally:
            li.close()

    def test_bound_follows_the_epoch(self, tmp_path, live_index):
        # Swapping in an artifact over a *smaller* graph must retighten
        # request validation to the new bound.
        _g, li = live_index
        small = str(tmp_path / "small.rpro")
        Reachability(path_dag(10), "DL").save(small)
        with QueryService(live=li, window_s=0) as service:
            assert service.query(0, 149) in (True, False)
            li.swap_artifact(small)
            with pytest.raises(ValueError, match="out of range"):
                service.query_pairs([(0, 149)])
            assert service.query(0, 9) is True


class TestWireProtocolOps:
    def test_epoch_update_and_stats_ops(self, live_index):
        g, li = live_index
        service = QueryService(live=li).start()
        server = ReachServer(service, owns_service=True).start()
        try:
            with ReachClient(*server.address) as client:
                assert client.epoch() == 1
                edges, shadow = novel_acyclic_edges(g, 6, seed=41)
                summary = client.update(edges)
                assert summary["epoch"] == 2
                assert summary["edges"] == len(edges)
                assert client.epoch() == 2
                stats = client.stats()
                assert stats["epoch"] == 2
                assert stats["live"]["store"]["epoch"] == 2
                fresh = Reachability(shadow, "DL")
                rng = random.Random(42)
                pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(500)]
                assert client.query_batch(pairs) == fresh.query_batch(pairs)
        finally:
            server.close()

    def test_update_on_static_server_is_a_clean_error(self, tmp_path):
        path = str(tmp_path / "static.rpro")
        Reachability(path_dag(20), "DL").save(path)
        server = serve_artifact(path)
        try:
            with ReachClient(*server.address) as client:
                assert client.epoch() == 0  # static serving
                with pytest.raises(RuntimeError, match="no update path"):
                    client.update([(0, 5)])
                # The connection survives the refused update.
                assert client.query(0, 19) is True
        finally:
            server.close()

    def test_bad_update_edges_return_error_not_disconnect(self, live_index):
        _g, li = live_index
        service = QueryService(live=li).start()
        server = ReachServer(service, owns_service=True).start()
        try:
            with ReachClient(*server.address) as client:
                with pytest.raises(RuntimeError, match="out of range"):
                    client.update([(0, 10**6)])
                assert client.epoch() == 1  # nothing published
                assert client.ping() >= 0.0
        finally:
            server.close()


class TestHotSwapUnderLoad:
    def test_swap_mid_load_drops_nothing_and_lands_on_v2(self, tmp_path):
        g1 = random_dag(300, 700, seed=51)
        edges, g2 = novel_acyclic_edges(g1, 30, seed=52)
        r1 = Reachability(g1, "DL")
        path = str(tmp_path / "live.rpro")
        r1.save(path)
        v2_path = str(tmp_path / "v2.rpro")
        Reachability(g2.copy(), "DL").save(v2_path)

        store = VersionedArtifactStore()
        store.publish(path)
        service = QueryService(store=store, owns_store=True).start()
        server = ReachServer(service, owns_service=True).start()
        try:
            rng = random.Random(53)
            pairs = [(rng.randrange(300), rng.randrange(300)) for _ in range(8000)]

            swapped = threading.Event()

            def swap_midway():
                time.sleep(0.02)
                store.publish(v2_path)
                swapped.set()

            t = threading.Thread(target=swap_midway)
            t.start()
            report = run_load(*server.address, pairs, connections=4, pipeline=32)
            t.join()
            assert swapped.is_set()
            assert report.errors == 0, report.first_error
            assert len(report.answers) == len(pairs)
            # Post-swap, answers are pure v2.
            fresh = Reachability(g2.copy(), "DL")
            with ReachClient(*server.address) as client:
                sample = pairs[:2000]
                assert client.query_batch(sample) == fresh.query_batch(sample)
            assert store.stats()["epoch"] == 2
        finally:
            server.close()


class TestArtifactWatcher:
    def test_watcher_publishes_on_atomic_replace(self, tmp_path):
        g1 = path_dag(30)
        g2 = random_dag(30, 80, seed=61)
        path = str(tmp_path / "watched.rpro")
        Reachability(g1, "DL").save(path)
        store = VersionedArtifactStore()
        watcher = ArtifactWatcher(store, path, interval_s=0.05)
        try:
            assert watcher.publish_current() == 1
            assert watcher.poll_once() is None  # unchanged: no republish
            tmp = str(tmp_path / "incoming.rpro")
            Reachability(g2, "DL").save(tmp)
            os.replace(tmp, path)
            assert watcher.poll_once() == 2
            assert store.current_epoch == 2
            assert watcher.poll_once() is None  # stable again
        finally:
            watcher.close()
            store.close()

    def test_watcher_serves_snapshots_not_the_watched_path(self, tmp_path):
        # Every epoch must be a private snapshot: the watched path
        # aliases versions, and an epoch-aware worker re-opening it
        # after a second replacement would map content the parent never
        # leased.
        path = str(tmp_path / "watched.rpro")
        Reachability(path_dag(25), "DL").save(path)
        store = VersionedArtifactStore()
        watcher = ArtifactWatcher(store, path, interval_s=0.05)
        try:
            watcher.publish_current()
            assert store.current_path != path
            assert os.path.exists(store.current_path)
            # Replacing the watched file twice in one tick still leaves
            # the published snapshot's bytes pinned (hard link).
            snap_of_v1 = store.current_path
            tmp = str(tmp_path / "next.rpro")
            Reachability(random_dag(25, 60, seed=3), "DL").save(tmp)
            os.replace(tmp, path)
            assert Reachability.load(snap_of_v1).query(0, 24) is True  # v1 bits
        finally:
            watcher.close()
            store.close()

    def test_watcher_warns_after_a_losing_streak(self, tmp_path):
        path = str(tmp_path / "watched.rpro")
        Reachability(path_dag(10), "DL").save(path)
        store = VersionedArtifactStore()
        watcher = ArtifactWatcher(store, path, interval_s=0.05, warn_after=3)
        try:
            watcher.publish_current()
            with open(path, "wb") as f:  # a publisher stuck broken
                f.write(b"garbage")
            with pytest.warns(RuntimeWarning, match="failed to load"):
                for _ in range(3):
                    assert watcher.poll_once() is None
            # One warning per streak, not one per tick.
            import warnings as _warnings

            with _warnings.catch_warnings():
                _warnings.simplefilter("error")
                assert watcher.poll_once() is None
            assert watcher.stats()["consecutive_failures"] == 4
            assert store.current_epoch == 1  # still serving v1
        finally:
            watcher.close()
            store.close()

    def test_watcher_backoff_grows_and_resets(self, tmp_path):
        path = str(tmp_path / "watched.rpro")
        Reachability(path_dag(10), "DL").save(path)
        store = VersionedArtifactStore()
        watcher = ArtifactWatcher(
            store, path, interval_s=0.05, warn_after=100
        )
        try:
            watcher.publish_current()
            assert watcher.backoff_interval_s() == pytest.approx(0.05)
            with open(path, "wb") as f:
                f.write(b"garbage")
            waits = []
            for _ in range(5):
                watcher.poll_once()
                waits.append(watcher.backoff_interval_s())
            # Exponential up to the cap (8 ticks of interval_s).
            assert waits == pytest.approx([0.1, 0.2, 0.4, 0.4, 0.4])
            tmp = str(tmp_path / "good.rpro")
            Reachability(path_dag(12), "DL").save(tmp)
            os.replace(tmp, path)
            assert watcher.poll_once() == 2  # success resets everything
            assert watcher.backoff_interval_s() == pytest.approx(0.05)
            assert watcher.stats()["consecutive_failures"] == 0
        finally:
            watcher.close()
            store.close()

    def test_watcher_retries_past_garbage_files(self, tmp_path):
        path = str(tmp_path / "watched.rpro")
        Reachability(path_dag(10), "DL").save(path)
        store = VersionedArtifactStore()
        watcher = ArtifactWatcher(store, path, interval_s=0.05)
        try:
            assert watcher.publish_current() == 1
            with open(path, "wb") as f:  # a half-written replacement
                f.write(b"garbage")
            assert watcher.poll_once() is None
            assert watcher.stats()["failures"] == 1
            assert store.current_epoch == 1  # still serving v1
            tmp = str(tmp_path / "good.rpro")
            Reachability(path_dag(12), "DL").save(tmp)
            os.replace(tmp, path)
            assert watcher.poll_once() == 2
        finally:
            watcher.close()
            store.close()


class TestFacadeLiveLifecycle:
    def test_add_edge_requires_live_serving(self):
        r = Reachability(path_dag(5))
        with pytest.raises(RuntimeError, match="serve\\(live=True\\)"):
            r.add_edge(0, 4)

    def test_swap_disables_updates(self, tmp_path):
        g = path_dag(20)
        r = Reachability(g, "DL")
        server = r.serve(live=True)
        try:
            other = str(tmp_path / "other.rpro")
            Reachability(path_dag(20), "DL").save(other)
            r.swap_artifact(other)
            with pytest.raises(RuntimeError, match="no update path"):
                r.add_edge(0, 19)
        finally:
            server.close()

    def test_live_restart_resumes_updated_graph(self):
        g = DiGraph.from_edges(4, [(0, 1), (2, 3)])
        r = Reachability(g, "DL")
        server = r.serve(live=True)
        addr = server.address
        r.add_edge(1, 2)
        with ReachClient(*addr) as client:
            assert client.query(0, 3) is True
        server.close()
        assert r.live_epoch is None
        # A second serve(live=True) resumes from the *updated* stream.
        server2 = r.serve(live=True)
        try:
            with ReachClient(*server2.address) as client:
                assert client.query(0, 3) is True
        finally:
            server2.close()

    def test_double_live_serve_is_rejected(self):
        r = Reachability(path_dag(6), "DL")
        server = r.serve(live=True)
        try:
            with pytest.raises(RuntimeError, match="already serving live"):
                r.serve(live=True)
        finally:
            server.close()

    def test_serve_mode_facade_gets_swap_but_not_updates(self, tmp_path):
        path = str(tmp_path / "pipe.rpro")
        Reachability(path_dag(15), "DL").save(path)
        r = Reachability.load(path)
        server = r.serve(live=True)
        try:
            with pytest.raises(RuntimeError, match="no update path"):
                r.add_edge(0, 14)
            v2 = str(tmp_path / "v2.rpro")
            Reachability(random_dag(15, 40, seed=7), "DL").save(v2)
            assert r.swap_artifact(v2) == 2
        finally:
            server.close()


class TestEpochRaceHardening:
    """Regressions for the flip-between-cache-read-and-lease races."""

    def _joinable_chains(self):
        # Two chains; v2 joins them, so cross pairs flip False -> True.
        n = 8
        edges = [(i, i + 1) for i in range(3)]
        edges += [(4 + i, 4 + i + 1) for i in range(3)]
        return DiGraph.from_edges(n, edges)

    def test_cache_hit_plus_flip_never_mixes_epochs_in_one_reply(self, tmp_path):
        g = self._joinable_chains()
        li = LiveIndex(IncrementalCompiler(g))
        service = QueryService(live=li, window_s=0.05, cache_size=1024).start()
        try:
            # Prime the cache at epoch 1: (0, 7) is False (chains split).
            assert service.query(0, 7) is False
            done = threading.Event()
            box = {}

            def ask():
                # (0,7) hits the epoch-1 cache; (1,7) rides the batcher.
                box["answers"] = service.query_pairs([(0, 7), (1, 7)])
                done.set()

            t = threading.Thread(target=ask)
            t.start()
            time.sleep(0.01)  # inside the 50 ms window
            li.apply_updates([(3, 4)])  # join the chains -> epoch 2
            assert done.wait(10)
            t.join()
            # Both answers must reflect ONE epoch.  Mixing would give
            # [False (stale cache@1), True (fresh@2)].
            assert box["answers"] in ([False, False], [True, True]), box
            # ...and since the batch resolved at epoch 2, the service
            # must have retried: the reply is pure v2.
            assert box["answers"] == [True, True]
        finally:
            service.close()
            li.close()

    def test_shrinking_swap_mid_window_fails_with_clear_error(self, tmp_path):
        big = str(tmp_path / "big.rpro")
        small = str(tmp_path / "small.rpro")
        Reachability(path_dag(100), "DL").save(big)
        Reachability(path_dag(10), "DL").save(small)
        store = VersionedArtifactStore()
        store.publish(big)
        service = QueryService(store=store, owns_store=True,
                               window_s=0.05, cache_size=0).start()
        try:
            box = {}
            done = threading.Event()

            def ask():
                try:
                    box["answers"] = service.query_pairs([(0, 99)])
                except ValueError as exc:
                    box["error"] = str(exc)
                done.set()

            t = threading.Thread(target=ask)
            t.start()
            time.sleep(0.01)  # ingress validated against n=100 already
            store.publish(small)
            assert done.wait(10)
            t.join()
            assert "error" in box, box
            assert "smaller graph" in box["error"]
        finally:
            service.close()


class TestMeasureLiveSwapErrors:
    def test_update_failures_propagate_not_negative_swaps(self):
        from repro.bench.harness import measure_live_swap

        g = random_dag(60, 150, seed=71)
        rng = random.Random(72)
        pairs = [(rng.randrange(60), rng.randrange(60)) for _ in range(300)]
        with pytest.raises(ValueError, match="out of range"):
            measure_live_swap(g, pairs, [(0, 10**6)], update_at_frac=0.0)


class TestDetachedReServe:
    def test_reserve_after_external_swap_raises(self, tmp_path):
        r = Reachability(path_dag(12), "DL")
        server = r.serve(live=True)
        other = str(tmp_path / "other.rpro")
        Reachability(random_dag(12, 30, seed=3), "DL").save(other)
        r.swap_artifact(other)
        server.close()
        # Reviving the pre-swap compiler would silently roll back the
        # externally swapped data; the facade must refuse instead.
        with pytest.raises(RuntimeError, match="external artifact"):
            r.serve(live=True)


class TestNoOpUpdates:
    def test_unchanged_streams_skip_the_publish(self):
        g = path_dag(6)
        li = LiveIndex(IncrementalCompiler(g))
        try:
            cache_epoch = li.current_epoch
            # Duplicate + already-reachable edges: nothing an oracle
            # answers differently, so no compile, no flip, no cache
            # invalidation.
            summary = li.apply_updates([(0, 1), (0, 5)])
            assert summary["changed"] == 0
            assert summary["published"] is False
            assert summary["epoch"] == cache_epoch
            assert li.current_epoch == cache_epoch
            # An empty stream is also a no-op.
            summary = li.apply_updates([])
            assert summary["published"] is False
            assert li.current_epoch == cache_epoch
        finally:
            li.close()

    def test_changing_stream_publishes(self):
        g = DiGraph.from_edges(4, [(0, 1), (2, 3)])
        li = LiveIndex(IncrementalCompiler(g))
        try:
            summary = li.apply_updates([(1, 2)])
            assert summary["published"] is True
            assert summary["epoch"] == 2
        finally:
            li.close()


class TestServeModeSwapReServe:
    def test_serve_mode_reserve_after_swap_raises_too(self, tmp_path):
        # The serve-mode twin of the build-mode rollback guard: after an
        # external swap, re-serving must not silently republish this
        # facade's own (pre-swap) artifact.
        own = str(tmp_path / "own.rpro")
        Reachability(path_dag(15), "DL").save(own)
        r = Reachability.load(own)
        server = r.serve(live=True)
        other = str(tmp_path / "other.rpro")
        Reachability(random_dag(15, 40, seed=5), "DL").save(other)
        r.swap_artifact(other)
        server.close()
        with pytest.raises(RuntimeError, match="external artifact"):
            r.serve(live=True)


class TestSwapSnapshotPinning:
    def test_swapped_file_may_be_deleted_immediately(self, tmp_path):
        # swap_artifact publishes a snapshot, so the caller's file is
        # free to go the moment the call returns.
        g = random_dag(40, 100, seed=9)
        r = Reachability(path_dag(40), "DL")
        server = r.serve(live=True)
        try:
            v2 = str(tmp_path / "v2.rpro")
            Reachability(g.copy(), "DL").save(v2)
            expected = Reachability.load(v2).query_batch(
                [(u, v) for u in range(0, 40, 3) for v in range(0, 40, 3)]
            )
            r.swap_artifact(v2)
            os.unlink(v2)  # gone before the first query of the new epoch
            with ReachClient(*server.address) as client:
                pairs = [(u, v) for u in range(0, 40, 3) for v in range(0, 40, 3)]
                assert client.query_batch(pairs) == expected
        finally:
            server.close()
