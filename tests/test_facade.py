"""Tests for the Reachability facade over cyclic digraphs."""

import pytest

from repro import Reachability
from repro.graph.digraph import DiGraph
from repro.graph.generators import powerlaw_digraph
from repro.graph.traversal import bfs_reaches


def assert_facade_matches_bfs(r, graph):
    for u in range(graph.n):
        for v in range(graph.n):
            assert r.query(u, v) == bfs_reaches(graph.out_adj, u, v)


class TestCyclicGraphs:
    @pytest.mark.parametrize("method", ["DL", "HL", "PT", "INT", "GL", "PW8"])
    def test_matches_bfs_on_cyclic(self, method):
        g = powerlaw_digraph(60, 170, seed=1)
        r = Reachability(g, method=method)
        assert_facade_matches_bfs(r, g)

    def test_same_scc_pairs_true(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        r = Reachability(g)
        for u in range(3):
            for v in range(3):
                assert r.query(u, v)

    def test_same_scc_helper(self):
        g = DiGraph.from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
        r = Reachability(g)
        assert r.same_scc(0, 1)
        assert not r.same_scc(1, 2)

    def test_query_batch(self):
        g = powerlaw_digraph(40, 110, seed=2)
        r = Reachability(g)
        pairs = [(u, v) for u in range(0, 40, 5) for v in range(0, 40, 7)]
        assert r.query_batch(pairs) == [r.query(u, v) for u, v in pairs]


class TestMethodsAndParams:
    def test_callable_method(self):
        from repro.core.distribution import DistributionLabeling

        g = powerlaw_digraph(30, 80, seed=3)
        r = Reachability(g, method=DistributionLabeling)
        assert_facade_matches_bfs(r, g)

    def test_params_forwarded(self):
        g = powerlaw_digraph(30, 80, seed=4)
        r = Reachability(g, method="DL", order="degree_sum")
        assert r.index.params == {"order": "degree_sum"}

    def test_unknown_method(self):
        with pytest.raises(KeyError):
            Reachability(DiGraph(1), method="nope")


class TestPathCertificates:
    def test_path_is_real(self):
        g = powerlaw_digraph(60, 170, seed=5)
        r = Reachability(g)
        found = 0
        for u in range(0, g.n, 3):
            for v in range(0, g.n, 4):
                p = r.path(u, v)
                if p is None:
                    assert not r.query(u, v)
                    continue
                found += 1
                assert p[0] == u and p[-1] == v
                for a, b in zip(p, p[1:]):
                    assert g.has_edge(a, b)
        assert found > 0

    def test_reflexive_path(self):
        g = DiGraph.from_edges(2, [(0, 1)])
        assert Reachability(g).path(1, 1) == [1]

    def test_unreachable_returns_none(self):
        g = DiGraph.from_edges(2, [(0, 1)])
        assert Reachability(g).path(1, 0) is None

    def test_path_through_scc(self):
        g = DiGraph.from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
        p = Reachability(g).path(0, 3)
        assert p[0] == 0 and p[-1] == 3
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)


class TestAnalytics:
    def test_reachable_count_from(self):
        g = DiGraph.from_edges(5, [(0, 1), (1, 0), (1, 2), (3, 4)])
        r = Reachability(g)
        assert r.reachable_count_from(0) == 3  # {0,1} SCC + 2
        assert r.reachable_count_from(3) == 2
        assert r.reachable_count_from(2) == 1

    def test_stats(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
        stats = Reachability(g).stats()
        assert stats["original_n"] == 3
        assert stats["dag_n"] == 2
        assert stats["index"]["method"] == "DL"

    def test_repr(self):
        g = DiGraph.from_edges(2, [(0, 1)])
        assert "method=DL" in repr(Reachability(g))

    def test_dag_input_passthrough(self):
        g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        r = Reachability(g)
        assert r.condensation.dag.n == 4
        assert_facade_matches_bfs(r, g)


class TestServeLifecycle:
    """is_serving, the serve-mode path() error, and Reachability.serve()."""

    @staticmethod
    def _cyclic_graph():
        return DiGraph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]
        )

    def test_is_serving_false_on_build_side(self):
        r = Reachability(self._cyclic_graph())
        assert r.is_serving is False
        assert r.path(0, 5) is not None  # graph helpers available

    def test_is_serving_true_after_artifact_round_trip(self, tmp_path):
        path = str(tmp_path / "p.rpro")
        Reachability(self._cyclic_graph()).save(path)
        served = Reachability.load(path)
        assert served.is_serving is True

    def test_serve_mode_path_error_names_the_workflow(self, tmp_path):
        import pytest

        path = str(tmp_path / "p.rpro")
        Reachability(self._cyclic_graph()).save(path)
        served = Reachability.load(path)
        with pytest.raises(RuntimeError) as exc_info:
            served.path(0, 5)
        message = str(exc_info.value)
        # The error must teach the fix: name the serve mode, the
        # artifact workflow it came from, and the graph-backed
        # alternative.
        assert "is_serving" in message
        assert "from_artifact" in message
        assert "build -> compile -> serve" in message
        assert "Reachability(graph, method)" in message

    def test_serve_in_process_matches_local_answers(self):
        from repro.server import ReachClient

        g = self._cyclic_graph()
        r = Reachability(g)
        server = r.serve()  # ephemeral port
        try:
            pairs = [(u, v) for u in range(g.n) for v in range(g.n)]
            expected = [bool(a) for a in r.query_batch(pairs)]
            with ReachClient(*server.address) as client:
                assert client.query_batch(pairs) == expected
        finally:
            server.close()

    def test_serve_mode_facade_reuses_its_artifact(self, tmp_path):
        from repro.server import ReachClient

        g = self._cyclic_graph()
        path = str(tmp_path / "p.rpro")
        r = Reachability(g)
        r.save(path)
        served = Reachability.load(path)
        server = served.serve()
        try:
            assert server.cleanup_paths == []  # no temp file needed
            # ...and no second mapping: the loaded facade itself answers
            assert server.service.artifact_path is None
            with ReachClient(*server.address) as client:
                assert client.query(0, 5) is True
        finally:
            server.close()


class TestServeRestartAfterClose:
    """Regression: Reachability.serve() after close() restarts cleanly
    in every mode (satellite).  The one deliberate exception — a second
    *live* serve while the first is still up — raises a clear error
    (covered in tests/live/test_live_serving.py)."""

    @staticmethod
    def _graph():
        return DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])

    def _roundtrip(self, server):
        from repro.server import ReachClient

        try:
            with ReachClient(*server.address) as client:
                assert client.query(0, 3) is True
                assert client.query(3, 0) is False
        finally:
            server.close()

    def test_build_mode_in_process_restarts(self):
        r = Reachability(self._graph(), "DL")
        self._roundtrip(r.serve())
        self._roundtrip(r.serve())

    def test_serve_mode_facade_restarts(self, tmp_path):
        path = str(tmp_path / "p.rpro")
        Reachability(self._graph(), "DL").save(path)
        served = Reachability.load(path)
        self._roundtrip(served.serve())
        self._roundtrip(served.serve())

    def test_live_serve_restarts_and_keeps_updates(self):
        import pytest

        g = DiGraph.from_edges(4, [(0, 1), (2, 3)])
        r = Reachability(g, "DL")
        server = r.serve(live=True)
        r.add_edge(1, 2)
        server.close()
        # Updates applied while live survive into the next serve.
        server2 = r.serve(live=True)
        from repro.server import ReachClient

        try:
            with ReachClient(*server2.address) as client:
                assert client.query(0, 3) is True
        finally:
            server2.close()
        # ...and a dead live server refuses further updates clearly.
        with pytest.raises(RuntimeError, match="serve\\(live=True\\)"):
            r.add_edge(0, 2)
