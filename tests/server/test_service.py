"""Tests for the query service, TCP server, and HTTP fallback.

The acceptance property lives here: served answers are **bit-identical**
to a direct :class:`CompiledOracle` on the same artifact — for every
registered method through the facade pipeline artifact, across seeded
DAGs, with batching on and off.
"""

import json
import random
import urllib.request

import pytest

from repro.datasets.workloads import equal_workload
from repro.facade import Reachability
from repro.graph.generators import citation_dag, random_dag
from repro.serialization import load_artifact
from repro.server import QueryService, ReachClient, ReachServer, serve_artifact
from repro.server.httpd import HttpFrontend

ALL_METHODS = [
    "BFS", "DFS", "GL", "GL*", "PT", "PT*", "KR", "PW8", "INT",
    "2HOP", "PL", "TF", "HL", "DL", "CH", "TREE", "DUAL", "3HOP", "ISL",
]


def _mixed_pairs(n, count, seed):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


@pytest.fixture(scope="module")
def pipeline_artifact(tmp_path_factory):
    """A DL pipeline artifact + its direct oracle + a mixed workload."""
    g = random_dag(120, 320, seed=3)
    reach = Reachability(g, "DL")
    path = str(tmp_path_factory.mktemp("srv") / "dl.rpro")
    reach.save(path)
    direct = load_artifact(path)
    pairs = _mixed_pairs(g.n, 400, seed=4)
    expected = [bool(a) for a in direct.query_batch(pairs)]
    return path, pairs, expected


class TestQueryService:
    def test_in_process_answers_match_direct(self, pipeline_artifact):
        path, pairs, expected = pipeline_artifact
        with QueryService(path, window_s=0.001) as service:
            assert service.query_pairs(pairs) == expected
            assert service.query(*pairs[0]) == expected[0]

    def test_live_oracle_injection(self):
        g = random_dag(60, 150, seed=5)
        reach = Reachability(g, "DL")
        pairs = _mixed_pairs(g.n, 100, seed=6)
        with QueryService(oracle=reach, window_s=0.0) as service:
            assert service.query_pairs(pairs) == reach.query_batch(pairs)

    def test_cache_serves_second_pass(self, pipeline_artifact):
        path, pairs, expected = pipeline_artifact
        with QueryService(path, cache_size=4096) as service:
            assert service.query_pairs(pairs) == expected
            before = service.cache.stats()["hits"]
            assert service.query_pairs(pairs) == expected  # warm
            stats = service.cache.stats()
            assert stats["hits"] - before == len(pairs)
            # the workload is mostly negative on this sparse DAG:
            assert stats["negative_hits"] > 0

    def test_out_of_range_pair_rejected(self, pipeline_artifact):
        path, _pairs, _expected = pipeline_artifact
        with QueryService(path) as service:
            with pytest.raises(ValueError, match="out of range"):
                service.query_pairs([(0, 10**6)])
            with pytest.raises(ValueError, match="out of range"):
                service.query_pairs([(-1, 0)])

    def test_workers_require_artifact(self, pipeline_artifact):
        """Exactly one answer source; the ``workers`` knob is gone."""
        path, _pairs, _expected = pipeline_artifact
        g = random_dag(20, 40, seed=7)
        with pytest.raises(ValueError, match="exactly one"):
            QueryService()
        with pytest.raises(ValueError, match="exactly one"):
            QueryService(path, oracle=Reachability(g))
        with pytest.raises(TypeError, match="workers"):
            QueryService(path, workers=1)
        with pytest.raises(TypeError, match="workers"):
            serve_artifact(path, workers=1)
        with pytest.raises(TypeError, match="workers"):
            Reachability(g).serve(workers=1)

    def test_single_pair_rides_scalar_path(self, pipeline_artifact):
        path, pairs, expected = pipeline_artifact
        with QueryService(path, cache_size=0, window_s=0.0) as service:
            for pair, want in zip(pairs[:20], expected[:20]):
                assert service.query_pairs([pair]) == [want]
            assert service.stats()["single_dispatches"] == 20

    def test_stats_document_shape(self, pipeline_artifact):
        path, pairs, _expected = pipeline_artifact
        with QueryService(path, cache_size=128) as service:
            service.query_pairs(pairs[:50])
            stats = service.stats()
            assert stats["requests"] == 1
            assert stats["pairs"] == 50
            assert "hit_rate" in stats["cache"]
            assert "mean_batch_pairs" in stats["batcher"]
            # pipeline artifacts serve a serve-mode facade underneath
            assert stats["oracle"]["serve_mode"] is True
            assert stats["oracle"]["index"]["method"] == "DL"


class TestReachServer:
    def test_tcp_round_trip_and_stats(self, pipeline_artifact):
        path, pairs, expected = pipeline_artifact
        server = serve_artifact(path, cache_size=256)
        try:
            with ReachClient(*server.address) as client:
                assert client.query_batch(pairs) == expected
                assert client.query(*pairs[0]) == expected[0]
                assert client.ping() < 5.0
                stats = client.stats()
                assert stats["connections_total"] >= 1
                assert stats["pairs"] >= len(pairs)
        finally:
            server.close()

    def test_malformed_query_payload_reports_error(self, pipeline_artifact):
        path, _pairs, _expected = pipeline_artifact
        from repro.server import protocol as proto
        import socket as socket_mod

        server = serve_artifact(path)
        try:
            sock = socket_mod.create_connection(server.address, timeout=10)
            sock.sendall(proto.pack_frame(proto.OP_QUERY, 7, b"\x05"))
            reader = proto.FrameReader(sock)
            op, rid, payload = reader.read_frame()
            assert op == proto.OP_ERROR and rid == 7
            assert b"ProtocolError" in payload
            sock.close()
        finally:
            server.close()

    def test_remote_shutdown_frame(self, pipeline_artifact):
        path, _pairs, _expected = pipeline_artifact
        server = serve_artifact(path, allow_shutdown=True)
        with ReachClient(*server.address) as client:
            client.shutdown_server()
        assert server.wait(10)

    def test_shutdown_can_be_disabled(self, pipeline_artifact):
        path, pairs, expected = pipeline_artifact
        server = serve_artifact(path, allow_shutdown=False)
        try:
            with ReachClient(*server.address) as client:
                with pytest.raises(RuntimeError, match="disabled"):
                    client.shutdown_server()
                # and the server is still answering afterwards
                assert client.query_batch(pairs[:10]) == expected[:10]
        finally:
            server.close()


class TestCloseSemantics:
    """close() is idempotent everywhere, including after a failed start."""

    def test_server_close_is_idempotent(self, pipeline_artifact):
        path, pairs, expected = pipeline_artifact
        server = serve_artifact(path)
        with ReachClient(*server.address) as client:
            assert client.query_batch(pairs[:10]) == expected[:10]
        server.close()
        server.close()

    def test_failed_start_leaves_a_closeable_server(self, pipeline_artifact):
        path, pairs, expected = pipeline_artifact
        occupied = serve_artifact(path)
        try:
            service = QueryService(path).start()
            clashing = ReachServer(service, port=occupied.port)
            with pytest.raises(OSError):
                clashing.start()
            clashing.close()  # failed start: close stays a clean no-op
            clashing.close()
            # the service is untouched and can back a working server
            server = ReachServer(service, owns_service=True).start()
            try:
                with ReachClient(*server.address) as client:
                    assert client.query_batch(pairs[:10]) == expected[:10]
            finally:
                server.close()
        finally:
            occupied.close()

    def test_unstarted_service_close_is_safe(self, pipeline_artifact):
        path, _pairs, _expected = pipeline_artifact
        service = QueryService(path)  # never start()ed
        service.close()
        service.close()

    def test_started_service_close_is_idempotent(self, pipeline_artifact):
        path, pairs, _expected = pipeline_artifact
        service = QueryService(path).start()
        service.query_pairs(pairs[:10])
        service.close()
        service.close()


class TestHttpFallback:
    def test_query_stats_and_health(self, pipeline_artifact):
        path, pairs, expected = pipeline_artifact
        with QueryService(path) as service:
            http = HttpFrontend(service).start()
            try:
                base = f"http://{http.host}:{http.port}"
                req = urllib.request.Request(
                    f"{base}/query",
                    data=json.dumps({"pairs": pairs[:25]}).encode(),
                    method="POST",
                )
                doc = json.loads(urllib.request.urlopen(req).read())
                assert doc["answers"] == expected[:25]
                assert doc["count"] == 25
                stats = json.loads(urllib.request.urlopen(f"{base}/stats").read())
                assert stats["pairs"] >= 25
                health = json.loads(urllib.request.urlopen(f"{base}/healthz").read())
                assert health == {"ok": True}
            finally:
                http.close()

    def test_bad_request_is_400_not_crash(self, pipeline_artifact):
        path, _pairs, _expected = pipeline_artifact
        with QueryService(path) as service:
            http = HttpFrontend(service).start()
            try:
                req = urllib.request.Request(
                    f"http://{http.host}:{http.port}/query",
                    data=b'{"nope": 1}',
                    method="POST",
                )
                with pytest.raises(urllib.error.HTTPError) as exc_info:
                    urllib.request.urlopen(req)
                assert exc_info.value.code == 400
            finally:
                http.close()


class TestServedBitIdentical:
    """The acceptance property: served == direct CompiledOracle."""

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_method_through_pipeline_artifact(self, method, tmp_path):
        g = random_dag(70, 180, seed=11)
        reach = Reachability(g, method)
        path = str(tmp_path / "m.rpro")
        reach.save(path)
        direct = load_artifact(path)
        pairs = _mixed_pairs(g.n, 150, seed=12)
        expected = [bool(a) for a in direct.query_batch(pairs)]
        server = serve_artifact(path, window_s=0.001)
        try:
            with ReachClient(*server.address) as client:
                assert client.query_batch(pairs) == expected
        finally:
            server.close()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("window_s", [0.0, 0.001])
    def test_seeded_dags_batching_on_and_off(self, seed, window_s, tmp_path):
        g = citation_dag(150, out_per_vertex=2.5, seed=seed)
        reach = Reachability(g, "DL")
        path = str(tmp_path / "s.rpro")
        reach.save(path)
        direct = load_artifact(path)
        wl = equal_workload(g, 120, seed=seed + 100)
        pairs = list(wl.pairs) + _mixed_pairs(g.n, 80, seed=seed + 200)
        expected = [bool(a) for a in direct.query_batch(pairs)]
        server = serve_artifact(path, window_s=window_s, cache_size=64)
        try:
            with ReachClient(*server.address) as client:
                assert client.query_batch(pairs) == expected
                # one-by-one as well (scalar fallback + cache path)
                for pair, want in zip(pairs[:30], expected[:30]):
                    assert client.query(*pair) == want
        finally:
            server.close()
