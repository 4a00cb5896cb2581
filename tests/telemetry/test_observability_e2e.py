"""End-to-end observability: wire tracing, HTTP scrape paths, stats v2.

Servers here force ``Telemetry(sample_every=1, latency_every=1)`` —
production defaults sample 1-in-256 / 1-in-32, which on a short test
workload records nothing deterministic.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.facade import Reachability
from repro.graph.generators import random_dag
from repro.server.client import ReachClient
from repro.server.httpd import HttpFrontend
from repro.server.service import QueryService
from repro.server.tcp import ReachServer
from repro.telemetry import Telemetry

from tests.telemetry.test_metrics import _parse_prometheus


def _sample_all() -> Telemetry:
    return Telemetry(sample_every=1, latency_every=1)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = random_dag(120, 320, seed=3)
    reach = Reachability(graph, "DL")
    path = str(tmp_path_factory.mktemp("obs") / "obs.rpro")
    reach.save(path)
    pairs = [(i % 120, (i * 7 + 3) % 120) for i in range(200)]
    expected = [bool(a) for a in reach.query_batch(pairs)]
    return path, pairs, expected


@pytest.fixture()
def traced_server(artifact):
    path, _, _ = artifact
    # cache_size=0 keeps every traced request on the full batcher →
    # dispatch path instead of answering from the LRU.
    service = QueryService(path, telemetry=_sample_all(), cache_size=0).start()
    server = ReachServer(service, owns_service=True).start()
    yield server
    server.close()


def _wait_for_trace(client, wanted, timeout_s=5.0):
    """Poll ``client.traces()`` until a trace satisfies ``wanted``.

    The server offers a trace to the sampler *after* the reply's flush
    span closes (the flush has to be timed first), so the reply can
    reach the client before its trace is retained.  Returns
    ``(matching, last_snapshot)``; ``matching`` is empty on timeout.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        traces = client.traces()
        ours = [t for t in traces if wanted(t)]
        if ours or time.monotonic() >= deadline:
            return ours, traces
        time.sleep(0.01)


class TestWireTracing:
    def test_traced_query_exemplar_has_named_spans(self, traced_server, artifact):
        _, pairs, expected = artifact
        with ReachClient(*traced_server.address) as client:
            answers, trace_id = client.query_batch_traced(pairs)
            assert answers == expected
            ours, traces = _wait_for_trace(
                client, lambda t: t["trace_id"] == trace_id
            )
        assert ours, f"trace {trace_id} not retained among {len(traces)}"
        doc = ours[0]
        assert doc["origin"] == "client"
        assert doc["duration_ns"] >= 0
        names = [s["name"] for s in doc["spans"]]
        # the acceptance bar is >= 4 named pipeline stages
        assert {"decode", "cache_lookup", "batch_wait", "dispatch"} <= set(
            names
        ), names
        for span in doc["spans"]:
            assert span["offset_ns"] >= 0
            assert span["duration_ns"] >= 0

    def test_server_autotraces_without_client_ids(self, traced_server, artifact):
        _, pairs, expected = artifact
        with ReachClient(*traced_server.address) as client:
            assert client.query_batch(pairs) == expected
            ours, traces = _wait_for_trace(
                client, lambda t: t["origin"] == "server"
            )
        assert ours, f"no server-origin trace among {len(traces)}"

    def test_stats_v2_reports_sampled_histograms(self, traced_server, artifact):
        _, pairs, _ = artifact
        with ReachClient(*traced_server.address) as client:
            client.query_batch(pairs)
            doc = client.stats()
        assert doc["stats_version"] == 2
        tel = doc["telemetry"]
        hist = tel["histograms"]["repro_request_seconds"]
        assert hist["count"] >= 1
        assert hist["unit"] == "ns"
        assert tel["traces"]["keep"] > 0

    def test_traced_query_works_with_telemetry_off(self, artifact):
        path, pairs, expected = artifact
        service = QueryService(path, telemetry=False).start()
        server = ReachServer(service, owns_service=True).start()
        try:
            with ReachClient(*server.address) as client:
                answers, _ = client.query_batch_traced(pairs)
                assert answers == expected
                assert client.traces() == []
                assert "telemetry" not in client.stats()
        finally:
            server.close()


class _BoomStats:
    """Delegates everything to the real oracle except ``stats``."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def stats(self):
        raise RuntimeError("stats backend gone")


class TestStatsDegradation:
    def test_broken_subsection_is_named_not_swallowed(self, artifact):
        path, pairs, expected = artifact
        service = QueryService(path, telemetry=_sample_all()).start()
        try:
            service._oracle = _BoomStats(service._oracle)
            assert service.query_pairs(pairs) == expected  # serving survives
            doc = service.stats()
            assert doc["degraded"] == ["oracle"]
            assert "oracle" not in doc
            errors = doc["telemetry"]["counters"]["repro_stats_errors_total"]
            assert errors >= 1
        finally:
            service.close()


@pytest.fixture()
def http_server(artifact):
    path, _, _ = artifact
    service = QueryService(path, telemetry=_sample_all()).start()
    http = HttpFrontend(service).start()
    yield service, http
    http.close()
    service.close()


def _get(http, route):
    url = f"http://{http.host}:{http.port}{route}"
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.headers, resp.read()


class TestHttpScrape:
    def test_get_stats_is_v2_json(self, http_server):
        _, http = http_server
        status, headers, body = _get(http, "/stats")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        doc = json.loads(body)
        assert doc["stats_version"] == 2
        assert "telemetry" in doc

    def test_get_metrics_is_prometheus_text(self, http_server):
        service, http = http_server
        # put traffic through the service so histograms have content
        service.query_pairs([(0, 1), (2, 3)])
        status, headers, body = _get(http, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4"
        samples = _parse_prometheus(body.decode("utf-8"))
        buckets = samples["repro_request_seconds_bucket"]
        assert buckets[-1][0].endswith('le="+Inf"}')
        assert buckets[-1][1] >= 1
        assert samples["repro_stats_requests"][0][1] >= 1

    def test_get_traces_returns_exemplars(self, http_server):
        service, http = http_server
        service.query_pairs([(0, 1)])
        status, _, body = _get(http, "/traces")
        assert status == 200
        doc = json.loads(body)
        assert isinstance(doc["traces"], list)
        assert doc["traces"], "forced sampling should retain an exemplar"
        assert doc["traces"][0]["spans"]

    def test_unknown_route_is_404(self, http_server):
        _, http = http_server
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(http, "/nope")
        assert err.value.code == 404

    def test_malformed_query_is_400(self, http_server):
        _, http = http_server
        url = f"http://{http.host}:{http.port}/query"
        req = urllib.request.Request(
            url, data=b"this is not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
