"""Tests for the benchmark harness."""

import pytest

from repro.bench.harness import (
    BuildBudget,
    MethodRun,
    RunResult,
    prepare_workloads,
    render_table,
    run_dataset,
)
from repro.graph.generators import random_dag


@pytest.fixture
def small_graph():
    return random_dag(60, 150, seed=1)


class TestMethodRun:
    def test_ok_run_records_everything(self, small_graph):
        wl = prepare_workloads(small_graph, ["equal"], 50)
        r = MethodRun("DL").execute("test", small_graph, wl)
        assert r.ok
        assert r.build_s is not None and r.build_s >= 0
        assert r.index_size_ints > 0
        assert "equal" in r.query_ms

    def test_memory_budget_produces_dnf(self, small_graph):
        budget = BuildBudget(params={"max_cover_closure_bits": 4})
        r = MethodRun("KR", budget).execute("test", small_graph, [])
        assert r.status == "dnf-memory"
        assert not r.ok

    def test_time_budget_produces_dnf(self, small_graph):
        budget = BuildBudget(time_s=0.0)
        r = MethodRun("DL", budget).execute("test", small_graph, [])
        assert r.status == "dnf-time"

    def test_generic_exception_reports_error_status(self, small_graph):
        budget = BuildBudget(params={"order": "no_such_order"})
        r = MethodRun("DL", budget).execute("test", small_graph, [])
        assert r.status == "error"
        assert "no_such_order" in r.error

    def test_positive_rate_recorded(self, small_graph):
        wl = prepare_workloads(small_graph, ["equal"], 60)
        r = MethodRun("DL").execute("test", small_graph, wl)
        assert 0.0 < r.correct_positive_rate < 1.0


class TestRunDataset:
    def test_runs_all_methods(self, small_graph):
        results = run_dataset(
            "x", ["DL", "HL", "GL"], queries=40, graph=small_graph
        )
        assert [r.method for r in results] == ["DL", "HL", "GL"]
        assert all(r.ok for r in results)

    def test_methods_answer_identically(self, small_graph):
        # All ok methods must report the same positive rate on the
        # shared workload — a cheap cross-validation inside the harness.
        results = run_dataset(
            "x", ["DL", "HL", "INT", "PW8"], queries=80, graph=small_graph
        )
        rates = {r.correct_positive_rate for r in results if r.ok}
        assert len(rates) == 1


class TestWorkloadPreparation:
    def test_kinds(self, small_graph):
        wls = prepare_workloads(small_graph, ["equal", "random"], 30)
        assert [w.name for w in wls] == ["equal", "random"]

    def test_unknown_kind(self, small_graph):
        with pytest.raises(ValueError):
            prepare_workloads(small_graph, ["weird"], 10)


class TestRendering:
    def _results(self):
        return [
            RunResult("d1", "DL", "ok", build_s=0.5, index_size_ints=1234,
                      query_ms={"equal": 1.25}),
            RunResult("d1", "KR", "dnf-memory"),
            RunResult("d2", "DL", "ok", build_s=0.1, index_size_ints=99,
                      query_ms={"equal": 0.4}),
        ]

    def test_query_table(self):
        text = render_table(self._results(), "query", title="T")
        assert "1.2" in text or "1.3" in text
        assert "—" in text
        assert "d1" in text and "d2" in text

    def test_construction_table(self):
        text = render_table(self._results(), "construction")
        assert "500" in text  # 0.5 s -> 500 ms

    def test_index_size_table(self):
        text = render_table(self._results(), "index_size")
        assert "1.2" in text  # 1234 ints -> 1.2 k

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            render_table(self._results(), "nope")

    def test_dnf_cell_for_missing_combination(self):
        text = render_table(self._results(), "query")
        # d2 has no KR run: its cell renders as DNF dash.
        lines = [ln for ln in text.splitlines() if ln.startswith("d2")]
        assert "—" in lines[0]


class TestThroughArtifact:
    """The harness can measure the serve lifecycle (artifact round-trip)."""

    def test_queries_served_from_loaded_artifact(self):
        g = random_dag(60, 150, seed=9)
        live = run_dataset(
            "adhoc", ["DL"], queries=300, query_repeats=1, graph=g
        )[0]
        served = run_dataset(
            "adhoc", ["DL"], queries=300, query_repeats=1, graph=g,
            through_artifact=True,
        )[0]
        assert served.status == "ok"
        assert served.artifact_bytes > 0
        assert served.load_s >= 0.0
        # Loaded-artifact size must match the live index's accounting.
        assert served.loaded_size_ints == live.index_size_ints
        assert served.index_size_ints == live.index_size_ints
        # Same workload seed -> same positive count either way.
        assert served.correct_positive_rate == live.correct_positive_rate

    def test_live_runs_have_no_artifact_fields(self):
        g = random_dag(40, 90, seed=11)
        r = run_dataset("adhoc", ["GL"], queries=100, query_repeats=1, graph=g)[0]
        assert r.artifact_bytes is None and r.load_s is None


class TestQueryPercentiles:
    """Every query mode reports p50/p95/p99, not just batch means."""

    def test_direct_mode_reports_scalar_percentiles(self, small_graph):
        wl = prepare_workloads(small_graph, ["equal", "random"], 50)
        r = MethodRun("DL").execute("test", small_graph, wl)
        assert set(r.query_percentiles) == {"equal", "random"}
        for pct in r.query_percentiles.values():
            assert set(pct) == {"p50_us", "p95_us", "p99_us", "p99.9_us"}
            assert 0 < pct["p50_us"] <= pct["p95_us"] <= pct["p99_us"]

    def test_through_artifact_mode_reports_percentiles(self, small_graph):
        wl = prepare_workloads(small_graph, ["equal"], 40)
        r = MethodRun("DL", through_artifact=True).execute(
            "test", small_graph, wl
        )
        assert r.ok
        assert "p95_us" in r.query_percentiles["equal"]

    def test_empty_workload_has_no_percentiles(self, small_graph):
        from repro.datasets.workloads import Workload

        r = MethodRun("DL").execute("test", small_graph, [Workload("equal", [])])
        assert r.query_ms["equal"] == 0.0
        assert "equal" not in r.query_percentiles


class TestThroughServer:
    def test_through_server_reports_qps_and_latency(self, small_graph):
        wl = prepare_workloads(small_graph, ["equal"], 60)
        direct = MethodRun("DL").execute("test", small_graph, wl)
        r = MethodRun("DL", through_server=True).execute(
            "test", small_graph, wl
        )
        assert r.ok, r.error
        assert r.server_qps["equal"] > 0
        assert r.query_ms["equal"] > 0
        pct = r.query_percentiles["equal"]
        assert 0 < pct["p50_us"] <= pct["p99_us"]
        # answers served over TCP match the direct run bit for bit
        assert r.correct_positive_rate == direct.correct_positive_rate

    def test_run_dataset_through_server(self, small_graph):
        results = run_dataset(
            "x",
            ["DL"],
            queries=40,
            graph=small_graph,
            through_server=True,
        )
        assert results[0].ok
        assert results[0].server_qps["equal"] > 0
