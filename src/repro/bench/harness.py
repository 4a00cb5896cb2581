"""Benchmark harness: build indices, time workloads, render paper tables.

The harness mirrors the paper's reporting discipline:

* **query time** — total wall time for a fixed workload batch (the paper
  reports ms per 100 000 queries; we report ms per batch and print the
  batch size in the table header),
* **query latency percentiles** — p50/p95/p99 of individually timed
  queries from the same workload, for every query mode: scalar timings
  in the direct and ``through_artifact`` modes, client-observed request
  latencies (plus queries/second) in the ``through_server`` mode,
* **construction time** — wall time of the index constructor,
* **index size** — the method's ``index_size_ints()`` (number of stored
  integers, the metric of Figures 3-4),
* **"—" (DNF)** — a method that exceeds its memory/size budget raises
  ``MemoryError`` during construction, or overruns the per-build time
  budget; both render as "—" exactly like the failed runs in Tables 5-7.

Workloads are generated once per dataset and shared by all methods, so
every method answers the same queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.digraph import DiGraph
from ..core.base import get_method
from ..datasets.catalog import load
from ..datasets.workloads import Workload, equal_workload, random_workload

__all__ = [
    "RunResult",
    "MethodRun",
    "run_dataset",
    "render_table",
    "BuildBudget",
    "measure_live_swap",
    "measure_failover",
]


@dataclass
class BuildBudget:
    """Per-method resource limits that produce the paper's "—" entries."""

    time_s: float = 120.0
    params: Dict[str, object] = field(default_factory=dict)


@dataclass
class RunResult:
    """Outcome of building and querying one method on one dataset."""

    dataset: str
    method: str
    status: str  # "ok" | "dnf-memory" | "dnf-time" | "error"
    build_s: Optional[float] = None
    index_size_ints: Optional[int] = None
    query_ms: Dict[str, float] = field(default_factory=dict)
    correct_positive_rate: Optional[float] = None
    error: str = ""
    #: Per-query latency percentiles, workload name ->
    #: ``{"p50_us", "p95_us", "p99_us", "p99.9_us"}`` (microseconds).  Every query
    #: mode fills these: direct and ``through_artifact`` runs time a
    #: sample of scalar queries; ``through_server`` runs report the
    #: client-observed request latencies.
    query_percentiles: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Artifact-serve measurements (``through_artifact`` runs only):
    #: on-disk bytes, cold-load wall time, and the loaded oracle's
    #: reported size (must equal ``index_size_ints`` for label kinds).
    artifact_bytes: Optional[int] = None
    load_s: Optional[float] = None
    loaded_size_ints: Optional[int] = None
    #: Served-throughput per workload (``through_server`` runs only):
    #: client-side queries/second against a live TCP server.
    server_qps: Dict[str, float] = field(default_factory=dict)
    #: Live-serving measurements (``server_live`` runs only), keyed by
    #: workload name like the other query metrics (each workload gets
    #: its own live server and mid-run swap): wall time of the
    #: update→compile→publish swap, client-observed latency percentiles
    #: of the requests whose service interval overlapped that swap
    #: window, and the epoch that server ended on.
    swap_ms: Dict[str, float] = field(default_factory=dict)
    during_swap_percentiles: Dict[str, Dict[str, float]] = field(default_factory=dict)
    live_epoch: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


#: Scalar queries timed individually per workload for the percentile
#: report; capped so percentile sampling never dominates a sweep.
PERCENTILE_SAMPLE = 2000


class MethodRun:
    """Build + measure one method on one prepared graph.

    ``through_artifact=True`` switches the *query* half to the serve
    lifecycle: the built index is compiled, saved to a temporary binary
    artifact, loaded back (memory-mapped), and the workloads are
    answered by the loaded oracle — measuring what a serving process
    actually pays.  ``artifact_bytes`` / ``load_s`` /
    ``loaded_size_ints`` land on the :class:`RunResult`.

    ``through_server=True`` goes one step further: the artifact is
    served by a live :class:`~repro.server.tcp.ReachServer`
    (micro-batching on) and the workloads are driven through the TCP
    client as pipelined single-pair requests.  ``query_ms`` then holds
    client wall time,
    ``query_percentiles`` the client-observed request latencies, and
    ``server_qps`` the measured throughput.
    """

    def __init__(
        self,
        method: str,
        budget: Optional[BuildBudget] = None,
        through_artifact: bool = False,
        through_server: bool = False,
        server_window_s: float = 0.001,
        server_live: bool = False,
        live_updates: int = 32,
    ) -> None:
        self.method = method
        self.budget = budget or BuildBudget()
        self.through_artifact = through_artifact
        self.through_server = through_server
        self.server_window_s = server_window_s
        #: ``server_live`` upgrades ``through_server`` to a live server
        #: (epoch-versioned store + update path): each workload runs
        #: against its own live server and ``live_updates`` random edge
        #: insertions are applied *mid-load*, recording swap latency and
        #: the query-latency percentiles during the swap window.  The
        #: live pipeline serves DL labels whatever ``method`` says (the
        #: built index still provides the build/size metrics).
        self.server_live = server_live
        self.live_updates = live_updates

    def execute(
        self,
        dataset: str,
        graph: DiGraph,
        workloads: Sequence[Workload],
        query_repeats: int = 3,
    ) -> RunResult:
        factory = get_method(self.method)
        t0 = time.perf_counter()
        try:
            index = factory(graph, **self.budget.params)
        except MemoryError as exc:
            return RunResult(dataset, self.method, "dnf-memory", error=str(exc))
        except Exception as exc:  # defensive: report, don't crash the sweep
            return RunResult(dataset, self.method, "error", error=repr(exc))
        build_s = time.perf_counter() - t0
        if build_s > self.budget.time_s:
            return RunResult(
                dataset,
                self.method,
                "dnf-time",
                build_s=build_s,
                error=f"build took {build_s:.1f}s > budget {self.budget.time_s}s",
            )
        result = RunResult(
            dataset,
            self.method,
            "ok",
            build_s=build_s,
            index_size_ints=index.index_size_ints(),
        )
        if self.through_server:
            try:
                if self.server_live:
                    return self._measure_live_server(graph, result, workloads)
                return self._measure_through_server(index, result, workloads)
            except Exception as exc:
                return RunResult(dataset, self.method, "error", error=repr(exc))
        artifact_path = None
        if self.through_artifact:
            try:
                index, artifact_path = self._serve_through_artifact(index, result)
            except MemoryError as exc:
                return RunResult(dataset, self.method, "dnf-memory", error=str(exc))
            except Exception as exc:
                return RunResult(dataset, self.method, "error", error=repr(exc))
        try:
            return self._measure_queries(index, result, workloads, query_repeats)
        finally:
            if artifact_path is not None:
                self._cleanup_artifact(artifact_path)

    def _measure_queries(
        self,
        index,
        result: RunResult,
        workloads: Sequence[Workload],
        query_repeats: int,
    ) -> RunResult:
        for wl in workloads:
            if not len(wl):
                result.query_ms[wl.name] = 0.0
                continue
            best = None
            answers = None
            for _ in range(max(1, query_repeats)):
                t0 = time.perf_counter()
                answers = index.query_batch(wl.pairs)
                elapsed = (time.perf_counter() - t0) * 1000.0
                if best is None or elapsed < best:
                    best = elapsed
            result.query_ms[wl.name] = best
            result.query_percentiles[wl.name] = self._scalar_percentiles(index, wl)
            if wl.positives is not None and answers is not None:
                got = sum(answers)
                result.correct_positive_rate = got / max(1, len(wl))
        return result

    @staticmethod
    def _scalar_percentiles(index, wl: Workload) -> Dict[str, float]:
        """p50/p95/p99 of individually-timed scalar queries (µs).

        The batch number above is the throughput metric; this is the
        latency *shape* an interactive caller sees, sampled from the
        same workload (capped at :data:`PERCENTILE_SAMPLE` pairs).
        """
        from ..stats import percentiles

        sample = wl.pairs[:PERCENTILE_SAMPLE]
        query = index.query
        clock = time.perf_counter
        latencies = []
        for u, v in sample:
            t0 = clock()
            query(u, v)
            latencies.append(clock() - t0)
        pct = percentiles(latencies)
        return {f"{k}_us": v * 1e6 for k, v in pct.items()}

    def _measure_through_server(
        self, index, result: RunResult, workloads: Sequence[Workload]
    ) -> RunResult:
        """Serve the compiled index over TCP; measure from the client.

        The workload is driven as pipelined single-pair requests (the
        interactive shape micro-batching exists for); answers are
        checked against the workload's positive-count metadata exactly
        like the direct modes.
        """
        import os
        import tempfile

        from ..serialization import save_artifact
        from ..server.client import run_load
        from ..server.tcp import serve_artifact

        fd, path = tempfile.mkstemp(suffix=".rpro")
        os.close(fd)
        server = None
        try:
            result.artifact_bytes = save_artifact(index, path)
            server = serve_artifact(
                path,
                window_s=self.server_window_s,
                cache_size=0,  # measure the query path, not the cache
            )
            host, port = server.address
            for wl in workloads:
                if not len(wl):
                    result.query_ms[wl.name] = 0.0
                    continue
                report = run_load(host, port, wl.pairs)
                if report.errors:
                    raise RuntimeError(
                        f"server load run failed: {report.first_error}"
                    )
                result.query_ms[wl.name] = report.wall_s * 1000.0
                result.server_qps[wl.name] = report.qps
                result.query_percentiles[wl.name] = {
                    f"{k}_us": v * 1000.0 for k, v in report.latency_ms.items()
                }
                if wl.positives is not None:
                    result.correct_positive_rate = report.positives / max(1, len(wl))
            return result
        finally:
            if server is not None:
                server.close()
            try:
                os.unlink(path)
            except OSError:
                pass

    def _measure_live_server(
        self, graph: DiGraph, result: RunResult, workloads: Sequence[Workload]
    ) -> RunResult:
        """Mixed read/update measurement against a live server.

        Every workload gets a fresh live server and the same
        deterministic update stream applied mid-load (see
        :func:`measure_live_swap`); ``query_ms``/``server_qps``/
        ``query_percentiles`` report the whole run, ``swap_ms`` and
        ``during_swap_percentiles`` the swap window itself.
        """
        import random as _random

        rng = _random.Random(131)
        updates = []
        while len(updates) < self.live_updates:
            u, v = rng.randrange(graph.n), rng.randrange(graph.n)
            if u != v:
                updates.append((u, v))
        for wl in workloads:
            if not len(wl):
                result.query_ms[wl.name] = 0.0
                continue
            doc = measure_live_swap(
                graph,
                wl.pairs,
                updates,
                window_s=self.server_window_s,
            )
            result.query_ms[wl.name] = (
                len(wl) / doc["qps"] * 1000.0 if doc["qps"] else 0.0
            )
            result.server_qps[wl.name] = doc["qps"]
            result.query_percentiles[wl.name] = {
                f"{k}_us": v * 1000.0 for k, v in doc["latency_ms"].items()
            }
            result.swap_ms[wl.name] = doc["swap_s"] * 1000.0
            result.during_swap_percentiles[wl.name] = {
                f"{k}_us": v * 1000.0 for k, v in doc["during_swap_ms"].items()
            }
            result.live_epoch[wl.name] = doc["epoch"]
        return result

    @staticmethod
    def _serve_through_artifact(index, result: RunResult):
        """Round the built index through a temporary binary artifact.

        The temp file must outlive the query measurements: the loaded
        oracle memory-maps it, so it is cleaned up only after the
        workloads finish (see :meth:`execute`).
        """
        import os
        import tempfile

        from ..serialization import load_artifact, save_artifact

        fd, path = tempfile.mkstemp(suffix=".rpro")
        os.close(fd)
        try:
            result.artifact_bytes = save_artifact(index, path)
            t0 = time.perf_counter()
            loaded = load_artifact(path)
            result.load_s = time.perf_counter() - t0
            result.loaded_size_ints = loaded.index_size_ints()
            return loaded, path
        except BaseException:
            os.unlink(path)
            raise

    @staticmethod
    def _cleanup_artifact(path: str) -> None:
        import os

        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - e.g. Windows keeps mapped
            pass  # files locked; the temp dir reaper collects it


def measure_live_swap(
    graph: DiGraph,
    pairs: Sequence[Tuple[int, int]],
    updates: Sequence[Tuple[int, int]],
    *,
    window_s: float = 0.001,
    connections: int = 4,
    pipeline: int = 32,
    update_at_frac: float = 0.4,
    verify: bool = True,
) -> Dict[str, object]:
    """Serve ``graph`` live, fire ``pairs`` while applying ``updates``.

    The measuring instrument behind ``benchmarks/bench_live.py`` and the
    harness's ``server_live`` mode.  One live server (cache off — the
    raw query path is what a swap can disturb), two load passes of the
    same pipelined single-pair workload:

    1. a **steady** pass, which is both the baseline and the duration
       estimate, then
    2. a **swap** pass during which, ``update_at_frac`` of the steady
       wall time in, the update stream is applied and the new epoch
       published while requests are in flight.

    Returns::

        {"steady_qps", "steady_latency_ms",       # pass 1
         "swap_s", "compile_s", "publish_s",      # the update→flip path
         "full",                                  # full or incremental
         "epoch", "changed",
         "qps", "latency_ms",                     # pass 2, whole run
         "during_swap_ms",                        # p50/p95/p99 of requests
                                                  # completing in the window
         "during_swap_samples", "errors", "connections"}

    With ``verify=True`` the run asserts (a) zero dropped requests in
    either pass and (b) post-swap answers bit-identical to a fresh
    direct build on the post-update graph.
    """
    import threading

    from ..live import IncrementalCompiler, LiveIndex
    from ..server.client import run_load
    from ..server.service import QueryService
    from ..server.tcp import ReachServer
    from ..stats import percentiles

    live = LiveIndex(IncrementalCompiler(graph))
    service = QueryService(live=live, window_s=window_s, cache_size=0)
    server = None
    try:
        service.start()
        server = ReachServer(service, owns_service=True).start()
        host, port = server.address

        steady = run_load(
            host, port, pairs, connections=connections, pipeline=pipeline
        )
        if verify and steady.errors:
            raise RuntimeError(f"steady load run failed: {steady.first_error}")
        update_at_s = steady.wall_s * update_at_frac

        swap_info: Dict[str, object] = {}
        swap_window = [0.0, 0.0]
        update_error: List[BaseException] = []

        def do_update() -> None:
            if update_at_s > 0:
                time.sleep(update_at_s)
            swap_window[0] = time.perf_counter()
            try:
                swap_info.update(live.apply_updates(updates))
            except BaseException as exc:
                update_error.append(exc)
                return
            swap_window[1] = time.perf_counter()

        updater = threading.Thread(target=do_update, name="repro-live-update")
        updater.start()
        report = run_load(
            host,
            port,
            pairs,
            connections=connections,
            pipeline=pipeline,
            keep_samples=True,
        )
        updater.join()
        if update_error:
            raise update_error[0]
        if verify and report.errors:
            raise RuntimeError(
                f"load run dropped requests during the swap: "
                f"{report.first_error}"
            )

        t0, t1 = swap_window
        # A request "saw" the swap when its service interval
        # [send, completion] overlapped the swap window — completions
        # shortly after the flip carry the stall in their latency, so
        # completion-time filtering alone would miss exactly the
        # requests the swap affected.
        during = [
            lat
            for stamp, lat in report.samples
            if stamp >= t0 and stamp - lat <= t1
        ]
        doc: Dict[str, object] = {
            "steady_qps": steady.qps,
            "steady_latency_ms": dict(steady.latency_ms),
            "swap_s": t1 - t0,
            "compile_s": swap_info.get("compile_s"),
            "publish_s": swap_info.get("publish_s"),
            "full": swap_info.get("full"),
            "epoch": swap_info.get("epoch"),
            "changed": swap_info.get("changed"),
            "qps": report.qps,
            "latency_ms": dict(report.latency_ms),
            "during_swap_samples": len(during),
            "during_swap_ms": {
                k: v * 1000.0 for k, v in percentiles(during).items()
            } if during else {},
            "errors": steady.errors + report.errors,
            "connections": connections,
        }
        if verify:
            # The acceptance bar: served answers after the swap must be
            # bit-identical to a fresh build of the post-update graph.
            from ..facade import Reachability
            from ..server.client import ReachClient

            fresh = Reachability(live.compiler.original.copy(), "DL")
            sample = list(pairs[: min(len(pairs), 4000)])
            with ReachClient(host, port) as client:
                served = client.query_batch(sample)
            expected = fresh.query_batch(sample)
            if served != expected:
                bad = sum(1 for a, b in zip(served, expected) if a != b)
                raise AssertionError(
                    f"post-swap answers diverge from a fresh build "
                    f"({bad}/{len(sample)} pairs)"
                )
            doc["verified_pairs"] = len(sample)
        return doc
    finally:
        if server is not None:
            server.close()
        else:
            service.close()
        live.close()


def measure_failover(
    artifact_path: str,
    pairs: Sequence[Tuple[int, int]],
    *,
    replicas: int = 2,
    connections: int = 4,
    pipeline: int = 32,
    kill_at_frac: float = 0.3,
    restart: bool = True,
    verify: bool = True,
    router_kwargs: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Serve ``artifact_path`` through a replica tier, SIGKILL one
    replica mid-load, and measure what the clients felt.

    The measuring instrument behind ``benchmarks/bench_cluster.py`` and
    the chaos smoke.  One :func:`repro.cluster.serve_replicated` tier
    (``replicas`` seeded processes behind a :class:`ReplicaRouter`
    front end), two load passes of the same pipelined workload:

    1. a **steady** pass — the baseline and the duration estimate, then
    2. a **failover** pass during which, ``kill_at_frac`` of the steady
       wall time in, one replica process is SIGKILLed with requests in
       flight (and, with ``restart=True``, later restarted *blank* so
       the shipper must re-fill it before probation re-admits it).

    Returns::

        {"steady_qps", "steady_latency_ms",       # pass 1
         "qps", "latency_ms",                     # pass 2, whole run
         "during_failover_ms",                    # p50/p95/p99 of requests
                                                  # overlapping the outage
         "during_failover_samples",
         "retries", "hedges", "hedge_wins",       # router deltas, pass 2
         "failed", "shed", "errors",
         "replicas", "connections", "readmitted"}

    With ``verify=True`` the run asserts (a) zero dropped requests in
    either pass — the headline zero-failures guarantee — and (b)
    served answers bit-identical to the artifact queried directly.
    """
    import threading

    from ..cluster import serve_replicated
    from ..server.client import run_load
    from ..stats import percentiles

    rk: Dict[str, object] = dict(
        health_interval_s=0.1,
        probation_delay_s=0.3,
        eject_after=2,
        request_timeout_s=2.0,
        hedge_after_s=0.05,
        backoff_base_s=0.01,
    )
    rk.update(router_kwargs or {})
    server = serve_replicated(
        artifact_path, replicas=replicas, sync_interval_s=0.2, **rk
    )
    try:
        host, port = server.address
        router = server.router

        steady = run_load(
            host, port, pairs, connections=connections, pipeline=pipeline
        )
        if verify and steady.errors:
            raise RuntimeError(f"steady load run failed: {steady.first_error}")
        base = router.stats()
        kill_at_s = steady.wall_s * kill_at_frac
        victim = server.replicas[0]

        outage_window = [0.0, 0.0]
        chaos_error: List[BaseException] = []

        def do_chaos() -> None:
            if kill_at_s > 0:
                time.sleep(kill_at_s)
            outage_window[0] = time.perf_counter()
            try:
                victim.kill()
                if restart:
                    # Long enough for ejection to land; the restarted
                    # process comes back *blank* and must bootstrap
                    # from the shipper before it is routable again.
                    time.sleep(max(0.2, steady.wall_s * 0.2))
                    victim.restart()
            except BaseException as exc:  # pragma: no cover - harness bug
                chaos_error.append(exc)
                return
            outage_window[1] = time.perf_counter()

        chaos = threading.Thread(target=do_chaos, name="repro-chaos-kill")
        chaos.start()
        report = run_load(
            host,
            port,
            pairs,
            connections=connections,
            pipeline=pipeline,
            keep_samples=True,
        )
        chaos.join()
        if chaos_error:
            raise chaos_error[0]
        if verify and report.errors:
            raise RuntimeError(
                f"load run dropped requests during failover: "
                f"{report.first_error}"
            )

        after = router.stats()
        t0, t1 = outage_window
        # Same overlap rule as measure_live_swap: a request "saw" the
        # outage when [send, completion] overlapped the kill→restart
        # window — retried slices complete after it but carry the
        # stall in their latency.
        during = [
            lat
            for stamp, lat in report.samples
            if stamp >= t0 and stamp - lat <= t1
        ]

        readmitted: Optional[bool] = None
        if restart:
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if len(router.health.routable()) == replicas:
                    break
                time.sleep(0.05)
            readmitted = len(router.health.routable()) == replicas

        doc: Dict[str, object] = {
            "steady_qps": steady.qps,
            "steady_latency_ms": dict(steady.latency_ms),
            "qps": report.qps,
            "latency_ms": dict(report.latency_ms),
            "outage_s": t1 - t0,
            "during_failover_samples": len(during),
            "during_failover_ms": {
                k: v * 1000.0 for k, v in percentiles(during).items()
            } if during else {},
            "retries": after["retries"] - base["retries"],
            "hedges": after["hedges"] - base["hedges"],
            "hedge_wins": after["hedge_wins"] - base["hedge_wins"],
            "failed": after["failed"] - base["failed"],
            "shed": after["shed"] - base["shed"],
            "errors": steady.errors + report.errors,
            "replicas": replicas,
            "connections": connections,
            "readmitted": readmitted,
            "restarts": victim.restarts,
        }
        if verify:
            # The acceptance bar: answers served through the tier —
            # including any answered by the re-admitted replica — must
            # be bit-identical to the artifact queried directly.
            from ..serialization import load_artifact
            from ..server.client import ReachClient

            direct = load_artifact(artifact_path)
            sample = list(pairs[: min(len(pairs), 4000)])
            with ReachClient(host, port) as client:
                served = client.query_batch(sample)
            expected = [bool(a) for a in direct.query_batch(sample)]
            if served != expected:
                bad = sum(1 for a, b in zip(served, expected) if a != b)
                raise AssertionError(
                    f"post-failover answers diverge from the artifact "
                    f"({bad}/{len(sample)} pairs)"
                )
            doc["verified_pairs"] = len(sample)
        return doc
    finally:
        server.close()


def prepare_workloads(
    graph: DiGraph, kinds: Sequence[str], queries: int, seed: int = 7
) -> List[Workload]:
    """Generate the requested workloads once for a dataset."""
    out: List[Workload] = []
    for kind in kinds:
        if kind == "equal":
            out.append(equal_workload(graph, queries, seed=seed))
        elif kind == "random":
            out.append(random_workload(graph, queries, seed=seed + 1))
        else:
            raise ValueError(f"unknown workload kind {kind!r}")
    return out


#: Methods whose constructors accept the kernel ``backend=`` knob (and,
#: for DL, ``workers=``); the harness only injects the overrides here so
#: the remaining baselines keep their exact signatures.
BACKEND_METHODS = frozenset({"DL", "HL", "GL", "PL"})
WORKER_METHODS = frozenset({"DL"})


def run_dataset(
    dataset: str,
    methods: Sequence[str],
    workload_kinds: Sequence[str] = ("equal",),
    queries: int = 10_000,
    budgets: Optional[Dict[str, BuildBudget]] = None,
    query_repeats: int = 3,
    graph: Optional[DiGraph] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    through_artifact: bool = False,
    through_server: bool = False,
    server_window_s: float = 0.001,
    server_live: bool = False,
    live_updates: int = 32,
) -> List[RunResult]:
    """Run every method on one dataset, sharing workloads.

    ``backend`` / ``workers`` are forwarded to the kernel-aware methods
    (:data:`BACKEND_METHODS` / :data:`WORKER_METHODS`); labels and
    answers are backend-invariant, so overriding them changes timings
    only.  ``through_artifact`` reroutes the query measurements through
    a saved-and-reloaded binary artifact (the serve lifecycle);
    ``through_server`` goes further and drives them through a live TCP
    server (micro-batching window ``server_window_s``), reporting
    client-side latency percentiles and queries/second.
    """
    if graph is None:
        graph = load(dataset)
    workloads = prepare_workloads(graph, workload_kinds, queries)
    budgets = budgets or {}
    results: List[RunResult] = []
    for method in methods:
        budget = budgets.get(method)
        key = method.upper()
        extra: Dict[str, object] = {}
        if backend is not None and key in BACKEND_METHODS:
            extra["backend"] = backend
        if workers is not None and key in WORKER_METHODS:
            extra["workers"] = workers
        if extra:
            budget = BuildBudget(
                time_s=budget.time_s if budget else BuildBudget().time_s,
                params={**(budget.params if budget else {}), **extra},
            )
        runner = MethodRun(
            method,
            budget,
            through_artifact=through_artifact,
            through_server=through_server,
            server_window_s=server_window_s,
            server_live=server_live,
            live_updates=live_updates,
        )
        results.append(runner.execute(dataset, graph, workloads, query_repeats))
    return results


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_cell(value: Optional[float], status: str, digits: int = 1) -> str:
    if status != "ok" or value is None:
        return "—"
    if value >= 10_000:
        return f"{value:,.0f}"
    return f"{value:.{digits}f}"


def render_table(
    results: List[RunResult],
    metric: str,
    workload: str = "equal",
    title: str = "",
) -> str:
    """Render results as a fixed-width text table (datasets × methods).

    ``metric`` is one of ``query`` (ms/batch), ``construction`` (ms) or
    ``index_size`` (thousands of stored integers).
    """
    datasets: List[str] = []
    methods: List[str] = []
    for r in results:
        if r.dataset not in datasets:
            datasets.append(r.dataset)
        if r.method not in methods:
            methods.append(r.method)
    cell: Dict[Tuple[str, str], str] = {}
    for r in results:
        if metric == "query":
            value = r.query_ms.get(workload)
        elif metric == "construction":
            value = None if r.build_s is None or not r.ok else r.build_s * 1000.0
        elif metric == "index_size":
            value = None if r.index_size_ints is None else r.index_size_ints / 1000.0
        else:
            raise ValueError(f"unknown metric {metric!r}")
        cell[(r.dataset, r.method)] = _fmt_cell(value, r.status)

    width0 = max([len("Dataset")] + [len(d) for d in datasets]) + 2
    widths = [max(len(m), 8) + 2 for m in methods]
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = "Dataset".ljust(width0) + "".join(
        m.rjust(w) for m, w in zip(methods, widths)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for d in datasets:
        row = d.ljust(width0) + "".join(
            cell.get((d, m), "—").rjust(w) for m, w in zip(methods, widths)
        )
        lines.append(row)
    return "\n".join(lines)
