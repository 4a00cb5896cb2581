"""Command-line entry point: paper tables/figures and artifact serving.

Usage::

    python -m repro.cli table2                  # full Table-2 sweep
    python -m repro.cli table5 --queries 4000   # fewer queries
    python -m repro.cli figure3 --datasets kegg,arxiv
    python -m repro.cli table1                  # dataset statistics
    python -m repro.cli list                    # available experiments
    python -m repro.cli ablation-rank           # design-choice ablation

    # build → compile → serve through binary artifacts:
    python -m repro.cli build --dataset kegg --method DL --out kegg.rpro
    python -m repro.cli query --artifact kegg.rpro --random 10000
    python -m repro.cli query --artifact kegg.rpro --pairs -   # stdin
    python -m repro.cli serve --artifact kegg.rpro --port 7431 \
        --batch-window 1.0 --cache-size 65536
    python -m repro.cli serve --artifact kegg.rpro --watch   # hot swap on
                                                 # atomic file replace
    python -m repro.cli serve --live kegg --port 7431        # updatable
    printf '0 7\n3 9\n' | python -m repro.cli update --port 7431 --edges -
    printf -- '- 0 7\n+ 2 5\n' | python -m repro.cli update --port 7431 \
        --edges -                                # mixed insert/remove batch
    python -m repro.cli top --port 7431          # live qps/latency/health

    # fault-tolerant tier: replicas + epoch-shipping router
    python -m repro.cli serve --artifact kegg.rpro --replicas 3
    python -m repro.cli route --replica h1:7431 --replica h2:7431

``build`` runs the full pipeline (SCC condensation + index) and writes
a compiled artifact; ``query`` serves a workload from the artifact in a
fresh process — no graph, arrays memory-mapped — which is exactly the
production split the lifecycle is designed around.  ``serve`` keeps
going: a TCP server (binary wire protocol, optional JSON/HTTP port)
with a micro-batching front end and a sharded result cache, answering
in-process; ``--replicas N`` is how a server uses more cores.

Output of the table experiments is a text table shaped like the
paper's (datasets × methods, "—" for methods over budget).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .bench.experiments import EXPERIMENTS, get_experiment
from .bench.harness import RunResult, render_table, run_dataset
from .datasets.catalog import DATASETS, load, table1_rows

__all__ = ["main"]


def _print_table1() -> None:
    rows = table1_rows()
    header = (
        f"{'Dataset':<18}{'suite':<8}{'paper |V|':>12}{'paper |E|':>12}"
        f"{'standin |V|':>13}{'standin |E|':>13}"
    )
    print("Table 1: datasets — paper sizes vs synthetic stand-ins")
    print("=" * len(header))
    print(header)
    print("-" * len(header))
    for name, suite, pn, pm, sn, sm in rows:
        print(f"{name:<18}{suite:<8}{pn:>12,}{pm:>12,}{sn:>13,}{sm:>13,}")


def _run_standard(
    exp_id: str,
    datasets: Optional[List[str]],
    queries: Optional[int],
    repeats: int,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> None:
    exp = get_experiment(exp_id)
    ds = datasets or exp.datasets
    q = queries or exp.queries
    all_results: List[RunResult] = []
    for name in ds:
        t0 = time.perf_counter()
        print(f"[{exp_id}] running {name} ...", file=sys.stderr, flush=True)
        results = run_dataset(
            name,
            exp.methods,
            workload_kinds=exp.workloads or ["equal"],
            queries=q,
            budgets=exp.budgets,
            query_repeats=repeats,
            backend=backend,
            workers=workers,
        )
        all_results.extend(results)
        print(
            f"[{exp_id}] {name} done in {time.perf_counter() - t0:.1f}s",
            file=sys.stderr,
            flush=True,
        )
    workload = exp.workloads[0] if exp.workloads else "equal"
    title = f"{exp.title} (batch = {q} queries)" if exp.metric == "query" else exp.title
    print(render_table(all_results, exp.metric, workload=workload, title=title))


def _run_ablation_rank(datasets: Optional[List[str]]) -> None:
    from .core.distribution import DistributionLabeling

    exp = get_experiment("ablation-rank")
    ds = datasets or exp.datasets
    orders = ["degree_product", "degree_sum", "random", "topo_center"]
    print(exp.title)
    print("=" * len(exp.title))
    header = f"{'Dataset':<16}" + "".join(f"{o:>16}" for o in orders)
    print(header)
    print("-" * len(header))
    for name in ds:
        graph = load(name)
        cells = []
        for order in orders:
            idx = DistributionLabeling(graph, order=order)
            cells.append(f"{idx.index_size_ints() / 1000.0:>16.1f}")
        print(f"{name:<16}" + "".join(cells))
    print("(label size, thousands of integers; lower is better)")


def _run_ablation_labelstore(datasets: Optional[List[str]], queries: int) -> None:
    """Four label-storage strategies on identical DL labels.

    The paper (§1) attributes hop labeling's historical query-time gap
    to hash-set label storage in C++ and recommends sorted vectors.  In
    CPython the constants invert (C-implemented ``isdisjoint`` and
    bigint ``&`` vs an interpreted merge loop); the library therefore
    seals labels behind bigint masks where the hop space allows and
    falls back to the *hybrid* (sorted lists probed against frozenset
    mirrors of the out side) elsewhere — both measured here.
    """
    from .core.distribution import DistributionLabeling
    from .core.labels import intersects
    from .datasets.workloads import equal_workload

    exp = get_experiment("ablation-labelstore")
    ds = datasets or exp.datasets
    print(exp.title)
    print("=" * len(exp.title))
    header = (
        f"{'Dataset':<14}{'merge (ms)':>13}{'hybrid (ms)':>13}"
        f"{'masks (ms)':>13}{'two-sets (ms)':>15}"
    )
    print(header)
    print("-" * len(header))
    for name in ds:
        graph = load(name)
        idx = DistributionLabeling(graph)
        wl = equal_workload(graph, queries, seed=7, oracle=idx)
        labels = idx.labels
        lout, lin = labels.lout, labels.lin

        t0 = time.perf_counter()
        for u, v in wl.pairs:
            intersects(lout[u], lin[v])
        merge_ms = (time.perf_counter() - t0) * 1000.0

        # Bigint-mask layout (the library default where the hop space
        # fits); fall back gracefully if this build has no masks.
        if labels._out_masks is not None:
            t0 = time.perf_counter()
            labels.query_batch(wl.pairs)
            masks_cell = f"{(time.perf_counter() - t0) * 1000.0:>13.1f}"
            labels.drop_masks()  # re-seals onto the hybrid mirrors
        else:
            # Sparse builds ride the sets core and never attach masks.
            masks_cell = f"{'—':>13}"

        labels.arena()  # warm the lazy arena so it isn't billed below
        t0 = time.perf_counter()
        labels.query_batch(wl.pairs)  # sealed hybrid (frozenset mirrors)
        hybrid_ms = (time.perf_counter() - t0) * 1000.0

        lout_sets = [frozenset(x) for x in lout]
        lin_sets = [frozenset(x) for x in lin]
        t0 = time.perf_counter()
        for u, v in wl.pairs:
            _ = not lout_sets[u].isdisjoint(lin_sets[v])
        sets_ms = (time.perf_counter() - t0) * 1000.0

        print(
            f"{name:<14}{merge_ms:>13.1f}{hybrid_ms:>13.1f}"
            f"{masks_cell}{sets_ms:>15.1f}"
        )
    print(
        "(merge = pure sorted-vector intersection; masks = library default "
        "where the hop space fits, hybrid otherwise)"
    )


def _run_stats(datasets: Optional[List[str]]) -> None:
    """Structural metrics for datasets (drives family-fit discussions)."""
    from .graph.metrics import compute_metrics

    names = datasets or list(DATASETS)
    header = (
        f"{'Dataset':<18}{'n':>8}{'m':>8}{'m/n':>7}{'depth':>7}"
        f"{'srcs':>7}{'sinks':>7}{'maxout':>7}{'avgTC':>9}"
    )
    print("Dataset structural metrics (stand-ins)")
    print("=" * len(header))
    print(header)
    print("-" * len(header))
    for name in names:
        g = load(name)
        m = compute_metrics(g)
        approx = "" if m.closure_exact else "~"
        print(
            f"{name:<18}{m.n:>8,}{m.m:>8,}{m.density:>7.2f}{m.depth:>7}"
            f"{m.sources:>7}{m.sinks:>7}{m.max_out_degree:>7}"
            f"{approx + format(m.avg_closure, '.1f'):>9}"
        )


def _run_verify(datasets: Optional[List[str]], samples: int) -> int:
    """Cross-check every registered method against BFS on sampled pairs."""
    import random as _random

    from .baselines.online import OnlineBFS
    from .core.base import get_method, method_registry
    from .bench.experiments import get_experiment

    names = datasets or ["kegg", "arxiv"]
    methods = [m for m in sorted(method_registry()) if m not in ("BFS", "DFS")]
    budgets = get_experiment("table2").budgets
    failures = 0
    for name in names:
        g = load(name)
        truth = OnlineBFS(g)
        rng = _random.Random(99)
        pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(samples)]
        expected = truth.query_batch(pairs)
        for method in methods:
            budget = budgets.get(method)
            params = budget.params if budget else {}
            try:
                idx = get_method(method)(g, **params)
            except MemoryError:
                print(f"{name}/{method}: skipped (budget)")
                continue
            got = idx.query_batch(pairs)
            bad = sum(1 for a, b in zip(got, expected) if a != b)
            status = "ok" if bad == 0 else f"FAIL ({bad} mismatches)"
            if bad:
                failures += 1
            print(f"{name}/{method}: {status}")
    return 1 if failures else 0


def _run_export(datasets: Optional[List[str]], out_dir: str) -> None:
    """Write stand-in datasets as edge-list files (header: n m)."""
    import os

    from .graph.io import write_edge_list

    os.makedirs(out_dir, exist_ok=True)
    names = datasets or list(DATASETS)
    for name in names:
        g = load(name)
        path = os.path.join(out_dir, f"{name}.txt")
        write_edge_list(g, path)
        print(f"wrote {path} ({g.n} vertices, {g.m} edges)")


def _run_build(argv: List[str]) -> int:
    """``build``: graph -> pipeline -> compiled artifact on disk."""
    from .facade import Reachability
    from .graph.io import read_edge_list

    parser = argparse.ArgumentParser(
        prog="repro-bench build",
        description="Build a reachability pipeline and save it as a "
        "binary artifact (the build half of build → compile → serve).",
    )
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", help="stand-in dataset name (see 'table1')")
    src.add_argument("--edges", help="edge-list file (header: n m; one 'u v' per line)")
    parser.add_argument("--method", default="DL", help="paper abbreviation (default DL)")
    parser.add_argument("--out", required=True, help="artifact output path")
    parser.add_argument(
        "--backend", choices=["auto", "python", "numpy"], default=None,
        help="kernel backend for the build (DL/HL/GL/PL)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="shard DL construction over N forked processes",
    )
    parser.add_argument(
        "--compact", action="store_true",
        help="deflated artifact (smallest file; serving loads a private "
        "copy instead of sharing one mmap)",
    )
    args = parser.parse_args(argv)

    if args.dataset:
        if args.dataset not in DATASETS:
            parser.error(f"unknown dataset {args.dataset!r}")
        graph = load(args.dataset)
        source = args.dataset
    else:
        graph = read_edge_list(args.edges)
        source = args.edges

    from .bench.harness import BACKEND_METHODS, WORKER_METHODS

    key = args.method.upper()
    params = {}
    if args.backend is not None and key in BACKEND_METHODS:
        params["backend"] = args.backend
    if args.workers is not None and key in WORKER_METHODS:
        params["workers"] = args.workers

    t0 = time.perf_counter()
    reach = Reachability(graph, args.method, **params)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    nbytes = reach.save(args.out, profile="compact" if args.compact else "mmap")
    save_s = time.perf_counter() - t0
    stats = reach.stats()
    print(f"built {args.method} on {source}: n={graph.n:,} m={graph.m:,} "
          f"dag_n={stats['dag_n']:,} in {build_s:.2f}s")
    print(f"wrote {args.out}: {nbytes:,} bytes "
          f"({stats['index']['index_size_ints']:,} stored ints) in {save_s:.3f}s")
    return 0


def _parse_pairs(lines) -> List[tuple]:
    """``(u, v)`` pairs from an iterable of 'u v' lines (blanks skipped)."""
    pairs = []
    for line in lines:
        parts = line.split()
        if len(parts) >= 2:
            pairs.append((int(parts[0]), int(parts[1])))
    return pairs


def _parse_ops(lines) -> List[tuple]:
    """Update ops from 'u v' / '+ u v' / '- u v' lines (blanks skipped).

    A bare ``u v`` line inserts; a leading ``+`` or ``-`` token makes
    the op explicit (``-`` removes the edge from the live graph).
    """
    ops = []
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if parts[0] in ("+", "-"):
            if len(parts) >= 3:
                ops.append((parts[0], int(parts[1]), int(parts[2])))
        elif len(parts) >= 2:
            ops.append(("+", int(parts[0]), int(parts[1])))
    return ops


def _run_query(argv: List[str]) -> int:
    """``query``: serve a workload from an artifact, no graph in memory."""
    import random as _random

    from .serialization import load_artifact

    parser = argparse.ArgumentParser(
        prog="repro-bench query",
        description="Answer a reachability workload from a saved "
        "artifact (the serve half of build → compile → serve).",
    )
    parser.add_argument("--artifact", required=True, help="artifact path from 'build'")
    parser.add_argument("--pairs",
                        help="file of 'u v' query pairs (one per line); "
                        "'-' reads stdin, so shell pipelines and the load "
                        "generator can feed this command directly")
    parser.add_argument("--random", type=int, default=None, metavar="N",
                        help="generate N uniform random pairs instead")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3, help="batch timing repeats")
    parser.add_argument("--no-mmap", action="store_true",
                        help="read a private copy instead of memory-mapping")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    oracle = load_artifact(args.artifact, mmap=not args.no_mmap)
    load_ms = (time.perf_counter() - t0) * 1000.0

    stats = oracle.stats()
    n = stats.get("original_n") or stats.get("n") or 0
    if args.pairs:
        if args.pairs == "-":
            pairs = _parse_pairs(sys.stdin)
        else:
            with open(args.pairs, "r", encoding="utf-8") as f:
                pairs = _parse_pairs(f)
    else:
        count = args.random or 10_000
        rng = _random.Random(args.seed)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    if not pairs:
        parser.error("empty workload")

    t0 = time.perf_counter()
    first = oracle.query(*pairs[0])
    first_us = (time.perf_counter() - t0) * 1e6

    best = None
    answers = None
    for _ in range(max(1, args.repeats)):
        t0 = time.perf_counter()
        answers = oracle.query_batch(pairs)
        elapsed = (time.perf_counter() - t0) * 1000.0
        if best is None or elapsed < best:
            best = elapsed

    method = stats.get("method") or stats.get("index", {}).get("method")
    print(f"loaded {args.artifact} ({method}) in {load_ms:.2f} ms "
          f"(mmap={'no' if args.no_mmap else 'yes'})")
    print(f"first query: {first_us:.1f} µs (-> {first})")
    print(f"{len(pairs):,} queries in {best:.2f} ms "
          f"({sum(answers):,} reachable)")
    print(f"stats: {stats}")
    return 0


def _run_serve(argv: List[str]) -> int:
    """``serve``: a long-running query server over a saved artifact."""
    from .server.httpd import HttpFrontend
    from .server.tcp import serve_artifact

    parser = argparse.ArgumentParser(
        prog="repro-bench serve",
        description="Serve reachability queries from a saved artifact "
        "over the binary wire protocol (the production half of "
        "build → compile → serve).  --watch hot-swaps the served "
        "version when the artifact file is atomically replaced; "
        "--live builds a dataset in-process and accepts edge "
        "insertions over the wire ('update' subcommand).",
    )
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--artifact", help="artifact path from 'build'")
    src.add_argument("--live", metavar="DATASET",
                     help="build this stand-in dataset in-process and "
                     "serve it live: edge insertions (the 'update' "
                     "subcommand / OP_UPDATE op) publish new epochs "
                     "behind the running server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7431,
                        help="TCP port for the binary protocol (0 = ephemeral)")
    parser.add_argument("--replicas", type=int, default=0, metavar="N",
                        help="serve through a fault-tolerant tier: N "
                        "replica processes behind an epoch-shipping "
                        "router with retries, health checks and hedged "
                        "dispatch (needs --artifact; see also the "
                        "'route' subcommand for external replicas)")
    parser.add_argument("--data-dir", default=None, metavar="DIR",
                        help="with --live: journal updates in DIR (WAL + "
                        "epoch manifest) so every acked update survives "
                        "kill -9; re-serving the same DIR recovers the "
                        "journaled state instead of rebuilding the dataset")
    parser.add_argument("--sync", default="interval",
                        choices=("always", "interval", "off"),
                        help="journal fsync policy for --data-dir: 'always' "
                        "fsyncs per update (survives power loss), "
                        "'interval' group-commits (default), 'off' trusts "
                        "the OS page cache (survives kill -9 only)")
    parser.add_argument("--dirt-threshold", type=float, default=0.25,
                        metavar="R",
                        help="with --live: background-recompile once "
                        "removed-edge tombstones reach this fraction of "
                        "the graph's edges (0 disables automatic "
                        "compaction)")
    parser.add_argument("--batch-window", type=float, default=1.0, metavar="MS",
                        help="micro-batching window in milliseconds "
                        "(0 disables coalescing)")
    parser.add_argument("--adaptive-window", action="store_true",
                        help="shrink the micro-batch window toward 0 "
                        "under low arrival rate (the ceiling stays "
                        "--batch-window)")
    parser.add_argument("--watch", action="store_true",
                        help="poll the --artifact file and hot-swap the "
                        "served version when it is atomically replaced "
                        "(write new + rename)")
    parser.add_argument("--watch-interval", type=float, default=0.5, metavar="S",
                        help="poll interval for --watch, in seconds")
    parser.add_argument("--cache-size", type=int, default=65536,
                        help="LRU result-cache entries (0 disables)")
    parser.add_argument("--max-batch", type=int, default=65536,
                        help="pair-count ceiling per dispatched batch")
    parser.add_argument("--http-port", type=int, default=None, metavar="PORT",
                        help="also serve the JSON/HTTP fallback on this "
                        "port (0 = ephemeral)")
    parser.add_argument("--no-shutdown-op", action="store_true",
                        help="ignore the protocol's remote-shutdown frame")
    parser.add_argument("--allow-remote-shutdown", action="store_true",
                        help="honour the shutdown op even on a "
                        "non-loopback --host (off by default there: the "
                        "frame is unauthenticated)")
    parser.add_argument("--ready-file", default=None, metavar="PATH",
                        help="write 'host port [http_port]' here once "
                        "listening (lets scripts wait for startup)")
    args = parser.parse_args(argv)

    # allow_shutdown=None delegates the loopback-only default to
    # ReachServer (one policy, not a CLI re-implementation).
    if args.no_shutdown_op:
        allow_shutdown = False
    elif args.allow_remote_shutdown:
        allow_shutdown = True
    else:
        allow_shutdown = None
    if args.watch and not args.artifact:
        parser.error("--watch needs --artifact (a --live server updates "
                     "through the wire protocol instead)")
    if args.data_dir and not args.live:
        parser.error("--data-dir needs --live (a static artifact server "
                     "has nothing to journal)")
    if args.replicas:
        if not args.artifact:
            parser.error("--replicas needs --artifact (replication ships "
                         "frozen artifact epochs)")
        if args.watch:
            parser.error("--replicas and --watch are mutually exclusive")

    if args.replicas:
        from .cluster import serve_replicated

        server = serve_replicated(
            args.artifact,
            host=args.host,
            port=args.port,
            replicas=args.replicas,
            allow_shutdown=allow_shutdown,
        )
        ports = ", ".join(str(proc.port) for proc in server.replicas)
        served = f"{args.artifact} (router over {args.replicas} replicas " \
                 f"on ports {ports})"
    elif args.live:
        if args.live not in DATASETS:
            parser.error(f"unknown dataset {args.live!r}")
        from .facade import Reachability

        print(f"building {args.live} (DL) for live serving ...",
              file=sys.stderr, flush=True)
        reach = Reachability(load(args.live), "DL")
        server = reach.serve(
            host=args.host,
            port=args.port,
            batch_window_s=args.batch_window / 1000.0,
            adaptive_window=args.adaptive_window,
            max_batch=args.max_batch,
            cache_size=args.cache_size,
            allow_shutdown=allow_shutdown,
            live=True,
            data_dir=args.data_dir,
            sync=args.sync,
            dirt_threshold=args.dirt_threshold,
        )
        served = f"{args.live} (live, epoch {reach.live_epoch})"
        if args.data_dir:
            info = reach._primary.recovery_info
            mode = "recovered" if info.get("recovered") else "initialised"
            served += (
                f" [durable: {mode} {args.data_dir}, sync={args.sync}"
                + (
                    f", replayed {info['records_replayed']} journal records"
                    if info.get("recovered") else ""
                )
                + "]"
            )
    else:
        server = serve_artifact(
            args.artifact,
            host=args.host,
            port=args.port,
            window_s=args.batch_window / 1000.0,
            adaptive_window=args.adaptive_window,
            max_batch=args.max_batch,
            cache_size=args.cache_size,
            allow_shutdown=allow_shutdown,
            watch=args.watch,
            watch_interval_s=args.watch_interval,
        )
        served = args.artifact + (" (watching)" if args.watch else "")
    if allow_shutdown is None and not server.allow_shutdown:
        print(
            f"note: remote shutdown disabled on non-loopback host "
            f"{args.host!r} (pass --allow-remote-shutdown to enable)",
            file=sys.stderr,
        )
    http = None
    try:
        if args.http_port is not None:
            # /shutdown must stop the whole service, not just the HTTP
            # frontend — mirror the binary OP_SHUTDOWN semantics.
            http = HttpFrontend(
                server.service,
                host=args.host,
                port=args.http_port,
                allow_shutdown=server.allow_shutdown,
                on_shutdown=server.close,
            ).start()
        host, port = server.address
        print(
            f"serving {served} on {host}:{port} "
            f"(batch_window={args.batch_window:g} ms, "
            f"cache={args.cache_size:,})",
            flush=True,
        )
        if http is not None:
            print(f"http fallback on {http.host}:{http.port}", flush=True)
        if args.ready_file:
            extra = f" {http.port}" if http is not None else ""
            with open(args.ready_file, "w", encoding="utf-8") as f:
                f.write(f"{host} {port}{extra}\n")
        try:
            server.wait()
        except KeyboardInterrupt:
            print("interrupted; shutting down", file=sys.stderr)
        return 0
    finally:
        if http is not None:
            http.close()
        server.close()


def _parse_address(text: str) -> tuple:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return (host or "127.0.0.1", int(port))


def _run_route(argv: List[str]) -> int:
    """``route``: a fault-tolerant router over already-running replicas."""
    from .cluster import ReplicaRouter
    from .server.tcp import ReachServer

    parser = argparse.ArgumentParser(
        prog="repro-bench route",
        description="Front a set of running reachability servers with "
        "the fault-tolerant router: batches fan out over healthy "
        "replicas, failed or slow sub-batches are retried on another "
        "replica with jittered backoff, tail requests are hedged, and "
        "overload is shed explicitly (OP_OVERLOADED) instead of "
        "queueing unboundedly.  Replicas are health-checked via "
        "OP_EPOCH heartbeats with ejection and half-open re-admission.",
    )
    parser.add_argument("--replica", action="append", required=True,
                        metavar="HOST:PORT", dest="replicas",
                        help="a replica address (repeat per replica)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7430,
                        help="router's TCP port (0 = ephemeral)")
    parser.add_argument("--max-attempts", type=int, default=4,
                        help="dispatches per sub-batch before giving up")
    parser.add_argument("--request-timeout", type=float, default=5.0,
                        metavar="S", help="per-replica request deadline")
    parser.add_argument("--hedge-after", type=float, default=100.0,
                        metavar="MS", help="duplicate a quiet dispatch to "
                        "a second replica after this long (0 disables)")
    parser.add_argument("--max-inflight", type=int, default=1024,
                        help="admission cap; beyond it requests are shed "
                        "with OP_OVERLOADED")
    parser.add_argument("--eject-after", type=int, default=3,
                        help="consecutive failures before ejection")
    parser.add_argument("--probation-delay", type=float, default=1.0,
                        metavar="S", help="cool-off before a half-open "
                        "re-admission probe")
    parser.add_argument("--ready-file", default=None, metavar="PATH",
                        help="write 'host port' here once listening")
    args = parser.parse_args(argv)

    try:
        addresses = [_parse_address(a) for a in args.replicas]
    except ValueError as exc:
        parser.error(str(exc))
    router = ReplicaRouter(
        addresses,
        max_attempts=args.max_attempts,
        request_timeout_s=args.request_timeout,
        hedge_after_s=(args.hedge_after / 1000.0) or None,
        max_inflight=args.max_inflight,
        eject_after=args.eject_after,
        probation_delay_s=args.probation_delay,
    ).start()
    server = ReachServer(router, args.host, args.port, owns_service=True)
    try:
        server.start()
        host, port = server.address
        names = ", ".join(f"{h}:{p}" for h, p in addresses)
        print(f"routing {host}:{port} -> [{names}] "
              f"(epoch {router.current_epoch}, "
              f"routable {len(router.health.routable())}/{len(addresses)})",
              flush=True)
        if args.ready_file:
            with open(args.ready_file, "w", encoding="utf-8") as f:
                f.write(f"{host} {port}\n")
        try:
            server.wait()
        except KeyboardInterrupt:
            print("interrupted; shutting down", file=sys.stderr)
        return 0
    finally:
        server.close()


def _run_update(argv: List[str]) -> int:
    """``update``: stream edge inserts/removes into a running live server."""
    from .server.client import ReachClient

    parser = argparse.ArgumentParser(
        prog="repro-bench update",
        description="Apply edge updates to a running live server "
        "(serve --live, or Reachability.serve(live=True)); the server "
        "hot-swaps to the updated artifact epoch before replying.  "
        "Each line is 'u v' (insert) or '+ u v' / '- u v' (explicit "
        "insert / remove); the whole stream applies as one atomic "
        "batch.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7431)
    parser.add_argument("--edges", required=True,
                        help="file of 'u v' / '+ u v' / '- u v' update "
                        "lines; '-' reads stdin")
    args = parser.parse_args(argv)

    if args.edges == "-":
        ops = _parse_ops(sys.stdin)
    else:
        with open(args.edges, "r", encoding="utf-8") as f:
            ops = _parse_ops(f)
    if not ops:
        parser.error("empty update stream")

    with ReachClient(args.host, args.port) as client:
        summary = client.update(ops)
    inserts = summary.get("inserts", sum(1 for op, _, _ in ops if op == "+"))
    removals = summary.get("removals", sum(1 for op, _, _ in ops if op == "-"))
    applied = f"inserted {inserts} edges"
    if removals:
        applied += f", removed {removals}"
    print(
        f"{applied} "
        f"({summary.get('changed', '?')} changed reachability) -> "
        f"epoch {summary.get('epoch')} "
        f"({'full' if summary.get('full') else 'incremental'} compile, "
        f"{summary.get('swap_s', 0.0) * 1000.0:.1f} ms swap)"
    )
    return 0


def _hist_delta(curr: dict, prev: Optional[dict]) -> dict:
    """Bucket-wise ``curr - prev`` of two telemetry histogram snapshots.

    Counters and histograms are cumulative; ``top`` wants "what
    happened since the last poll", so each refresh subtracts the
    previous snapshot.  ``prev=None`` (first poll) returns ``curr``
    unchanged — the first line of output covers the server's lifetime.
    """
    if not curr or not prev:
        return curr or {}
    pb = prev.get("buckets", {})
    buckets = {
        k: c - pb.get(k, 0)
        for k, c in curr.get("buckets", {}).items()
        if c - pb.get(k, 0) > 0
    }
    return {
        "count": curr.get("count", 0) - prev.get("count", 0),
        "sum": curr.get("sum", 0) - prev.get("sum", 0),
        "unit": curr.get("unit", "ns"),
        "buckets": buckets,
    }


def _top_line(doc: dict, prev: Optional[dict], elapsed: float) -> str:
    """One ``top`` refresh rendered from a stats document (+ previous)."""
    from .stats import histogram_percentiles

    tel = doc.get("telemetry") or {}
    hists = tel.get("histograms") or {}
    gauges = tel.get("gauges") or {}
    req_hist = hists.get("repro_request_seconds") or {}
    prev_hist = (
        ((prev or {}).get("telemetry") or {}).get("histograms") or {}
    ).get("repro_request_seconds")
    window = _hist_delta(req_hist, prev_hist)
    n_req = window.get("count", 0)
    qps = n_req / elapsed if elapsed > 0 else 0.0
    pct = histogram_percentiles(window)  # ns upper bounds
    lat = " ".join(
        f"{name}={pct.get('p' + name[1:], 0.0) / 1e6:.2f}"
        for name in ("p50", "p95", "p99", "p99.9")
    ) if pct else "p50=- p95=- p99=- p99.9=-"

    cache = doc.get("cache") or {}
    hit = cache.get("hit_rate")
    hit_s = f"{hit * 100.0:5.1f}%" if isinstance(hit, (int, float)) else "    -"
    epoch = doc.get("epoch")
    age = gauges.get("repro_epoch_age_seconds")
    age_s = f"{age:.1f}s" if isinstance(age, (int, float)) else "-"
    lag = gauges.get("repro_journal_fsync_lag_bytes")
    lag_s = f"{int(lag)}B" if isinstance(lag, (int, float)) else "-"
    line = (
        f"{qps:>9,.0f} q/s | {lat} ms | cache {hit_s} | "
        f"epoch {epoch if epoch is not None else '-'} (age {age_s}) | "
        f"fsync lag {lag_s}"
    )
    replicas = (doc.get("health") or {}).get("replicas")
    if replicas:
        states = " ".join(
            f"{r['name']}={r['state']}{'*' if r.get('stale') else ''}"
            f"@{r.get('epoch', 0)}"
            for r in replicas
        )
        line += f" | replicas: {states}"
    degraded = doc.get("degraded")
    if degraded:
        line += f" | DEGRADED: {','.join(degraded)}"
    return line


def _run_top(argv: List[str]) -> int:
    """``top``: live operational dashboard for a running server."""
    from .server.client import ReachClient

    parser = argparse.ArgumentParser(
        prog="repro-bench top",
        description="Poll a running server's OP_STATS and render a "
        "top-style line per refresh: request rate and latency "
        "percentiles over the refresh window (from the server's "
        "mergeable log2 latency histogram), cache hit rate, serving "
        "epoch and its age, journal fsync lag, and — when pointed at "
        "a router — per-replica health states.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7431)
    parser.add_argument("--interval", type=float, default=2.0, metavar="S",
                        help="seconds between refreshes")
    parser.add_argument("--iterations", type=int, default=0,
                        help="stop after N refreshes (0 = until ^C)")
    parser.add_argument("--once", action="store_true",
                        help="print one snapshot and exit "
                        "(same as --iterations 1)")
    args = parser.parse_args(argv)
    iterations = 1 if args.once else args.iterations

    with ReachClient(args.host, args.port) as client:
        prev = None
        prev_t = None
        done = 0
        try:
            while True:
                doc = client.stats()
                now = time.perf_counter()
                # First poll rates over the server's uptime (the
                # histogram is cumulative); later polls over the window.
                elapsed = (
                    now - prev_t if prev_t is not None
                    else float(doc.get("uptime_s") or 0.0)
                )
                print(_top_line(doc, prev, elapsed), flush=True)
                prev, prev_t = doc, now
                done += 1
                if iterations and done >= iterations:
                    return 0
                time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Artifact subcommands take their own option sets; route them before
    # the experiment parser sees the arguments.
    if argv and argv[0] == "build":
        return _run_build(argv[1:])
    if argv and argv[0] == "query":
        return _run_query(argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:])
    if argv and argv[0] == "route":
        return _run_route(argv[1:])
    if argv and argv[0] == "update":
        return _run_update(argv[1:])
    if argv and argv[0] == "top":
        return _run_top(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate tables/figures from 'Simple, Fast, and "
        "Scalable Reachability Oracle' (Jin & Wang, VLDB 2013).",
    )
    parser.add_argument("experiment", help="experiment id (see 'list')")
    parser.add_argument("--datasets", help="comma-separated dataset subset")
    parser.add_argument("--queries", type=int, default=None, help="workload batch size")
    parser.add_argument("--repeats", type=int, default=3, help="query timing repeats")
    parser.add_argument("--out", default="exported_datasets", help="output dir for 'export'")
    parser.add_argument(
        "--backend",
        choices=["auto", "python", "numpy"],
        default=None,
        help="kernel backend for DL/HL/GL/PL (default: REPRO_BACKEND or auto); "
        "labels and answers are identical across backends",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard DL construction over N forked processes "
        "(default: REPRO_WORKERS or 1); labels are identical for any N",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for exp_id, exp in EXPERIMENTS.items():
            print(f"{exp_id:<22}{exp.title}")
        print(f"{'stats':<22}Structural metrics of the dataset stand-ins")
        print(f"{'verify':<22}Cross-check every method against BFS (sampled)")
        print(f"{'export':<22}Write stand-in datasets as edge-list files")
        print(f"{'build':<22}Build a pipeline and save a binary artifact")
        print(f"{'query':<22}Serve a workload from a saved artifact")
        print(f"{'serve':<22}Run a TCP query server over a saved artifact")
        print(f"{'route':<22}Fault-tolerant router over running replicas")
        print(f"{'update':<22}Insert edges into a running live server")
        print(f"{'top':<22}Live qps/latency/health dashboard for a server")
        return 0

    datasets = args.datasets.split(",") if args.datasets else None
    if datasets:
        unknown = [d for d in datasets if d not in DATASETS]
        if unknown:
            parser.error(f"unknown datasets: {', '.join(unknown)}")

    if args.experiment == "table1":
        _print_table1()
    elif args.experiment == "stats":
        _run_stats(datasets)
    elif args.experiment == "verify":
        return _run_verify(datasets, args.queries or 300)
    elif args.experiment == "export":
        _run_export(datasets, args.out)
    elif args.experiment == "ablation-rank":
        _run_ablation_rank(datasets)
    elif args.experiment == "ablation-labelstore":
        _run_ablation_labelstore(datasets, args.queries or 10_000)
    else:
        _run_standard(
            args.experiment,
            datasets,
            args.queries,
            args.repeats,
            backend=args.backend,
            workers=args.workers,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
