"""Server bench: served throughput with batching on/off and the cache.

What a served deployment of the oracle actually delivers, measured
from the client side of a real TCP connection:

* **batching axis** — the same pipelined single-pair workload against
  a micro-batching window of 1 ms vs a window of 0 (every request
  dispatched individually).  Coalescing amortizes per-request dispatch
  across whole batches; the ``batching_speedup`` ratio per family is
  the headline number.
* **cache row** — a skewed (repeating) workload against the sharded
  LRU, reporting hit rate and the resulting q/s.

Every run asserts the served answers are bit-identical to a direct
``CompiledOracle`` on the same artifact before any number is recorded.

The committed ``BENCH_server.json`` at the repo root is the historical
full-size run on the 40000-node acceptance families.  It still carries
a ``workers`` axis (0/1/2 answer processes): the pool lost all 18 of
its cells to in-process dispatch, which is why it was deleted and why
this script no longer has that axis.  ``--smoke`` shrinks everything
for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

from repro.facade import Reachability
from repro.graph.generators import citation_dag, random_dag, sparse_dag
from repro.serialization import load_artifact
from repro.server import ReachClient, run_load
from repro.server.tcp import serve_artifact

FAMILIES = {
    # The acceptance families: the same 40000-node graphs the artifact
    # bench uses, where label sizes make serving genuinely non-trivial.
    "citation-40000": lambda: citation_dag(40000, out_per_vertex=3, seed=17),
    "random-40000": lambda: random_dag(40000, 120000, seed=11),
    "sparse-30000": lambda: sparse_dag(30000, 0.00005, seed=5),
}

SMOKE_FAMILIES = {
    "citation-1200": lambda: citation_dag(1200, out_per_vertex=3, seed=17),
    "sparse-1500": lambda: sparse_dag(1500, 0.001, seed=5),
}

QUERIES = 30_000
# 8 connections × 128 in-flight keeps the batcher fed: at 4 connections
# (or shallow pipelines) the coalescing windows run half-empty and the
# amortization washes out (measured while tuning this bench on the
# 1-core container).
CONNECTIONS = 8
PIPELINE = 128
WINDOWS_MS = (0.0, 1.0, 2.0)  # batching off / default window / wide


def _grid_cell(path, pairs, expected, *, window_ms, queries_label, repeats):
    """One batching-window server config measured under load.

    The workload runs ``repeats`` times against one server and the
    best run is recorded (same best-of-N discipline as the harness's
    batch timings — a single pass on a contended host is ±30% noise).
    Every repeat's answers are verified.
    """
    server = serve_artifact(
        path,
        window_s=window_ms / 1000.0,
        cache_size=0,  # raw query path; the cache gets its own row
    )
    try:
        best = None
        for _ in range(max(1, repeats)):
            report = run_load(
                *server.address,
                pairs,
                connections=CONNECTIONS,
                pipeline=PIPELINE,
            )
            if report.errors:
                raise RuntimeError(f"load run failed: {report.first_error}")
            if report.answers != expected:
                raise AssertionError(
                    f"served answers diverge from direct oracle "
                    f"(window={window_ms})"
                )
            if best is None or report.qps > best.qps:
                best = report
        with ReachClient(*server.address) as client:
            stats = client.stats()
        return {
            "window_ms": window_ms,
            "qps": best.qps,
            "wall_s": best.wall_s,
            "latency_ms": best.latency_ms,
            "mean_batch_pairs": stats["batcher"]["mean_batch_pairs"],
            "coalesced_batches": stats["batcher"]["coalesced_batches"],
            "queries": queries_label,
            "repeats": repeats,
        }
    finally:
        server.close()


def _cache_row(path, n, queries):
    """A zipf-ish repeating workload against the result cache."""
    rng = random.Random(41)
    hot = [(rng.randrange(n), rng.randrange(n)) for _ in range(max(64, queries // 50))]
    pairs = [
        hot[rng.randrange(len(hot))] if rng.random() < 0.9
        else (rng.randrange(n), rng.randrange(n))
        for _ in range(queries)
    ]
    import gc

    direct = load_artifact(path)
    expected = [bool(a) for a in direct.query_batch(pairs)]
    del direct
    gc.collect()
    server = serve_artifact(path, cache_size=1 << 16)
    try:
        report = run_load(
            *server.address, pairs, connections=CONNECTIONS, pipeline=PIPELINE
        )
        if report.errors:
            raise RuntimeError(f"cache load run failed: {report.first_error}")
        assert report.answers == expected, "cache changed an answer bit"
        with ReachClient(*server.address) as client:
            cache = client.stats()["cache"]
        return {
            "qps": report.qps,
            "hit_rate": cache["hit_rate"],
            "negative_hits": cache["negative_hits"],
            "positive_hits": cache["positive_hits"],
            "latency_ms": report.latency_ms,
        }
    finally:
        server.close()


def measure_family(name, make_graph, queries, tmpdir: Path, repeats: int) -> dict:
    import gc

    graph = make_graph()
    n = graph.n
    row = {"n": graph.n, "m": graph.m}

    t0 = time.perf_counter()
    reach = Reachability(graph, "DL")
    row["build_s"] = time.perf_counter() - t0
    path = str(tmpdir / f"{name}.rpro")
    row["artifact_bytes"] = reach.save(path)
    # Drop the build side before measuring: a serving host holds the
    # artifact, not the construction object graph — and a live
    # 40000-node index inflates GC scan time enough to depress every
    # measured cell by ~30-40% on this container.
    del reach, graph
    gc.collect()

    rng = random.Random(23)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(queries)]
    direct = load_artifact(path)
    expected = [bool(a) for a in direct.query_batch(pairs)]
    row["positives"] = sum(expected)
    del direct
    gc.collect()

    cells = []
    for window_ms in WINDOWS_MS:
        print(f"  window={window_ms:g}ms ...", file=sys.stderr, flush=True)
        cells.append(
            _grid_cell(
                path,
                pairs,
                expected,
                window_ms=window_ms,
                queries_label=queries,
                repeats=repeats,
            )
        )
    row["grid"] = cells

    # Headline ratios: the default 1 ms window vs batching off, plus the
    # best across the on-windows (both recorded so the headline is never
    # quietly the 2 ms cell).
    qps = {c["window_ms"]: c["qps"] for c in cells}
    off = max(1e-9, qps[0.0])
    row["batching_speedup_1ms"] = round(qps[1.0] / off, 2)
    row["batching_speedup"] = round(
        max(qps[win] for win in WINDOWS_MS if win > 0) / off, 2
    )
    row["best_qps"] = max(c["qps"] for c in cells)
    row["cache"] = _cache_row(path, n, queries)
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for CI")
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None,
                        help="load runs per grid cell, best recorded")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    families = SMOKE_FAMILIES if args.smoke else FAMILIES
    queries = args.queries or (3000 if args.smoke else QUERIES)
    repeats = args.repeats or (1 if args.smoke else 3)

    doc = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "queries": queries,
        "repeats": repeats,
        "connections": CONNECTIONS,
        "pipeline": PIPELINE,
        "note": (
            "closed-loop pipelined single-pair requests over TCP; "
            "batching_speedup_1ms = qps(window=1ms) / qps(window=0), "
            "batching_speedup = best on-window (1ms or 2ms) / "
            "qps(window=0); answers asserted bit-identical to a direct "
            "CompiledOracle before any number is recorded"
        ),
        "families": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, make_graph in families.items():
            print(f"[bench_server] {name} ...", file=sys.stderr, flush=True)
            row = measure_family(name, make_graph, queries, Path(tmp), repeats)
            doc["families"][name] = row
            print(
                f"  best {row['best_qps']:,.0f} q/s; batching speedup "
                f"{row['batching_speedup']}x (off->on); cache "
                f"{row['cache']['qps']:,.0f} q/s at "
                f"{row['cache']['hit_rate']:.0%} hits",
                file=sys.stderr,
            )

    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)


if __name__ == "__main__":
    main()
