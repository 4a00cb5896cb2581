"""Live-serving bench: swap latency and query latency during the swap.

What the ``repro.live`` subsystem costs and guarantees, measured from
the client side of a real TCP connection on the 40000-node acceptance
families:

* **update swap** — a mixed read/update run: the steady workload is
  measured first, then re-run while an edge-insertion stream is applied
  mid-load through the :class:`~repro.live.IncrementalCompiler` and
  published as a new epoch.  Recorded per family: the
  insert→compile→publish wall time (``swap_ms`` with its compile /
  publish split and whether the compile was incremental), steady
  p50/p95/p99 vs the p50/p95/p99 of requests whose service interval
  overlapped the swap window, and the error count — **zero dropped
  requests is asserted, and post-swap answers are verified
  bit-identical to a fresh direct build of the post-update graph**
  before any number is recorded.
* **update batch sweep** — the direct (no TCP) ``apply_ops`` wall time
  per update batch size (5/50/500 full-size), insert-only and mixed
  half-removal batches, charting how the batched kernels amortize.
* **artifact swap** — hot-swapping a prebuilt v2 artifact file through
  a :class:`~repro.live.VersionedArtifactStore` (load side-by-side +
  epoch flip): the publish wall time is the whole service interruption
  budget, and it is paid off the query path.

The committed ``BENCH_live.json`` at the repo root is the historical
full-size run; its ``update_swap`` lists still carry a ``workers`` axis
(0 and 2 answer processes — the pool lost all three cells, which is why
it was deleted).  ``--smoke`` shrinks everything for CI.
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

from repro.bench.harness import measure_live_swap
from repro.facade import Reachability
from repro.graph.generators import (
    citation_dag,
    novel_acyclic_edges,
    random_dag,
    sparse_dag,
)
from repro.live import VersionedArtifactStore

FAMILIES = {
    # The acceptance families (same graphs as BENCH_server.json).
    "citation-40000": lambda: citation_dag(40000, out_per_vertex=3, seed=17),
    "random-40000": lambda: random_dag(40000, 120000, seed=11),
    "sparse-30000": lambda: sparse_dag(30000, 0.00005, seed=5),
}

SMOKE_FAMILIES = {
    "citation-1200": lambda: citation_dag(1200, out_per_vertex=3, seed=17),
    "sparse-1500": lambda: sparse_dag(1500, 0.001, seed=5),
}

QUERIES = 30_000
CONNECTIONS = 8
PIPELINE = 128
UPDATE_EDGES = 50
BATCH_SIZES = (5, 50, 500)
SMOKE_BATCH_SIZES = (5, 20)


def artifact_swap_cell(graph, g2, tmpdir: Path) -> dict:
    """Hot-swap cost of a prebuilt artifact: load-side-by-side + flip."""
    v1 = str(tmpdir / "swap-v1.rpro")
    v2 = str(tmpdir / "swap-v2.rpro")
    t0 = time.perf_counter()
    reach = Reachability(graph.copy(), "DL")
    build_s = time.perf_counter() - t0
    nbytes = reach.save(v1)
    Reachability(g2.copy(), "DL").save(v2)
    del reach
    store = VersionedArtifactStore()
    try:
        store.publish(v1)
        t0 = time.perf_counter()
        store.publish(v2)
        publish_s = time.perf_counter() - t0
    finally:
        store.close()
    for path in (v1, v2):
        os.unlink(path)
    return {
        "build_s": build_s,
        "artifact_bytes": nbytes,
        "publish_ms": publish_s * 1000.0,
    }


def _sample_live_edges(graph, count, rng):
    """``count`` distinct existing edges, degree-biased but good enough."""
    picked = set()
    while len(picked) < count:
        u = rng.randrange(graph.n)
        row = graph.out_adj[u]
        if row:
            picked.add((u, rng.choice(row)))
    return sorted(picked)


def update_batch_sweep(graph, sizes) -> list:
    """Direct ``apply_ops`` wall time by batch size, insert-only and mixed.

    One compiler per family; cells apply cumulatively, so each carries
    the previous cells' churn — a few hundred edges on a 100k+-edge
    graph, noise for latency purposes.  ``mixed`` batches are half
    removals of existing edges, half novel inserts, which exercises the
    tombstone/structural-resolution ladder alongside the insert kernel.
    """
    from repro.live import IncrementalCompiler

    comp = IncrementalCompiler(graph.copy())
    live = comp.original
    rng = random.Random(41)
    cells = []
    for size in sizes:
        for mode in ("insert", "mixed"):
            if mode == "insert":
                stream, _ = novel_acyclic_edges(
                    live, size, seed=rng.randrange(1 << 30)
                )
                ops = [("+", u, v) for u, v in stream]
            else:
                n_rm = size // 2
                stream, _ = novel_acyclic_edges(
                    live, size - n_rm, seed=rng.randrange(1 << 30)
                )
                ops = [("-", u, v) for u, v in _sample_live_edges(live, n_rm, rng)]
                ops += [("+", u, v) for u, v in stream]
            t0 = time.perf_counter()
            summary = comp.apply_ops(ops)
            dt = (time.perf_counter() - t0) * 1000.0
            cells.append(
                {
                    "batch": size,
                    "mode": mode,
                    "ops": len(ops),
                    "apply_ms": dt,
                    "changed": summary["changed"],
                    "tombstoned": summary["tombstoned"],
                    "dirt_ratio": summary["dirt_ratio"],
                }
            )
    return cells


def measure_family(name, make_graph, queries, tmpdir: Path, edges_n: int,
                   batch_sizes=BATCH_SIZES) -> dict:
    import gc

    graph = make_graph()
    row = {"n": graph.n, "m": graph.m}
    updates, g2 = novel_acyclic_edges(graph, edges_n, seed=29)
    rng = random.Random(23)
    pairs = [(rng.randrange(graph.n), rng.randrange(graph.n)) for _ in range(queries)]

    row["artifact_swap"] = artifact_swap_cell(graph, g2, tmpdir)
    gc.collect()

    print("  update-batch sweep ...", file=sys.stderr, flush=True)
    row["update_batch_sweep"] = update_batch_sweep(graph, batch_sizes)
    gc.collect()

    print("  update-swap ...", file=sys.stderr, flush=True)
    doc = measure_live_swap(
        graph, pairs, updates, connections=CONNECTIONS, pipeline=PIPELINE
    )
    row["update_swap"] = {
        "updates": len(updates),
        "steady_qps": doc["steady_qps"],
        "steady_latency_ms": doc["steady_latency_ms"],
        "qps_across_swap": doc["qps"],
        "latency_ms_across_swap": doc["latency_ms"],
        "swap_ms": doc["swap_s"] * 1000.0,
        "compile_ms": (doc["compile_s"] or 0.0) * 1000.0,
        "publish_ms": (doc["publish_s"] or 0.0) * 1000.0,
        "incremental_compile": not doc["full"],
        "during_swap_latency_ms": doc["during_swap_ms"],
        "during_swap_samples": doc["during_swap_samples"],
        "errors": doc["errors"],
        "verified_pairs": doc["verified_pairs"],
        "epoch": doc["epoch"],
    }
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for CI")
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    families = SMOKE_FAMILIES if args.smoke else FAMILIES
    queries = args.queries or (3000 if args.smoke else QUERIES)
    edges_n = 10 if args.smoke else UPDATE_EDGES
    batch_sizes = SMOKE_BATCH_SIZES if args.smoke else BATCH_SIZES

    doc = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "queries": queries,
        "connections": CONNECTIONS,
        "pipeline": PIPELINE,
        "update_edges": edges_n,
        "note": (
            "closed-loop pipelined single-pair requests over TCP against a "
            "live (epoch-versioned) server, cache off; update_swap applies "
            "the edge stream mid-load and publishes the next epoch — "
            "swap_ms is insert+compile+publish wall time, "
            "during_swap_latency_ms the percentiles of requests whose "
            "service interval overlapped the swap window (steady_latency_ms "
            "is the no-swap baseline); zero dropped requests is asserted "
            "and post-swap answers are verified bit-identical to a fresh "
            "direct build before recording; artifact_swap.publish_ms is "
            "the load+flip cost of hot-swapping a prebuilt artifact file; "
            "update_batch_sweep is the direct (no TCP) apply_ops wall "
            "time per batch size, insert-only and half-removal mixed"
        ),
        "batch_sizes": list(batch_sizes),
        "families": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, make_graph in families.items():
            print(f"[bench_live] {name} ...", file=sys.stderr, flush=True)
            row = measure_family(
                name, make_graph, queries, Path(tmp), edges_n, batch_sizes
            )
            doc["families"][name] = row
            cell = row["update_swap"]
            print(
                f"  swap {cell['swap_ms']:.1f} ms "
                f"({'incremental' if cell['incremental_compile'] else 'full'}); "
                f"steady p95 "
                f"{cell['steady_latency_ms'].get('p95', 0):.2f} ms vs "
                f"{cell['during_swap_latency_ms'].get('p95', 0):.2f} ms "
                f"during swap; "
                f"artifact publish "
                f"{row['artifact_swap']['publish_ms']:.1f} ms; 0 errors",
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
