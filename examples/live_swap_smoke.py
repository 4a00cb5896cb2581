"""CI smoke: hot-swap a served artifact under load, drop nothing.

The live-serving acceptance drill, end to end:

1. build v1 of a dataset and serve it,
2. fire a pipelined query load at the server and, mid-load, hot-swap to
   a v2 artifact (the same graph plus fresh edges) through the
   epoch-versioned store,
3. assert **zero dropped connections / failed requests**, that the
   server reports the new epoch, and that post-swap answers are
   bit-identical to a direct v2 ``CompiledOracle`` (via a fresh
   serve-mode facade on the v2 artifact),
4. repeat the swap through the *update* path: serve the graph live and
   insert the same edges over the wire (``OP_UPDATE``), asserting the
   same bit-identical outcome.

Run from the repo root (CI runs both datasets on both backends)::

    PYTHONPATH=src python examples/live_swap_smoke.py --dataset kegg
    PYTHONPATH=src python examples/live_swap_smoke.py --dataset arxiv
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.datasets.catalog import DATASETS, load
from repro.facade import Reachability
from repro.graph.generators import novel_acyclic_edges
from repro.live import VersionedArtifactStore
from repro.server import ReachClient, run_load
from repro.server.service import QueryService
from repro.server.tcp import ReachServer


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def swap_smoke(graph, g2, v1_path, v2_path, pairs, expected_v2):
    """Phase 1: store-published swap under client load."""
    store = VersionedArtifactStore()
    store.publish(v1_path)
    service = QueryService(store=store, owns_store=True).start()
    server = ReachServer(service, owns_service=True).start()
    try:
        swapped = threading.Event()

        def swap_midway():
            time.sleep(0.02)
            store.publish(v2_path)
            swapped.set()

        swapper = threading.Thread(target=swap_midway)
        swapper.start()
        report = run_load(*server.address, pairs, connections=4, pipeline=32)
        swapper.join()
        check(swapped.is_set(), "the swap never happened")
        check(report.errors == 0,
              f"dropped requests during swap: {report.first_error}")
        with ReachClient(*server.address) as client:
            check(client.epoch() == 2, "server did not reach epoch 2")
            served = client.query_batch(pairs)
            stats = client.stats()
        check(served == expected_v2,
              "post-swap answers diverge from the direct v2 oracle")
        check(stats["epoch"] == 2, "stats document lacks the epoch")
        return report
    finally:
        server.close()


def update_smoke(graph, edges, pairs, expected_v2):
    """Phase 2: the same v2 reached through wire-protocol updates."""
    reach = Reachability(graph.copy(), "DL")
    server = reach.serve(live=True)
    try:
        with ReachClient(*server.address) as client:
            check(client.epoch() == 1, "live server must start at epoch 1")
            summary = client.update(edges)
            check(summary["epoch"] == 2, f"unexpected update summary {summary}")
            served = client.query_batch(pairs)
        check(served == expected_v2,
              "post-update answers diverge from the direct v2 oracle")
        return summary
    finally:
        server.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="kegg", choices=sorted(DATASETS))
    parser.add_argument("--queries", type=int, default=4000)
    parser.add_argument("--edges", type=int, default=25, help="v2 insertions")
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args()

    graph = load(args.dataset)
    edges, g2 = novel_acyclic_edges(graph, args.edges, seed=args.seed)
    check(edges, "dataset produced no insertable edges")
    rng = random.Random(args.seed + 1)
    pairs = [
        (rng.randrange(graph.n), rng.randrange(graph.n))
        for _ in range(args.queries)
    ]

    with tempfile.TemporaryDirectory() as tmp:
        v1_path = str(Path(tmp) / "v1.rpro")
        v2_path = str(Path(tmp) / "v2.rpro")
        Reachability(graph.copy(), "DL").save(v1_path)
        Reachability(g2.copy(), "DL").save(v2_path)
        # The referee: a direct serve-mode oracle on the v2 artifact.
        expected_v2 = Reachability.load(v2_path).query_batch(pairs)

        report = swap_smoke(graph, g2, v1_path, v2_path, pairs, expected_v2)
        print(
            f"[swap] {args.dataset}: {len(pairs)} queries at "
            f"{report.qps:,.0f} q/s across the swap, 0 errors, "
            f"post-swap answers == direct v2 oracle"
        )

        summary = update_smoke(graph, edges, pairs, expected_v2)
        print(
            f"[update] {args.dataset}: {summary['edges']} edges -> epoch "
            f"{summary['epoch']} in {summary['swap_s'] * 1000:.1f} ms "
            f"({'full' if summary['full'] else 'incremental'} compile), "
            f"answers == direct v2 oracle"
        )
    print("live swap smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
