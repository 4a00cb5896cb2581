"""CI smoke: mixed insert/delete churn on a live server, drop nothing.

The delete-path acceptance drill, end to end:

1. build a dataset, derive a churn stream — batches mixing removals of
   existing edges with novel insertions — and apply it to a shadow
   graph (the referee),
2. serve the original graph live and fire a pipelined query load at
   it; mid-load, a second client ships the churn batches over the wire
   (``OP_UPDATE_SEQ`` with explicit ``+``/``-`` ops),
3. assert **zero dropped connections / failed requests** and that
   post-churn answers are bit-identical to a *fresh direct build* of
   the shadow graph,
4. push removals past the dirt threshold and assert the background
   recompile fires, compacts every tombstone away, and changes no
   answer.

Run from the repo root (CI runs it on both backends)::

    PYTHONPATH=src python examples/live_churn_smoke.py --dataset kegg
    PYTHONPATH=src REPRO_BACKEND=numpy python examples/live_churn_smoke.py
"""

from __future__ import annotations

import argparse
import random
import sys
import threading
import time

from repro.datasets.catalog import DATASETS, load
from repro.facade import Reachability
from repro.graph.generators import novel_acyclic_edges
from repro.server import ReachClient, run_load


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def make_churn(graph, batches, batch_size, seed):
    """Churn batches + the shadow graph they produce.

    Each batch is ~half removals of edges still present in the shadow,
    half insertions that are novel and acyclic against it.
    """
    rng = random.Random(seed)
    shadow = graph.copy()
    ops_batches = []
    for _ in range(batches):
        ops = []
        n_rm = batch_size // 2
        live_edges = sorted(shadow.edges())
        for u, v in rng.sample(live_edges, min(n_rm, len(live_edges))):
            shadow.remove_edge(u, v)
            ops.append(("-", u, v))
        fresh, shadow = novel_acyclic_edges(
            shadow, batch_size - n_rm, seed=rng.randrange(1 << 30)
        )
        ops.extend(("+", u, v) for u, v in fresh)
        rng.shuffle(ops)
        ops_batches.append(ops)
    return ops_batches, shadow


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="kegg", choices=sorted(DATASETS))
    parser.add_argument("--queries", type=int, default=4000)
    parser.add_argument("--batches", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=20)
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args()

    graph = load(args.dataset)
    ops_batches, shadow = make_churn(
        graph, args.batches, args.batch_size, args.seed
    )
    rng = random.Random(args.seed + 1)
    pairs = [
        (rng.randrange(graph.n), rng.randrange(graph.n))
        for _ in range(args.queries)
    ]
    # The referee: a fresh direct build of the churned graph.
    expected = Reachability(shadow.copy(), "DL").query_batch(pairs)

    DIRT = 0.05
    reach = Reachability(graph.copy(), "DL")
    server = reach.serve(live=True, dirt_threshold=DIRT)
    try:
        churned = threading.Event()

        def churn_midway():
            time.sleep(0.02)
            with ReachClient(*server.address) as writer:
                for ops in ops_batches:
                    writer.update(ops)
            churned.set()

        churner = threading.Thread(target=churn_midway)
        churner.start()
        report = run_load(*server.address, pairs, connections=4, pipeline=32)
        churner.join()
        check(churned.is_set(), "the churn never happened")
        check(report.errors == 0,
              f"dropped requests during churn: {report.first_error}")

        with ReachClient(*server.address) as client:
            served = client.query_batch(pairs)
            stats = client.stats()
        check(served == expected,
              "post-churn answers diverge from a direct build of the "
              "churned graph")
        n_rm = sum(1 for ops in ops_batches for op in ops if op[0] == "-")
        n_ins = sum(len(ops) for ops in ops_batches) - n_rm
        print(
            f"[churn] {args.dataset}: {n_ins} inserts + {n_rm} removals over "
            f"{len(ops_batches)} wire batches at {report.qps:,.0f} q/s, "
            f"0 errors, answers == direct build"
        )

        # Phase 2: force the dirt threshold and watch the background
        # recompile fire — observed entirely over the wire via stats().
        before = stats["live"]["recompiles"]
        removed = []
        with ReachClient(*server.address) as writer:
            for u, v in sorted(shadow.edges()):
                reply = writer.update([("-", u, v)])
                removed.append((u, v))
                if reply["tombstones"] == 0 and reply["dirt_ratio"] == 0.0 \
                        and writer.stats()["live"]["recompiles"] > before:
                    break  # a recompile already compacted mid-stream
                if reply["dirt_ratio"] >= DIRT:
                    break
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                live = writer.stats()["live"]
                if live["recompiles"] > before and \
                        live["compiler"]["tombstones"] == 0:
                    break
                time.sleep(0.05)
        check(live["recompiles"] > before,
              "dirt threshold crossed but no background recompile ran")
        check(live["compiler"]["tombstones"] == 0,
              "recompile left tombstones behind")
        for u, v in removed:
            shadow.remove_edge(u, v)
        expected2 = Reachability(shadow.copy(), "DL").query_batch(pairs)
        with ReachClient(*server.address) as client:
            check(client.query_batch(pairs) == expected2,
                  "answers diverge after the dirt-triggered recompile")
        print(
            f"[recompile] {len(removed)} more removals -> "
            f"{live['recompiles'] - before} background recompile(s), "
            f"0 tombstones left, answers == direct build"
        )
    finally:
        server.close()
    print("live churn smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
