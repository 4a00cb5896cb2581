"""Per-layer measurements that only the traced run makes.

Each function times calls into one layer's public functions, from
outside, inside a span named after the layer.  They run after the
lifecycle's last fork: several of them start threads in this process
(a batcher, a journal's group-commit thread), and a process that has
threads must not fork.  The one that forks a replica runs first.
"""

from __future__ import annotations

import os
import shutil

import stats
import truth
from lifecycle import Lifecycle, OP_QUERY, clock, gc_paused, settle

SCALAR_QUERIES = 20000
LAYER_UPDATES = 10


def _ladder(run: Lifecycle):
    """The same requests for every rung of the read ladder.

    Taken from the end of the pool: the recovered server has just been
    asked the verification set, which starts the seeded order, and a
    rung that hit its result cache would measure something else.
    """
    pool = run.traffic.pool
    return [pool[-1 - i % len(pool)] for i in range(run.params["ladder_requests"])]


def _truth(reach, requests):
    return [truth.answers(reach, request) for request in requests]


def core_and_kernels(run: Lifecycle) -> None:
    """``repro.graph`` freeze, ``repro.core`` build and compile, scalar queries."""
    from repro.core.distribution import DistributionLabeling
    from repro.serialization import load_artifact

    span = run.tracer.span
    graph = run.graph
    with span("phase:layers-core"):
        settle()
        thawed = graph.copy()
        with span("repro.graph:freeze"):
            t = clock()
            thawed.freeze()
            run.layer("graph.freeze_ms", (clock() - t) * 1e3, "ms")
        with span("repro.core:label_build"), gc_paused():
            t = clock()
            index = DistributionLabeling(graph)
            run.layer("core.label_build_s", clock() - t, "s")
        with span("repro.core:compile"), gc_paused():
            t = clock()
            index.compile()
            run.layer("core.compile_s", clock() - t, "s")
        info = index.stats()
        run.layer("core.label_ints", info["index_size_ints"], "count")
        run.layer("core.max_label_len", info["max_label_len"], "count")
        run.layer(
            "artifact.bytes_per_label_int",
            run.metrics["index_bytes"][0] / info["index_size_ints"],
            "bytes",
        )
        del index
        oracle = load_artifact(run.artifact)
        pairs = run.traffic.oracle_pairs[:SCALAR_QUERIES]
        expected = truth.answers(run.reach, pairs)
        query = oracle.query
        with span("repro.kernels:scalar_query"), gc_paused():
            t = clock()
            answers = [query(u, v) for u, v in pairs]
            took = clock() - t
        run.tally.add("scalar", 1, int(answers == expected), "scalar queries are wrong")
        run.layer("kernels.scalar_us_per_query", took / len(pairs) * 1e6, "us")


def tcp_single(run: Lifecycle) -> None:
    """One blocking client, one request in flight, against the recovered server."""
    from repro.server.client import ReachClient

    requests = _ladder(run)
    expected = _truth(run.reach_final, requests)
    with run.tracer.span("phase:layers-tcp1"):
        settle()
        with ReachClient(*run.address) as client:
            client.query_batch(requests[0])
            with run.tracer.span("repro.server:tcp1"):
                t = clock()
                served = [client.query_batch(request) for request in requests]
                took = clock() - t
    run.tally.add("tcp1", len(requests), sum(a == b for a, b in zip(served, expected)))
    run.layer("server.tcp1_rtt_us", took / len(requests) * 1e6, "us")


def read_ladder(run: Lifecycle) -> None:
    """The same requests through the codec alone and the in-process service."""
    from repro.server import protocol as proto
    from repro.server.service import QueryService

    span = run.tracer.span
    requests = _ladder(run)
    base = _truth(run.reach, requests)
    with span("phase:layers-read"):
        settle()
        replies = [proto.encode_answers(answers) for answers in base]
        with span("repro.server:codec"), gc_paused():
            t = clock()
            for k, request in enumerate(requests):
                proto.pack_frame(OP_QUERY, k, proto.encode_pairs(request))
                proto.decode_answers(replies[k])
            took = clock() - t
        run.layer("server.codec_us_per_req", took / len(requests) * 1e6, "us")

        service = QueryService(artifact_path=run.artifact)
        service.start()
        try:
            service.query_pairs(requests[0])
            with span("repro.server:service"):
                t = clock()
                served = [service.query_pairs(request) for request in requests]
                took = clock() - t
        finally:
            service.close()
        run.tally.add("service", len(requests), sum(a == b for a, b in zip(served, base)))
        run.layer("server.service_us_per_req", took / len(requests) * 1e6, "us")


def router(run: Lifecycle) -> None:
    """``ReplicaRouter`` over one replica process seeded with the artifact."""
    from repro.cluster import ReplicaProcess, ReplicaRouter

    requests = _ladder(run)
    base = _truth(run.reach, requests)
    with run.tracer.span("phase:layers-router"):
        settle()
        replica = ReplicaProcess(seed_path=run.artifact)
        replica.start()
        try:
            tier = ReplicaRouter([(replica.host, replica.port)]).start()
            try:
                tier.query_pairs(requests[0])
                with run.tracer.span("repro.cluster:router"):
                    t = clock()
                    served = [tier.query_pairs(request) for request in requests]
                    took = clock() - t
                retries = tier.stats()["retries"]
            finally:
                tier.close()
        finally:
            replica.stop()
    run.tally.add("router", len(requests), sum(a == b for a, b in zip(served, base)))
    run.layer("cluster.router_us_per_req", took / len(requests) * 1e6, "us")
    run.layer("cluster.router_retries", retries, "count")


def durability(run: Lifecycle) -> None:
    """Journal append alone, the primary's cost over the live index, and replay.

    For replay the update stream is applied to a ``JournaledPrimary``
    with ``checkpoint_every=0``, which leaves every record beyond the
    manifest's watermark; its directory is copied while it is still
    open — what a crash would leave — and recovering the copy replays
    the whole stream.
    """
    from repro.durability import JournaledPrimary
    from repro.durability.journal import UpdateJournal

    span = run.tracer.span
    updates = run.traffic.updates[:LAYER_UPDATES]
    with span("phase:layers-durability"):
        settle()
        journal = UpdateJournal(os.path.join(run.workdir, "journal-alone"))
        appends = []
        try:
            for k, ops in enumerate(updates):
                with span("repro.durability:journal_append"):
                    t = clock()
                    journal.append(ops, client="perf", seq=k + 1)
                    appends.append(clock() - t)
        finally:
            journal.close()
        run.layer("durability.journal_append_ms", stats.median(appends) * 1e3, "ms")
        written = sum(entry.stat().st_size for entry in os.scandir(journal.directory))
        run.layer("durability.journal_bytes_per_op", written / sum(len(ops) for ops in updates), "bytes")

        image = os.path.join(run.workdir, "image")
        with span("repro.durability:primary_init"):
            primary = JournaledPrimary(image, run.graph)
        overhead = []
        try:
            for k, ops in enumerate(updates):
                with span("repro.durability:apply_update"):
                    t = clock()
                    summary = primary.apply_update(ops, client="perf", seq=k + 1)
                    overhead.append(clock() - t - summary["swap_s"])
        finally:
            primary.close()
        run.layer("durability.ack_overhead_ms", stats.median(overhead) * 1e3, "ms")

        tail = os.path.join(run.workdir, "image-tail")
        with span("repro.durability:primary_init"):
            primary = JournaledPrimary(tail, run.graph, checkpoint_every=0)
        try:
            for k, ops in enumerate(updates):
                with span("repro.durability:apply_update"):
                    primary.apply_update(ops, client="perf", seq=k + 1)
            shutil.copytree(tail, tail + "-crashed")
        finally:
            primary.close()
        with span("repro.durability:replay"):
            recovered = JournaledPrimary(tail + "-crashed")
        info = dict(recovered.recovery_info)
        recovered.close()
        replayed = int(info["records_replayed"])
        run.tally.add("replay", len(updates), replayed, "recovery did not replay the whole tail")
        rebuild = run.layers["durability.recover_build_s"][0]
        per_record = (float(info["recovery_s"]) - rebuild) / max(1, replayed)
        run.layer("durability.replay_ms_per_record", per_record * 1e3, "ms")
