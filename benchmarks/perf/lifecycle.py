"""One deployment lifecycle: build → serve → churn → crash-recover.

Every phase does a fixed amount of seeded work and every repeated
number it reports is the better quartile of its in-run blocks (see
README.md, "Rules that make it repeat").  All of ``repro`` is driven through its public API:
``Reachability`` → ``save`` → ``repro.cluster.PrimaryProcess`` (the
server in a child process, so it does not share an interpreter lock
with the load generator) → reads over loopback TCP → a paced update
stream beside reads → ``kill`` + ``restart``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import loadgen
import stats
import truth
import workloads
from spans import Tracer

OP_QUERY = 1
OP_ANSWERS = 2
OP_UPDATE_REPLY = 10
OP_UPDATE_SEQ = 16

clock = time.perf_counter
frame = loadgen.frame


@contextmanager
def gc_paused():
    """No collector pause inside a timed in-process computation."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def settle() -> None:
    """Before each phase: collect now, and keep the survivors out of later collections."""
    gc.collect()
    gc.freeze()


class Tally:
    """Sent / succeeded / failed per phase; a wrong answer is a failure."""

    def __init__(self) -> None:
        self.phases: Dict[str, List[int]] = {}
        self.first_failure = ""

    def add(self, phase: str, sent: int, ok: int, why: str = "") -> None:
        row = self.phases.setdefault(phase, [0, 0, 0])
        row[0] += sent
        row[1] += ok
        row[2] += sent - ok
        if sent != ok and not self.first_failure:
            self.first_failure = f"{phase}: {why or 'wrong, failed or missing reply'}"

    @property
    def attempted(self) -> int:
        return sum(row[0] for row in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(row[2] for row in self.phases.values())


class ReadBlock:
    """One block of read requests on the benchmark's two connections."""

    def __init__(self, traffic: workloads.Traffic, indices: Sequence[int], due: Sequence[float], inflight):
        indices = list(indices)
        self.lanes: List[loadgen.Lane] = []
        self.members: List[List[int]] = []
        k = workloads.CONNECTIONS
        for c in range(k):
            members = indices[c::k]
            frames = [frame(OP_QUERY, j, traffic.payloads[i]) for j, i in enumerate(members)]
            self.lanes.append(loadgen.Lane(frames, list(due[c::k]), inflight))
            self.members.append(members)

    def replies(self):
        """``(pool index, latency from due in ms or None, opcode, payload)`` per request."""
        for lane, members in zip(self.lanes, self.members):
            for j, i in enumerate(members):
                done = lane.done[j]
                latency = None if done is None else (done - lane.due[j]) * 1000.0
                yield i, latency, lane.ops[j], lane.payloads[j]

    def errors(self) -> str:
        return "; ".join(lane.error for lane in self.lanes if lane.error)


GENERATOR_CPU, SERVER_CPU = 0, 1


def pin(pid: int, cpu: int) -> None:
    """Keep every thread of a process on one CPU (a no-op on a one-CPU host).

    The generator lives on CPU 0 and the server child on CPU 1.  Left
    to the scheduler, the server's two connection threads sometimes
    shared a core and sometimes did not, and `point-zipf` answered
    17 k or 45 k requests/s accordingly — a property of thread
    placement on a 2-core box, not of the code under test.  Threads a
    pinned thread starts later inherit its CPU.
    """
    if (os.cpu_count() or 1) < 2:
        return
    for task in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(task), {cpu})


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Lifecycle:
    """State shared by the phases of one run."""

    def __init__(self, name: str, seed: int, seconds: float, tracer: Tracer, workdir: str) -> None:
        self.seed = seed
        self.params = workloads.scaled(workloads.WORKLOADS[name], seconds)
        self.repeats = workloads.REPEATS[tracer.enabled]
        self.tracer = tracer
        self.workdir = workdir
        self.tally = Tally()
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.layers: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []
        self.blocks: Dict[str, List[float]] = {}
        self.primary = None
        self.graph = None
        self.artifact = os.path.join(workdir, "index.rpro")
        self.traffic: Optional[workloads.Traffic] = None
        pin(os.getpid(), GENERATOR_CPU)

    # -- helpers -------------------------------------------------------
    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def put_blocks(self, name: str, values: List[float], unit: str, higher: bool = False) -> None:
        """An end-to-end metric from repeated blocks: their better quartile."""
        self.blocks[name] = values
        self.put(name, stats.better_quartile(values, higher), unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (value, unit)

    @property
    def address(self) -> Tuple[str, int]:
        return self.primary.address

    # -- phase: set-up -------------------------------------------------
    def bring_up(self, data_dir: str) -> Dict[str, float]:
        """Graph → build → save → server child → first answer, timed as a whole."""
        from repro import Reachability
        from repro.cluster import PrimaryProcess
        from repro.server.client import ReachClient

        span = self.tracer.span
        out: Dict[str, float] = {}
        t0 = clock()
        with span("repro.graph:generate"):
            graph = workloads.make_graph(self.params["graph"])
        out["gen_s"] = clock() - t0
        with span("repro.core:build"), gc_paused():
            t = clock()
            reach = Reachability(graph, "DL")
            out["build_s"] = clock() - t
        with span("repro.artifact:save"):
            t = clock()
            out["index_bytes"] = reach.save(self.artifact)
            out["save_s"] = clock() - t
        del reach
        with span("repro.cluster:primary_start"):
            primary = PrimaryProcess(data_dir, graph)
            primary.start()
            pin(primary.pid, SERVER_CPU)
        probe = random.Random(self.seed)
        pairs = [(probe.randrange(graph.n), probe.randrange(graph.n)) for _ in range(256)]
        with span("repro.server:first_answer"):
            with ReachClient(*primary.address) as client:
                answers = client.query_batch(pairs)
        out["setup_s"] = clock() - t0
        self.graph, self.primary = graph, primary
        self._probe = (pairs, answers)
        return out

    def setup(self) -> None:
        samples = []
        with self.tracer.span("phase:setup"):
            for k in range(self.repeats["setups"]):
                if self.primary is not None:
                    self.primary.stop()
                    self.primary = None
                data_dir = os.path.join(self.workdir, f"data-{k}")
                settle()
                samples.append(self.bring_up(data_dir))
                if k:
                    shutil.rmtree(os.path.join(self.workdir, f"data-{k - 1}"))
        self.builds = [s["build_s"] for s in samples]
        self.put_blocks("setup_s", [s["setup_s"] for s in samples], "s")
        self.put("index_bytes", samples[-1]["index_bytes"], "bytes")
        self.layer("graph.gen_s", stats.median([s["gen_s"] for s in samples]), "s")
        self.layer("artifact.save_s", stats.median([s["save_s"] for s in samples]), "s")

    # -- phase: ground truth and traffic (the benchmark's own work) ----
    def prepare(self) -> None:
        graph = self.graph
        with self.tracer.span("phase:prepare"):
            edges = list(graph.edges())
            self.reach = truth.closure(graph.n, edges)
            truth.spot_check(graph.n, edges, self.reach, random.Random(self.seed + 1), 64)
            # The traced run sends every closed-loop block twice.
            rounds = self.repeats["rounds"] + 1
            closed = rounds + workloads.WARMUP_CLOSED_BLOCKS - 1
            blocks = (closed + (rounds if self.tracer.enabled else 0), rounds)
            self.traffic = traffic = workloads.Traffic(
                self.params, self.seed, graph.n, edges, self.reach, blocks
            )
            self.final_set = traffic.take(self.params["verify_requests"])
            pairs, answers = self._probe
            good = answers == truth.answers(self.reach, pairs)
            self.tally.add("setup", 1, int(good), "first answers after bring-up are wrong")
            self.reach_upper = truth.closure(graph.n, traffic.upper_edges)
            if traffic.final_edges == traffic.upper_edges:
                self.reach_final = self.reach_upper
            else:
                self.reach_final = truth.closure(graph.n, traffic.final_edges)
            self.final_expected = traffic.expected(self.reach_final, self.final_set)

    # -- phase: steady reads -------------------------------------------
    def check_exact(self, phase: str, block: ReadBlock, expected: Dict[int, bytes]) -> List[float]:
        """Tally a block against the exact truth; returns the good replies' latencies."""
        good: List[float] = []
        sent = 0
        for i, latency, op, payload in block.replies():
            sent += 1
            if op == OP_ANSWERS and payload == expected[i]:
                good.append(latency)
        self.tally.add(phase, sent, len(good), block.errors())
        return good

    def closed_block(self, tracer: Optional[Tracer] = None, parent=None) -> Tuple[float, float]:
        """One closed-loop block: ``(pairs per second, generator CPU share)``."""
        params, traffic = self.params, self.traffic
        count = params["closed_block_requests"]
        block = ReadBlock(traffic, traffic.take(count), [0.0] * count, params["closed_inflight"])
        cpu = time.process_time()
        wall = loadgen.run(self.address, block.lanes, tracer=tracer, parent=parent)
        cpu = time.process_time() - cpu
        good = self.check_exact("capacity", block, traffic.expected_base)
        return len(good) * params["pairs_per_request"] / wall, cpu / wall

    def open_block(self, phase: str) -> Tuple[List[float], float, List[float]]:
        """One open-loop block: good latencies, share within the limit, lateness."""
        params, traffic = self.params, self.traffic
        count = params["open_block_requests"]
        due = [i / params["open_rate"] for i in range(count)]
        block = ReadBlock(traffic, traffic.take(count), due, None)
        loadgen.run(self.address, block.lanes)
        good = self.check_exact(phase, block, traffic.expected_base)
        within = sum(1 for x in good if x <= params["limit_ms"]) / count
        late = [x for lane in block.lanes for x in lane.lateness_ms()]
        return good, within, late

    def steady(self) -> None:
        from repro import Reachability
        from repro.serialization import load_artifact
        from repro.server.client import ReachClient

        span = self.tracer.span
        traffic = self.traffic
        traced = self.tracer.enabled
        with span("phase:steady"):
            with span("repro.artifact:load"):
                t = clock()
                oracle = load_artifact(self.artifact)
                self.layer("artifact.load_ms", (clock() - t) * 1000.0, "ms")
            expected = truth.answers(self.reach, traffic.oracle_pairs)
            self.layer("kernels.positive_share", sum(expected) / len(expected), "ratio")
            with ReachClient(*self.address) as client:
                before = client.stats()
            oracle_rate, capacity, traced_capacity, cpu_share = [], [], [], []
            p50, within, tails, late = [], [], [], []
            for r in range(self.repeats["rounds"] + 1):
                settle()
                if 0 < r <= self.repeats["builds_in_rounds"]:
                    with span("repro.core:build"), gc_paused():
                        t = clock()
                        Reachability(self.graph, "DL")
                        self.builds.append(clock() - t)
                with span("repro.kernels:query_batch"), gc_paused():
                    t = clock()
                    answers = oracle.query_batch(traffic.oracle_pairs)
                    took = clock() - t
                self.tally.add("oracle", 1, int(answers == expected), "in-process batch is wrong")
                with span("repro.server:closed_loop"):
                    for _ in range(workloads.WARMUP_CLOSED_BLOCKS if r == 0 else 1):
                        rate, cpu = self.closed_block()
                if traced:
                    with span("repro.server:closed_loop_traced") as parent:
                        traced_rate, _ = self.closed_block(self.tracer, parent)
                with span("repro.server:open_loop"):
                    good, share, lateness = self.open_block("read")
                if r == 0:
                    self.layer("kernels.engine_warm_ms", took * 1000.0, "ms")
                    continue
                oracle_rate.append(len(answers) / took / 1e6)
                capacity.append(rate)
                cpu_share.append(cpu)
                if traced:
                    traced_capacity.append(traced_rate)
                p50.append(stats.median(good))
                within.append(share)
                tails.append(stats.tail(good))
                late.append(stats.tail(lateness))
            with ReachClient(*self.address) as client:
                after = client.stats()
        best = stats.better_quartile
        self.put_blocks("build_s", self.builds, "s")
        self.put_blocks("oracle_mpairs_per_s", oracle_rate, "Mpairs/s", higher=True)
        self.put_blocks("capacity_pairs_per_s", capacity, "pairs/s", higher=True)
        self.blocks["read_p50_ms"] = p50
        self.layer("server.read_p50_ms", best(p50), "ms")
        self.put_blocks("read_within_limit", within, "ratio", higher=True)
        self.put("rss_mb", vm_hwm_mb(self.primary.pid), "MB")
        pairs = self.params["pairs_per_request"]
        self.layer("kernels.batch_ns_per_pair", 1e3 / best(oracle_rate, True), "ns")
        self.layer("server.tcp_us_per_req", 1e6 * pairs / best(capacity, True), "us")
        self.layer("server.read_tail_ms", best([v for _, v in tails]), "ms")
        self.layer("loadgen.late_tail_ms", best([v for _, v in late]), "ms")
        self.layer("loadgen.cpu_share", stats.median(cpu_share), "ratio")
        self.notes.append(
            f"read tail is p{tails[0][0]:g} of {self.params['open_block_requests']} per block; "
            f"lateness tail is p{late[0][0]:g}"
        )
        if traced:
            ratio = best(traced_capacity, True) / best(capacity, True)
            self.layer("bench.trace_overhead_ratio", ratio, "ratio")
        cache0, cache1 = before["cache"], after["cache"]
        lookups = cache1["hits"] + cache1["misses"] - cache0["hits"] - cache0["misses"]
        self.layer("server.cache_hit_rate", (cache1["hits"] - cache0["hits"]) / lookups, "ratio")
        batches = after["batcher"]["batches"] - before["batcher"]["batches"]
        batched = after["batcher"]["batched_pairs"] - before["batcher"]["batched_pairs"]
        self.layer("server.mean_batch_pairs", batched / batches if batches else 0.0, "pairs")

    # -- phase: churn --------------------------------------------------
    def _update_lane(self, first: int, count: int, rate: Optional[float]) -> loadgen.Lane:
        """Updates ``first … first+count`` of the stream, one in flight, paced or back to back."""
        from repro.server import protocol as proto

        client_id = f"perf-{self.seed}"
        frames = [
            frame(OP_UPDATE_SEQ, k, proto.encode_update_seq(client_id, first + k + 1, ops))
            for k, ops in enumerate(self.traffic.updates[first:first + count])
        ]
        due = [k / rate if rate else 0.0 for k in range(count)]
        return loadgen.Lane(frames, due, 1)

    def _acks(self, phase: str, lane: loadgen.Lane, first: int) -> Tuple[List[float], List[dict]]:
        """Tally an update lane; returns ack latencies and the servers' summaries.

        A paced update is timed from when it was due.  Back-to-back
        updates are all "due" at 0 and each waits for the one before,
        so they are timed from when they were sent.
        """
        acks, summaries = [], []
        paced = lane.due[-1] > 0.0
        for k, done in enumerate(lane.done):
            if done is not None and lane.ops[k] == OP_UPDATE_REPLY:
                summary = json.loads(lane.payloads[k])
                if summary.get("seq") == first + k + 1 and not summary.get("deduped"):
                    acks.append((done - (lane.due[k] if paced else lane.sent[k])) * 1000.0)
                    summaries.append(summary)
        self.tally.add(phase, len(lane), len(acks), lane.error)
        return acks, summaries

    def churn(self) -> None:
        """The update stream: first alone, then beside the open-loop reads."""
        params, traffic = self.params, self.traffic
        span = self.tracer.span
        quiet = params["quiet_updates"]
        with span("phase:churn"):
            settle()
            alone = self._update_lane(0, quiet, None)
            with span("repro.live:updates_alone"):
                loadgen.run(self.address, [alone], grace_s=30.0)
            count = traffic.churn_reads
            indices = traffic.take(count)
            due = [i / params["open_rate"] for i in range(count)]
            block = ReadBlock(traffic, indices, due, None)
            beside = self._update_lane(quiet, params["update_batches"], params["update_rate"])
            with span("repro.live+server:updates_beside_reads"):
                loadgen.run(self.address, block.lanes + [beside], grace_s=30.0)
        upper = traffic.expected(self.reach_upper, indices)
        lower = traffic.expected_base
        good: List[float] = []
        for i, latency, op, payload in block.replies():
            if op == OP_ANSWERS and truth.payload_within(payload, lower[i], upper[i]):
                good.append(latency)
        self.tally.add("churn-read", count, len(good), block.errors())
        acks, summaries = self._acks("update-alone", alone, 0)
        self.put_blocks("update_ack_ms", acks, "ms")
        within = sum(1 for x in good if x <= params["limit_ms"]) / count
        self.put("churn_read_within_limit", within, "ratio")
        self.layer("server.churn_read_p50_ms", stats.median(good), "ms")
        p, value = stats.tail(good)
        self.layer("server.churn_read_tail_ms", value, "ms")
        busy_acks, busy_summaries = self._acks("update-beside-reads", beside, quiet)
        self.blocks["churn_ack_ms"] = busy_acks
        self.layer("durability.churn_ack_p50_ms", stats.median(busy_acks), "ms")
        q, value = stats.tail(busy_acks)
        self.layer("durability.churn_ack_tail_ms", value, "ms")
        self.notes.append(
            f"churn read tail is p{p:g} of {count}; churn ack tail is p{q:g} of {len(busy_acks)}"
        )
        summaries += busy_summaries
        self.layer("live.apply_ops_ms", stats.median([s["swap_s"] for s in summaries]) * 1e3, "ms")
        published = [s for s in summaries if s.get("published")]
        self.layer("live.compile_ms", stats.median([s["compile_s"] for s in published]) * 1e3, "ms")
        self.layer("live.publish_ms", stats.median([s["publish_s"] for s in published]) * 1e3, "ms")
        self.layer("live.bytes_written_per_update", stats.median([s["bytes"] for s in published]), "bytes")
        self.layer(
            "live.sections_repacked", stats.median([s["sections_repacked"] for s in published]), "count"
        )
        self.verify_final("quiesce")

    def verify_final(self, phase: str) -> None:
        """Every answer must now equal the truth of the fully updated graph."""
        count = len(self.final_set)
        block = ReadBlock(self.traffic, self.final_set, [0.0] * count, self.params["closed_inflight"])
        loadgen.run(self.address, block.lanes, grace_s=30.0)
        self.check_exact(phase, block, self.final_expected)

    # -- phase: crash and recover --------------------------------------
    def recover(self) -> None:
        from repro.server.client import ReachClient

        traffic = self.traffic
        first = self.final_set[0]
        samples, rebuilds = [], []
        with self.tracer.span("phase:recover"):
            for _ in range(self.repeats["recoveries"]):
                settle()
                with self.tracer.span("repro.durability:kill_restart_answer"):
                    t = clock()
                    self.primary.kill()
                    self.primary.restart()
                    pin(self.primary.pid, SERVER_CPU)
                    with ReachClient(*self.address) as client:
                        answers = client.query_batch(traffic.pool[first])
                    took = clock() - t
                good = truth.answers(self.reach_final, traffic.pool[first])
                self.tally.add("recover", 1, int(answers == good), "first answer after restart is wrong")
                samples.append(took)
                rebuilds.append(float(self.primary.recovery_info["recovery_s"]))
                self.verify_final("recover-verify")
        self.put_blocks("recover_s", samples, "s")
        self.layer("durability.recover_build_s", stats.better_quartile(rebuilds), "s")

    def close(self) -> None:
        if self.primary is not None:
            self.primary.stop()
            self.primary = None
