"""The three workloads: their frozen parameters and their seeded traffic.

A workload is a *dataset* (a generated DAG whose generator seed is part
of the workload, like the paper's fixed datasets — so that index size
and build time mean the same thing in every run) and a *traffic
stream* made from ``--seed``: the read requests, the order they are
asked in, and the update stream.  The program under test only ever sees
the generated graph and the generated requests.

Rates, limits and block sizes below were calibrated once on the
reference box (2 cores; see README.md) and are frozen: nothing is
derived at run time from a measured capacity.  Every timed block does a
fixed amount of work; ``--seconds`` scales the block sizes, it is not a
time box.
"""

from __future__ import annotations

import itertools
import random
import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

import truth

__all__ = ["RUN_SECONDS", "WORKLOADS", "Traffic", "make_graph", "zipf_indices"]

Pair = Tuple[int, int]
Op = Tuple[str, int, int]

#: The ``--seconds`` at which the block sizes below apply as written.
RUN_SECONDS = 20

#: How often each repeated block runs: measured rounds of the steady
#: read phases (one more is run first and discarded), bring-ups timed
#: for ``setup_s``, how many of the rounds also time a build (beside
#: the bring-ups' own builds, so the samples span the run) and crash
#: recoveries.  The traced run reports none of the end-to-end numbers
#: these repeats steady, so it makes do with fewer.
REPEATS = {
    False: dict(rounds=8, setups=3, builds_in_rounds=4, recoveries=3),
    True: dict(rounds=4, setups=1, builds_in_rounds=0, recoveries=1),
}
ORACLE_BLOCK_PAIRS = 131072
#: The discarded first round sends this many closed-loop blocks, not
#: one: a freshly started server sometimes answers two to three times
#: faster than it does for the rest of its life (the connection threads
#: have not yet begun to fight over the interpreter lock), and the
#: measured rounds should see the server it settles into.
WARMUP_CLOSED_BLOCKS = 4

_POINT_WRITES = dict(
    quiet_updates=8, update_batches=12, update_rate=2.0, inserts_per_batch=5, deletes_per_batch=0,
    verify_requests=2048, ladder_requests=1000,
)

WORKLOADS: Dict[str, dict] = {
    "point-random": dict(
        why=(
            "1 uniform random pair per request (>99% negative, cache never hits): framing, "
            "batcher, thread hand-offs and cache misses do the work; 5-edge inserts"
        ),
        graph=("citation_dag", dict(n=20000, out_per_vertex=3, seed=7)),
        reads="uniform",
        pairs_per_request=1,
        closed_inflight=64,
        closed_block_requests=6000,
        open_rate=8000.0,
        open_block_requests=4000,
        limit_ms=5.0,
        **_POINT_WRITES,
    ),
    "batch-equal": dict(
        why=(
            "512 pairs per request, half of them reachable: label intersections in the kernel "
            "do the work and the wire is amortised 512x; 50-op insert+delete batches"
        ),
        graph=("random_dag", dict(n=20000, m=60000, seed=7)),
        reads="equal",
        pairs_per_request=512,
        pool_requests=512,
        closed_inflight=8,
        closed_block_requests=128,
        open_rate=24.0,
        open_block_requests=18,
        limit_ms=25.0,
        quiet_updates=6,
        update_batches=9,
        update_rate=1.5,
        inserts_per_batch=24,
        deletes_per_batch=1,
        verify_requests=64,
        ladder_requests=200,
    ),
    "point-zipf": dict(
        why=(
            "1 pair per request drawn Zipf(1.1) from a 16384-pair pool that fits the result "
            "cache: cache hits do the work, and every published update invalidates them"
        ),
        graph=("citation_dag", dict(n=20000, out_per_vertex=3, seed=7)),
        reads="zipf",
        zipf_s=1.1,
        pool_requests=16384,
        pairs_per_request=1,
        closed_inflight=64,
        closed_block_requests=6000,
        open_rate=8000.0,
        open_block_requests=4000,
        limit_ms=5.0,
        **_POINT_WRITES,
    ),
}

CONNECTIONS = 2


def scaled(params: dict, seconds: float) -> dict:
    """The workload's parameters with block sizes scaled to ``seconds``."""
    scale = seconds / RUN_SECONDS
    out = dict(params)
    for key in ("closed_block_requests", "open_block_requests", "update_batches"):
        out[key] = max(4, round(params[key] * scale))
    return out


def make_graph(spec):
    """The workload's dataset, from the generators of the code under test."""
    from repro.graph import generators

    name, kwargs = spec
    return getattr(generators, name)(**kwargs)


def zipf_indices(rng: random.Random, size: int, s: float, count: int) -> List[int]:
    """``count`` draws from ``range(size)``, index ``k`` with weight ``1/(k+1)**s``."""
    cumulative = list(itertools.accumulate((k + 1) ** -s for k in range(size)))
    return rng.choices(range(size), cum_weights=cumulative, k=count)


def _uniform_requests(rng: random.Random, n: int, count: int) -> List[List[Pair]]:
    return [[(rng.randrange(n), rng.randrange(n))] for _ in range(count)]


def _equal_pairs(rng: random.Random, n: int, reach: Sequence[int], count: int) -> List[Pair]:
    """``count`` pairs, half of them reachable — the paper's "equal" load.

    Positives are sampled from the transitive closure as in the paper
    (a random source, then random members of its reach set); negatives
    are rejection-sampled against the same closure.
    """
    nbytes = (n + 7) // 8
    half = count // 2
    positives: List[Pair] = []
    while len(positives) < half:
        u = rng.randrange(n)
        others = reach[u] & ~(1 << u)
        if not others:
            continue
        raw = np.frombuffer(others.to_bytes(nbytes, "little"), np.uint8)
        targets = np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()
        for v in rng.choices(targets, k=min(16, len(targets))):
            positives.append((u, v))
    negatives: List[Pair] = []
    while len(negatives) < count - half:
        u, v = rng.randrange(n), rng.randrange(n)
        if not (reach[u] >> v) & 1:
            negatives.append((u, v))
    pairs = positives[:half] + negatives
    rng.shuffle(pairs)
    return pairs


def _update_stream(
    rng: random.Random, n: int, edges: Sequence[Pair], reach: Sequence[int], params: dict
) -> List[List[Op]]:
    """The update batches: novel acyclic inserts, deletes of earlier inserts.

    An inserted edge runs forward in one fixed topological order of the
    base graph, so any set of them keeps the graph acyclic, and joins a
    pair the base graph does not connect, so it changes the answer to
    at least that pair.  A delete removes an edge inserted at least two
    batches earlier (never a base edge: the base graph's reachability
    stays a lower bound on every answer served during the stream).
    """
    position = [0] * n
    for i, u in enumerate(truth.topological_order(n, edges)):
        position[u] = i
    chosen = set()
    batches: List[List[Op]] = []
    inserted: List[List[Pair]] = []
    for b in range(params["quiet_updates"] + params["update_batches"]):
        ops: List[Op] = []
        deletes = params["deletes_per_batch"] if b >= 2 else 0
        fresh: List[Pair] = []
        while len(fresh) < params["inserts_per_batch"] + params["deletes_per_batch"] - deletes:
            u, v = rng.randrange(n), rng.randrange(n)
            if position[u] < position[v] and (u, v) not in chosen and not (reach[u] >> v) & 1:
                chosen.add((u, v))
                fresh.append((u, v))
        ops.extend(("+", u, v) for u, v in fresh)
        if deletes:
            old = inserted[b - 2]
            for _ in range(deletes):
                u, v = old.pop(rng.randrange(len(old)))
                ops.append(("-", u, v))
        inserted.append(fresh)
        batches.append(ops)
    return batches


_COUNT = struct.Struct("<I")


def encode_request(pairs: Sequence[Pair]) -> bytes:
    """The ``OP_QUERY`` payload: a ``u32`` count, then ``u32`` pairs."""
    return _COUNT.pack(len(pairs)) + np.asarray(pairs, dtype="<u4").tobytes()


class Traffic:
    """Everything one run sends, made from the seed before any timing.

    ``pool`` holds the distinct read requests (each a list of pairs) and
    ``payloads`` their wire encoding; :meth:`take` hands out the next
    requests of the seeded order as pool indices.  ``expected_base``
    holds the exact reply to each pool request on the base graph, and
    ``oracle_pairs`` the pairs of the first requests of that order, for
    the in-process block.
    """

    def __init__(
        self, params: dict, seed: int, n: int, edges: Sequence[Pair], reach: Sequence[int],
        read_blocks: Tuple[int, int],
    ):
        """``read_blocks``: how many closed-loop and open-loop blocks will be taken."""
        rng = random.Random(seed)
        closed, opened = read_blocks
        steady = closed * params["closed_block_requests"] + opened * params["open_block_requests"]
        churn_s = params["update_batches"] / params["update_rate"]
        self.churn_reads = round(params["open_rate"] * churn_s)
        needed = steady + self.churn_reads + params["verify_requests"]
        kind = params["reads"]
        if kind == "uniform":
            self.pool = _uniform_requests(rng, n, needed)
            self._order = range(needed)
        elif kind == "zipf":
            self.pool = _uniform_requests(rng, n, params["pool_requests"])
            self._order = zipf_indices(rng, len(self.pool), params["zipf_s"], needed)
        else:
            k = params["pairs_per_request"]
            pairs = _equal_pairs(rng, n, reach, params["pool_requests"] * k)
            self.pool = [pairs[i:i + k] for i in range(0, len(pairs), k)]
            self._order = [i % len(self.pool) for i in range(needed)]
        self._cursor = 0
        self.payloads = [encode_request(req) for req in self.pool]
        self.expected_base = self.expected(reach, range(len(self.pool)))
        self.updates = _update_stream(rng, n, edges, reach, params)
        inserted = [(u, v) for ops in self.updates for op, u, v in ops if op == "+"]
        deleted = {(u, v) for ops in self.updates for op, u, v in ops if op == "-"}
        self.upper_edges = list(edges) + inserted
        self.final_edges = [e for e in self.upper_edges if e not in deleted]
        in_order = (pair for i in itertools.cycle(self._order) for pair in self.pool[i])
        self.oracle_pairs = list(itertools.islice(in_order, ORACLE_BLOCK_PAIRS))

    def take(self, count: int) -> List[int]:
        """The next ``count`` requests of the seeded order, as pool indices."""
        stop = self._cursor + count
        if stop > len(self._order):
            raise RuntimeError("the traffic stream is shorter than the phases need")
        out = list(self._order[self._cursor:stop])
        self._cursor = stop
        return out

    def expected(self, reach: Sequence[int], indices) -> Dict[int, bytes]:
        """The exact ``OP_ANSWERS`` payload for each of the pool requests."""
        return {i: truth.answers_payload(reach, self.pool[i]) for i in set(indices)}
