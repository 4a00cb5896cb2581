"""Ground truth for the benchmark, independent of the code under test.

Nothing here imports ``repro``.  Reachability over a DAG is computed as
one bitset per vertex (a Python ``int``; bit ``v`` of ``reach[u]`` says
``u`` reaches ``v``, every vertex reaches itself), filled in reverse
topological order, so that checking a served answer is one shift.  A
plain breadth-first search stands beside it: the closure is only
trusted after :func:`spot_check` has compared a sample of its bits with
that search.

Served answers arrive as ``OP_ANSWERS`` payloads — a ``u32`` count and
then the answers as bits, lowest bit first.  Before the update stream
and after it has been applied in full the payload must equal the truth
exactly; while it runs the served graph lies between the base graph
and the base graph plus every inserted edge, so each answer must lie
between the two truths (reachability only grows with edges).
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "topological_order",
    "closure",
    "bfs_reaches",
    "spot_check",
    "answers",
    "answer_bits",
    "answers_payload",
    "payload_within",
]

Pair = Tuple[int, int]
_COUNT = struct.Struct("<I")


def _adjacency(n: int, edges: Iterable[Pair]) -> List[List[int]]:
    out: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
    return out


def topological_order(n: int, edges: Iterable[Pair]) -> List[int]:
    """Kahn's algorithm; raises ``ValueError`` if the graph has a cycle."""
    out = _adjacency(n, edges)
    indegree = [0] * n
    for targets in out:
        for v in targets:
            indegree[v] += 1
    queue = deque(v for v in range(n) if indegree[v] == 0)
    order: List[int] = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in out[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                queue.append(v)
    if len(order) != n:
        raise ValueError("the graph has a cycle")
    return order


def closure(n: int, edges: Sequence[Pair]) -> List[int]:
    """``reach[u]`` as a bitset, for every vertex of a DAG."""
    out = _adjacency(n, edges)
    reach = [0] * n
    for u in reversed(topological_order(n, edges)):
        bits = 1 << u
        for v in out[u]:
            bits |= reach[v]
        reach[u] = bits
    return reach


def bfs_reaches(out: Sequence[Sequence[int]], u: int, v: int) -> bool:
    """Whether ``u`` reaches ``v``, by breadth-first search."""
    if u == v:
        return True
    seen = {u}
    queue = deque((u,))
    while queue:
        x = queue.popleft()
        for w in out[x]:
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return False


def spot_check(n: int, edges: Sequence[Pair], reach: Sequence[int], rng, count: int) -> None:
    """Raise ``AssertionError`` if the closure and the search disagree.

    Half the sampled pairs are uniform (nearly all unreachable on a
    sparse DAG); the other half end a short random walk from their
    source, so both answers are exercised.
    """
    out = _adjacency(n, edges)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count // 2)]
    while len(pairs) < count:
        u = v = rng.randrange(n)
        for _ in range(rng.randrange(1, 5)):
            if out[v]:
                v = rng.choice(out[v])
        pairs.append((u, v))
    for u, v in pairs:
        if bool((reach[u] >> v) & 1) != bfs_reaches(out, u, v):
            raise AssertionError(f"closure and breadth-first search disagree on {(u, v)}")


def answers(reach: Sequence[int], pairs: Iterable[Pair]) -> List[bool]:
    """The true answer to each pair."""
    return [bool((reach[u] >> v) & 1) for u, v in pairs]


def answer_bits(reach: Sequence[int], pairs: Sequence[Pair]) -> int:
    """The answers to ``pairs`` as one integer, bit ``i`` for pair ``i``."""
    bits = 0
    for i, (u, v) in enumerate(pairs):
        if (reach[u] >> v) & 1:
            bits |= 1 << i
    return bits


def answers_payload(reach: Sequence[int], pairs: Sequence[Pair]) -> bytes:
    """The ``OP_ANSWERS`` payload a correct server sends for ``pairs``."""
    count = len(pairs)
    return _COUNT.pack(count) + answer_bits(reach, pairs).to_bytes((count + 7) // 8, "little")


def payload_within(payload: bytes, lower: bytes, upper: bytes) -> bool:
    """Whether every served bit lies between the two truths' bits."""
    if len(payload) != len(lower) or payload[:4] != lower[:4]:
        return False
    served = int.from_bytes(payload[4:], "little")
    low = int.from_bytes(lower[4:], "little")
    high = int.from_bytes(upper[4:], "little")
    return served & low == low and served | high == high
