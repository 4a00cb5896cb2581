"""Order statistics the benchmark reports, and how it picks a tail."""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple

__all__ = ["median", "better_quartile", "percentile", "tail_percentile", "tail", "spread"]

median = statistics.median

#: The percentiles a tail may be reported at, lowest first, each with
#: the samples per thousand that lie beyond it (integers: 100 - 99.9 is
#: not 0.1 in floating point).
_LADDER = ((50.0, 500), (75.0, 250), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1))


def better_quartile(values: Sequence[float], higher_is_better: bool = False) -> float:
    """The value a quarter of the way in from the better end of the blocks.

    On the reference box a process runs for seconds at a time at about
    two thirds of its usual speed (another tenant on the host), so the
    blocks of one run come from two speeds and their median follows
    whichever speed held the majority — it moved by 20-35% between
    runs of the same code.  Interference only ever slows a block, so
    the better end of the blocks is the machine's own speed; taking
    the value a quarter in, not the very best, keeps one freak block
    from becoming the result.  With fewer than four blocks it is the
    best one.
    """
    ordered = sorted(values, reverse=higher_is_better)
    return ordered[len(ordered) // 4]


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by nearest rank (``values`` need not be sorted)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return ordered[int(rank) - 1]


def tail_percentile(samples: int) -> float:
    """The highest percentile of the ladder with at least ten samples beyond it.

    A p99 of 200 samples is its second-largest value — one slow request
    moves it.  Ten samples beyond the cut make the tail a statistic
    rather than an anecdote; with fewer than twenty samples only the
    median is reported.
    """
    best = _LADDER[0][0]
    for p, beyond_per_mille in _LADDER:
        if samples * beyond_per_mille >= 10 * 1000:
            best = p
    return best


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile chosen, its value)`` for the samples' supportable tail."""
    p = tail_percentile(len(values))
    return p, median(values) if p == 50.0 else percentile(values, p)


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median — the driver's spread."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
