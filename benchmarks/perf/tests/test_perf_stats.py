"""Percentile choice, span self time, and the seeded samplers."""

import random

import spans
import stats
import truth
import workloads


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(12) == 50.0
    assert stats.tail_percentile(19) == 50.0
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(99) == 75.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(999) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


def test_self_time_subtracts_the_union_of_children_not_their_sum():
    # span 0: [0, 10]; children 1: [1, 4], 2: [3, 6] overlap; 3: [8, 12] sticks out.
    starts = [0.0, 1.0, 3.0, 8.0, 3.5]
    ends = [10.0, 4.0, 6.0, 12.0, 4.0]
    parents = [None, 0, 0, 0, 2]
    own = spans.self_times(starts, ends, parents)
    # children cover [1, 6] and [8, 10] of the parent: 7 of its 10.
    assert own[0] == 3.0
    assert own[1] == 3.0
    assert own[2] == 2.5  # [3, 6] minus its child [3.5, 4]
    assert own[3] == 4.0
    assert own[4] == 0.5


def test_tracer_nests_spans_and_is_free_when_disabled():
    tracer = spans.Tracer(True, "w")
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert tracer.parents[inner] == outer and tracer.parents[outer] is None
    assert tracer.starts[outer] <= tracer.starts[inner] <= tracer.ends[inner] <= tracer.ends[outer]
    off = spans.Tracer(False)
    with off.span("x") as span_id:
        assert span_id is None
    assert off.names == []


def test_zipf_sampler_is_deterministic_per_seed_and_skewed():
    a = workloads.zipf_indices(random.Random(5), 1000, 1.1, 5000)
    b = workloads.zipf_indices(random.Random(5), 1000, 1.1, 5000)
    c = workloads.zipf_indices(random.Random(6), 1000, 1.1, 5000)
    assert a == b
    assert a != c
    assert all(0 <= k < 1000 for k in a)
    # Zipf(1.1) over 1000 keys puts about a third of the mass on the first ten.
    head = sum(1 for k in a if k < 10) / len(a)
    assert 0.25 < head < 0.5, head


def test_closure_agrees_with_breadth_first_search():
    rng = random.Random(3)
    n = 60
    edges = sorted({(u, v) for u, v in ((rng.randrange(n), rng.randrange(n)) for _ in range(150)) if u < v})
    reach = truth.closure(n, edges)
    truth.spot_check(n, edges, reach, rng, 400)
    out = [[v for u2, v in edges if u2 == u] for u in range(n)]
    for u in range(n):
        assert truth.answers(reach, [(u, v) for v in range(n)]) == [
            truth.bfs_reaches(out, u, v) for v in range(n)
        ]


def test_answers_between_the_two_truths_pass_and_others_do_not():
    lower = truth._COUNT.pack(4) + bytes([0b0001])
    upper = truth._COUNT.pack(4) + bytes([0b0111])
    ok = truth._COUNT.pack(4) + bytes([0b0101])
    below = truth._COUNT.pack(4) + bytes([0b0100])  # lost an answer the base graph has
    above = truth._COUNT.pack(4) + bytes([0b1001])  # claims a pair no inserted edge explains
    assert truth.payload_within(ok, lower, upper)
    assert truth.payload_within(lower, lower, upper) and truth.payload_within(upper, lower, upper)
    assert not truth.payload_within(below, lower, upper)
    assert not truth.payload_within(above, lower, upper)
    assert not truth.payload_within(truth._COUNT.pack(3) + bytes([0b001]), lower, upper)
