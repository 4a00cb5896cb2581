"""Observability bench: what the telemetry layer costs on the hot path.

The same closed-loop pipelined workload is driven against two servers
over the same artifact — one with telemetry disabled
(``serve_artifact(..., telemetry=False)``), one with the default
telemetry on (request/cache/batch-wait histograms bound, 1-in-64
request auto-sampling into the trace ring) — and the throughput and
latency deltas are the instrumentation's price.  Modes run in paired
back-to-back rounds (off, on, off, on, ...) so slow host drift hits
both sides of each pair equally.

Two rows per family:

* ``raw`` — cache disabled, single-pair pipelined requests: every
  request crosses the micro-batcher, so the histogram observes + span
  stamps sit on the densest path the server has.
* ``cached`` — a 90%-hot repeating workload against the sharded LRU:
  adds the cache-lookup histogram to the measured path.

``overhead_pct`` is signed ((off - on) / off × 100 for qps; (on - off)
/ off × 100 for p50 latency), so a negative value means telemetry-on
measured *faster* — both directions are real on a noisy host, and the
acceptance bar is |overhead| < 2%.  Unlike the throughput benches this
reports the *median of paired rounds*, not best-of-N: an A/B
difference wants an outlier-robust estimator, and best-of-N turns one
lucky baseline run into fake overhead.

The committed ``BENCH_obs.json`` at the repo root records the full
run; ``--smoke`` shrinks everything for CI.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.facade import Reachability
from repro.graph.generators import citation_dag, random_dag
from repro.serialization import load_artifact
from repro.server import run_load
from repro.server.tcp import serve_artifact

FAMILIES = {
    "citation-8000": lambda: citation_dag(8000, out_per_vertex=3, seed=17),
    "random-8000": lambda: random_dag(8000, 24000, seed=11),
}

SMOKE_FAMILIES = {
    "citation-1200": lambda: citation_dag(1200, out_per_vertex=3, seed=17),
}

CONNECTIONS = 8
PIPELINE = 128


def _measure(path, pairs, expected, *, telemetry, cache_size):
    """One load run against a fresh server; answers verified.

    An untimed warmup pass spins up worker threads, the batcher, and
    (when enabled) the cache before the clock starts, and the cyclic
    GC is paused during the timed region — both knobs shrink run-to-
    run variance, which on a small host would otherwise dwarf a
    single-digit overhead signal.
    """
    server = serve_artifact(
        path, telemetry=telemetry, cache_size=cache_size
    )
    try:
        warmup = pairs[: min(2000, len(pairs))]
        run_load(
            *server.address, warmup,
            connections=CONNECTIONS, pipeline=PIPELINE,
        )
        gc.collect()
        gc.disable()
        try:
            report = run_load(
                *server.address, pairs,
                connections=CONNECTIONS, pipeline=PIPELINE,
            )
        finally:
            gc.enable()
        if report.errors:
            raise RuntimeError(f"load run failed: {report.first_error}")
        if report.answers != expected:
            raise AssertionError(
                f"served answers diverge from direct oracle "
                f"(telemetry={telemetry})"
            )
        return {"qps": report.qps, "latency_ms": report.latency_ms}
    finally:
        server.close()


def _ab_row(path, pairs, expected, *, cache_size, repeats):
    """Paired off/on rounds; medians + median per-round overhead.

    Overhead is an A/B *difference*, so unlike the throughput
    benchmarks this does not keep the best repeat: best-of-N amplifies
    one-sided outliers (one lucky "off" run reads as fake overhead).
    Each round runs both modes back-to-back — host drift hits the pair
    equally — and the headline is the median of the per-round signed
    overheads.
    """
    rounds = []
    for _ in range(max(1, repeats)):
        off = _measure(
            path, pairs, expected, telemetry=False, cache_size=cache_size
        )
        on = _measure(
            path, pairs, expected, telemetry=True, cache_size=cache_size
        )
        rounds.append((off, on))
    qps_off = statistics.median(r[0]["qps"] for r in rounds)
    qps_on = statistics.median(r[1]["qps"] for r in rounds)
    per_round = [
        (off["qps"] - on["qps"]) / off["qps"] * 100.0 for off, on in rounds
    ]
    p50_off = statistics.median(r[0]["latency_ms"].get("p50", 0.0) for r in rounds)
    p50_on = statistics.median(r[1]["latency_ms"].get("p50", 0.0) for r in rounds)
    mid = len(rounds) // 2
    return {
        "qps_off": qps_off,
        "qps_on": qps_on,
        "latency_ms_off": rounds[mid][0]["latency_ms"],
        "latency_ms_on": rounds[mid][1]["latency_ms"],
        "p50_ms_off": p50_off,
        "p50_ms_on": p50_on,
        "qps_overhead_pct": round(statistics.median(per_round), 3),
        "qps_overhead_pct_rounds": [round(x, 3) for x in per_round],
        "p50_overhead_pct": round(
            (p50_on - p50_off) / p50_off * 100.0 if p50_off > 0 else 0.0, 3
        ),
        "repeats": repeats,
    }


def measure_family(name, make_graph, queries, tmpdir: Path, repeats) -> dict:
    graph = make_graph()
    n = graph.n
    row = {"n": graph.n, "m": graph.m}

    t0 = time.perf_counter()
    reach = Reachability(graph, "DL")
    row["build_s"] = time.perf_counter() - t0
    path = str(tmpdir / f"{name}.rpro")
    reach.save(path)
    del reach, graph
    gc.collect()

    rng = random.Random(23)
    raw_pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(queries)]
    hot = [
        (rng.randrange(n), rng.randrange(n))
        for _ in range(max(64, queries // 50))
    ]
    cached_pairs = [
        hot[rng.randrange(len(hot))] if rng.random() < 0.9
        else (rng.randrange(n), rng.randrange(n))
        for _ in range(queries)
    ]
    direct = load_artifact(path)
    raw_expected = [bool(a) for a in direct.query_batch(raw_pairs)]
    cached_expected = [bool(a) for a in direct.query_batch(cached_pairs)]
    del direct
    gc.collect()

    print(f"  raw (cache off) ...", file=sys.stderr, flush=True)
    row["raw"] = _ab_row(
        path, raw_pairs, raw_expected, cache_size=0, repeats=repeats
    )
    print(f"  cached (90% hot) ...", file=sys.stderr, flush=True)
    row["cached"] = _ab_row(
        path, cached_pairs, cached_expected,
        cache_size=1 << 16, repeats=repeats,
    )
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for CI")
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None,
                        help="off/on pairs per row, best per mode recorded")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    families = SMOKE_FAMILIES if args.smoke else FAMILIES
    queries = args.queries or (3000 if args.smoke else 20_000)
    repeats = args.repeats or (1 if args.smoke else 11)

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
            "telemetry on vs off over the same artifact and workload; "
            "paired back-to-back rounds, headline = median per-round "
            "qps_overhead_pct = (off - on) / off * 100 (negative = on "
            "measured faster); answers asserted bit-identical to a "
            "direct oracle before any number is recorded"
        ),
        "families": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, make_graph in families.items():
            print(f"[bench_obs] {name} ...", file=sys.stderr, flush=True)
            row = measure_family(name, make_graph, queries, Path(tmp), repeats)
            doc["families"][name] = row
            print(
                f"  raw overhead {row['raw']['qps_overhead_pct']:+.2f}% qps, "
                f"cached {row['cached']['qps_overhead_pct']:+.2f}% qps",
                file=sys.stderr,
            )

    worst = max(
        abs(row[kind]["qps_overhead_pct"])
        for row in doc["families"].values()
        for kind in ("raw", "cached")
    )
    doc["worst_abs_overhead_pct"] = worst
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)


if __name__ == "__main__":
    main()
