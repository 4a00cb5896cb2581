"""The lifecycle benchmark's one command.

    python3 benchmarks/perf/run.py --workload NAME --seed S [--seconds T] [--trace 0|1]
    python3 benchmarks/perf/run.py --selfcheck N

A run prints a header, every metric by name with its unit, the sent /
succeeded / failed counts of every phase, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics of ``BENCHMARK.json`` when untraced, the per-layer
metrics when traced.  It exits non-zero if any served answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import socket
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` directly; the driver's copy has none."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def header(workload: str, seed: int, seconds: float, trace: bool, params: dict) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "host": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "parameters": params,
    }


def report_coverage(tracer) -> None:
    """Per traced phase: the share of its wall time that layer spans cover."""
    from spans import self_times

    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    for i, name in enumerate(tracer.names):
        if not name.startswith("phase:"):
            continue
        wall = tracer.ends[i] - tracer.starts[i]
        covered = 1.0 - own[i] / wall if wall else 1.0
        print(f"trace {name} wall_s {wall:.3f} covered_by_layer_spans {covered:.3f}")
        if covered < 0.9:
            print(f"trace {name} gap_s {own[i]:.3f} (benchmark's own work between layer calls)")


def run_once(args) -> int:
    import layers
    from lifecycle import Lifecycle
    from spans import Tracer

    traced = bool(args.trace)
    tracer = Tracer(traced, args.workload)
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir)
    # ``repro`` puts epoch snapshots in the temporary directory; keep
    # those inside the checkout too (the server children inherit this).
    os.environ["TMPDIR"] = workdir
    run = Lifecycle(args.workload, args.seed, args.seconds, tracer, workdir)
    head = header(args.workload, args.seed, args.seconds, traced, run.params)
    print("header " + json.dumps(head, sort_keys=True))
    steps = [Lifecycle.setup, Lifecycle.prepare, Lifecycle.steady, Lifecycle.churn, Lifecycle.recover]
    if traced:
        # The router forks a replica and so runs before anything that
        # starts threads here; the server is stopped once the last
        # measurement that needs it is done, to leave both cores free.
        steps += [layers.router, layers.tcp_single, Lifecycle.close]
        steps += [layers.read_ladder, layers.core_and_kernels, layers.durability]
    try:
        for step in steps:
            began = time.perf_counter()
            step(run)
            print(f"wall {step.__name__} {time.perf_counter() - began:.2f} s")
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    wanted = contract["per_layer" if traced else "end_to_end"]
    source = run.layers if traced else run.metrics
    for group in (run.metrics, run.layers):
        for name, (value, unit) in group.items():
            print(f"metric {name} {value:.6g} {unit}")
    for name, values in run.blocks.items():
        print(f"blocks {name} n={len(values)}: " + " ".join(f"{v:.6g}" for v in values))
    for phase, (sent, ok, failed) in run.tally.phases.items():
        print(f"phase {phase} sent {sent} succeeded {ok} failed {failed}")
    for note in run.notes:
        print("note " + note)
    if traced:
        report_coverage(tracer)
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}.json"), head)
    failed = run.tally.failed
    if failed:
        print("FAILED " + run.tally.first_failure)
    metrics = {}
    for spec in wanted:
        value, unit = source[spec["name"]]
        if unit != spec["unit"]:
            raise SystemExit(f"{spec['name']}: unit {unit!r}, BENCHMARK.json says {spec['unit']!r}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run.tally.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no code under test at {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--selfcheck", type=int, metavar="N")
    args = parser.parse_args(argv)
    if args.selfcheck:
        import selfcheck

        head = header("all", 0, workloads.RUN_SECONDS, False, {})
        return selfcheck.main(args.selfcheck, head)
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
