"""End-to-end serving smoke: build → serve (subprocess) → verify → stop.

The full production lifecycle in one script, and the CI server smoke:

1. build a pipeline artifact for a dataset stand-in,
2. launch ``python -m repro.cli serve`` as a real subprocess (it
   mmaps the artifact),
3. drive mixed (equal + uniform-random) queries through the binary
   client,
4. assert every served answer is bit-identical to a direct
   ``CompiledOracle`` on the same artifact,
5. shut the server down over the wire and assert a clean exit code.

Run:  python examples/serve_and_query.py [--dataset kegg] [--queries 200]
"""

import argparse
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="kegg")
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--batch-window", type=float, default=1.0, metavar="MS")
    args = parser.parse_args()

    from repro.datasets.catalog import load
    from repro.datasets.workloads import equal_workload
    from repro.facade import Reachability
    from repro.serialization import load_artifact
    from repro.server import ReachClient

    tmpdir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    artifact = os.path.join(tmpdir, f"{args.dataset}.rpro")
    ready_file = os.path.join(tmpdir, "ready")

    graph = load(args.dataset)
    reach = Reachability(graph, "DL")
    nbytes = reach.save(artifact)
    print(f"built {args.dataset} (n={graph.n:,}) -> {artifact} ({nbytes:,} B)")

    # Mixed workload: ~half an equal (50/50) workload, half uniform
    # random pairs.
    half = args.queries // 2
    wl = equal_workload(graph, half, seed=3)
    rng = random.Random(4)
    pairs = list(wl.pairs) + [
        (rng.randrange(graph.n), rng.randrange(graph.n))
        for _ in range(args.queries - len(wl.pairs))
    ]
    direct = load_artifact(artifact)
    expected = [bool(a) for a in direct.query_batch(pairs)]

    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--artifact", artifact, "--port", "0",
            "--batch-window", str(args.batch_window),
            "--ready-file", ready_file,
        ],
        env=os.environ.copy(),
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if os.path.exists(ready_file) and open(ready_file).read().strip():
                break
            if server.poll() is not None:
                raise RuntimeError(f"server died on startup (rc={server.returncode})")
            time.sleep(0.05)
        else:
            raise RuntimeError("server did not become ready within 60s")
        host, port = open(ready_file).read().split()[:2]
        print(f"server ready on {host}:{port}")

        with ReachClient(host, int(port)) as client:
            got = [client.query(*pairs[0])]  # scalar path
            got += client.query_batch(pairs[1:])  # batch path
            if got != expected:
                bad = sum(1 for a, b in zip(got, expected) if a != b)
                raise AssertionError(
                    f"served answers diverge from direct CompiledOracle "
                    f"({bad}/{len(pairs)} mismatches)"
                )
            stats = client.stats()
            print(
                f"{len(pairs)} mixed queries served bit-identical "
                f"({sum(expected)} positive); mean batch "
                f"{stats['batcher']['mean_batch_pairs']:.1f} pairs"
            )
            client.shutdown_server()
        rc = server.wait(timeout=30)
        if rc != 0:
            raise RuntimeError(f"server exited uncleanly (rc={rc})")
        print("clean shutdown: OK")
        return 0
    finally:
        if server.poll() is None:
            server.terminate()
            server.wait(timeout=10)
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
