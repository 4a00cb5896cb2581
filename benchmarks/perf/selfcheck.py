"""Does the benchmark repeat within its own bounds?  ``run.py --selfcheck N``.

Runs two interleaved sets (A, B, A, B, …) of ``N`` untraced runs per
workload of this checkout, every run with another seed, the way the
driver judges a benchmark: for each workload and end-to-end metric it
prints both medians, the gap between them and each set's spread
(interquartile range over median) beside the metric's bound.  It exits
non-zero if a gap or a spread exceeds its bound (the spread of
``setup_s`` is reported but, as in the driver, not judged) or if any
run failed an operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def one_run(contract: dict, workload: str, seed: int) -> dict:
    """Run the benchmark's command once, untraced; returns its last-line JSON document."""
    command = contract["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(contract["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def judge(contract: dict, values: Dict[str, Dict[str, List[List[float]]]]) -> List[str]:
    """The report's table, one row per workload and end-to-end metric.

    ``values[workload][metric]`` holds the two sets' samples.  A row's
    last cell is ``ok`` or names what exceeded the bound.
    """
    rows = [
        "| workload | metric | unit | median A | median B | gap | spread A | spread B | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for workload, by_metric in values.items():
        for spec in contract["end_to_end"]:
            a, b = by_metric[spec["name"]]
            med_a, med_b = stats.median(a), stats.median(b)
            worse = (med_b - med_a) / med_a
            if spec["better"] == "higher":
                worse = -worse
            spreads = [stats.spread(a), stats.spread(b)]
            verdict = "ok"
            if abs(worse) > spec["bound"]:
                verdict = "GAP"
            elif spec["name"] != "setup_s" and max(spreads) > spec["bound"]:
                verdict = "SPREAD"
            rows.append(
                f"| {workload} | {spec['name']} | {spec['unit']} | {med_a:.6g} | {med_b:.6g} | "
                f"{worse:+.4f} | {spreads[0]:.4f} | {spreads[1]:.4f} | {spec['bound']} | {verdict} |"
            )
    return rows


def main(n: int, head: dict) -> int:
    """Run the self-check and print its report; ``head`` is the common header."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    names = [w["name"] for w in contract["workloads"]]
    values = {w: {m["name"]: [[], []] for m in contract["end_to_end"]} for w in names}
    failed = 0
    for i in range(n):
        for which in (0, 1):
            for workload in names:
                seed = 1 + i + which * n
                doc = one_run(contract, workload, seed)
                failed += doc["failed"]
                for name, metric in doc["metrics"].items():
                    values[workload][name][which].append(metric["value"])
                print(f"run {i + 1}/{n} set {'AB'[which]} {workload} seed {seed} done", file=sys.stderr)
    print(f"# Self-check: two interleaved sets of {n} runs per workload\n")
    print("```\n" + json.dumps(head, sort_keys=True) + "\n```\n")
    print(
        "Set A ran seeds 1…N and set B seeds N+1…2N, alternating A, B per workload. "
        "`gap` is how much worse B's median is than A's, as a share of A's; "
        "`spread` is the interquartile range over the median.\n"
    )
    rows = judge(contract, values)
    print("\n".join(rows))
    bad = [row for row in rows[2:] if not row.endswith("| ok |")]
    print(f"\nfailed operations over all runs: {failed}")
    print(f"rows out of bound: {len(bad)}")
    return 1 if bad or failed else 0
