"""Steadiness of the end-to-end metrics: several sets of runs on one commit.

    python3 bench/steadiness.py [--sets 3]

Every workload of BENCHMARK.json runs RUNS times per set, each run as long as
its `run_seconds`.  Set j, run i uses seed BASE_SEED + j * RUNS + i for every
workload, so no two runs share a seed; the workloads take turns within each
run index, so slow spells of the machine spread over all of them.  For each
workload and metric it prints, per set, the median and the spread (distance
between the first and third quartile, from statistics.quantiles(n=4), as a
share of the median), and the largest median-to-median difference between
sets as a share of the smaller median.  The raw values go to
bench/out/steadiness.json, rewritten after every run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
BASE_SEED = 100
RUNS = 10


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(results, workloads):
    lines = ["| workload | metric | set medians | set spreads | "
             "largest median difference |", "|---|---|---|---|---|"]
    for workload in workloads:
        sets = results[workload]
        metrics = sets[0]["runs"][0]["metrics"]
        for name in metrics:
            per_set = [[r["metrics"][name]["value"] for r in s["runs"]]
                       for s in sets]
            if any(len(v) < 2 for v in per_set):
                continue
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            diff = max(abs(a - b) / min(a, b)
                       for a, b in itertools.combinations(medians, 2)) \
                if len(medians) > 1 else 0.0
            lines.append(
                f"| {workload} | {name} ({metrics[name]['unit']}) | "
                + ", ".join(f"{m:.4g}" for m in medians) + " | "
                + ", ".join(f"{x:.3f}" for x in spreads) + f" | {diff:.3f} |")
        shares = [f"{sum(r['failed'] for r in s['runs'])}/"
                  f"{sum(r['attempted'] for r in s['runs'])}" for s in sets]
        correct = all(r["correct"] for s in sets for r in s["runs"])
        lines.append(f"| {workload} | failed/attempted per set: "
                     f"{', '.join(shares)}; all correct: {correct} | | | |")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=3)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "steadiness.json")
    results = {w: [{"seeds": [], "runs": []} for _ in range(args.sets)]
               for w in workloads}
    for j in range(args.sets):
        for i in range(RUNS):
            seed = BASE_SEED + j * RUNS + i
            for workload in workloads:
                out = one_run(workload, seed, seconds)
                results[workload][j]["seeds"].append(seed)
                results[workload][j]["runs"].append(out)
                print(f"set {j + 1} run {i + 1} {workload} seed {seed}: "
                      + ", ".join(f"{k} {v['value']:.4g}"
                                  for k, v in out["metrics"].items()),
                      file=sys.stderr, flush=True)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"seconds": seconds, "results": results},
                              fh, indent=1)
    print(report(results, workloads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
