"""Benchmark of statehelper's CLI workloads; prints one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: simulate, analyze (see README.md).  A run repeats whole rounds of
the workload until S seconds are spent, with at least three rounds.  Each
round is a fresh single-threaded process (bench/worker.py) that makes the
same inputs from N, so every round does the same work.

With --trace 0 the result holds the end-to-end metrics, each the median over
the rounds: setup_s (process start to inputs ready), wall_s (the CLI calls)
and peak_rss_mb.  With --trace 1 the rounds alternate between traced and
untraced, starting traced; the result holds the per-layer metrics (medians
over the traced rounds) and trace.overhead_s, the traced minus the untraced
median wall_s.  Progress and any check failures go to stderr; the last line
of stdout is the JSON result.  Exits non-zero, printing no result, when a
round cannot run at all, for instance without the statehelper sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
PYCACHE = os.path.join(OUT, "pycache")
WORKLOADS = ("simulate", "analyze")  # the keys of workloads.PARTS
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    """A round could not run or did not report."""


def run_round(workload, seed, inputs_dir, trace_path=None):
    """One worker process; returns its report with setup_s added."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--inputs", inputs_dir]
    if trace_path:
        cmd += ["--trace", trace_path]
    # every round reads the bytecode that the first round of the checkout
    # compiled into bench/out/, whatever caches the sources carry
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=PYCACHE,
               **SINGLE_THREAD)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # CLOCK_MONOTONIC is shared by all processes, so the worker's stamp
    # compares with this one
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round timed out after {exc.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready_monotonic"] - start
    return report


def run(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    inputs_dir = tempfile.mkdtemp(prefix=f"inputs-{workload}-", dir=OUT)
    trace_path = os.path.join(OUT, f"trace-{workload}-{seed}.json")
    reports, durations = [], []
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            if len(reports) >= MIN_ROUNDS and (
                    elapsed + statistics.median(durations) > seconds):
                break
            traced = trace and len(reports) % 2 == 0
            began = time.monotonic()
            report = run_round(workload, seed, inputs_dir,
                               trace_path if traced else None)
            durations.append(time.monotonic() - began)
            report["traced"] = traced
            reports.append(report)
            print(f"round {len(reports)}{' traced' if traced else ''}: "
                  f"setup {report['setup_s']:.3f} s, wall "
                  f"{report['wall_s']:.3f} s, rss "
                  f"{report['peak_rss_mb']:.1f} MB", file=sys.stderr)
            for line in report["failures"] + report["errors"]:
                print(f"  {line}", file=sys.stderr)
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
    return reports


def summarize(reports, trace):
    plain = [r for r in reports if not r["traced"]]
    if trace:
        traced = [r for r in reports if r["traced"]]
        metrics = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            unit = ("s" if name.endswith("_s") else
                    "ratio" if name.endswith("_ratio") else "count")
            if unit == "count" and len(set(values)) > 1:
                print(f"warning: {name} differs between traced rounds: "
                      f"{values}", file=sys.stderr)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain), "unit": "s"}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain),
                          "unit": unit} for name, unit in UNITS.items()}
    return {"correct": not any(r["errors"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "statehelper", "cli.py")):
        print(f"error: no statehelper sources under {ROOT}/src", file=sys.stderr)
        return 1
    try:
        reports = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(reports, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
