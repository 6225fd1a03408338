"""Compare the rate-value bound optimizer of two checkouts, case by case.

    python3 scripts/compare_bound_optimizer.py BASELINE_SRC [--restarts 4]

BASELINE_SRC is the src/ directory of another checkout, for example a
`git archive` of an earlier commit.  Each checkout runs in its own Python
process on the same cases:

- the grid: the erasure and fig1 games of tests/conftest.py and two
  `conftest.random_game` draws from `default_rng(5)` (2 states x 3 actions
  of A x 2 of B, then 3 x 2 x 2); B informed and uninformed; |U| = 2 and 3;
  rates 0.2, 0.5, 0.8, 1.1, 1.5; `optimize_bound` with
  `BoundSearch(restarts=N)` (80 cases);
- the `sweep --optimize` calls of the benchmark's `analyze` workload at
  seeds 201-203 and 401-410, run through `statehelper.cli.main` on the
  inputs `bench/workloads.py` writes;
- two large batches: `sweep --optimize --card-u 4 --rates 0.5:0.82:0.02`
  on the erasure game, with B informed and uninformed, each 17 rates x 8
  starts = 136 problems of 20 logits, so past `_NM_ONE_CALL_SIZE`.

Both sides make the same calls: one `optimize_bound` call with the five
rates of each (game, B, |U|) triple, and the same CLI calls.  A case is
bit-identical when payoff, alpha and both scheme matrices (or a sweep's
printed output) are equal to the last bit, within 1e-9 when no payoff or
alpha differs by more than 1e-9, and moved otherwise.  Prints one JSON
line per moved case, then a summary with the counts and the seconds each
side spent in the grid, in the benchmark's sweeps and in each large
sweep.  Takes about a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE_SRC = ROOT / "src"
GRID_RATES = (0.2, 0.5, 0.8, 1.1, 1.5)
SWEEP_SEEDS = (201, 202, 203) + tuple(range(401, 411))
LARGE_SWEEP = ["--optimize", "--card-u", "4", "--rates", "0.5:0.82:0.02"]
CLOSE = 1e-9


def grid_games():
    sys.path.insert(0, str(ROOT / "tests"))
    import conftest
    rng = np.random.default_rng(5)
    return {"erasure": conftest.make_erasure_game(),
            "fig1": conftest.make_fig1_game(),
            "random_2x3x2": conftest.random_game(rng, 2, 3, 2),
            "random_3x2x2": conftest.random_game(rng, 3, 2, 2)}


def sweep_calls(directory):
    """(case, argv) of every `sweep` call of the benchmark's analyze rounds,
    then of the two large sweeps on the erasure game those rounds write."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for seed in SWEEP_SEEDS:
        inputs = workloads.write_inputs("analyze", seed, str(Path(directory) / str(seed)))
        out += [(["sweep", seed], call.argv)
                for call in workloads.calls("analyze", seed, inputs) if call.kind == "sweep"]
    for informed in (True, False):
        out.append((["large_sweep", "informed" if informed else "uninformed"],
                    ["sweep", inputs.files["erasure"]] + LARGE_SWEEP
                    + ["--b-knows-state"] * informed))
    return out


def run_side(src, restarts):
    """One JSON record per case, then one with the timings."""
    sys.path.insert(0, str(src))
    from statehelper import BoundSearch, optimize_bound
    from statehelper.cli import main as cli_main
    search = BoundSearch(restarts=restarts)
    start = time.perf_counter()
    for name, game in grid_games().items():
        for informed in (False, True):
            for card_u in (2, 3):
                found = optimize_bound(game, list(GRID_RATES), informed, card_u, search)
                for rate, (scheme, point) in zip(GRID_RATES, found):
                    print(json.dumps({
                        "case": [name, informed, card_u, rate], "payoff": point.payoff,
                        "alpha": point.alpha,
                        "p_u_given_s": scheme.p_u_given_s.rows.tolist(),
                        "p_a_given_u": scheme.p_a_given_u.rows.tolist()}))
    seconds = {"grid_s": time.perf_counter() - start, "sweep_s": 0.0}
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in sweep_calls(tmp):
            text = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(text):
                code = cli_main(argv)
            elapsed = time.perf_counter() - start
            if case[0] == "sweep":
                seconds["sweep_s"] += elapsed
            else:
                seconds[f"large_sweep_{case[1]}_s"] = elapsed
            print(json.dumps({"case": case, "exit": code, "output": text.getvalue()}))
    print(json.dumps(seconds))


def collect(src, restarts):
    cmd = [sys.executable, __file__, "--side", str(src), "--restarts", str(restarts)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def sweep_rows(output):
    return [[float(x) for x in line.split(",")] for line in output.splitlines()[1:]]


def compare(old, new):
    """("same" | "close" | "moved", largest payoff or alpha difference)."""
    if "output" in old:
        if old == new:
            return "same", 0.0
        a, b = sweep_rows(old["output"]), sweep_rows(new["output"])
        if old["exit"] != new["exit"] or len(a) != len(b):
            return "moved", float("inf")
        diff = float(np.max(np.abs(np.array(a) - np.array(b)), initial=0.0))
    else:
        if old == new:
            return "same", 0.0
        diff = max(abs(old["payoff"] - new["payoff"]), abs(old["alpha"] - new["alpha"]))
    return ("close" if diff <= CLOSE else "moved"), diff


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline_src", nargs="?")
    ap.add_argument("--side")
    ap.add_argument("--restarts", type=int, default=4)
    args = ap.parse_args()
    if args.side:
        run_side(args.side, args.restarts)
        return
    baseline = collect(args.baseline_src, args.restarts)
    here = collect(HERE_SRC, args.restarts)
    counts = {"same": 0, "close": 0, "moved": 0}
    for old, new in zip(baseline[:-1], here[:-1]):
        assert old["case"] == new["case"], (old["case"], new["case"])
        verdict, diff = compare(old, new)
        counts[verdict] += 1
        if verdict == "moved":
            moved = {"case": old["case"], "max_diff": diff}
            if "payoff" in old:
                moved.update(baseline_payoff=old["payoff"], payoff=new["payoff"])
            else:
                moved.update(baseline_output=old["output"], output=new["output"])
            print(json.dumps(moved))
    print(json.dumps({"cases": sum(counts.values()), "bit_identical": counts["same"],
                      "within_1e-9": counts["close"], "moved": counts["moved"],
                      "restarts": args.restarts, "baseline_seconds": baseline[-1],
                      "seconds": here[-1]}))


if __name__ == "__main__":
    main()
