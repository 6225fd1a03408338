"""Compare the Monte Carlo simulator of two checkouts, case by case.

    python3 scripts/compare_simulator.py BASELINE_SRC

BASELINE_SRC is the src/ directory of another checkout, for example a
`git archive` of an earlier commit.  Each checkout runs in its own Python
process on the same cases:

- the `simulate` calls of the benchmark's rounds (the virtual criterion-7
  point and the materialized n = 16 point against `decoder_with_state` and
  `oblivious`) at seeds 1, 100-109 and 311-316, run through
  `statehelper.cli.main` on the inputs `bench/workloads.py` writes;
- the grid: the erasure game of tests/conftest.py with its optimal scheme,
  adversary `decoder`, `decoder_with_state` or `oblivious` (B informed
  unless the adversary is `decoder`), selection `tilted` or `first`,
  match seeds 0 and 1, 40 trials, at six operating points
  (`GRID_POINTS`): two materialized codebooks (n = 16 and an n = 10 point
  where some trials fail to encode), the virtual criterion-7 point, a
  virtual n = 100 point whose trials do not fill the saddlepoint batches
  evenly, a virtual n = 40 point whose informed decoder enumerates the
  typical set, and a virtual n = 2000 point, past n = 1000, where a box
  bound with a fixed 1e-9 slack on (p -+ epsilon) n can disagree with the
  typicality test (72 cases);
- the same adversaries, selections and seeds on a random game with 3
  states and 3 actions per player and a random scheme with 3 symbols
  (`conftest.random_game`, then `conftest.random_scheme`, from
  `default_rng(0)`), at two points (`RANDOM_POINTS`): a materialized
  n = 12 codebook where about a third of the trials fail to encode, and
  the n = 12 point forced virtual (codebook cap 1), where the informed
  decoder enumerates the typical set (24 cases);
- the two 300-trial matches of the test suite's exact-against-virtual
  check (n = 16, seed 2, materialized and forced virtual), whose trial 271
  meets an exact tie between B's actions.

A case is bit-identical when every printed figure (a call's output, or a
match's per-iteration payoffs, decode rates, encoder failure rate and mean
payoff) is equal to the last bit, and moved otherwise.  Prints one JSON
line per moved case with the number of iterations that moved and the
largest difference, then a summary with the counts and the seconds each
side spent on the benchmark's calls and on the rest, each split by codeword
source: `virtual` where the nominal codebook exceeds the codebook cap, else
`materialized`.  So a change to one path shows where its time went.  Takes
about a minute.
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
BENCH_SEEDS = (1,) + tuple(range(100, 110)) + tuple(range(311, 317))
ADVERSARIES = ("decoder", "decoder_with_state", "oblivious")
SELECTIONS = ("tilted", "first")
GRID_SEEDS = (0, 1)
GRID_TRIALS = 40
GRID_POINTS = (  # (name, n, rate, epsilon)
    ("exact-16", 16, 0.8, 0.1),
    ("exact-10", 10, 0.5, 0.05),
    ("virtual-128", 128, 0.655639, 0.05),
    ("virtual-100", 100, 0.7, 0.05),
    ("virtual-40", 40, 0.6, 0.05),
    ("virtual-2000", 2000, 0.655639, 0.05),
)
RANDOM_SEED = 0
RANDOM_POINTS = (  # (name, n, rate, epsilon, codebook cap or None)
    ("random-exact-12", 12, 0.3, 0.1, None),
    ("random-virtual-12", 12, 0.5, 0.1, 1),
)
# (name, codebook cap) of the suite's exact-against-virtual matches
SUITE_MATCHES = (("suite-exact", None), ("suite-virtual", 1))


def bench_calls(directory):
    """(seed, argv, meta) of every call of the benchmark's simulate rounds."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for seed in BENCH_SEEDS:
        inputs = workloads.write_inputs("simulate", seed, str(Path(directory) / str(seed)))
        out += [(seed, call.argv, call.meta)
                for call in workloads.calls("simulate", seed, inputs)]
    return out


def codeword_source(n, rate, cap=None):
    """`virtual` or `materialized`: the simulator's fork for a match."""
    from statehelper.simulator import DEFAULT_CODEBOOK_CAP, codeword_count
    fits = codeword_count(n, rate) * n <= (cap or DEFAULT_CODEBOOK_CAP)
    return "materialized" if fits else "virtual"


@contextlib.contextmanager
def timed(seconds, key):
    """Add the block's wall time to seconds[key]."""
    start = time.perf_counter()
    yield
    seconds[key] = seconds.get(key, 0.0) + time.perf_counter() - start


def print_match(case, result):
    print(json.dumps({"case": case, "payoff": result.per_iteration_payoff.tolist(),
                      "decode": result.decode_success.tolist(),
                      "failure_rate": result.encoder_failure_rate,
                      "mean_payoff": result.mean_payoff}))


def run_grid(game, scheme, points, seconds):
    """Every adversary, selection and grid seed at each (name, n, rate,
    epsilon, codebook cap or None) point, on the side's statehelper."""
    from statehelper import MatchConfig, run_match
    for name, n, rate, epsilon, cap in points:
        key = f"grid_{codeword_source(n, rate, cap)}_s"
        for adversary in ADVERSARIES:
            for selection in SELECTIONS:
                for seed in GRID_SEEDS:
                    config = MatchConfig(n=n, trials=GRID_TRIALS, epsilon=epsilon,
                                         adversary=adversary,
                                         b_knows_state=adversary != "decoder",
                                         seed=seed, selection=selection,
                                         **({"codebook_cap": cap} if cap else {}))
                    with timed(seconds, key):
                        result = run_match(game, scheme, rate, config)
                    print_match([name, adversary, selection, seed], result)


def run_side(src):
    """One JSON record per case, then one with the timings."""
    sys.path.insert(0, str(src))
    from statehelper import MatchConfig, run_match
    from statehelper.cli import main as cli_main
    sys.path.insert(0, str(ROOT / "tests"))
    import conftest
    game, scheme = conftest.make_erasure_game(), conftest.make_optimal_erasure_scheme()
    seconds = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (seed, argv, meta) in enumerate(bench_calls(tmp)):
            text = io.StringIO()
            with timed(seconds, f"bench_{codeword_source(meta['n'], meta['rate'])}_s"), \
                    contextlib.redirect_stdout(text):
                code = cli_main(argv)
            print(json.dumps({"case": ["simulate", seed, i % 3], "exit": code,
                              "output": text.getvalue()}))
    run_grid(game, scheme, [(*point, None) for point in GRID_POINTS], seconds)
    rng = np.random.default_rng(RANDOM_SEED)
    random_game = conftest.random_game(rng, n_states=3, n_actions_a=3, n_actions_b=3)
    random_scheme = conftest.random_scheme(rng, n_states=3, card_u=3, n_actions=3)
    run_grid(random_game, random_scheme, RANDOM_POINTS, seconds)
    for name, cap in SUITE_MATCHES:
        config = MatchConfig(n=16, trials=300, adversary="decoder_with_state",
                             epsilon=0.1, seed=2,
                             **({"codebook_cap": cap} if cap else {}))
        with timed(seconds, f"grid_{codeword_source(16, 0.8, cap)}_s"):
            result = run_match(game, scheme, 0.8, config)
        print_match([name], result)
    print(json.dumps(dict(sorted(seconds.items()))))


def collect(src):
    cmd = [sys.executable, __file__, "--side", str(src)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def rows(record):
    """A case's per-iteration figures as one (iterations, columns) array."""
    if "output" in record:
        return np.array([[float(x) for x in line.split(",")]
                         for line in record["output"].splitlines()[1:]])
    return np.column_stack([record["payoff"], record["decode"]])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline_src", nargs="?")
    ap.add_argument("--side")
    args = ap.parse_args()
    if args.side:
        run_side(args.side)
        return
    if not args.baseline_src:
        ap.error("BASELINE_SRC is required")
    baseline = collect(args.baseline_src)
    here = collect(HERE_SRC)
    same = moved = 0
    for old, new in zip(baseline[:-1], here[:-1]):
        assert old["case"] == new["case"], (old["case"], new["case"])
        if old == new:
            same += 1
            continue
        moved += 1
        report = {"case": old["case"]}
        a, b = rows(old), rows(new)
        if a.shape == b.shape:
            differ = a != b
            report.update(iterations_moved=int(differ.any(axis=1).sum()),
                          max_diff=float(np.abs(a - b).max(initial=0.0)))
        print(json.dumps(report))
    print(json.dumps({"cases": same + moved, "bit_identical": same, "moved": moved,
                      "baseline_seconds": baseline[-1], "seconds": here[-1]}))


if __name__ == "__main__":
    main()
