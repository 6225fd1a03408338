"""Agreement of the simulator's codeword paths, with 95 % CLT intervals.

    python3 scripts/simulator_agreement.py [SRC]

SRC is the src/ directory to import statehelper from (default: this
checkout's), for example a `git archive` of an earlier commit.  The game is
the erasure game of tests/conftest.py with its optimal scheme.  Two
comparisons, each paired by match seed (a trial's first draw is its state
sequence, so both sides of a pair play the same states):

- materialized against virtual: at n = 10, 12 and 16, rate 0.8 (every
  codebook fits the default cap), epsilon 0.05 and 0.1, adversaries
  `decoder_with_state` and `oblivious`, selections `tilted` and `first`,
  each match runs once on its materialized codebook and once forced virtual
  (`codebook_cap=1`);
- members against blend: at virtual points where the informed decoder
  enumerates the typical set (n = 40, rate 0.6; n = 16, rate 0.8 forced
  virtual), each match runs once with the enumerated members and once with
  the saddlepoint blend of the analytic trial, forced by setting
  `simulator.BOX_MATERIALIZE_CAP = 0` in this process.

For each point it prints both sides' mean payoff and mean decode rate
(averaged over the block and the seeds) and the mean paired difference of
each, first side minus second, with the half-width of its 95 % CLT
interval over the seeds.  Report only: nothing is asserted.  Takes about a
minute.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(8)
TRIALS = 100
RATE = 0.8
EXACT_NS = (10, 12, 16)
EPSILONS = (0.05, 0.1)
ADVERSARIES = ("decoder_with_state", "oblivious")
SELECTIONS = ("tilted", "first")
MEMBER_POINTS = ((40, 0.6, 0.05), (40, 0.6, 0.1), (16, 0.8, 0.1))  # (n, rate, epsilon)
Z95 = 1.959964


def paired(first, second):
    """Mean of first - second and its 95 % CLT half-width over the seeds."""
    d = np.asarray(first) - np.asarray(second)
    return d.mean(), Z95 * d.std(ddof=1) / np.sqrt(d.size)


def statistics(results):
    """Per-seed mean payoff and mean decode rate of a list of matches."""
    return ([r.mean_payoff for r in results],
            [float(r.decode_success.mean()) for r in results])


def report(label, first, second):
    (pay_a, dec_a), (pay_b, dec_b) = statistics(first), statistics(second)
    dp, hp = paired(pay_a, pay_b)
    dd, hd = paired(dec_a, dec_b)
    print(f"{label:<44} {np.mean(pay_a):7.4f} {np.mean(pay_b):7.4f} "
          f"{dp:+8.4f} ±{hp:.4f}   {np.mean(dec_a):6.3f} {np.mean(dec_b):6.3f} "
          f"{dd:+7.3f} ±{hd:.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=str(ROOT / "src"))
    args = ap.parse_args()
    sys.path[:0] = [args.src, str(ROOT / "tests")]
    from statehelper import MatchConfig, run_match, simulator
    from conftest import make_erasure_game, make_optimal_erasure_scheme

    game, scheme = make_erasure_game(), make_optimal_erasure_scheme()
    start = time.perf_counter()

    def matches(n, rate, **config):
        return [run_match(game, scheme, rate,
                          MatchConfig(n=n, trials=TRIALS, seed=seed, **config))
                for seed in SEEDS]

    print(f"statehelper from {args.src}; {len(SEEDS)} match seeds x {TRIALS} trials; "
          "difference = first - second, 95 % CLT half-width")
    header = (f"{'point':<44} {'pay 1':>7} {'pay 2':>7} {'diff':>8} {'':7}   "
              f"{'dec 1':>6} {'dec 2':>6} {'diff':>7}")
    print("\nmaterialized (1) against forced virtual (2), rate 0.8")
    print(header)
    for n in EXACT_NS:
        for epsilon in EPSILONS:
            for adversary in ADVERSARIES:
                for selection in SELECTIONS:
                    config = dict(epsilon=epsilon, adversary=adversary,
                                  selection=selection)
                    report(f"n={n} eps={epsilon} {adversary} {selection}",
                           matches(n, RATE, **config),
                           matches(n, RATE, codebook_cap=1, **config))
    print("\nenumerated members (1) against saddlepoint blend (2), "
          "decoder_with_state, tilted")
    print(header)
    cap = simulator.BOX_MATERIALIZE_CAP
    for n, rate, epsilon in MEMBER_POINTS:
        config = dict(epsilon=epsilon, codebook_cap=1)
        members = matches(n, rate, **config)
        simulator.BOX_MATERIALIZE_CAP = 0
        try:
            blend = matches(n, rate, **config)
        finally:
            simulator.BOX_MATERIALIZE_CAP = cap
        report(f"n={n} rate={rate} eps={epsilon}", members, blend)
    print(f"\n{time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
