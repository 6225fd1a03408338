"""Compare the Wyner common-information search of two checkouts on random joints.

    python3 scripts/compare_common_info.py BASELINE_SRC [--joints 200]
        [--restarts N] [--seed 0] [--baseline-cache FILE]

BASELINE_SRC is the src/ directory of another checkout, for example a
`git archive` of an earlier commit.  Each checkout runs in its own Python
process on the same joints: 2-3 x 2-3, Dirichlet concentration 0.3, 1 or 3,
each cell zeroed with probability 0.2, |U| = min(|S|, |A|) + 0..2.  The
baseline runs its default search; --restarts sets this checkout's count
(its default when omitted).  The baseline's records are read from
--baseline-cache when that file exists, and written to it otherwise.

Prints one JSON line per joint on which this checkout's value is more than
1e-4 above the baseline's, then a summary line.  A penalized baseline may
report a value that no decomposition reproducing the target reaches, so
each such joint also shows the baseline's mass on cells where the target is
zero and its decomposition refitted with up to 20 000 exact
expectation-maximization steps of this checkout (`info_measures._fit`, which
stops once nothing moves).
The joint counts as a miss when that refit reproduces the target within
FEASIBILITY_TOL and its value is still more than 1e-4 below this
checkout's (this checkout lost a valid, tighter bound), or when the refit
stays inexact although the baseline puts no mass on a zero cell.  Takes several
minutes, longer with many restarts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

MARGIN = 1e-4
REFIT_STEPS = 20_000
HERE_SRC = Path(__file__).resolve().parent.parent / "src"


def random_joints(n, seed=12345):
    """n (mass, |U|) pairs with zero cells."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        ns, na = rng.integers(2, 4, size=2)
        conc = rng.choice([0.3, 1.0, 3.0])
        mass = rng.dirichlet(np.full(ns * na, conc)).reshape(ns, na)
        mass[rng.random((ns, na)) < 0.2] = 0.0
        if mass.sum() == 0:
            continue
        out.append((mass / mass.sum(), int(min(ns, na) + rng.integers(0, 3))))
    return out


def run_side(src, n, restarts, seed):
    """One JSON record per joint from the search in src."""
    sys.path.insert(0, str(src))
    from statehelper import CommonInfoSearch, JointDistribution, wyner_common_information
    from statehelper.errors import InfeasibleDecompositionError
    search = CommonInfoSearch() if restarts is None else CommonInfoSearch(restarts=restarts, seed=seed)
    for i, (mass, nu) in enumerate(random_joints(n)):
        try:
            r = wyner_common_information(JointDistribution(mass), nu, search)
        except InfeasibleDecompositionError:
            print(json.dumps({"i": i, "value": None}))
            continue
        print(json.dumps({"i": i, "value": r.value, "tv": r.achieved_joint_error,
                          "p_u": r.p_u.tolist(), "p_s_given_u": r.p_s_given_u.rows.tolist(),
                          "p_a_given_u": r.p_a_given_u.rows.tolist()}), flush=True)


def collect(src, n, restarts, seed):
    cmd = [sys.executable, __file__, "--side", str(src), "--joints", str(n), "--seed", str(seed)]
    if restarts is not None:
        cmd += ["--restarts", str(restarts)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def refit(mass, record):
    """(value, total variation, mass on zero cells of the target) of the
    record's decomposition after exact fitting."""
    from statehelper import info_measures
    pu, qs, qa = (np.array(record[k]) for k in ("p_u", "p_s_given_u", "p_a_given_u"))
    zero_mass = float(np.einsum("u,us,ua->sa", pu, qs, qa)[mass == 0].sum())
    _, value, tv, _ = info_measures._fit(mass, pu[None], qs[None], qa[None], REFIT_STEPS)
    return float(value[0]), float(tv[0]), zero_mass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline_src", nargs="?")
    ap.add_argument("--side")
    ap.add_argument("--joints", type=int, default=200)
    ap.add_argument("--restarts", type=int)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--baseline-cache", type=Path)
    args = ap.parse_args()
    if args.side:
        run_side(args.side, args.joints, args.restarts, args.seed)
        return
    if args.baseline_cache and args.baseline_cache.exists():
        baseline = json.loads(args.baseline_cache.read_text())
    else:
        baseline = collect(args.baseline_src, args.joints, None, 0)
        if args.baseline_cache:
            args.baseline_cache.write_text(json.dumps(baseline))
    here = collect(HERE_SRC, args.joints, args.restarts, args.seed)
    sys.path.insert(0, str(HERE_SRC))
    from statehelper.info_measures import FEASIBILITY_TOL
    joints = random_joints(args.joints)
    diffs, above, misses, mismatched = [], 0, [], []
    for old, new in zip(baseline, here):
        if (old["value"] is None) != (new["value"] is None):
            mismatched.append(old["i"])
            continue
        if old["value"] is None:
            continue
        diff = new["value"] - old["value"]
        diffs.append(diff)
        if diff > MARGIN:
            above += 1
            value, tv, zero_mass = refit(joints[old["i"]][0], old)
            exact = tv <= FEASIBILITY_TOL
            if (exact and new["value"] > value + MARGIN) or (not exact and zero_mass == 0):
                misses.append(old["i"])
            print(json.dumps({"i": old["i"], "baseline": old["value"], "baseline_tv": old["tv"],
                              "baseline_zero_cell_mass": zero_mass,
                              "value_minus_baseline": diff,
                              "value_minus_baseline_refit": new["value"] - value,
                              "baseline_refit_tv": tv}))
    diffs = np.array(diffs)
    print(json.dumps({"joints": args.joints, "restarts": args.restarts, "seed": args.seed,
                      "above_margin": above, "misses": misses,
                      "feasibility_mismatch": mismatched,
                      "median_diff": float(np.median(diffs)), "min_diff": float(diffs.min()),
                      "max_diff": float(diffs.max())}))


if __name__ == "__main__":
    main()
