"""The two workloads: inputs made from a seed, and the CLI calls of one round.

A workload is a sequence of parts, each the calls that stress one layer:
`simulate` runs the simulator's virtual part (`sim-virtual`) and its
materialized part (`sim-exact`); `analyze` runs the rate-value optimizer
(`bound-sweep`) and the exact game values with the Wyner search (`values`).
Every round of a run repeats the same calls on the same inputs.  The seed
changes the random games of `values` and the `--seed` handed to every
randomized subcommand; the reference games are those of the test suite:
the erasure game with its optimal three-symbol scheme, and the
state-matching game in which B has a single action.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import yaml

FORBIDDEN = -1e6

ERASURE_PAYOFFS = [  # [state][a][b], actions a = (0, e, 1), b = (0, 1)
    [[3.0, 0.0], [0.0, 1.0], ["-inf", "-inf"]],
    [["-inf", "-inf"], [1.0, 0.0], [0.0, 3.0]],
]
OPTIMAL_SCHEME = {
    "p_u_given_s": [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]],
    "p_a_given_u": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0]],
}
MATCHING_PAYOFFS = [[[0.0], [-1.0]], [[-1.0], [0.0]]]  # B has one action

# criterion-7 operating point: alpha = (R - I(U;S)) / I(U;A|S) = 1/2
VIRTUAL_RATE, VIRTUAL_N, VIRTUAL_TRIALS = 0.655639, 128, 200
# 2^ceil(16 * 0.8) = 8192 codewords, under the materialization cap.  The
# typicality slack is 0.1 rather than the default 0.05: at 0.05 only about
# 2.4 codewords are typical on average, so a few percent of trials fail to
# encode and fall back to forbidden plays (see the benchmark README).
EXACT_RATE, EXACT_N, EXACT_TRIALS, EXACT_EPSILON = 0.8, 16, 40, 0.1
SWEEP_RATES = (0.3, 0.7)  # two of the five criterion-5 rates
SWEEP_SPEC = "0.3:0.7:0.4"
# (states, actions of A, actions of B) of the random games of `values`; the
# full-information pair expands to up to 729 x 729 pure maps
VALUE_SHAPES = ((4, 4, 3), (5, 3, 3), (5, 4, 3), (6, 3, 3))
INFO_LEVELS = ("none", "partial", "state")  # coarse to fine
PARTS = {"simulate": ("sim-virtual", "sim-exact"),
         "analyze": ("bound-sweep", "values")}


def erasure_payoff():
    """The erasure game's payoff[a, b, s], forbidden plays at FORBIDDEN."""
    payoff = np.zeros((3, 2, 2))
    for s, block in enumerate(ERASURE_PAYOFFS):
        for a, row in enumerate(block):
            payoff[a, :, s] = [FORBIDDEN if x == "-inf" else x for x in row]
    return payoff


@dataclass
class Call:
    """One CLI invocation and what its checker needs to know about it."""

    kind: str
    argv: list
    meta: dict = field(default_factory=dict)


@dataclass
class Inputs:
    files: dict  # name -> path of a written YAML input
    games: dict = field(default_factory=dict)  # name -> (prior, payoff[a,b,s])


def _game_doc(states, prior, actions_a, actions_b, payoffs):
    return {"states": list(states), "prior": [float(p) for p in prior],
            "actions_a": list(actions_a), "actions_b": list(actions_b),
            "payoffs": payoffs}


def random_games(seed):
    """The seeded random games of `values`: name -> (prior, payoff[a,b,s]).

    Payoffs are integers in [-4, 4] and the prior is a ratio of integer
    weights in [1, 9].  On such inputs the program's LPs meet the 1e-9
    checks; uniform float payoffs occasionally leave an LP gap near 1e-8.
    """
    rng = np.random.default_rng([seed, 1])
    games = {}
    for i, (ns, na, nb) in enumerate(VALUE_SHAPES):
        weights = rng.integers(1, 10, size=ns)
        prior = weights / weights.sum()
        payoff = rng.integers(-4, 5, size=(na, nb, ns)).astype(float)
        games[f"game{i}"] = (prior, payoff)
    return games


def write_inputs(workload, seed, directory):
    """Write the YAML inputs of a workload; returns their paths and data."""
    os.makedirs(directory, exist_ok=True)
    docs = {}
    games = {}
    parts = PARTS[workload]
    docs["erasure"] = _game_doc(("0", "1"), (0.5, 0.5), ("0", "e", "1"),
                                ("0", "1"), ERASURE_PAYOFFS)
    docs["optimal"] = OPTIMAL_SCHEME
    if "bound-sweep" in parts:
        docs["matching"] = _game_doc(("0", "1"), (0.5, 0.5), ("0", "1"),
                                     ("pass",), MATCHING_PAYOFFS)
    if "values" in parts:
        games = random_games(seed)
        for name, (prior, payoff) in games.items():
            na, nb, ns = payoff.shape
            table = [[[float(payoff[a, b, s]) for b in range(nb)]
                      for a in range(na)] for s in range(ns)]
            docs[name] = _game_doc([str(s) for s in range(ns)], prior,
                                   [f"a{a}" for a in range(na)],
                                   [f"b{b}" for b in range(nb)], table)
    files = {}
    for name, doc in docs.items():
        path = os.path.join(directory, f"{name}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
        files[name] = path
    return Inputs(files=files, games=games)


def info_signal(level, n_states):
    """Signal map of an information level; partial is the state's parity."""
    if level == "none":
        return (0,) * n_states
    if level == "partial":
        return tuple(s % 2 for s in range(n_states))
    return tuple(range(n_states))


def _info_spec(level, n_states):
    if level != "partial":
        return level
    return "signal:" + ",".join(
        f"{s}:{g}" for s, g in enumerate(info_signal(level, n_states)))


def calls(workload, seed, inputs):
    """The CLI calls of one round, in order."""
    return [call for part in PARTS[workload]
            for call in _part_calls(part, seed, inputs)]


def _part_calls(part, seed, inputs):
    f = inputs.files
    if part == "sim-virtual":
        return [Call("simulate", [
            "simulate", f["erasure"], f["optimal"], "--rate", str(VIRTUAL_RATE),
            "--n", str(VIRTUAL_N), "--trials", str(VIRTUAL_TRIALS),
            "--adversary", "decoder_with_state", "--seed", str(seed)],
            {"rate": VIRTUAL_RATE, "n": VIRTUAL_N, "trials": VIRTUAL_TRIALS,
             "adversary": "decoder_with_state", "threshold": True})]
    if part == "sim-exact":
        out = []
        for adversary in ("decoder_with_state", "oblivious"):
            out.append(Call("simulate", [
                "simulate", f["erasure"], f["optimal"], "--rate", str(EXACT_RATE),
                "--n", str(EXACT_N), "--trials", str(EXACT_TRIALS),
                "--epsilon", str(EXACT_EPSILON), "--adversary", adversary,
                "--b-knows-state", "--seed", str(seed)],
                {"rate": EXACT_RATE, "n": EXACT_N, "trials": EXACT_TRIALS,
                 "adversary": adversary, "threshold": False}))
        return out
    if part == "bound-sweep":
        return [Call("sweep", [
            "sweep", f["matching"], "--rates", SWEEP_SPEC, "--optimize",
            "--card-u", "2", "--seed", str(seed)], {"rates": SWEEP_RATES})]
    if part == "values":
        out = []
        for name, (prior, payoff) in inputs.games.items():
            ns = prior.size
            for level_a in INFO_LEVELS:
                for level_b in INFO_LEVELS:
                    out.append(Call("value", [
                        "value", f[name], "--a-info", _info_spec(level_a, ns),
                        "--b-info", _info_spec(level_b, ns)],
                        {"game": name, "a": level_a, "b": level_b}))
        out.append(Call("common-info", [
            "common-info", f["erasure"], "--scheme", f["optimal"],
            "--card-u", "3", "--seed", str(seed)]))
        return out
    raise ValueError(f"unknown part {part!r}")
