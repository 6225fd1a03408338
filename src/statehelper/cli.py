"""Command-line front end.

Subcommands: value, bound, sweep, simulate, common-info.  Tables go to
stdout as plain text; curve and simulation outputs are CSV (stdout or
--out).  Exit codes: 0 success, 2 parse or validation error, 3 infeasible
computation, 4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .errors import (
    CapacityError,
    ContractViolationError,
    GameFileError,
    InfeasibleDecompositionError,
    InfeasibleRateError,
)
from .files import load_game, load_scheme, parse_scheme, parse_yaml, serialize_scheme
from .game_core import Game, SignalFunction, game_value
from .info_measures import (
    CommonInfoSearch,
    JointDistribution,
    wyner_common_information,
)
from .rate_value import (
    BoundSearch,
    LayeredScheme,
    Scheme,
    layered_payoff,
    optimize_bound,
    scheme_statistics,
    theorem1_payoff,
    threshold_alpha,
)
from .simulator import ADVERSARIES, DEFAULT_EPSILON, MatchConfig, run_match

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_CAPACITY = 4


def _parse_signal(spec: str, game: Game):
    """Turn an --a-info/--b-info flag value into a signal function and the
    label of each of its signals.

    "none" observes nothing, "state" observes the state exactly, and
    "signal:0:0,1:1" maps comma-separated state:signal pairs (states by
    label or index, each once; signals labelled by nonnegative integers).
    The distinct labels, in increasing order, become signals 0..k-1, so a
    label no state is mapped to adds no signal.
    """
    if spec == "none":
        return SignalFunction.constant(game.n_states), (0,)
    if spec == "state":
        return SignalFunction.identity(game.n_states), tuple(range(game.n_states))
    if not spec.startswith("signal:"):
        raise GameFileError(
            f"info spec {spec!r} must be 'none', 'state', or 'signal:<map>'")
    mapping = {}
    for pair in spec[len("signal:"):].split(","):
        if ":" not in pair:
            raise GameFileError(f"signal map entry {pair!r} is not state:signal")
        state_part, signal_part = pair.split(":", 1)
        state_part = state_part.strip()
        if state_part in game.states:
            s = game.states.index(state_part)
        else:
            try:
                s = int(state_part)
            except ValueError:
                raise GameFileError(f"unknown state {state_part!r} in signal map")
        if not 0 <= s < game.n_states:
            raise GameFileError(f"state index {s} out of range in signal map")
        if s in mapping:
            raise GameFileError(f"state {state_part!r} appears twice in signal map")
        try:
            mapping[s] = int(signal_part)
        except ValueError:
            raise GameFileError(f"signal {signal_part!r} is not an integer")
    missing = [s for s in range(game.n_states) if s not in mapping]
    if missing:
        raise GameFileError(f"signal map misses states {missing}")
    values = tuple(mapping[s] for s in range(game.n_states))
    if min(values) < 0:
        raise GameFileError("signals must be nonnegative integers")
    labels = tuple(sorted(set(values)))
    return SignalFunction(tuple(labels.index(v) for v in values), len(labels)), labels


def _seed(text):
    """A --seed value: numpy's generators take only nonnegative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return seed


def _open_out(path):
    return open(path, "w", encoding="utf-8", newline="") if path else sys.stdout


def _close_out(fh):
    if fh is not sys.stdout:
        fh.close()


def _fmt(x):
    return f"{float(x):.17g}"


def cmd_value(args) -> int:
    game = load_game(args.game_file)
    f_a, labels_a = _parse_signal(args.a_info, game)
    f_b, labels_b = _parse_signal(args.b_info, game)
    result = game_value(game, f_a, f_b)
    print(f"value: {_fmt(result.value)}")
    print(f"lp_gap: {_fmt(result.lp_gap)}")
    for player, strat, actions, labels in (
            ("A", result.strategy_a, game.actions_a, labels_a),
            ("B", result.strategy_b, game.actions_b, labels_b)):
        print(f"strategy_{player} (rows per observed signal; columns "
              f"{', '.join(actions)}):")
        for label, row in zip(labels, strat.rows):
            print(f"  signal {label}: " + " ".join(_fmt(x) for x in row))
    return EXIT_OK


def _print_stats(stats):
    print(f"i_us: {_fmt(stats.i_us)}")
    print(f"i_usa: {_fmt(stats.i_usa)}")
    print(f"i_ua_given_s: {_fmt(stats.i_ua_given_s)}")
    print(f"pi_low: {_fmt(stats.pi_low)}")
    print(f"pi_low_s: {_fmt(stats.pi_low_s)}")
    print(f"pi_low_u: {_fmt(stats.pi_low_u)}")
    print(f"pi_low_su: {_fmt(stats.pi_low_su)}")


def cmd_bound(args) -> int:
    game = load_game(args.game_file)
    if args.rate < 0:
        raise GameFileError("--rate must be nonnegative")
    if args.optimize:
        scheme, point = optimize_bound(game, args.rate, args.b_knows_state,
                                       args.card_u, BoundSearch(seed=args.seed))
    else:
        scheme = load_scheme(args.scheme)
        if isinstance(scheme, LayeredScheme):
            result = layered_payoff(game, scheme, args.rate, args.b_knows_state)
            print(f"payoff: {_fmt(result.payoff)}")
            print(f"alpha1: {_fmt(result.alpha1)}")
            print(f"alpha2: {_fmt(result.alpha2)}")
            if result.no_benefit:
                print("note: layering gives no benefit at this rate")
            return EXIT_OK
        point = theorem1_payoff(game, scheme, args.rate, args.b_knows_state)
    print(f"payoff: {_fmt(point.payoff)}")
    print(f"alpha: {_fmt(point.alpha)}")
    _print_stats(scheme_statistics(game, scheme))
    if args.optimize:
        text = serialize_scheme(scheme)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print("best scheme:")
            print(text, end="")
    return EXIT_OK


def _parse_rates(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise GameFileError(f"--rates {spec!r} is not start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise GameFileError(f"--rates {spec!r} has non-numeric fields")
    if not (np.isfinite([start, stop, step]).all() and step > 0):
        raise GameFileError(f"--rates {spec!r} needs finite fields and a positive step")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(max(count, 0)) if start + i * step >= 0]


def cmd_sweep(args) -> int:
    game = load_game(args.game_file)
    rates = _parse_rates(args.rates)
    fixed = None if args.optimize else load_scheme(args.scheme)
    if isinstance(fixed, LayeredScheme):
        raise GameFileError("sweep expects a single-auxiliary scheme file")
    # one search runs every rate, each from the starts of a one-rate call
    optimized = (optimize_bound(game, rates, args.b_knows_state, args.card_u,
                                BoundSearch(seed=args.seed))
                 if args.optimize and rates else None)
    lines = ["rate,payoff,alpha\n"]
    best_scheme = None
    best_payoff = -np.inf
    for i, rate in enumerate(rates):
        if args.optimize:
            scheme, point = optimized[i]
            payoff, alpha = point.payoff, point.alpha
            # a lower-rate optimum stays feasible at higher rates, so the
            # curve can always carry the best scheme found so far
            if best_scheme is not None:
                prev = theorem1_payoff(game, best_scheme, rate, args.b_knows_state)
                if prev.payoff > payoff:
                    payoff, alpha, scheme = prev.payoff, prev.alpha, best_scheme
            if payoff >= best_payoff:
                best_scheme, best_payoff = scheme, payoff
        else:
            point = theorem1_payoff(game, fixed, rate, args.b_knows_state)
            payoff, alpha = point.payoff, point.alpha
        if payoff < best_payoff - 1e-9:
            raise ContractViolationError(
                f"payoff decreased along the sweep at rate {rate}")
        best_payoff = max(best_payoff, payoff)
        lines.append(f"{_fmt(rate)},{_fmt(payoff)},{_fmt(alpha)}\n")
    # the whole curve is computed before anything is written, so a failed
    # sweep leaves no partial output
    out = _open_out(args.out)
    try:
        out.write("".join(lines))
    finally:
        _close_out(out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    game = load_game(args.game_file)
    scheme = load_scheme(args.scheme_file)
    if isinstance(scheme, LayeredScheme):
        raise GameFileError("simulate expects a single-auxiliary scheme file")
    config = MatchConfig(n=args.n, trials=args.trials, epsilon=args.epsilon,
                         adversary=args.adversary,
                         b_knows_state=args.b_knows_state, seed=args.seed)
    try:
        result = run_match(game, scheme, args.rate, config)
    except CapacityError as exc:
        raise CapacityError(f"{exc} (reduce --n or --rate)") from exc
    out = _open_out(args.out)
    try:
        out.write(result.to_csv())
    finally:
        _close_out(out)
    return EXIT_OK


def _joint_from_args(args):
    with open(args.source, "r", encoding="utf-8") as fh:
        doc = parse_yaml(fh.read())
    if isinstance(doc, dict) and "joint" in doc:
        try:
            mass = np.asarray(doc["joint"], dtype=float)
        except (ValueError, TypeError):
            raise GameFileError("joint file: key 'joint' is not a numeric table")
        if mass.ndim != 2:
            raise GameFileError("joint file: 'joint' must be a matrix over (S, A)")
        try:
            return JointDistribution(mass)
        except (ValueError, TypeError) as exc:
            raise GameFileError(f"joint file: {exc}")
    if args.scheme is None:
        raise GameFileError(
            "source has no 'joint' key; pass a game file plus --scheme instead")
    game = load_game(args.source)
    scheme = load_scheme(args.scheme)
    if isinstance(scheme, LayeredScheme):
        raise GameFileError("common-info expects a single-auxiliary scheme file")
    return JointDistribution(scheme.joint(game.prior).marginal((0, 2)))


def cmd_common_info(args) -> int:
    joint = _joint_from_args(args)
    search = CommonInfoSearch(seed=args.seed, restarts=args.restarts)
    result = wyner_common_information(joint, args.card_u, search)
    print(f"common_information: {_fmt(result.value)}")
    print(f"aux_cardinality: {result.aux_cardinality}")
    print(f"reconstruction_error: {_fmt(result.achieved_joint_error)}")
    print("p_u: " + " ".join(_fmt(x) for x in result.p_u))
    print("p_s_given_u:")
    for u, row in enumerate(result.p_s_given_u.rows):
        print(f"  u{u}: " + " ".join(_fmt(x) for x in row))
    print("p_a_given_u:")
    for u, row in enumerate(result.p_a_given_u.rows):
        print(f"  u{u}: " + " ".join(_fmt(x) for x in row))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statehelper",
        description="Values, rate-value bounds, and simulations for zero-sum "
                    "games with rate-limited state information.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("value", help="value of a game under fixed information")
    p.add_argument("game_file")
    p.add_argument("--a-info", default="none")
    p.add_argument("--b-info", default="none")
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("bound", help="rate-value lower bound for a scheme")
    p.add_argument("game_file")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--b-knows-state", action="store_true")
    p.add_argument("--scheme", help="scheme file to evaluate")
    p.add_argument("--optimize", action="store_true",
                   help="search for the best scheme instead")
    p.add_argument("--card-u", type=int, default=4)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="write the optimized scheme here")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="rate-value curve as CSV")
    p.add_argument("game_file")
    p.add_argument("--rates", required=True, help="start:stop:step in bits")
    p.add_argument("--b-knows-state", action="store_true")
    p.add_argument("--scheme")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--card-u", type=int, default=4)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo block-coding match as CSV")
    p.add_argument("game_file")
    p.add_argument("scheme_file")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--adversary", default="decoder_with_state", choices=ADVERSARIES)
    p.add_argument("--b-knows-state", action="store_true")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("common-info",
                       help="Wyner common information of a joint")
    p.add_argument("source",
                   help="YAML with a 'joint' matrix, or a game file with --scheme")
    p.add_argument("--scheme", help="scheme inducing the joint from the game")
    p.add_argument("--card-u", type=int, default=4)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--restarts", type=int, default=CommonInfoSearch().restarts,
                   help="search starts (at least 1), the structured U=S, "
                        "U=A, U=(S,A) and constant-U ones included; a count "
                        "that leaves no random start answers from the "
                        "structured ones alone.  Each penalty weight and "
                        "each fit of the search ends once it has converged.  "
                        "The reported value is "
                        "I(S,A;U) of a decomposition that reproduces the "
                        "joint within total variation 1e-10.  The default "
                        "suffices for the reference erasure joint; other "
                        "joints can need more (about 24) to find the best "
                        "decomposition")
    p.set_defaults(func=cmd_common_info)

    return parser


# main builds its parser on first use and reuses it for every later call in
# the process (a benchmark round makes 38)
_main_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (GameFileError, ContractViolationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InfeasibleRateError, InfeasibleDecompositionError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
