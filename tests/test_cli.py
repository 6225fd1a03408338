"""Command-line interface: outputs, exit codes, determinism."""

import numpy as np
import pytest

from statehelper import (
    CapacityError,
    ConditionalDistribution,
    LayeredScheme,
    cli,
    parse_scheme,
    serialize_game,
    serialize_scheme,
    simulator,
    solve_matrix_game,
)
from statehelper.cli import main

from conftest import (
    make_degenerate_game,
    make_erasure_game,
    make_fig1_game,
    make_optimal_erasure_scheme,
)


@pytest.fixture
def erasure_file(tmp_path):
    path = tmp_path / "erasure.game"
    path.write_text(serialize_game(make_erasure_game()))
    return str(path)


@pytest.fixture
def scheme_file(tmp_path):
    path = tmp_path / "optimal.scheme"
    path.write_text(serialize_scheme(make_optimal_erasure_scheme()))
    return str(path)


@pytest.fixture
def degenerate_file(tmp_path):
    path = tmp_path / "degenerate.game"
    path.write_text(serialize_game(make_degenerate_game()))
    return str(path)


def _line_value(output, key):
    for line in output.splitlines():
        if line.startswith(key + ":"):
            return float(line.split(":", 1)[1])
    raise AssertionError(f"no line {key!r} in output:\n{output}")


def test_value_blind(erasure_file, capsys):
    assert main(["value", erasure_file]) == 0
    out = capsys.readouterr().out
    assert abs(_line_value(out, "value") - 0.5) < 1e-9


def test_value_information_structures(erasure_file, capsys):
    cases = [
        (["--a-info", "state", "--b-info", "state"], 0.75),
        (["--a-info", "state"], 1.5),
        (["--b-info", "state"], 0.0),
        (["--a-info", "signal:0:0,1:1", "--b-info", "signal:0:0,1:0"], 1.5),
    ]
    for flags, expected in cases:
        assert main(["value", erasure_file] + flags) == 0
        out = capsys.readouterr().out
        assert abs(_line_value(out, "value") - expected) < 1e-9


def test_value_fig1(tmp_path, capsys):
    path = tmp_path / "fig1.game"
    path.write_text(serialize_game(make_fig1_game()))
    assert main(["value", str(path)]) == 0
    out = capsys.readouterr().out
    assert abs(_line_value(out, "value") - 0.75) < 1e-9
    assert "strategy_A" in out


def test_value_rejects_bad_signal_spec(erasure_file, capsys):
    assert main(["value", erasure_file, "--a-info", "signal:0:0"]) == 2
    assert "misses states" in capsys.readouterr().err


def test_bound_scheme_report(erasure_file, scheme_file, capsys):
    assert main(["bound", erasure_file, "--rate", "0.655639",
                 "--b-knows-state", "--scheme", scheme_file]) == 0
    out = capsys.readouterr().out
    assert abs(_line_value(out, "payoff") - 0.5) < 1e-6
    assert abs(_line_value(out, "alpha") - 0.5) < 1e-5
    for key in ("i_us", "i_usa", "i_ua_given_s", "pi_low", "pi_low_s",
                "pi_low_u", "pi_low_su"):
        _line_value(out, key)


def test_bound_infeasible_rate_exit_code(erasure_file, scheme_file, capsys):
    assert main(["bound", erasure_file, "--rate", "0.1",
                 "--scheme", scheme_file]) == 3
    assert "below I(U;S)" in capsys.readouterr().err


def test_bound_layered_below_joint_covering_exit_code(erasure_file, tmp_path,
                                                      capsys):
    """A layered scheme needs I(U1,U2;S) = 0.487 to cover the state even for
    an ignorant B; 0.4 lies above I(U1;S) = 0.278 but below it."""
    layered = LayeredScheme(
        p_u1_given_s=ConditionalDistribution(np.array([[0.8, 0.2], [0.2, 0.8]])),
        p_u2_given_u1_s=ConditionalDistribution(
            np.array([[0.9, 0.1], [0.3, 0.7], [0.7, 0.3], [0.1, 0.9]])),
        p_a_given_u1_u2=ConditionalDistribution(
            np.array([[0.9, 0.05, 0.05], [0.5, 0.3, 0.2], [0.2, 0.3, 0.5],
                      [0.05, 0.05, 0.9]])))
    path = tmp_path / "layered.scheme"
    path.write_text(serialize_scheme(layered))
    assert main(["bound", erasure_file, "--rate", "0.4",
                 "--scheme", str(path)]) == cli.EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert "I(U1,U2;S)" in captured.err
    assert "payoff" not in captured.out


def test_bound_rejects_nan_scheme_row(erasure_file, tmp_path, capsys):
    """NaN is not a probability: the scheme file is refused, not scored."""
    path = tmp_path / "nan.scheme"
    path.write_text("p_u_given_s: [[.nan, .nan, .nan], [0.0, 0.5, 0.5]]\n"
                    "p_a_given_u: [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0]]\n")
    assert main(["bound", erasure_file, "--rate", "0.7", "--b-knows-state",
                 "--scheme", str(path)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert "payoff" not in captured.out


def test_bound_optimize_emits_scheme(degenerate_file, tmp_path, capsys):
    out_path = tmp_path / "best.scheme"
    assert main(["bound", degenerate_file, "--rate", "0.5", "--optimize",
                 "--card-u", "2", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert _line_value(out, "payoff") >= -0.12
    scheme = parse_scheme(out_path.read_text())
    assert scheme.card_u == 2


def test_sweep_csv_monotone(erasure_file, scheme_file, capsys):
    assert main(["sweep", erasure_file, "--rates", "0.5:0.81:0.05",
                 "--b-knows-state", "--scheme", scheme_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rate,payoff,alpha"
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    assert len(rows) == 7
    payoffs = [r[1] for r in rows]
    assert payoffs == sorted(payoffs)
    assert abs(payoffs[0] - 0.25) < 1e-9


def test_sweep_optimize_prints_the_one_rate_bounds(erasure_file, capsys,
                                                  monkeypatch):
    """The sweep searches all its rates at once; each row is still what
    `bound --optimize` finds at that rate, after the sweep carries a
    lower-rate scheme forward where it does better (here at rate 0.9)."""
    flags = ["--optimize", "--card-u", "2", "--b-knows-state", "--seed", "0"]
    assert main(["sweep", erasure_file, "--rates", "0.1:0.9:0.2"] + flags) == 0
    rows = capsys.readouterr().out.splitlines()[1:]

    found = []
    optimize_bound = cli.optimize_bound

    def recording(*args, **kwargs):
        found.append(optimize_bound(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(cli, "optimize_bound", recording)
    game = cli.load_game(erasure_file)
    rates = cli._parse_rates("0.1:0.9:0.2")
    expected, best_scheme, best_payoff, carried = [], None, -np.inf, 0
    for rate in rates:
        assert main(["bound", erasure_file, "--rate", repr(rate)] + flags) == 0
        out = capsys.readouterr().out
        scheme, point = found[-1]
        assert f"payoff: {cli._fmt(point.payoff)}\nalpha: {cli._fmt(point.alpha)}\n" in out
        payoff, alpha = point.payoff, point.alpha
        if best_scheme is not None:
            prev = cli.theorem1_payoff(game, best_scheme, rate, True)
            if prev.payoff > payoff:
                payoff, alpha, scheme = prev.payoff, prev.alpha, best_scheme
                carried += 1
        if payoff >= best_payoff:
            best_scheme, best_payoff = scheme, payoff
        expected.append(f"{cli._fmt(rate)},{cli._fmt(payoff)},{cli._fmt(alpha)}")
    assert carried >= 1
    assert rows == expected


def test_sweep_empty_range_header_only(erasure_file, scheme_file, capsys):
    assert main(["sweep", erasure_file, "--rates", "0.9:0.5:0.1",
                 "--scheme", scheme_file]) == 0
    assert capsys.readouterr().out == "rate,payoff,alpha\n"


def test_sweep_bad_rates_spec(erasure_file, scheme_file, capsys):
    assert main(["sweep", erasure_file, "--rates", "0.5,0.9",
                 "--scheme", scheme_file]) == 2


def test_simulate_csv_deterministic(erasure_file, scheme_file, capsys):
    argv = ["simulate", erasure_file, scheme_file, "--rate", "0.7",
            "--n", "12", "--trials", "3", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "k,mean_payoff_at_k,decode_success_at_k"
    assert len(lines) == 13


def test_simulate_options_are_the_simulators():
    """The adversaries and the default epsilon are the simulator's own."""
    argv = ["simulate", "game.yaml", "scheme.yaml", "--rate", "0.7", "--n", "8",
            "--trials", "1"]
    assert cli.build_parser().parse_args(argv).epsilon == simulator.DEFAULT_EPSILON
    for adversary in simulator.ADVERSARIES:
        args = cli.build_parser().parse_args(argv + ["--adversary", adversary])
        assert args.adversary == adversary
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv + ["--adversary", "psychic"])


def test_simulate_out_file(erasure_file, scheme_file, tmp_path, capsys):
    out_path = tmp_path / "match.csv"
    assert main(["simulate", erasure_file, scheme_file, "--rate", "0.7",
                 "--n", "10", "--trials", "2", "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("k,mean_payoff_at_k,decode_success_at_k\n")
    assert len(text.strip().splitlines()) == 11


def test_common_info_joint_file(tmp_path, capsys):
    path = tmp_path / "joint.yaml"
    path.write_text("joint:\n  - [0.5, 0.0]\n  - [0.0, 0.5]\n")
    assert main(["common-info", str(path), "--card-u", "2",
                 "--restarts", "12"]) == 0
    out = capsys.readouterr().out
    assert abs(_line_value(out, "common_information") - 1.0) < 1e-6
    assert "p_s_given_u" in out


def test_common_info_invalid_yaml_exit_code(tmp_path, capsys):
    """The joint file goes through the same YAML check as game files."""
    path = tmp_path / "broken.yaml"
    path.write_text("joint: [unclosed\n")
    assert main(["common-info", str(path), "--card-u", "2"]) == 2
    assert "not valid YAML" in capsys.readouterr().err


def test_common_info_game_plus_scheme(erasure_file, scheme_file, capsys):
    assert main(["common-info", erasure_file, "--scheme", scheme_file,
                 "--card-u", "3", "--restarts", "30"]) == 0
    out = capsys.readouterr().out
    value = _line_value(out, "common_information")
    assert 0.25 - 1e-9 <= value <= 1.0 + 1e-9


def test_common_info_structured_starts_only(erasure_file, scheme_file, capsys):
    """Three restarts are all structured on the erasure joint at |U| = 3."""
    assert main(["common-info", erasure_file, "--scheme", scheme_file,
                 "--card-u", "3", "--restarts", "3"]) == 0
    # the best of U = S, U = A and constant U is U = S, at H(S) = 1 bit
    assert abs(_line_value(capsys.readouterr().out, "common_information") - 1.0) < 1e-12


def test_common_info_rejects_zero_restarts(erasure_file, scheme_file, capsys):
    assert main(["common-info", erasure_file, "--scheme", scheme_file,
                 "--card-u", "3", "--restarts", "0"]) == cli.EXIT_PARSE
    assert "restarts" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [".nan", ".inf"])
def test_common_info_rejects_non_finite_joint(tmp_path, capsys, bad):
    path = tmp_path / "joint.yaml"
    path.write_text(f"joint:\n  - [{bad}, 0.5]\n  - [0.25, 0.25]\n")
    assert main(["common-info", str(path), "--card-u", "2"]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert "common_information" not in captured.out


def test_missing_file_exit_code(capsys):
    assert main(["value", "/nonexistent/game.yaml"]) == 2


def test_invalid_yaml_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.game"
    path.write_text("states: [unclosed\n")
    assert main(["value", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_capacity_exit_code(tmp_path, capsys, monkeypatch, scheme_file, erasure_file):
    # 4^12 x 4^12 pure maps: the behavioral-strategy LP solves it directly
    rng = np.random.default_rng(0)
    from conftest import random_game
    game = random_game(rng, n_states=12, n_actions_a=4, n_actions_b=4)
    path = tmp_path / "big.game"
    path.write_text(serialize_game(game))
    assert main(["value", str(path), "--a-info", "state",
                 "--b-info", "state"]) == 0
    expected = sum(game.prior[s] * solve_matrix_game(game.state_matrix(s)).value
                   for s in range(game.n_states))
    assert abs(_line_value(capsys.readouterr().out, "value") - expected) < 1e-9
    # an oversized codebook still exits with the capacity code
    def oversized(*args, **kwargs):
        raise CapacityError("codebook exceeds cap")

    monkeypatch.setattr(cli, "run_match", oversized)
    assert main(["simulate", erasure_file, scheme_file, "--rate", "0.8",
                 "--n", "8", "--trials", "1"]) == 4
    assert "capacity:" in capsys.readouterr().err


def test_unknown_subcommand_exit_code(capsys):
    assert main(["frobnicate"]) == 2
