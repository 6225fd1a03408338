"""The behavioral-strategy LP's own simplex, checked against HiGHS.

scipy is a test-only dependency: `linprog(method="highs")` serves here as an
independent reference for `game_core.game_value`, which solves the same LP
with the toolkit's dense revised simplex.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog

import statehelper
from statehelper import (
    ConditionalDistribution,
    Game,
    SignalFunction,
    expected_payoff,
    game_value,
    parse_game,
    serialize_game,
    solve_matrix_game,
)
from statehelper import game_core

from conftest import make_erasure_game

FORBIDDEN = -1e6
CERTIFICATE_TOL = 1e-9  # the certificate every value here must meet
LEVELS = ("none", "partial", "state")


def _signal(level, n_states):
    """The information levels of the benchmark: partial is the state's parity."""
    if level == "none":
        return SignalFunction.constant(n_states)
    if level == "state":
        return SignalFunction.identity(n_states)
    parity = tuple(s % 2 for s in range(n_states))
    return SignalFunction(parity, max(parity) + 1)


def _highs(game, f_a, f_b):
    """(value, lp_gap) of the behavioral LP from HiGHS, or None if it fails."""
    na, nb, ns = game.payoff.shape
    ga, gb = f_a.signal_count, f_b.signal_count
    nx = ga * na
    weighted = game.payoff * game.prior
    A_ub = np.zeros((gb * nb, nx + gb))
    for s in range(ns):
        g, h = f_a.map[s], f_b.map[s]
        A_ub[h * nb:(h + 1) * nb, g * na:(g + 1) * na] -= weighted[:, :, s].T
    A_ub[np.arange(gb * nb), nx + np.arange(gb * nb) // nb] = 1.0
    A_eq = np.zeros((ga, nx + gb))
    A_eq[np.arange(nx) // na, np.arange(nx)] = 1.0
    res = scipy_linprog(np.concatenate([np.zeros(nx), -np.ones(gb)]),
                        A_ub=A_ub, b_ub=np.zeros(gb * nb), A_eq=A_eq,
                        b_eq=np.ones(ga),
                        bounds=[(0, None)] * nx + [(None, None)] * gb,
                        method="highs",
                        options={"primal_feasibility_tolerance": 1e-10,
                                 "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        return None
    x = game_core._normalized_rows(res.x[:nx].reshape(ga, na))
    y = game_core._normalized_rows(-res.ineqlin.marginals.reshape(gb, nb))
    value_a = expected_payoff(game, ConditionalDistribution(x),
                              _best_reply_b(game, x, f_a, f_b), f_a, f_b)
    value_b = expected_payoff(game, _best_reply_a(game, y, f_a, f_b),
                              ConditionalDistribution(y), f_a, f_b)
    return value_a, abs(value_b - value_a)


def _best_reply_b(game, x, f_a, f_b):
    cells = np.zeros((f_b.signal_count, game.n_actions_b))
    for s in range(game.n_states):
        cells[f_b.map[s]] += game.prior[s] * (x[f_a.map[s]] @ game.payoff[:, :, s])
    return ConditionalDistribution(np.eye(game.n_actions_b)[cells.argmin(axis=1)])


def _best_reply_a(game, y, f_a, f_b):
    cells = np.zeros((f_a.signal_count, game.n_actions_a))
    for s in range(game.n_states):
        cells[f_a.map[s]] += game.prior[s] * (game.payoff[:, :, s] @ y[f_b.map[s]])
    return ConditionalDistribution(np.eye(game.n_actions_a)[cells.argmax(axis=1)])


def _game(prior_weights, payoff):
    na, nb, ns = payoff.shape
    return Game(tuple(map(str, range(ns))), np.asarray(prior_weights) / np.sum(prior_weights),
                tuple(map(str, range(na))), tuple(map(str, range(nb))), payoff,
                neg_inf_value=FORBIDDEN)


# The seed-2 game of the -inf sweep: HiGHS stops with "model_status is
# Unknown" on it with A blind and B informed.  Indexed [state][a][b].
SEED_2_PAYOFF = np.array([
    [[0.2271898320614536, 0.6774399544705065, 0.8511674942449985],
     [-0.5775408679873053, -np.inf, 0.814980377376127],
     [-0.891743869704219, -np.inf, 0.16184371597992286]],
    [[0.07274145110853247, -0.6536276564044545, -np.inf],
     [-np.inf, 0.2233130692352414, 0.11943744266743428],
     [-0.3430839500212033, 0.033505452588179274, -0.34131224841850627]],
    [[-0.2649809777168983, 0.4426014555209654, 0.4220262950199858],
     [0.15779413960808153, -np.inf, -0.9946887876092809],
     [-0.5356411412122644, 0.9407591414552863, -0.35170393100457065]],
    [[0.8124732271392405, -0.8975472289585731, 0.3078707477056084],
     [0.8357591930932566, 0.04493469843167741, 0.006137082303820263],
     [-0.3782796388256793, -np.inf, -np.inf]],
    [[-0.9141510282171827, -np.inf, -np.inf],
     [-0.4795011373445486, -0.7644925691571915, 0.28889250663474497],
     [0.714018243523159, 0.9717956193019168, -0.3086631839662326]],
    [[0.005854703083646218, 0.88112265841089, -np.inf],
     [-0.6114818988476267, 0.3593117050617285, 0.9815624452649039],
     [0.8605324766768951, 0.3058352132132247, 0.28203608760204757]],
]).transpose(1, 2, 0)
SEED_2_PRIOR_WEIGHTS = [8, 4, 2, 8, 8, 6]


def test_seed_2_game_with_forbidden_cells_solves():
    game = _game(SEED_2_PRIOR_WEIGHTS, SEED_2_PAYOFF)
    f_a, f_b = SignalFunction.constant(6), SignalFunction.identity(6)
    sol = game_value(game, f_a, f_b)
    assert sol.lp_gap <= CERTIFICATE_TOL
    # A's mix guarantees the value against each of B's pure replies per
    # signal, and B's strategy holds A to it
    worst = _best_reply_b(game, sol.strategy_a.rows, f_a, f_b)
    assert expected_payoff(game, sol.strategy_a, worst, f_a, f_b) >= sol.value - 1e-12
    best = _best_reply_a(game, sol.strategy_b.rows, f_a, f_b)
    assert expected_payoff(game, best, sol.strategy_b, f_a, f_b) <= sol.value + CERTIFICATE_TOL


def test_game_value_is_one_lp_solve(monkeypatch):
    """The benchmark counts LP solves as calls of game_core.linprog."""
    calls = []
    solver = game_core.linprog
    monkeypatch.setattr(game_core, "linprog",
                        lambda *args: calls.append(1) or solver(*args))
    game_value(make_erasure_game(), SignalFunction.identity(2), SignalFunction.constant(2))
    solve_matrix_game(np.array([[0.0, 3.0], [1.0, 0.0]]))
    assert len(calls) == 2


def test_nonunique_optimum_is_the_first_basis_blands_rule_reaches():
    """With both players blind in the erasure game, A's middle action is
    optimal and every mix of B is optimal against it.  The start makes B's
    second column the tight one, and the simplex stops with B still on it."""
    none = SignalFunction.constant(2)
    sol = game_value(make_erasure_game(), none, none)
    assert sol.value == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(sol.strategy_a.rows, [[0.0, 1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(sol.strategy_b.rows, [[0.0, 1.0]], atol=1e-12)


def test_dual_steps_repair_an_infeasible_optimal_basis():
    """maximize -z0 - 2 z1 subject to z0 + z1 >= 1, from the all-slack basis:
    it is optimal (no reduced cost is positive) but its slack is -1."""
    z, prices = game_core.linprog(np.array([-1.0, -2.0]), np.array([[-1.0, -1.0]]),
                                  np.array([-1.0]), np.zeros((0, 2)), np.zeros(0),
                                  np.array([2]), 0)
    np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(prices, [1.0], atol=1e-15)


ENTRY = st.one_of(st.integers(-4, 4).map(float),
                  st.floats(-1.0, 1.0, allow_nan=False),
                  st.just(-np.inf))


@st.composite
def games(draw):
    ns, na, nb = (draw(st.integers(1, top)) for top in (5, 4, 4))
    entries = draw(st.lists(ENTRY, min_size=na * nb * ns, max_size=na * nb * ns))
    weights = draw(st.lists(st.integers(1, 9), min_size=ns, max_size=ns))
    return _game(weights, np.reshape(entries, (na, nb, ns)))


@settings(max_examples=80, deadline=None)
@given(games())
def test_values_agree_with_highs_under_all_information_pairs(game):
    """Also: serialize_game -> parse_game keeps every -inf cell, and the value.
    Parsing renormalizes the prior, which can move it by an ulp."""
    again = parse_game(serialize_game(game))
    np.testing.assert_array_equal(again.payoff, game.payoff)
    np.testing.assert_allclose(again.prior, game.prior, rtol=4e-16, atol=0.0)
    ns = game.n_states
    for level_a in LEVELS:
        for level_b in LEVELS:
            f_a, f_b = _signal(level_a, ns), _signal(level_b, ns)
            sol = game_value(game, f_a, f_b)
            assert abs(game_value(again, f_a, f_b).value - sol.value) <= CERTIFICATE_TOL
            ref = _highs(game, f_a, f_b)
            ref_gap = CERTIFICATE_TOL if ref is None else max(CERTIFICATE_TOL, ref[1])
            assert sol.lp_gap <= ref_gap, (level_a, level_b, ref)
            if ref is not None and ref[1] <= CERTIFICATE_TOL:
                assert abs(sol.value - ref[0]) <= CERTIFICATE_TOL, (level_a, level_b, ref)


def test_importing_the_toolkit_loads_no_scipy_module():
    code = ("import sys, statehelper, statehelper.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = os.path.dirname(os.path.dirname(statehelper.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
