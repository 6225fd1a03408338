"""Exact game values, strategies, and best-response payoffs."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from statehelper import (
    ConditionalDistribution,
    ContractViolationError,
    Game,
    SignalFunction,
    best_response_payoff,
    expected_payoff,
    game_value,
    solve_matrix_game,
)
from statehelper.game_core import optimal_state_strategy, validate_prob_vector

from conftest import random_game


def test_matrix_game_diagonal_dominant(fig1_game):
    sol = solve_matrix_game(fig1_game.payoff[:, :, 0])
    assert abs(sol.value - 0.75) < 1e-9
    assert np.allclose(sol.strategy_a.rows[0], [0.25, 0.75], atol=1e-9)
    assert sol.lp_gap <= 2e-9


def test_matrix_game_transposed_variant():
    sol = solve_matrix_game(np.array([[0.0, 3.0], [1.0, 0.0]]))
    assert abs(sol.value - 0.75) < 1e-9


def test_matrix_game_constant():
    for c in (-2.0, 0.0, 1.7):
        sol = solve_matrix_game(np.array([[c]]))
        assert abs(sol.value - c) < 1e-9
        assert sol.strategy_a.rows[0][0] == 1.0


def test_matrix_game_rejects_bad_input():
    with pytest.raises(ContractViolationError):
        solve_matrix_game(np.array([[np.inf, 0.0]]))


def test_erasure_information_structures(erasure_game):
    """The four deterministic information structures and their values."""
    none = SignalFunction.constant(2)
    state = SignalFunction.identity(2)
    cases = [
        ((none, none), 0.5),
        ((state, state), 0.75),
        ((state, none), 1.5),
        ((none, state), 0.0),
    ]
    for (f_a, f_b), expected in cases:
        sol = game_value(erasure_game, f_a, f_b)
        assert abs(sol.value - expected) < 1e-9, (f_a, f_b)
        assert sol.lp_gap <= 2e-9


def test_single_b_action_value_is_average_of_maxima():
    rng = np.random.default_rng(7)
    for _ in range(20):
        game = random_game(rng, n_states=3, n_actions_a=3, n_actions_b=1)
        sol = game_value(game, SignalFunction.identity(3), SignalFunction.constant(3))
        direct = sum(game.prior[s] * game.payoff[:, 0, s].max() for s in range(3))
        assert abs(sol.value - direct) < 1e-9


def test_constant_signals_match_averaged_matrix():
    rng = np.random.default_rng(11)
    for _ in range(20):
        game = random_game(rng, n_states=3, n_actions_a=2, n_actions_b=3)
        none = SignalFunction.constant(3)
        sol = game_value(game, none, none)
        avg = solve_matrix_game(game.averaged_matrix())
        assert abs(sol.value - avg.value) < 1e-9


def test_identity_signals_decompose_per_state():
    rng = np.random.default_rng(13)
    for _ in range(20):
        game = random_game(rng, n_states=3, n_actions_a=2, n_actions_b=2)
        ident = SignalFunction.identity(3)
        sol = game_value(game, ident, ident)
        direct = sum(game.prior[s] * solve_matrix_game(game.state_matrix(s)).value
                     for s in range(3))
        assert abs(sol.value - direct) < 1e-9


def _pure_map_game(game, f_a, f_b):
    """Every pure signal->action map of each player, and the matrix game between them."""
    maps_a = list(itertools.product(range(game.n_actions_a), repeat=f_a.signal_count))
    maps_b = list(itertools.product(range(game.n_actions_b), repeat=f_b.signal_count))
    M = np.array([[sum(game.prior[s] * game.payoff[ma[f_a.map[s]], mb[f_b.map[s]], s]
                       for s in range(game.n_states))
                   for mb in maps_b] for ma in maps_a])
    return maps_a, maps_b, M


def _random_signal(rng, n_states):
    count = int(rng.integers(1, n_states + 1))
    return SignalFunction(tuple(int(g) for g in rng.integers(0, count, n_states)), count)


def test_game_value_against_brute_force():
    """Cross-check the behavioral-strategy LP against the pure-map matrix game."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        game = random_game(rng, n_states=3, n_actions_a=2, n_actions_b=2)
        f_a, f_b = _random_signal(rng, 3), _random_signal(rng, 3)
        sol = game_value(game, f_a, f_b)
        maps_a, maps_b, M = _pure_map_game(game, f_a, f_b)
        assert abs(sol.value - solve_matrix_game(M).value) < 1e-9, (f_a, f_b)
        # each returned strategy guarantees the value against every pure map
        for amap in maps_a:
            pure_a = ConditionalDistribution(np.eye(game.n_actions_a)[list(amap)])
            payoff = expected_payoff(game, pure_a, sol.strategy_b, f_a, f_b)
            assert payoff <= sol.value + 1e-9
        for bmap in maps_b:
            pure_b = ConditionalDistribution(np.eye(game.n_actions_b)[list(bmap)])
            payoff = expected_payoff(game, sol.strategy_a, pure_b, f_a, f_b)
            assert payoff >= sol.value - 1e-9


def test_lp_gap_within_tolerance_on_float_game():
    """A float game on which HiGHS at its default tolerances left a 1.5e-8 gap."""
    rng = np.random.default_rng([9, 1])
    games = []
    for ns, na, nb in ((4, 4, 3), (5, 3, 3), (5, 4, 3), (6, 3, 3)):
        prior = rng.dirichlet(np.full(ns, 2.0))
        payoff = np.round(rng.uniform(-2, 2, (na, nb, ns)), 3)
        games.append(Game(tuple(map(str, range(ns))), prior, tuple(map(str, range(na))),
                          tuple(map(str, range(nb))), payoff))
    game = games[1]  # 5 states, 3x3 actions; A blind, B informed
    f_a, f_b = SignalFunction.constant(5), SignalFunction.identity(5)
    sol = game_value(game, f_a, f_b)
    assert sol.lp_gap <= 1e-9
    _, _, M = _pure_map_game(game, f_a, f_b)
    assert abs(sol.value - solve_matrix_game(M).value) < 1e-9


def test_expected_payoff_hand_computed(erasure_game):
    state = SignalFunction.identity(2)
    none = SignalFunction.constant(2)
    strat_a = ConditionalDistribution(np.array([[1.0, 0.0, 0.0],
                                                [0.0, 0.0, 1.0]]))
    strat_b = ConditionalDistribution(np.array([[0.5, 0.5]]))
    # A plays the matching endpoint; B mixes blindly: 0.5*(1.5) + 0.5*(1.5)
    value = expected_payoff(erasure_game, strat_a, strat_b, state, none)
    assert abs(value - 1.5) < 1e-12
    pure_b = ConditionalDistribution(np.array([[1.0, 0.0]]))
    value = expected_payoff(erasure_game, strat_a, pure_b, state, none)
    assert abs(value - 1.5) < 1e-12  # 0.5*3 + 0.5*0


def test_expected_payoff_validates_dimensions(erasure_game):
    state = SignalFunction.identity(2)
    bad = ConditionalDistribution(np.array([[1.0, 0.0]]))
    with pytest.raises(ContractViolationError):
        expected_payoff(erasure_game, bad, bad, state, state)


def test_best_response_payoff_anchors(erasure_game):
    """Anchors tied to the information-structure values of the erasure game."""
    # U = S, A plays the strategy that is optimal when B is blind
    full = game_value(erasure_game, SignalFunction.identity(2),
                      SignalFunction.constant(2))
    p_u = erasure_game.prior
    ident = ConditionalDistribution(np.eye(2))
    value = best_response_payoff(erasure_game, p_u, ident, full.strategy_a,
                                 b_sees_s=False, b_sees_u=False)
    assert abs(value - 1.5) < 1e-6
    # per-state minimax mixes guarantee the both-informed value against B(s)
    per_state = ConditionalDistribution(optimal_state_strategy(erasure_game))
    value = best_response_payoff(erasure_game, p_u, ident, per_state,
                                 b_sees_s=True, b_sees_u=True)
    assert abs(value - 0.75) < 1e-6
    # the blind minimax mix (pure middle action) is worthless once B sees S
    mid = ConditionalDistribution(np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))
    value = best_response_payoff(erasure_game, p_u, ident, mid,
                                 b_sees_s=True, b_sees_u=False)
    assert abs(value - 0.0) < 1e-9


def test_best_response_payoff_rejects_wrong_marginal(erasure_game):
    ident = ConditionalDistribution(np.eye(2))
    mid = ConditionalDistribution(np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(ContractViolationError):
        best_response_payoff(erasure_game, np.array([0.9, 0.1]), ident, mid,
                             b_sees_s=False, b_sees_u=False)


@pytest.mark.parametrize("bad", ([np.nan, 0.5, 0.5], [np.inf, 0.0],
                                 [[np.nan, np.nan], [0.5, 0.5]]))
def test_non_finite_entries_are_not_probabilities(bad):
    """NaN fails both the sign and the sum test, so it needs its own check."""
    with pytest.raises(ContractViolationError, match="non-finite"):
        ConditionalDistribution(np.atleast_2d(bad))
    with pytest.raises(ContractViolationError, match="non-finite"):
        validate_prob_vector(np.ravel(bad))


@given(weights=st.lists(st.integers(1, 9), min_size=1, max_size=12),
       drift=st.sampled_from([1.0, 1.0 + 1e-14, 1.0 - 1e-14]))
@example(weights=[8, 9, 4, 4, 4], drift=1.0)
def test_validate_prob_vector_is_idempotent(weights, drift):
    """A vector it has returned comes back bit for bit, and drift below the
    tolerance is renormalized away."""
    w = np.asarray(weights, dtype=float)
    p = validate_prob_vector(w / w.sum() * drift)
    assert np.array_equal(validate_prob_vector(p), p)
    assert abs(p.sum() - 1.0) <= p.size * np.finfo(float).eps


def test_more_information_for_b_never_helps_a():
    rng = np.random.default_rng(19)
    p_u = np.array([0.5, 0.5])
    ident = ConditionalDistribution(np.eye(2))
    for _ in range(30):
        game = random_game(rng, n_states=2, n_actions_a=2, n_actions_b=3)
        pa = ConditionalDistribution(rng.dirichlet(np.ones(2), size=2))
        vals = {}
        for sees_s, sees_u in itertools.product((False, True), repeat=2):
            vals[sees_s, sees_u] = best_response_payoff(
                game, game.prior, ident, pa, b_sees_s=sees_s, b_sees_u=sees_u)
        assert vals[True, False] <= vals[False, False] + 1e-9
        assert vals[False, True] <= vals[False, False] + 1e-9
        assert vals[True, True] <= min(vals[True, False], vals[False, True]) + 1e-9
