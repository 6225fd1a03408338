"""Acceptance gate: the eight headline checks plus the property suites.

Each criterion test states its numeric target and tolerance inline; the
property suites at the bottom each run at least 100 randomized instances.
"""

import time

import numpy as np
import pytest

from statehelper import (
    CommonInfoSearch,
    JointDistribution,
    MatchConfig,
    SignalFunction,
    binary_entropy,
    build_codebook,
    decode_actions,
    deterministic_baseline,
    encode,
    entropy,
    game_value,
    inverse_binary_entropy,
    mutual_information,
    conditional_mutual_information,
    optimize_bound,
    run_match,
    scheme_statistics,
    solve_matrix_game,
    theorem1_payoff,
    wyner_common_information,
)
from statehelper import BoundSearch
from statehelper.simulator import EncoderFailure

from conftest import (
    make_degenerate_game,
    make_erasure_game,
    make_fig1_game,
    make_optimal_erasure_scheme,
    random_game,
    random_joint,
    random_scheme,
)

H_QUARTER = binary_entropy(0.25)


def test_criterion_1_information_structure_values():
    """The four erasure-game values (1/2, 3/4, 3/2, 0) within 1e-9, under 1 s."""
    game = make_erasure_game()
    assert game.neg_inf_value == -1e6
    none = SignalFunction.constant(2)
    state = SignalFunction.identity(2)
    start = time.perf_counter()
    for (f_a, f_b), expected in (((none, none), 0.5), ((state, state), 0.75),
                                 ((state, none), 1.5), ((none, state), 0.0)):
        sol = game_value(game, f_a, f_b)
        assert abs(sol.value - expected) <= 1e-9
    assert time.perf_counter() - start < 1.0


def test_criterion_2_single_state_game():
    """Value 3/4 with the unique A-mix (1/4, 3/4), within 1e-9."""
    game = make_fig1_game()
    sol = game_value(game, SignalFunction.constant(1), SignalFunction.constant(1))
    assert abs(sol.value - 0.75) <= 1e-9
    assert np.max(np.abs(sol.strategy_a.rows[0] - [0.25, 0.75])) <= 1e-9


def test_criterion_3_common_information_anchor():
    """C(S;A) of the erasure action joint is H(1/4) with |U| = 3, under 30 s."""
    game = make_erasure_game()
    scheme = make_optimal_erasure_scheme()
    sa = JointDistribution(scheme.joint(game.prior).marginal((0, 2)))
    start = time.perf_counter()
    result = wyner_common_information(sa, 3, CommonInfoSearch())
    elapsed = time.perf_counter() - start
    assert abs(result.value - H_QUARTER) <= 1e-3
    assert result.aux_cardinality == 3
    i_sa = mutual_information(sa, (0,), (1,))
    h_s = entropy(sa.mass.sum(axis=1))
    h_a = entropy(sa.mass.sum(axis=0))
    assert abs(i_sa - 0.25) <= 1e-9
    assert i_sa - 1e-9 <= result.value <= min(h_s, h_a) + 1e-9
    assert elapsed < 30.0


def test_criterion_4_bound_endpoints():
    """Informed-B bound on the erasure game: exact endpoints, 1e-6 midpoint."""
    game = make_erasure_game()
    scheme = make_optimal_erasure_scheme()
    high = theorem1_payoff(game, scheme, H_QUARTER, b_knows_state=True)
    assert abs(high.payoff - 0.75) <= 1e-12
    low = theorem1_payoff(game, scheme, 0.5, b_knows_state=True)
    assert low.alpha == 0.0
    assert abs(low.payoff - 0.25) <= 1e-12
    mid = theorem1_payoff(game, scheme, 0.655639, b_knows_state=True)
    assert abs(mid.payoff - 0.5) <= 1e-6


def test_criterion_5_rate_distortion_recovery():
    """Optimized bound on the state-matching game tracks the closed form."""
    game = make_degenerate_game()
    start = time.perf_counter()
    for rate in (0.1, 0.3, 0.5, 0.7, 0.9):
        _, point = optimize_bound(game, rate, b_knows_state=False, card_u=2)
        target = -inverse_binary_entropy(1.0 - rate)
        assert abs(point.payoff - target) <= 0.01, rate
    assert time.perf_counter() - start < 60.0


def test_criterion_6_deterministic_coding_collapse():
    """Deterministic coding vs a state-informed decoder collapses the payoff."""
    game = make_erasure_game()
    result = deterministic_baseline(game, rate=0.5, n=64, trials=2000, seed=0)
    assert result.mean_payoff <= 0.05


def test_criterion_7_threshold_validation():
    """Decode transition near alpha, two-phase payoffs near 0.75 / 0.25."""
    game = make_erasure_game()
    scheme = make_optimal_erasure_scheme()
    rate = 0.655639
    n = 128
    alpha = theorem1_payoff(game, scheme, rate, b_knows_state=True).alpha
    start = time.perf_counter()
    result = run_match(game, scheme, rate,
                       MatchConfig(n=n, trials=2000,
                                   adversary="decoder_with_state", seed=0))
    elapsed = time.perf_counter() - start
    crossing = int(np.argmax(result.decode_success >= 0.5)) + 1
    assert result.decode_success[-1] >= 0.5, "decoder never reached 1/2"
    assert abs(crossing / n - alpha) <= 0.1
    phase1 = result.per_iteration_payoff[:int(0.3 * n)].mean()
    phase2 = result.per_iteration_payoff[int(0.85 * n) - 1:].mean()
    assert abs(phase1 - 0.75) <= 0.05
    assert abs(phase2 - 0.25) <= 0.05
    assert elapsed < 300.0


# --------------------------------------------------------------------------
# criterion 8: property suites, >= 100 randomized instances each


def test_property_chain_rule():
    rng = np.random.default_rng(100)
    for _ in range(120):
        shape = tuple(rng.integers(2, 4, size=3))
        joint = JointDistribution(random_joint(rng, shape))
        lhs = mutual_information(joint, (0,), (1, 2))
        rhs = (mutual_information(JointDistribution(joint.marginal((0, 1))),
                                  (0,), (1,))
               + conditional_mutual_information(joint, (0,), (2,), (1,)))
        assert abs(lhs - rhs) <= 1e-9


def test_property_b_information_monotonicity():
    """Each extra observable for the opponent can only lower the functionals."""
    rng = np.random.default_rng(101)
    for _ in range(120):
        game = random_game(rng, n_states=int(rng.integers(2, 4)),
                           n_actions_a=int(rng.integers(2, 4)),
                           n_actions_b=int(rng.integers(2, 4)))
        scheme = random_scheme(rng, n_states=game.n_states,
                               card_u=int(rng.integers(2, 4)),
                               n_actions=game.n_actions_a)
        stats = scheme_statistics(game, scheme)
        assert stats.pi_low_s <= stats.pi_low + 1e-9
        assert stats.pi_low_u <= stats.pi_low + 1e-9
        assert stats.pi_low_su <= stats.pi_low_s + 1e-9
        assert stats.pi_low_su <= stats.pi_low_u + 1e-9


def test_property_lp_duality_gap():
    rng = np.random.default_rng(102)
    for _ in range(120):
        shape = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        matrix = rng.uniform(-5, 5, size=shape)
        sol = solve_matrix_game(matrix)
        assert sol.lp_gap <= 2e-9


def test_property_payoff_monotone_in_rate():
    rng = np.random.default_rng(103)
    for _ in range(110):
        game = random_game(rng, n_states=2, n_actions_a=3, n_actions_b=2)
        scheme = random_scheme(rng, n_states=2, card_u=3, n_actions=3)
        stats = scheme_statistics(game, scheme)
        informed = bool(rng.integers(2))
        # covering needs rate >= I(U;S) whether or not B sees the state
        rates = stats.i_us + np.sort(rng.uniform(0.0, 2.0, size=4))
        payoffs = [theorem1_payoff(game, scheme, r, informed).payoff
                   for r in rates]
        assert all(b >= a - 1e-9 for a, b in zip(payoffs, payoffs[1:]))


def test_property_seed_determinism():
    """Same seed, same result, for every randomized operation."""
    rng = np.random.default_rng(104)
    for i in range(100):
        scheme = random_scheme(rng, n_states=2, card_u=3, n_actions=3,
                               concentration=2.0)
        n = int(rng.integers(8, 16))
        seed = int(rng.integers(1 << 31))
        b1 = build_codebook(scheme, n, 0.6, seed)
        b2 = build_codebook(scheme, n, 0.6, seed)
        assert np.array_equal(b1.sequences, b2.sequences)
        s_seq = rng.integers(0, 2, size=n)
        try:
            assert (encode(b1, s_seq, scheme, 0.1, seed)
                    == encode(b2, s_seq, scheme, 0.1, seed))
        except EncoderFailure:
            pass
        codeword = b1.sequences[i % b1.count]
        assert np.array_equal(decode_actions(codeword, scheme, seed),
                              decode_actions(codeword, scheme, seed))
    # the composite randomized operations are deterministic too
    game = make_erasure_game()
    scheme = make_optimal_erasure_scheme()
    cfg = MatchConfig(n=12, trials=4, seed=9)
    r1 = run_match(game, scheme, 0.7, cfg)
    r2 = run_match(game, scheme, 0.7, cfg)
    assert np.array_equal(r1.per_iteration_payoff, r2.per_iteration_payoff)
    assert np.array_equal(r1.decode_success, r2.decode_success)
    search = BoundSearch(restarts=3, iterations=100, seed=5)
    _, p1 = optimize_bound(game, 0.7, True, 3, search)
    _, p2 = optimize_bound(game, 0.7, True, 3, search)
    assert p1.payoff == p2.payoff
    sa = JointDistribution(scheme.joint(game.prior).marginal((0, 2)))
    ci = CommonInfoSearch(restarts=6, seed=5)
    w1 = wyner_common_information(sa, 3, ci)
    w2 = wyner_common_information(sa, 3, ci)
    assert w1.value == w2.value
