"""Rate-value bound evaluation, optimization, and the layered variant."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from statehelper import (
    BoundSearch,
    ConditionalDistribution,
    ContractViolationError,
    Game,
    InfeasibleRateError,
    JointDistribution,
    LayeredPayoffResult,
    LayeredScheme,
    Scheme,
    SignalFunction,
    binary_entropy,
    conditional_mutual_information,
    degenerate_rd_payoff,
    degenerate_rd_rate,
    game_value,
    inverse_binary_entropy,
    layered_payoff,
    mutual_information,
    optimize_bound,
    parse_game,
    scheme_statistics,
    serialize_game,
    theorem1_payoff,
    threshold_alpha,
)
from statehelper import rate_value
from statehelper.game_core import min_payoff_given_observation, payoff_against_pure
from statehelper.rate_value import (
    INFO_TOL,
    RATE_TOL,
    SchemeStats,
    _joint_mass,
    _nelder_mead,
    _penalized_payoff,
    _scheme_from_logits,
    _softmax_rows,
    _stats_kernel,
)
from statehelper.simulator import _SchemeTables
from conftest import FORBIDDEN, random_game, random_scheme

H_QUARTER = binary_entropy(0.25)


def test_erasure_scheme_statistics(erasure_game, optimal_scheme):
    stats = scheme_statistics(erasure_game, optimal_scheme)
    assert abs(stats.i_us - 0.5) < 1e-12
    assert abs(stats.i_usa - H_QUARTER) < 1e-12
    assert abs(stats.i_ua_given_s - (H_QUARTER - 0.5)) < 1e-12
    assert abs(stats.pi_low - 0.75) < 1e-9
    assert abs(stats.pi_low_s - 0.75) < 1e-9
    assert abs(stats.pi_low_u - 0.5) < 1e-9
    assert abs(stats.pi_low_su - 0.25) < 1e-9


def test_constant_u_scheme_statistics(erasure_game):
    scheme = Scheme.constant_u(np.array([0.0, 1.0, 0.0]), 2)
    stats = scheme_statistics(erasure_game, scheme)
    assert stats.i_us == 0.0
    assert stats.i_usa == 0.0
    assert abs(stats.pi_low - 0.5) < 1e-9
    assert abs(stats.pi_low_s - 0.0) < 1e-9


def _full_description_scheme(game):
    """U = S with A playing the strategy optimal against a blind opponent."""
    informed = game_value(game, SignalFunction.identity(game.n_states),
                          SignalFunction.constant(game.n_states))
    return Scheme(ConditionalDistribution(np.eye(game.n_states)),
                  ConditionalDistribution(informed.strategy_a.rows))


def test_one_live_state_has_no_state_information():
    """With a single state of positive prior, I(U;S) is exactly 0."""
    rng = np.random.default_rng(0)
    for prior in ([1.0], [1.0, 0.0], [0.0, 1.0, 0.0]):
        prior = np.array(prior)
        for _ in range(20):
            game = random_game(rng, n_states=prior.size)
            game = Game(states=game.states, prior=prior,
                        actions_a=game.actions_a, actions_b=game.actions_b,
                        payoff=game.payoff)
            scheme = random_scheme(rng, n_states=prior.size, card_u=3)
            assert scheme_statistics(game, scheme).i_us == 0.0
    # the last game's prior is (0, 1, 0), so nine (s, u) cells, three of them
    # live: the kernel's sums group the terms of H(S,U) and H(U) differently,
    # and H(U) - H(S,U) is 1 ulp above 0 on this row
    row = [0.26339066717518167, 0.5067919483097055, 0.2298173845151129]
    scheme = Scheme(ConditionalDistribution(np.array([row] * 3)),
                    ConditionalDistribution(np.full((3, 2), 0.5)))
    assert scheme_statistics(game, scheme).i_us == 0.0


def test_full_description_scheme_statistics(erasure_game):
    scheme = _full_description_scheme(erasure_game)
    stats = scheme_statistics(erasure_game, scheme)
    assert abs(stats.i_us - 1.0) < 1e-12
    assert abs(stats.i_usa - 1.0) < 1e-12
    assert stats.i_ua_given_s < 1e-12
    assert abs(stats.pi_low - 1.5) < 1e-9


def test_threshold_alpha_anchors(erasure_game, optimal_scheme):
    stats = scheme_statistics(erasure_game, optimal_scheme)
    assert threshold_alpha(stats, 0.5, b_knows_state=True) == 0.0
    assert abs(threshold_alpha(stats, H_QUARTER, b_knows_state=True) - 1.0) < 1e-9
    mid = (0.5 + H_QUARTER) / 2
    assert abs(threshold_alpha(stats, mid, b_knows_state=True) - 0.5) < 1e-9
    assert abs(threshold_alpha(stats, H_QUARTER, b_knows_state=False) - 1.0) < 1e-9
    with pytest.raises(ContractViolationError):
        threshold_alpha(stats, -0.1, b_knows_state=True)


def test_theorem1_informed_endpoints(erasure_game, optimal_scheme):
    low = theorem1_payoff(erasure_game, optimal_scheme, 0.5, b_knows_state=True)
    assert low.alpha == 0.0 and abs(low.payoff - 0.25) < 1e-9
    high = theorem1_payoff(erasure_game, optimal_scheme, H_QUARTER,
                           b_knows_state=True)
    assert abs(high.alpha - 1.0) < 1e-9 and abs(high.payoff - 0.75) < 1e-9
    mid = theorem1_payoff(erasure_game, optimal_scheme, 0.655639,
                          b_knows_state=True)
    assert abs(mid.payoff - 0.5) < 1e-6


def test_theorem1_ignorant_full_description(erasure_game):
    scheme = _full_description_scheme(erasure_game)
    # rate exactly I(U;S) = 1 bit is allowed and gives the A-informed value
    point = theorem1_payoff(erasure_game, scheme, 1.0, b_knows_state=False)
    assert abs(point.payoff - 1.5) < 1e-9
    with pytest.raises(InfeasibleRateError):
        theorem1_payoff(erasure_game, scheme, 0.9, b_knows_state=False)


def test_theorem1_matches_stats_arithmetic():
    rng = np.random.default_rng(37)
    for _ in range(30):
        game = random_game(rng, n_states=2, n_actions_a=3, n_actions_b=2)
        scheme = random_scheme(rng, n_states=2, card_u=3, n_actions=3)
        stats = scheme_statistics(game, scheme)
        for informed in (True, False):
            rate = stats.i_us + rng.uniform(0.0, 1.0)
            point = theorem1_payoff(game, scheme, rate, b_knows_state=informed)
            alpha = threshold_alpha(stats, rate, informed)
            if informed:
                expected = alpha * stats.pi_low_s + (1 - alpha) * stats.pi_low_su
            else:
                expected = alpha * stats.pi_low + (1 - alpha) * stats.pi_low_u
            assert abs(point.payoff - expected) < 1e-9
            assert abs(point.alpha - alpha) < 1e-12


def test_theorem1_informed_needs_covering(erasure_game, optimal_scheme):
    """An informed B does not spare the encoder the covering rate I(U;S)."""
    i_us = scheme_statistics(erasure_game, optimal_scheme).i_us
    assert abs(i_us - 0.5) < 1e-12
    with pytest.raises(InfeasibleRateError, match="below I\\(U;S\\)"):
        theorem1_payoff(erasure_game, optimal_scheme, 0.4, b_knows_state=True)
    theorem1_payoff(erasure_game, optimal_scheme, i_us, b_knows_state=True)


def test_optimize_bound_informed_respects_covering(erasure_game):
    """Below the covering rate of the full-information scheme the informed
    optimum must carry no more than the rate, so it stays far from the
    both-informed value 3/4."""
    scheme, point = optimize_bound(erasure_game, 0.1, True, 3,
                                   BoundSearch(restarts=4))
    assert scheme_statistics(erasure_game, scheme).i_us <= 0.1 + 1e-12
    assert point.payoff < 0.25


def test_zero_rate_constant_u_is_no_communication_value(erasure_game):
    none = SignalFunction.constant(2)
    blind = game_value(erasure_game, none, none)
    scheme = Scheme.constant_u(np.array([0.0, 1.0, 0.0]), 2)
    point = theorem1_payoff(erasure_game, scheme, 0.0, b_knows_state=False)
    assert abs(point.payoff - blind.value) < 1e-9


def test_optimize_bound_degenerate_point(degenerate_game):
    scheme, point = optimize_bound(degenerate_game, 0.5, b_knows_state=False,
                                   card_u=2, search=BoundSearch(restarts=6))
    assert point.payoff >= -inverse_binary_entropy(0.5) - 0.01
    assert scheme.card_u == 2


def test_optimize_bound_at_least_full_description(erasure_game):
    """At high rate the optimizer must reach the both-informed value."""
    scheme, point = optimize_bound(erasure_game, 2.0, b_knows_state=True,
                                   card_u=3, search=BoundSearch(restarts=6))
    assert point.payoff >= 0.75 - 1e-3


def test_structured_starts_reach_both_endpoints():
    """With only its structured starts and one Nelder-Mead iteration, the
    search reaches V0 = game_value(constant, f_B) at rate 0 and V_inf =
    game_value(identity, f_B) at rate 10 on 30 random games, B informed and
    uninformed in turn (f_B the identity or the constant map)."""
    rng = np.random.default_rng(7)
    search = BoundSearch(restarts=1, iterations=1)
    for i in range(30):
        ns, na, nb = (int(k) for k in rng.integers(2, 4, size=3))
        game = random_game(rng, ns, na, nb)
        informed = i % 2 == 0
        f_b = (SignalFunction.identity if informed else SignalFunction.constant)(ns)
        v0 = game_value(game, SignalFunction.constant(ns), f_b).value
        v_inf = game_value(game, SignalFunction.identity(ns), f_b).value
        (_, at_0), (_, at_10) = optimize_bound(game, [0.0, 10.0], informed, 3, search)
        assert abs(at_0.payoff - v0) <= 1e-5, (i, at_0.payoff, v0)
        assert abs(at_10.payoff - v_inf) <= 1e-5, (i, at_10.payoff, v_inf)


def test_optimize_bound_rejects_bad_cardinality(erasure_game):
    with pytest.raises(ContractViolationError):
        optimize_bound(erasure_game, 0.5, b_knows_state=True, card_u=0)


def _layered_from(scheme, n_states):
    """Wrap a plain scheme as a layered one with a constant second layer."""
    card_u = scheme.card_u
    n_actions = scheme.p_a_given_u.to_size
    p_u2 = ConditionalDistribution(np.ones((card_u * n_states, 1)))
    p_a = ConditionalDistribution(scheme.p_a_given_u.rows)
    return LayeredScheme(p_u1_given_s=scheme.p_u_given_s,
                         p_u2_given_u1_s=p_u2, p_a_given_u1_u2=p_a)


def test_layered_degenerate_second_layer(erasure_game, optimal_scheme):
    lscheme = _layered_from(optimal_scheme, 2)
    for rate in (0.5, 0.655639, H_QUARTER):
        base = theorem1_payoff(erasure_game, optimal_scheme, rate,
                               b_knows_state=True)
        result = layered_payoff(erasure_game, lscheme, rate, b_knows_state=True)
        assert abs(result.payoff - base.payoff) < 1e-9
        assert abs(result.alpha2 - base.alpha) < 1e-9


def test_layered_degenerate_first_layer(erasure_game, optimal_scheme):
    # constant U1, the real scheme living in layer 2
    ns, card_u = 2, optimal_scheme.card_u
    p_u1 = ConditionalDistribution(np.ones((ns, 1)))
    p_u2 = ConditionalDistribution(optimal_scheme.p_u_given_s.rows)
    p_a = ConditionalDistribution(optimal_scheme.p_a_given_u.rows)
    lscheme = LayeredScheme(p_u1_given_s=p_u1, p_u2_given_u1_s=p_u2,
                            p_a_given_u1_u2=p_a)
    base = theorem1_payoff(erasure_game, optimal_scheme, 0.7, b_knows_state=True)
    result = layered_payoff(erasure_game, lscheme, 0.7, b_knows_state=True)
    assert abs(result.payoff - base.payoff) < 1e-9
    assert result.alpha1 == 0.0


def _nondegenerate_layered():
    # U1 a noisy copy of S, U2 a refinement; both layers carry information
    p_u1 = ConditionalDistribution(np.array([[0.8, 0.2], [0.2, 0.8]]))
    p_u2 = ConditionalDistribution(np.array([[0.9, 0.1], [0.3, 0.7],
                                             [0.7, 0.3], [0.1, 0.9]]))
    p_a = ConditionalDistribution(np.array([[0.9, 0.05, 0.05],
                                            [0.5, 0.3, 0.2],
                                            [0.2, 0.3, 0.5],
                                            [0.05, 0.05, 0.9]]))
    return LayeredScheme(p_u1_given_s=p_u1, p_u2_given_u1_s=p_u2,
                         p_a_given_u1_u2=p_a)


def test_layered_nondegenerate_structure(erasure_game):
    lscheme = _nondegenerate_layered()
    result = layered_payoff(erasure_game, lscheme, 1.5, b_knows_state=True)
    assert result.alpha1 <= result.alpha2 <= 1.0
    assert not result.no_benefit
    assert np.isfinite(result.payoff)


def test_layered_ignorant_needs_covering(erasure_game):
    """Ignorant B at a rate barely above I(U1;S) still needs I(U1,U2;S) to
    cover the state, so the scheme is infeasible rather than of no benefit."""
    lscheme = _nondegenerate_layered()
    joint = lscheme.joint(erasure_game.prior)
    i_u1_s = mutual_information(JointDistribution(joint.marginal((0, 1))),
                                (0,), (1,))
    assert abs(i_u1_s - 0.27807) < 1e-5
    for rate in (i_u1_s + 1e-6, 0.4):
        with pytest.raises(InfeasibleRateError, match="I\\(U1,U2;S\\)"):
            layered_payoff(erasure_game, lscheme, rate, b_knows_state=False)


def _late_second_layer():
    """U1 = S and U2 a fair coin per (u1, s) that picks A's action.  An
    ignorant B decodes U1 at alpha1 = 1, after U2's alpha2 = rate - 1."""
    p_u1 = ConditionalDistribution(np.eye(2))
    p_u2 = ConditionalDistribution(np.full((4, 2), 0.5))
    p_a = ConditionalDistribution(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                            [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    return LayeredScheme(p_u1_given_s=p_u1, p_u2_given_u1_s=p_u2,
                         p_a_given_u1_u2=p_a)


def test_layered_no_benefit_flag(erasure_game):
    """A covered ignorant-B scheme whose second layer is decoded before its
    first claims no payoff."""
    lscheme = _late_second_layer()
    for rate in np.linspace(1.0, 1.6, 7):
        result = layered_payoff(erasure_game, lscheme, rate, b_knows_state=False)
        assert result.no_benefit and np.isnan(result.payoff)
        assert result.alpha1 > result.alpha2


def test_layered_infeasible_rate(erasure_game):
    lscheme = _nondegenerate_layered()
    with pytest.raises(InfeasibleRateError):
        layered_payoff(erasure_game, lscheme, 0.01, b_knows_state=False)


def test_layered_informed_needs_covering(erasure_game):
    lscheme = _nondegenerate_layered()
    joint = lscheme.joint(erasure_game.prior)
    from statehelper import JointDistribution, mutual_information
    i_u12_s = mutual_information(JointDistribution(joint.marginal((0, 1, 2))),
                                 (0,), (1, 2))
    with pytest.raises(InfeasibleRateError, match="I\\(U1,U2;S\\)"):
        layered_payoff(erasure_game, lscheme, i_u12_s - 0.01, b_knows_state=True)
    result = layered_payoff(erasure_game, lscheme, i_u12_s + 0.01, True)
    assert np.isfinite(result.payoff)


def test_degenerate_rd_endpoints():
    assert degenerate_rd_payoff(0.0) == -0.5
    assert degenerate_rd_payoff(1.0) == 0.0
    assert degenerate_rd_rate(0.0) == 1.0
    assert abs(degenerate_rd_rate(-0.5)) < 1e-12
    for rate in np.linspace(0.05, 0.95, 19):
        assert abs(degenerate_rd_rate(degenerate_rd_payoff(rate)) - rate) < 1e-9
    with pytest.raises(ContractViolationError):
        degenerate_rd_rate(0.2)


def test_alpha_endpoint_consistency():
    rng = np.random.default_rng(41)
    for _ in range(30):
        game = random_game(rng, n_states=2, n_actions_a=2, n_actions_b=2)
        scheme = random_scheme(rng, n_states=2, card_u=2, n_actions=2)
        stats = scheme_statistics(game, scheme)
        # at the lower corner of the informed rate range alpha is 0
        p0 = theorem1_payoff(game, scheme, stats.i_us, b_knows_state=True)
        assert p0.alpha < 1e-9 or stats.i_ua_given_s < 1e-9
        # far beyond the information content alpha saturates at 1
        p1 = theorem1_payoff(game, scheme, stats.i_us + stats.i_ua_given_s + 5.0,
                             b_knows_state=True)
        assert abs(p1.alpha - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# the statistics kernel and the optimizer objective

SETTINGS = settings(max_examples=150, deadline=None)
STATS_FIELDS = tuple(SchemeStats.__dataclass_fields__)


def _pmf(weights):
    weights = np.asarray(weights, dtype=float)
    return weights / weights.sum()


@st.composite
def games_and_schemes(draw, shape=None):
    """|S|, |U|, |A|, |B| in 1..4 (or the given shape) with zero-prior states,
    U symbols no state reaches, rows with zero entries and forbidden (-1e6)
    payoffs."""
    ns, nu, na, nb = shape or (draw(st.integers(1, 4)) for _ in range(4))

    def row(size, alive=None):
        weights = np.array(draw(st.lists(st.integers(0, 4), min_size=size,
                                         max_size=size)), dtype=float)
        if alive is not None:
            weights[~alive] = 0.0
        if not weights.any():
            weights[np.flatnonzero(alive)[0] if alive is not None else 0] = 1.0
        return _pmf(weights)

    alive = np.array(draw(st.lists(st.booleans(), min_size=nu, max_size=nu)))
    alive[0] = True
    cell = st.one_of(st.just(FORBIDDEN), st.floats(-3.0, 3.0))
    payoff = np.array(draw(st.lists(cell, min_size=na * nb * ns,
                                    max_size=na * nb * ns))).reshape(na, nb, ns)
    game = Game(states=tuple(str(s) for s in range(ns)), prior=row(ns),
                actions_a=tuple(f"a{a}" for a in range(na)),
                actions_b=tuple(f"b{b}" for b in range(nb)),
                payoff=payoff, neg_inf_value=FORBIDDEN)
    scheme = Scheme(
        ConditionalDistribution(np.stack([row(nu, alive) for _ in range(ns)])),
        ConditionalDistribution(np.stack([row(na) for _ in range(nu)])))
    return game, scheme


@st.composite
def joint_stacks(draw):
    """A game and the (s, u, a) joints of 1-4 schemes on it, each drawn as
    games_and_schemes draws one, so single live states come up too."""
    game, scheme = draw(games_and_schemes())
    shape = (game.n_states, scheme.card_u, game.n_actions_a, game.n_actions_b)
    schemes = [scheme] + [draw(games_and_schemes(shape))[1]
                          for _ in range(draw(st.integers(0, 3)))]
    return game, np.stack([_joint_mass(game.prior, s.p_u_given_s.rows,
                                       s.p_a_given_u.rows) for s in schemes])


def _reference_stats(game, scheme):
    """The Theorem-1 inputs through JointDistribution marginals, one
    information measure and one best-response minimum at a time."""
    joint = scheme.joint(game.prior)  # axes (s, u, a)
    pays = {name: min_payoff_given_observation(
                joint.mass, game.payoff, a_axis=2, s_axis=0, observed_axes=observed)
            for name, observed in (("pi_low", ()), ("pi_low_s", (0,)),
                                   ("pi_low_u", (1,)), ("pi_low_su", (0, 1)))}
    return SchemeStats(
        i_us=mutual_information(JointDistribution(joint.marginal((0, 1))),
                                (0,), (1,)),
        i_usa=mutual_information(joint, (1,), (0, 2)),
        i_ua_given_s=conditional_mutual_information(joint, (1,), (2,), (0,)),
        **pays)


def _close(x, y, tol=1e-12):
    """Within tol, relative to the size of the numbers once they pass 1."""
    return abs(x - y) <= tol * max(1.0, abs(y))


@SETTINGS
@given(games_and_schemes())
def test_property_kernel_matches_reference(pair):
    game, scheme = pair
    stats, ref = scheme_statistics(game, scheme), _reference_stats(game, scheme)
    for name in STATS_FIELDS:
        assert _close(getattr(stats, name), getattr(ref, name)), name


@st.composite
def forbidden_games_and_schemes(draw):
    """games_and_schemes with its forbidden cells, and one more cell, given
    as -inf, under the default neg_inf_value or a drawn one."""
    game, scheme = draw(games_and_schemes())
    payoff = np.where(game.payoff == FORBIDDEN, -np.inf, game.payoff)
    payoff.flat[draw(st.integers(0, payoff.size - 1))] = -np.inf
    custom = draw(st.one_of(st.none(), st.floats(-1e9, -3.0)))
    return Game(game.states, game.prior, game.actions_a, game.actions_b, payoff,
                **({} if custom is None else {"neg_inf_value": custom})), scheme


@SETTINGS
@given(forbidden_games_and_schemes())
def test_property_statistics_survive_the_game_round_trip(pair):
    """serialize_game -> parse_game keeps every -inf cell, so the statistics
    kernel gives the same bits in every field."""
    game, scheme = pair
    again = parse_game(serialize_game(game))
    before, after = scheme_statistics(game, scheme), scheme_statistics(again, scheme)
    for name in STATS_FIELDS:
        assert (np.float64(getattr(after, name)).tobytes()
                == np.float64(getattr(before, name)).tobytes()), name


def _attains_minimum(best, terms):
    """Whether pure action `best` attains min_b sum(terms[b]), each sum exact,
    within a few ulps of the terms' magnitude."""
    totals = [math.fsum(row) for row in terms.reshape(terms.shape[0], -1)]
    slack = 1e-12 * (1.0 + np.abs(terms).sum())
    return totals[best] <= min(totals) + slack


@SETTINGS
@given(games_and_schemes())
def test_property_best_response_kernel(pair):
    """B's minimum per observation cell from the one kernel is the reference
    minimum under each observation pattern, and each simulator best response
    attains a brute-force minimum."""
    game, scheme = pair
    m = scheme.joint(game.prior).mass  # (s, u, a)
    m_us = m.swapaxes(0, 1)
    cells = {(): payoff_against_pure(m.sum(axis=1), game.payoff, False),
             (0,): payoff_against_pure(m.sum(axis=1), game.payoff, True),
             (1,): payoff_against_pure(m_us, game.payoff, False),
             (0, 1): payoff_against_pure(m_us, game.payoff, True)}
    for observed, w in cells.items():
        ref = min_payoff_given_observation(m, game.payoff, a_axis=2, s_axis=0,
                                           observed_axes=observed)
        assert _close(float(w.min(axis=-1).sum()), ref, tol=1e-9), observed

    tables = _SchemeTables(game, scheme)
    payoff, pa = game.payoff.transpose(1, 0, 2), scheme.p_a_given_u.rows  # (b, a, s)
    ns, nu = tables.marginal_br.shape[1], tables.decoded_br.shape[2]
    blind = tables.marginal_br[0]
    assert (blind == blind[0]).all()
    assert _attains_minimum(blind[0], tables.joint_sa.T * payoff)
    for s in range(ns):
        assert _attains_minimum(tables.marginal_br[1, s],
                                tables.p_a_given_s[s] * payoff[:, :, s])
        for u in range(nu):
            assert tables.decoded_br[0, s, u] == tables.decoded_br[0, 0, u]
            assert _attains_minimum(
                tables.decoded_br[0, s, u],
                np.outer(pa[u], tables.p_s_given_u[u]) * payoff)
            assert _attains_minimum(tables.decoded_br[1, s, u],
                                    pa[u] * payoff[:, :, s])


@SETTINGS
@given(games_and_schemes(), st.floats(0.0, 3.0), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_property_objective_on_rows_matches_scheme_path(pair, rate, informed, seed):
    game, scheme = pair

    def objective(p_u_s, p_a_u):  # what the optimizer evaluates
        m = game.prior[:, None, None] * p_u_s[:, :, None] * p_a_u[None]
        return _penalized_payoff(_stats_kernel(m, game.payoff), rate, informed)

    def checked(s):  # what picks and certifies the winner
        return _penalized_payoff(scheme_statistics(game, s), rate, informed)

    assert objective(scheme.p_u_given_s.rows, scheme.p_a_given_u.rows) \
        == checked(scheme)
    # raw softmax rows: ConditionalDistribution renormalizes each row, which
    # can move it by an ulp
    ns, nu, na = game.n_states, scheme.card_u, game.n_actions_a
    theta = np.random.default_rng(seed).normal(0.0, 3.0, ns * nu + nu * na)
    assert _close(objective(*_softmax_rows(theta, ns, nu, na)),
                  checked(_scheme_from_logits(theta, ns, nu, na)))


@SETTINGS
@given(joint_stacks())
def test_property_kernel_on_a_stack_is_the_kernel_on_each_joint(drawn):
    game, stack = drawn
    batched = _stats_kernel(stack, game.payoff)
    deeper = _stats_kernel(stack[None], game.payoff)  # two batch axes
    for k, m in enumerate(stack):
        alone = _stats_kernel(m, game.payoff)
        for name in STATS_FIELDS:
            value = getattr(alone, name)
            assert isinstance(value, float), name
            bits = np.float64(value).tobytes()
            assert np.float64(getattr(batched, name)[k]).tobytes() == bits, name
            assert np.float64(getattr(deeper, name)[0, k]).tobytes() == bits, name


def test_scheme_statistics_rejects_mismatched_cardinalities(erasure_game):
    three_states = Scheme.constant_u(np.array([0.0, 1.0, 0.0]), 3)
    with pytest.raises(ContractViolationError):
        scheme_statistics(erasure_game, three_states)
    two_actions = Scheme.constant_u(np.array([0.5, 0.5]), 2)
    with pytest.raises(ContractViolationError):
        scheme_statistics(erasure_game, two_actions)


def test_optimize_bound_checks_only_start_points(monkeypatch, erasure_game):
    """The search evaluates the kernel on batches of points; the checked
    statistics run twice per start point (its start and its optimum) and once
    for the winner."""
    calls = {"stats": 0, "starts": 0, "evaluations": 0}
    checked = rate_value.scheme_statistics
    kernel, nelder_mead = rate_value._stats_kernel, rate_value._nelder_mead

    def counting_stats(game, scheme):
        calls["stats"] += 1
        return checked(game, scheme)

    def counting_kernel(m, payoff):
        calls["evaluations"] += int(np.prod(m.shape[:-3]))
        return kernel(m, payoff)

    def counting_nelder_mead(fun, x0, *args, **kwargs):
        calls["starts"] += len(x0)
        return nelder_mead(fun, x0, *args, **kwargs)

    monkeypatch.setattr(rate_value, "scheme_statistics", counting_stats)
    monkeypatch.setattr(rate_value, "_stats_kernel", counting_kernel)
    monkeypatch.setattr(rate_value, "_nelder_mead", counting_nelder_mead)
    for informed in (True, False):
        calls.update(stats=0, starts=0, evaluations=0)
        optimize_bound(erasure_game, 0.7, informed, card_u=3,
                       search=BoundSearch(restarts=4, iterations=60))
        assert calls["starts"] == 4
        assert calls["stats"] <= 2 * calls["starts"] + 1
        assert calls["evaluations"] > calls["stats"]


def _nelder_mead_problems(n):
    """Per-row test functions the batch evaluates exactly as scipy's single
    points: convex quadratics, Rosenbrock, sum |x_i - c_i| with integer
    centres and starts (ties), and a dead-zone sum max(|x_i - c_i| - 1/2, 0)
    whose flat bottom forces shrink steps."""
    rng = np.random.default_rng(11)
    kinds = np.repeat(["quadratic", "rosenbrock", "absolute", "dead-zone"], 6)
    centres = rng.integers(-2, 3, size=(kinds.size, n)).astype(float)
    weights = rng.uniform(0.5, 3.0, size=(kinds.size, n))
    x0 = rng.normal(0.0, 2.0, size=(kinds.size, n))
    x0[kinds == "absolute"] = rng.integers(-2, 3, size=(6, n))
    x0[:, 0][::5] = 0.0  # zero coordinates take scipy's zdelt step

    def fun(x, rows):
        out = np.empty(len(rows))
        for kind in np.unique(kinds):
            sel = kinds[rows] == kind
            y, d = x[sel], x[sel] - centres[rows[sel]]
            if kind == "quadratic":
                out[sel] = (weights[rows[sel]] * d ** 2).sum(axis=-1) + d.sum(axis=-1) ** 2
            elif kind == "rosenbrock":
                out[sel] = (100.0 * (y[:, 1:] - y[:, :-1] ** 2) ** 2
                            + (1.0 - y[:, :-1]) ** 2).sum(axis=-1)
            elif kind == "absolute":
                out[sel] = np.abs(d).sum(axis=-1)
            else:
                out[sel] = np.maximum(np.abs(d) - 0.5, 0.0).sum(axis=-1)
        return out

    return fun, x0


def _assert_scipy_row_by_row(fun, x0, maxiter, xatol, fatol):
    """The lockstep result, checked against one scipy run per row."""
    x, fval, nit, nfev = _nelder_mead(fun, x0, maxiter, xatol, fatol)
    for r in range(len(x0)):
        res = minimize(lambda t: fun(t[None], np.array([r]))[0], x0[r],
                       method="Nelder-Mead",
                       options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
        assert np.array_equal(res.x, x[r]), r
        assert (res.fun, res.nit, res.nfev) == (fval[r], nit[r], nfev[r]), r
    return nit, nfev


def test_lockstep_nelder_mead_is_scipy_row_by_row():
    n, maxiter = 3, 120
    fun, x0 = _nelder_mead_problems(n)
    assert (x0 == 0).any()
    nit, nfev = _assert_scipy_row_by_row(fun, x0, maxiter, 1e-4, 1e-4)
    assert (nit < maxiter).any() and (nit == maxiter).any()
    # every iteration makes one or two evaluations unless it shrinks
    assert (nfev > n + 1 + 2 * (nit - 1)).any()


def test_lockstep_nelder_mead_orders_ties_as_scipy():
    """Above 16 vertices numpy's argsort does not keep ties in order; the
    integer starts of the |x_i - c_i| rows tie most of their first simplex."""
    n = 17
    fun, x0 = _nelder_mead_problems(n)
    unstable = 0
    for r in range(len(x0)):
        first = np.repeat(x0[r][None], n + 1, axis=0)
        first[np.arange(n) + 1, np.arange(n)] = np.where(x0[r] != 0, 1.05 * x0[r], 0.00025)
        f = fun(first, np.full(n + 1, r))
        unstable += (np.argsort(f) != np.argsort(f, kind="stable")).any()
    assert unstable > 0
    _assert_scipy_row_by_row(fun, x0, 60, 1e-4, 1e-4)


# ---------------------------------------------------------------------------
# zero-mass symbols and degenerate layers


@SETTINGS
@given(games_and_schemes())
def test_property_zero_mass_symbols(pair):
    game, scheme = pair
    p_u = scheme.p_u(game.prior)
    rows = scheme.p_s_given_u(game.prior).rows
    dead = p_u <= 0
    assert np.array_equal(rows[dead], np.full((dead.sum(), game.n_states),
                                              1.0 / game.n_states))
    live = game.prior[:, None] * scheme.p_u_given_s.rows[:, ~dead] / p_u[~dead]
    assert np.allclose(rows[~dead], live.T, rtol=0.0, atol=1e-12)
    stats = scheme_statistics(game, scheme)
    assert all(np.isfinite(getattr(stats, name)) for name in STATS_FIELDS)


def _marginalized_scheme(lscheme: LayeredScheme, prior, drop_layer: int) -> Scheme:
    """Collapse a degenerate layer; only valid when that layer carries no information."""
    joint = lscheme.joint(prior).mass  # (s, u1, u2, a)
    if drop_layer == 2:
        keep = joint.sum(axis=2)  # (s, u1, a)
    else:
        keep = joint.sum(axis=1)  # (s, u2, a)
    p_su = keep.sum(axis=2)  # (s, u)
    p_s = p_su.sum(axis=1)
    p_u = p_su.sum(axis=0)
    p_ua = keep.sum(axis=0)  # (u, a)
    nu, na = p_ua.shape
    # zero-mass states and symbols carry no joint mass; give them uniform rows
    with np.errstate(divide="ignore", invalid="ignore"):
        p_u_given_s = np.where(p_s[:, None] > 0, p_su / p_s[:, None], 1.0 / nu)
        p_a_given_u = np.where(p_u[:, None] > 0, p_ua / p_u[:, None], 1.0 / na)
    return Scheme(ConditionalDistribution(p_u_given_s),
                  ConditionalDistribution(p_a_given_u))


def _merged_scheme(lscheme: LayeredScheme) -> Scheme:
    """The layered scheme as a single-auxiliary one with U = (U1, U2)."""
    ns, n1, n2 = (lscheme.p_u1_given_s.from_size, lscheme.card_u1,
                  lscheme.card_u2)
    p2 = lscheme.p_u2_given_u1_s.rows.reshape(n1, ns, n2)
    p_u_s = np.einsum("su,usv->suv", lscheme.p_u1_given_s.rows, p2)
    return Scheme(ConditionalDistribution(p_u_s.reshape(ns, n1 * n2)),
                  ConditionalDistribution(lscheme.p_a_given_u1_u2.rows))


def _constant_layer(scheme, n_states, layer):
    """The scheme as a layered one whose U1 or U2 layer is constant."""
    rows_u, rows_a = scheme.p_u_given_s.rows, scheme.p_a_given_u.rows
    if layer == 2:
        return LayeredScheme(
            p_u1_given_s=ConditionalDistribution(rows_u),
            p_u2_given_u1_s=ConditionalDistribution(
                np.ones((scheme.card_u * n_states, 1))),
            p_a_given_u1_u2=ConditionalDistribution(rows_a))
    return LayeredScheme(p_u1_given_s=ConditionalDistribution(np.ones((n_states, 1))),
                         p_u2_given_u1_s=ConditionalDistribution(rows_u),
                         p_a_given_u1_u2=ConditionalDistribution(rows_a))


def test_degenerate_layer_with_zero_prior_state():
    """A state of prior 0 has no p(u|s) row to recover; the reduction must
    not turn it into NaN."""
    game = Game(states=("0", "1"), prior=np.array([1.0, 0.0]),
                actions_a=("a0", "a1"), actions_b=("b0", "b1"),
                payoff=np.array([[[1.0, 0.0], [0.0, 1.0]],
                                 [[0.0, 1.0], [1.0, 0.0]]]))
    scheme = Scheme(ConditionalDistribution(np.array([[0.5, 0.5], [0.5, 0.5]])),
                    ConditionalDistribution(np.eye(2)))
    for layer in (1, 2):
        result = layered_payoff(game, _constant_layer(scheme, 2, layer), 0.5, True)
        base = theorem1_payoff(game, scheme, 0.5, True)
        assert abs(result.payoff - base.payoff) <= 1e-12


@SETTINGS
@given(games_and_schemes(), st.sampled_from((1, 2)), st.floats(0.0, 3.0),
       st.booleans())
def test_property_degenerate_layer_reduces_to_theorem1(pair, layer, rate, informed):
    game, scheme = pair
    if layer == 1:  # layered_payoff drops the constant U1 only when U2 carries
        assume(scheme_statistics(game, scheme).i_usa > 1e-6)
    lscheme = _constant_layer(scheme, game.n_states, layer)
    reduced = _marginalized_scheme(lscheme, game.prior, layer)
    try:
        expected = theorem1_payoff(game, reduced, rate, informed)
    except InfeasibleRateError:
        with pytest.raises(InfeasibleRateError):
            layered_payoff(game, lscheme, rate, informed)
        return
    result = layered_payoff(game, lscheme, rate, informed)
    assert _close(result.payoff, expected.payoff)
    assert abs(result.alpha2 - expected.alpha) <= 1e-12
    # one threshold: a degenerate second layer is decoded with the first
    assert result.alpha1 == (result.alpha2 if layer == 2 else 0.0)


def test_degenerate_first_layer_is_theorem1_on_both_layers(erasure_game):
    """U1 a fair coin, U2 = (S xor U1, N) with N a fair coin, and A the
    state-matching action when N = 0, else e.  U1 alone says nothing about
    (S, A), but together with U2 it reveals S.  The bound is Theorem 1 on
    U = (U1, U2), which needs a full bit to cover the state and is decoded
    at alpha = R / I(U1,U2;S,A) = R / 2 by an ignorant B.  U2 alone has
    I(U2;S,A) = 1, so reducing to it would claim alpha = 1 and payoff 1.0
    at rate 1 instead of 0.5."""
    p_u2 = np.zeros((4, 4))
    p_a = np.zeros((8, 3))
    for u1 in range(2):
        for s in range(2):
            p_u2[u1 * 2 + s, 2 * (s ^ u1):2 * (s ^ u1) + 2] = 0.5
        for u2 in range(4):
            state, n = u1 ^ (u2 // 2), u2 % 2
            p_a[u1 * 4 + u2, 1 if n else 2 * state] = 1.0
    lscheme = LayeredScheme(p_u1_given_s=ConditionalDistribution(np.full((2, 2), 0.5)),
                            p_u2_given_u1_s=ConditionalDistribution(p_u2),
                            p_a_given_u1_u2=ConditionalDistribution(p_a))
    for informed in (True, False):
        with pytest.raises(InfeasibleRateError, match="I\\(U1,U2;S\\)"):
            layered_payoff(erasure_game, lscheme, 0.5, informed)
        for rate in (1.0, 1.5):
            base = theorem1_payoff(erasure_game, _merged_scheme(lscheme), rate, informed)
            result = layered_payoff(erasure_game, lscheme, rate, informed)
            assert result.alpha1 == 0.0
            assert _close(result.payoff, base.payoff)
            assert abs(result.alpha2 - base.alpha) <= 1e-12
    result = layered_payoff(erasure_game, lscheme, 1.0, False)
    assert abs(result.alpha2 - 0.5) < 1e-12 and abs(result.payoff - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# layered_payoff against the measure-by-measure formulas

LAYER_DEGENERATE = 1e-9


@st.composite
def games_and_layered_schemes(draw):
    """|S|, |U1|, |U2|, |A|, |B| in 1..3 (a one-symbol layer is constant)
    with zero-prior states, symbols of zero mass and forbidden payoffs.  Two
    kinds of draw keep both layers and A non-constant, and one of them takes
    U1 = S, so that alpha1 = 1 and the second layer can come too early."""
    kind = draw(st.sampled_from(("any", "two_layers", "u1_is_s")))
    ns, n1, n2, na, nb = (draw(st.integers(1, 3)) for _ in range(5))
    if kind != "any":
        n1, n2, na = (draw(st.integers(2, 3)) for _ in range(3))
    if kind == "u1_is_s":
        n1 = ns

    def rows(count, size):
        weights = np.array(draw(st.lists(st.integers(0, 4), min_size=count * size,
                                         max_size=count * size)),
                           dtype=float).reshape(count, size)
        weights[~weights.any(axis=1), 0] = 1.0
        return weights / weights.sum(axis=1, keepdims=True)

    cell = st.one_of(st.just(FORBIDDEN), st.floats(-3.0, 3.0))
    payoff = np.array(draw(st.lists(cell, min_size=na * nb * ns,
                                    max_size=na * nb * ns))).reshape(na, nb, ns)
    game = Game(states=tuple(str(s) for s in range(ns)), prior=rows(1, ns)[0],
                actions_a=tuple(f"a{a}" for a in range(na)),
                actions_b=tuple(f"b{b}" for b in range(nb)),
                payoff=payoff, neg_inf_value=FORBIDDEN)
    lscheme = LayeredScheme(
        p_u1_given_s=ConditionalDistribution(
            np.eye(ns) if kind == "u1_is_s" else rows(ns, n1)),
        p_u2_given_u1_s=ConditionalDistribution(rows(n1 * ns, n2)),
        p_a_given_u1_u2=ConditionalDistribution(rows(n1 * n2, na)))
    return game, lscheme


def _reference_layered(game, lscheme, rate, informed):
    """layered_payoff through five JointDistribution measures, three
    best-response minima and rebuilt single-auxiliary schemes, under the one
    I(U1,U2;S) covering rule.

    Returns the result and a record of the five measures, the denominators
    of alpha1 and alpha2 (inf where the threshold is fixed), the largest
    functional in absolute value and, for three phases, the unclamped
    alpha2."""
    joint = lscheme.joint(game.prior)  # (s, u1, u2, a)
    i = dict(
        u1_s=mutual_information(JointDistribution(joint.marginal((0, 1))), (0,), (1,)),
        u1_sa=mutual_information(JointDistribution(joint.marginal((0, 1, 3))),
                                 (1,), (0, 2)),
        u2_sa_given_u1=conditional_mutual_information(joint, (2,), (0, 3), (1,)),
        u12_s=mutual_information(JointDistribution(joint.marginal((0, 1, 2))),
                                 (0,), (1, 2)),
        u2_a_given_u1s=conditional_mutual_information(joint, (2,), (3,), (0, 1)))

    def reduced(scheme, first_layer_too):
        point = theorem1_payoff(game, scheme, rate, informed)
        stats = scheme_statistics(game, scheme)
        den = stats.i_ua_given_s if informed else stats.i_usa
        i.update(den1=den if first_layer_too else np.inf, den2=den,
                 fmax=max(abs(stats.pi_low_s), abs(stats.pi_low_su)) if informed
                 else max(abs(stats.pi_low), abs(stats.pi_low_u)))
        alpha1 = point.alpha if first_layer_too else 0.0
        return LayeredPayoffResult(point.payoff, alpha1, point.alpha), i

    if i["u2_sa_given_u1"] <= LAYER_DEGENERATE:
        return reduced(_marginalized_scheme(lscheme, game.prior, 2), True)
    if i["u12_s"] - rate > RATE_TOL:
        raise InfeasibleRateError("below I(U1,U2;S)")
    if i["u1_sa"] <= LAYER_DEGENERATE:
        return reduced(_merged_scheme(lscheme), False)
    base = (0,) if informed else ()
    f = [min_payoff_given_observation(joint.mass, game.payoff, a_axis=3, s_axis=0,
                                      observed_axes=base + extra)
         for extra in ((), (1,), (1, 2))]
    if informed:
        alpha1, den1, den2 = 0.0, np.inf, i["u2_a_given_u1s"]
        raw = (rate - i["u12_s"]) / den2 if den2 > INFO_TOL else np.inf
    else:
        den1, den2 = i["u1_sa"], i["u2_sa_given_u1"]
        alpha1 = min(i["u1_s"] / den1, 1.0)
        raw = (rate - i["u1_s"]) / den2
    i.update(den1=den1, den2=den2, raw=raw, fmax=max(abs(v) for v in f))
    alpha2 = min(max(raw, 0.0), 1.0)
    if alpha1 > alpha2:
        return LayeredPayoffResult(np.nan, alpha1, alpha2, True, raw > 1.0), i
    payoff = alpha1 * f[0] + (alpha2 - alpha1) * f[1] + (1 - alpha2) * f[2]
    return LayeredPayoffResult(payoff, alpha1, alpha2, False, raw > 1.0), i


def _near(x, edge, tol=1e-12):
    return abs(x - edge) <= tol


def _ratio_tol(den):
    """Error of a threshold whose numerator and denominator are each good to
    1e-12: a small denominator amplifies it (none below INFO_TOL, where the
    threshold is fixed)."""
    return 1e-12 * max(1.0, 1.0 / den) if den > INFO_TOL else 1e-12


@settings(max_examples=300, deadline=None)
@given(games_and_layered_schemes(), st.booleans(),
       st.sampled_from(("free", "u1_s", "u12_s")),
       st.sampled_from((-0.01, 0.0, 1e-6, 0.05, 0.5)), st.floats(0.0, 3.0))
def test_property_layered_matches_reference(pair, informed, anchor, offset, free_rate):
    """Same flags and exceptions as the measure-by-measure formulas, and the
    same numbers once their 1e-12 agreement is carried through the threshold
    ratios; at free rates and at rates on the covering edges."""
    game, lscheme = pair
    _, i = _reference_layered(game, lscheme, 3.0, informed)
    rate = free_rate if anchor == "free" else max(i[anchor] + offset, 0.0)
    for value in (i["u2_sa_given_u1"], i["u1_sa"]):
        assume(not _near(value, LAYER_DEGENERATE))
    for cover in (i["u1_s"], i["u12_s"]):
        assume(not _near(cover - rate, RATE_TOL, 1e-13))
    try:
        expected, i = _reference_layered(game, lscheme, rate, informed)
    except InfeasibleRateError:
        with pytest.raises(InfeasibleRateError):
            layered_payoff(game, lscheme, rate, informed)
        return
    for den in (i["den1"], i["den2"]):
        assume(not _near(den, INFO_TOL, 1e-13))
    tol1, tol2 = _ratio_tol(i["den1"]), _ratio_tol(i["den2"])
    if "raw" in i:  # three phases: the flags compare thresholds
        assume(not _near(expected.alpha1, expected.alpha2, tol1 + tol2))
        assume(not _near(i["raw"], 1.0, tol2))
    result = layered_payoff(game, lscheme, rate, informed)
    assert result.no_benefit == expected.no_benefit
    assert result.alpha2_exceeds_block == expected.alpha2_exceeds_block
    assert _near(result.alpha1, expected.alpha1, tol1)
    assert _near(result.alpha2, expected.alpha2, tol2)
    if expected.no_benefit:
        assert np.isnan(result.payoff)
    else:
        slack = 2 * (tol1 + tol2) * i["fmax"]
        assert _near(result.payoff, expected.payoff,
                     1e-12 * max(1.0, abs(expected.payoff)) + slack)


def test_layered_fixed_schemes_match_reference(erasure_game):
    for lscheme in (_nondegenerate_layered(), _late_second_layer()):
        _, i = _reference_layered(erasure_game, lscheme, 3.0, True)
        for informed in (True, False):
            for rate in i["u12_s"] + np.array([0.0, 0.05, 0.3, 1.0]):
                expected, _ = _reference_layered(erasure_game, lscheme, rate, informed)
                result = layered_payoff(erasure_game, lscheme, rate, informed)
                assert result.no_benefit == expected.no_benefit
                assert _close(result.alpha1, expected.alpha1)
                assert _close(result.alpha2, expected.alpha2)
                assert np.isnan(result.payoff) == expected.no_benefit
                if not expected.no_benefit:
                    assert _close(result.payoff, expected.payoff)


def test_layered_payoff_calls_no_generic_measure(monkeypatch, erasure_game,
                                                 optimal_scheme):
    """Every layered quantity comes from the statistics kernel."""
    from statehelper import game_core, info_measures

    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    for module in (rate_value, info_measures, game_core):
        for name in ("mutual_information", "conditional_mutual_information",
                     "min_payoff_given_observation"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    schemes = (_nondegenerate_layered(), _late_second_layer(),
               _constant_layer(optimal_scheme, 2, 1),
               _constant_layer(optimal_scheme, 2, 2))
    for lscheme in schemes:
        for informed in (True, False):
            layered_payoff(erasure_game, lscheme, 1.6, informed)
    assert calls == []
