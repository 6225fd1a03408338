"""Shared fixtures: reference games, schemes, and randomized generators."""

import numpy as np
import pytest
from hypothesis import settings

from statehelper import ConditionalDistribution, Game, Scheme

# A failing property prints its @reproduce_failure blob, so a CI failure can
# be replayed.  Loaded here, before any test module builds its settings
# (which start from the loaded profile); examples, counts and deadlines stay
# hypothesis's defaults.
settings.register_profile("statehelper", print_blob=True)
settings.load_profile("statehelper")

FORBIDDEN = -1e6


def make_erasure_game():
    """Binary-state game with a safe middle action and two risky ones.

    Player A's actions are (0, e, 1); playing the wrong endpoint action for
    the state is forbidden (payoff neg_inf_value).
    """
    payoff = np.zeros((3, 2, 2))
    payoff[:, :, 0] = [[3.0, 0.0], [0.0, 1.0], [FORBIDDEN, FORBIDDEN]]
    payoff[:, :, 1] = [[FORBIDDEN, FORBIDDEN], [1.0, 0.0], [0.0, 3.0]]
    return Game(states=("0", "1"), prior=np.array([0.5, 0.5]),
                actions_a=("0", "e", "1"), actions_b=("0", "1"),
                payoff=payoff, neg_inf_value=FORBIDDEN)


def make_optimal_erasure_scheme():
    """The three-symbol helper scheme attaining the erasure game's bound."""
    return Scheme(
        p_u_given_s=ConditionalDistribution(
            np.array([[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])),
        p_a_given_u=ConditionalDistribution(
            np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0]])))


def make_fig1_game():
    # single state, diagonal-dominant 2x2 matrix with value 3/4
    payoff = np.array([[3.0, 0.0], [0.0, 1.0]])[:, :, None]
    return Game(states=("s",), prior=np.array([1.0]),
                actions_a=("t", "b"), actions_b=("l", "r"), payoff=payoff)


def make_degenerate_game():
    """State-matching game: B has one action, A pays -1 for a mismatch."""
    payoff = np.array([[[0.0, -1.0]], [[-1.0, 0.0]]])
    return Game(states=("0", "1"), prior=np.array([0.5, 0.5]),
                actions_a=("0", "1"), actions_b=("pass",), payoff=payoff)


def random_game(rng, n_states=2, n_actions_a=2, n_actions_b=2, spread=2.0):
    payoff = rng.uniform(-spread, spread, size=(n_actions_a, n_actions_b, n_states))
    prior = rng.dirichlet(np.ones(n_states))
    states = tuple(str(s) for s in range(n_states))
    return Game(states=states, prior=prior,
                actions_a=tuple(f"a{i}" for i in range(n_actions_a)),
                actions_b=tuple(f"b{i}" for i in range(n_actions_b)),
                payoff=payoff)


def random_scheme(rng, n_states=2, card_u=2, n_actions=2, concentration=1.0):
    pu = rng.dirichlet(np.full(card_u, concentration), size=n_states)
    pa = rng.dirichlet(np.full(n_actions, concentration), size=card_u)
    return Scheme(ConditionalDistribution(pu), ConditionalDistribution(pa))


def random_joint(rng, shape, concentration=1.0):
    mass = rng.dirichlet(np.full(int(np.prod(shape)), concentration))
    return mass.reshape(shape)


@pytest.fixture
def erasure_game():
    return make_erasure_game()


@pytest.fixture
def optimal_scheme():
    return make_optimal_erasure_scheme()


@pytest.fixture
def fig1_game():
    return make_fig1_game()


@pytest.fixture
def degenerate_game():
    return make_degenerate_game()
