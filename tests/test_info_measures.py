"""Entropy, mutual information, and the common-information search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statehelper import (
    CommonInfoSearch,
    ContractViolationError,
    InfeasibleDecompositionError,
    JointDistribution,
    binary_entropy,
    conditional_mutual_information,
    entropy,
    inverse_binary_entropy,
    mutual_information,
    wyner_common_information,
)

from conftest import make_erasure_game, make_optimal_erasure_scheme, random_joint

SETTINGS = settings(max_examples=25, deadline=None)


def test_entropy_anchors():
    assert entropy([1.0]) == 0.0
    assert abs(entropy([0.5, 0.5]) - 1.0) < 1e-12
    assert abs(entropy([0.25] * 4) - 2.0) < 1e-12
    assert abs(entropy([0.5, 0.25, 0.25]) - 1.5) < 1e-12


def test_binary_entropy_anchors():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-12
    assert abs(binary_entropy(0.25) - 0.8112781244591328) < 1e-12
    with pytest.raises(ContractViolationError):
        binary_entropy(1.2)


def test_inverse_binary_entropy_round_trip():
    # near p = 1/2 the entropy curve is flat, so compare entropies there
    for p in np.linspace(0.0, 0.5, 26):
        q = inverse_binary_entropy(binary_entropy(p))
        assert abs(binary_entropy(q) - binary_entropy(p)) < 1e-9
        assert abs(q - p) < 1e-6
    assert abs(inverse_binary_entropy(1.0) - 0.5) < 1e-6
    assert inverse_binary_entropy(0.0) < 1e-9


def test_mutual_information_anchors():
    independent = JointDistribution(np.outer([0.3, 0.7], [0.5, 0.5]))
    assert mutual_information(independent, (0,), (1,)) == 0.0
    correlated = JointDistribution(np.diag([0.5, 0.5]))
    assert abs(mutual_information(correlated, (0,), (1,)) - 1.0) < 1e-12
    # I(S;A) of the erasure game's optimal scheme is 1/4 bit
    joint = make_optimal_erasure_scheme().joint(np.array([0.5, 0.5]))
    sa = JointDistribution(joint.marginal((0, 2)))
    assert abs(mutual_information(sa, (0,), (1,)) - 0.25) < 1e-12


def test_conditional_mutual_information_markov_chain():
    # S - U - A Markov means I(S;A|U) = 0
    scheme = make_optimal_erasure_scheme()
    joint = scheme.joint(np.array([0.5, 0.5]))
    assert conditional_mutual_information(joint, (0,), (2,), (1,)) < 1e-12
    # and I(U;A|S) for the same scheme is H(1/4) - 1/2
    value = conditional_mutual_information(joint, (1,), (2,), (0,))
    assert abs(value - (binary_entropy(0.25) - 0.5)) < 1e-12


def test_grouping_must_cover_axes():
    joint = JointDistribution(np.full((2, 2), 0.25))
    with pytest.raises(ContractViolationError):
        mutual_information(joint, (0,), (0, 1))


def test_chain_rule_identity():
    rng = np.random.default_rng(23)
    for _ in range(40):
        joint = JointDistribution(random_joint(rng, (2, 3, 2)))
        lhs = mutual_information(joint, (0,), (1, 2))
        rhs = (mutual_information(JointDistribution(joint.marginal((0, 1))),
                                  (0,), (1,))
               + conditional_mutual_information(joint, (0,), (2,), (1,)))
        assert abs(lhs - rhs) < 1e-9


def test_entropy_invariant_under_relabeling():
    rng = np.random.default_rng(29)
    for _ in range(20):
        p = rng.dirichlet(np.ones(5))
        assert abs(entropy(p) - entropy(p[rng.permutation(5)])) < 1e-12


def test_entropy_concavity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        lam = rng.uniform()
        mixed = lam * p + (1 - lam) * q
        assert entropy(mixed) >= lam * entropy(p) + (1 - lam) * entropy(q) - 1e-12


def test_common_information_product_joint():
    joint = JointDistribution(np.outer([0.4, 0.6], [0.3, 0.7]))
    result = wyner_common_information(joint, 2, CommonInfoSearch(restarts=12))
    assert result.value < 1e-6
    assert result.achieved_joint_error <= 1e-10


def test_common_information_perfect_correlation():
    joint = JointDistribution(np.diag([0.5, 0.5]))
    result = wyner_common_information(joint, 2, CommonInfoSearch(restarts=12))
    assert abs(result.value - 1.0) < 1e-6


def test_common_information_sandwich_on_erasure_joint():
    game = make_erasure_game()
    scheme = make_optimal_erasure_scheme()
    sa = JointDistribution(scheme.joint(game.prior).marginal((0, 2)))
    result = wyner_common_information(sa, 3, CommonInfoSearch(restarts=30))
    i_sa = mutual_information(sa, (0,), (1,))
    h_s = entropy(sa.mass.sum(axis=1))
    h_a = entropy(sa.mass.sum(axis=0))
    assert i_sa - 1e-9 <= result.value <= min(h_s, h_a) + 1e-9
    assert result.aux_cardinality == 3
    # the decomposition must reproduce the target joint
    recon = np.einsum("u,us,ua->sa", result.p_u, result.p_s_given_u.rows,
                      result.p_a_given_u.rows)
    assert 0.5 * np.abs(recon - sa.mass).sum() <= 1e-10


def test_common_information_rejects_bad_shapes():
    joint = JointDistribution(np.full((2, 2, 2), 0.125))
    with pytest.raises(ContractViolationError):
        wyner_common_information(joint, 2)


# ---------------------------------------------------------------------------
# the Wyner search on random joints with zero cells and zero-mass rows


def _reconstruction_error(result, mass):
    recon = np.einsum("u,us,ua->sa", result.p_u, result.p_s_given_u.rows,
                      result.p_a_given_u.rows)
    return 0.5 * np.abs(recon - mass).sum()


def _normalized(weights):
    weights = np.asarray(weights, dtype=float)
    return weights / weights.sum()


@st.composite
def sa_joints(draw):
    """(mass, |U|): a 2-3 x 2-3 joint, some cells and maybe a row at zero."""
    ns, na = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    cell = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    mass = np.array(draw(st.lists(cell, min_size=ns * na, max_size=ns * na)))
    mass = mass.reshape(ns, na)
    if draw(st.booleans()):
        mass[draw(st.integers(0, ns - 1))] = 0.0
    if mass.sum() == 0:
        mass[0, 0] = 1.0
    nu = min(ns, na) + draw(st.integers(0, 2))
    return _normalized(mass), nu


@SETTINGS
@given(sa_joints(), st.integers(0, 2**16))
def test_property_common_information_bounds(case, seed):
    mass, nu = case
    joint = JointDistribution(mass)
    result = wyner_common_information(joint, nu,
                                      CommonInfoSearch(restarts=16, seed=seed))
    i_sa = mutual_information(joint, (0,), (1,))
    h_s, h_a = entropy(mass.sum(axis=1)), entropy(mass.sum(axis=0))
    assert i_sa - 1e-12 <= result.value <= min(h_s, h_a) + 1e-12
    assert result.achieved_joint_error <= 1e-10
    assert _reconstruction_error(result, mass) <= 1e-10
    assert result.aux_cardinality == nu
    assert 1 <= result.restarts_near_best <= result.restarts_feasible \
        <= result.restarts_run


@settings(max_examples=10, deadline=None)
@given(sa_joints(), st.integers(0, 2**16))
def test_property_common_information_seed_determinism(case, seed):
    mass, nu = case
    search = CommonInfoSearch(restarts=8, seed=seed)
    first = wyner_common_information(JointDistribution(mass), nu, search)
    second = wyner_common_information(JointDistribution(mass), nu, search)
    assert first.value == second.value
    assert np.array_equal(first.p_u, second.p_u)


@SETTINGS
@given(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=2, max_size=3),
       st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=2, max_size=3),
       st.integers(1, 3), st.integers(0, 2**16))
def test_property_product_joint_needs_no_common_information(ws, wa, nu, seed):
    if sum(ws) == 0 or sum(wa) == 0:
        ws, wa = ws[:-1] + [1.0], wa[:-1] + [1.0]
    mass = np.outer(_normalized(ws), _normalized(wa))
    result = wyner_common_information(JointDistribution(mass), nu,
                                      CommonInfoSearch(restarts=8, seed=seed))
    assert result.value < 1e-9
    assert _reconstruction_error(result, mass) <= 1e-10


@SETTINGS
@given(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=2, max_size=3),
       st.integers(0, 2), st.integers(0, 2**16))
def test_property_diagonal_joint_common_information_is_entropy(weights, extra, seed):
    if sum(weights) == 0:
        weights = weights[:-1] + [1.0]
    p = _normalized(weights)
    mass = np.diag(p)
    result = wyner_common_information(JointDistribution(mass), p.size + extra,
                                      CommonInfoSearch(restarts=8, seed=seed))
    assert abs(result.value - entropy(p)) <= 1e-9
    assert _reconstruction_error(result, mass) <= 1e-10


def test_single_symbol_cannot_carry_correlation():
    joint = JointDistribution(np.array([[0.4, 0.1], [0.1, 0.4]]))
    with pytest.raises(InfeasibleDecompositionError):
        wyner_common_information(joint, 1)


def test_common_information_diagnostics_on_erasure_joint():
    game = make_erasure_game()
    scheme = make_optimal_erasure_scheme()
    sa = JointDistribution(scheme.joint(game.prior).marginal((0, 2)))
    result = wyner_common_information(sa, 3)
    # U = S, U = A and constant U lead; the rest are random
    assert result.restarts_run == CommonInfoSearch().restarts
    # constant U cannot carry I(S;A) = 1/4 bit
    assert result.restarts_feasible <= result.restarts_run - 1
    assert result.restarts_near_best >= 1
    assert result.steps > 0
    assert abs(result.value - binary_entropy(0.25)) <= 1e-9
