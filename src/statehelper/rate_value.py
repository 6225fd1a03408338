"""Achievable rate-value tradeoffs for a rate-limited state-describing helper.

A coding scheme is a pair (p(U|S), p(A|U)) forming the Markov chain S-U-A.
Above the transition threshold alpha the opponent has decoded the codeword,
so the block payoff is a two-phase (or, for layered schemes, three-phase)
time average of best-response payoff functionals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import ContractViolationError, InfeasibleRateError
from .game_core import (
    ConditionalDistribution,
    Game,
    min_payoff_given_observation,
    optimal_state_strategy,
    solve_matrix_game,
    validate_prob_vector,
)
from .info_measures import (
    JointDistribution,
    _entropy_bits,
    binary_entropy,
    conditional_mutual_information,
    inverse_binary_entropy,
    mutual_information,
)

RATE_TOL = 1e-12
INFO_TOL = 1e-12


@dataclass(frozen=True)
class Scheme:
    """Helper coding scheme: p(U|S) and the action channel p(A|U)."""

    p_u_given_s: ConditionalDistribution
    p_a_given_u: ConditionalDistribution

    def __post_init__(self):
        if self.p_u_given_s.to_size != self.p_a_given_u.from_size:
            raise ContractViolationError(
                "p_u_given_s output and p_a_given_u input cardinalities differ")

    @property
    def card_u(self) -> int:
        return self.p_u_given_s.to_size

    def joint(self, prior) -> JointDistribution:
        """Induced joint over (S, U, A)."""
        prior = validate_prob_vector(prior, what="prior")
        if prior.size != self.p_u_given_s.from_size:
            raise ContractViolationError("scheme state cardinality does not match prior")
        m = (prior[:, None, None] * self.p_u_given_s.rows[:, :, None]
             * self.p_a_given_u.rows[None, :, :])
        return JointDistribution(m)

    def p_u(self, prior):
        return np.asarray(prior, dtype=float) @ self.p_u_given_s.rows

    def p_s_given_u(self, prior):
        """Bayes inversion; rows for zero-mass symbols are uniform."""
        prior = np.asarray(prior, dtype=float)
        pu = self.p_u(prior)
        num = prior[:, None] * self.p_u_given_s.rows  # (s, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = np.where(pu[None, :] > 0, num / pu[None, :], np.nan).T
        rows[np.isnan(rows).any(axis=1)] = 1.0 / prior.size
        return ConditionalDistribution(rows)

    def induced_p_a_given_s(self):
        return ConditionalDistribution(self.p_u_given_s.rows @ self.p_a_given_u.rows)

    @staticmethod
    def constant_u(p_a, n_states):
        """Degenerate scheme: U carries nothing, A plays the fixed mix p_a."""
        return Scheme(
            ConditionalDistribution(np.ones((n_states, 1))),
            ConditionalDistribution(np.atleast_2d(p_a)))


@dataclass(frozen=True)
class LayeredScheme:
    """Two-auxiliary scheme S - (U1, U2) - A revealed to the opponent in stages.

    p_u2_given_u1_s rows are indexed by u1 * |S| + s; p_a_given_u1_u2 rows by
    u1 * |U2| + u2.
    """

    p_u1_given_s: ConditionalDistribution
    p_u2_given_u1_s: ConditionalDistribution
    p_a_given_u1_u2: ConditionalDistribution

    def __post_init__(self):
        ns = self.p_u1_given_s.from_size
        n1 = self.p_u1_given_s.to_size
        if self.p_u2_given_u1_s.from_size != n1 * ns:
            raise ContractViolationError("p_u2_given_u1_s rows must be indexed by (u1, s)")
        n2 = self.p_u2_given_u1_s.to_size
        if self.p_a_given_u1_u2.from_size != n1 * n2:
            raise ContractViolationError("p_a_given_u1_u2 rows must be indexed by (u1, u2)")

    @property
    def card_u1(self):
        return self.p_u1_given_s.to_size

    @property
    def card_u2(self):
        return self.p_u2_given_u1_s.to_size

    def joint(self, prior) -> JointDistribution:
        """Induced joint over (S, U1, U2, A)."""
        prior = validate_prob_vector(prior, what="prior")
        ns, n1, n2 = prior.size, self.card_u1, self.card_u2
        na = self.p_a_given_u1_u2.to_size
        p2 = self.p_u2_given_u1_s.rows.reshape(n1, ns, n2)
        pa = self.p_a_given_u1_u2.rows.reshape(n1, n2, na)
        m = np.einsum("s,su,usv,uva->suva", prior, self.p_u1_given_s.rows, p2, pa)
        return JointDistribution(m)


@dataclass(frozen=True)
class SchemeStats:
    """Information quantities and payoff functionals entering the rate-value bound."""

    i_us: float
    i_usa: float
    i_ua_given_s: float
    pi_low: float
    pi_low_s: float
    pi_low_u: float
    pi_low_su: float


@dataclass(frozen=True)
class RateValuePoint:
    rate: float
    payoff: float
    alpha: float
    b_knows_state: bool


def _stats_kernel(prior, p_u_s, p_a_u, payoff) -> SchemeStats:
    """All Theorem-1 inputs from arrays: the one copy of the formulas.

    prior (s,), the rows p(u|s) (s, u) and p(a|u) (u, a) must already be
    probability vectors and row-stochastic; payoff is indexed [a, b, s].
    Nothing is checked, so callers outside the optimizer go through
    scheme_statistics.
    """
    m = prior[:, None, None] * p_u_s[:, :, None] * p_a_u[None, :, :]  # (s, u, a)
    p_su = m.sum(axis=2)
    p_sa = m.sum(axis=1)
    h_s = _entropy_bits(p_su.sum(axis=1))
    h_u = _entropy_bits(p_su.sum(axis=0))
    h_su = _entropy_bits(p_su)
    h_sa = _entropy_bits(p_sa)
    h_sua = _entropy_bits(m)
    # w[s, u, b]: A's payoff mass in each (s, u) cell against each pure b
    w = np.einsum("sua,abs->sub", m, payoff)
    return SchemeStats(
        i_us=max(h_s + h_u - h_su, 0.0),
        i_usa=max(h_u + h_sa - h_sua, 0.0),
        i_ua_given_s=max(h_su + h_sa - h_s - h_sua, 0.0),
        pi_low=float(w.sum(axis=(0, 1)).min()),
        pi_low_s=float(w.sum(axis=1).min(axis=1).sum()),
        pi_low_u=float(w.sum(axis=0).min(axis=1).sum()),
        pi_low_su=float(w.min(axis=2).sum()))


def scheme_statistics(game: Game, scheme: Scheme) -> SchemeStats:
    """All Theorem-1 inputs for a game/scheme pair: the checked _stats_kernel."""
    if scheme.p_u_given_s.from_size != game.n_states:
        raise ContractViolationError("scheme state cardinality does not match game")
    if scheme.p_a_given_u.to_size != game.n_actions_a:
        raise ContractViolationError("scheme action cardinality does not match game")
    scheme.joint(game.prior)  # validates the prior against the scheme
    return _stats_kernel(game.prior, scheme.p_u_given_s.rows,
                         scheme.p_a_given_u.rows, game.payoff)


def _covering_gap(rate: float, i_cover: float) -> float:
    """Rate the encoder lacks to find a codeword typical with the states.

    Covering needs rate >= I(U;S) (I(U1,U2;S) for a layered scheme) whoever
    observes the state, so one check serves an informed and an ignorant B.
    """
    return max(i_cover - rate, 0.0)


def _require_covering(rate: float, i_cover: float, what: str = "I(U;S)"):
    if _covering_gap(rate, i_cover) > RATE_TOL:
        raise InfeasibleRateError(
            f"rate {rate} is below {what}={i_cover}; the encoder cannot cover the state")


def _clamped_ratio(num: float, den: float) -> float:
    """num/den clamped to [0, 1]; a zero denominator means nothing left to learn."""
    if den <= INFO_TOL:
        return 1.0
    return min(max(num / den, 0.0), 1.0)


def threshold_alpha(stats: SchemeStats, rate: float, b_knows_state: bool) -> float:
    """Fraction of the block before the opponent decodes the codeword."""
    if rate < 0:
        raise ContractViolationError("rate must be nonnegative")
    if b_knows_state:
        return _clamped_ratio(max(rate - stats.i_us, 0.0), stats.i_ua_given_s)
    return _clamped_ratio(rate, stats.i_usa)


def _bound_payoff(stats: SchemeStats, rate: float, b_knows_state: bool):
    """(alpha, payoff): the Theorem-1 two-phase average for these statistics."""
    alpha = threshold_alpha(stats, rate, b_knows_state)
    if b_knows_state:
        return alpha, alpha * stats.pi_low_s + (1 - alpha) * stats.pi_low_su
    return alpha, alpha * stats.pi_low + (1 - alpha) * stats.pi_low_u


def theorem1_payoff(game: Game, scheme: Scheme, rate: float,
                    b_knows_state: bool) -> RateValuePoint:
    """Achievable block-average payoff at the given rate.

    Phase 1 (fraction alpha) plays the ideal mixed strategy; in phase 2 the
    opponent knows the codeword.  Whether or not B knows the state, the
    encoder needs rate >= I(U;S) to find a typical codeword at all.
    """
    stats = scheme_statistics(game, scheme)
    _require_covering(rate, stats.i_us)
    alpha, payoff = _bound_payoff(stats, rate, b_knows_state)
    return RateValuePoint(rate=float(rate), payoff=float(payoff), alpha=float(alpha),
                          b_knows_state=b_knows_state)


@dataclass(frozen=True)
class BoundSearch:
    restarts: int = 8
    iterations: int = 600
    seed: int = 0
    infeasibility_penalty: float = 1e3


def _softmax_rows(theta, ns, nu, na):
    """The rows p(u|s) and p(a|u) that the optimizer's logits theta encode."""
    def softmax(z):
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    return (softmax(theta[:ns * nu].reshape(ns, nu)),
            softmax(theta[ns * nu:].reshape(nu, na)))


def _scheme_from_logits(theta, ns, nu, na):
    p_u_s, p_a_u = _softmax_rows(theta, ns, nu, na)
    return Scheme(ConditionalDistribution(p_u_s), ConditionalDistribution(p_a_u))


def _penalized_payoff(stats, rate, b_knows_state, penalty):
    """Bound payoff, less a penalty on the rate the encoder lacks to cover."""
    _, p = _bound_payoff(stats, rate, b_knows_state)
    return p - penalty * _covering_gap(rate, stats.i_us)


def _optimizer_seeds(game: Game, rate, card_u, rng, restarts):
    ns, na = game.n_states, game.n_actions_a
    seeds = []

    def pad_cols(rows, n_cols):
        out = np.full((rows.shape[0], n_cols), 1e-6)
        out[:, :rows.shape[1]] += rows
        return out / out.sum(axis=1, keepdims=True)

    def pad_rows(rows, n_rows):
        out = np.full((n_rows, rows.shape[1]), 1.0 / rows.shape[1])
        out[:rows.shape[0]] = rows
        return out

    avg = solve_matrix_game(game.averaged_matrix())
    no_info_mix = avg.strategy_a.rows[0]
    per_state = optimal_state_strategy(game)
    # U constant, A plays the averaged-game minimax mix
    seeds.append((pad_cols(np.ones((ns, 1)), card_u), pad_rows(no_info_mix[None, :], card_u)))
    if card_u >= ns:  # U = S, A plays the per-state optimal mixes
        seeds.append((pad_cols(np.eye(ns), card_u), pad_rows(per_state, card_u)))
    if card_u >= na:  # U = the optimal action channel, A repeats U
        seeds.append((pad_cols(per_state, card_u), pad_rows(np.eye(na), card_u)))
    target = max(restarts, len(seeds))
    while len(seeds) < target:
        seeds.append((rng.dirichlet(np.ones(card_u), size=ns),
                      rng.dirichlet(np.ones(na), size=card_u)))
    return seeds


def optimize_bound(game: Game, rate: float, b_knows_state: bool, card_u: int,
                   search: BoundSearch = BoundSearch()):
    """Best scheme found for the rate-value bound at a fixed rate.

    Seeded multistart local search; any feasible scheme certifies its payoff,
    so the result is achievable but not necessarily optimal.
    """
    if card_u < 1:
        raise ContractViolationError("card_u must be >= 1")
    ns, na = game.n_states, game.n_actions_a
    rng = np.random.default_rng(search.seed)
    best_scheme, best_obj = None, -np.inf
    for pu0, pa0 in _optimizer_seeds(game, rate, card_u, rng, search.restarts):
        theta0 = np.concatenate([np.log(np.clip(pu0, 1e-9, None)).ravel(),
                                 np.log(np.clip(pa0, 1e-9, None)).ravel()])

        def neg_obj(theta):
            stats = _stats_kernel(game.prior, *_softmax_rows(theta, ns, card_u, na),
                                  game.payoff)
            return -_penalized_payoff(stats, rate, b_knows_state,
                                      search.infeasibility_penalty)

        res = minimize(neg_obj, theta0, method="Nelder-Mead",
                       options={"maxiter": search.iterations, "xatol": 1e-8,
                                "fatol": 1e-12})
        for theta in (theta0, res.x):
            scheme = _scheme_from_logits(theta, ns, card_u, na)
            stats = scheme_statistics(game, scheme)
            obj = _penalized_payoff(stats, rate, b_knows_state,
                                    search.infeasibility_penalty)
            # only a scheme the encoder can carry certifies its payoff; the
            # constant-U start always can
            if obj > best_obj and _covering_gap(rate, stats.i_us) <= RATE_TOL:
                best_obj, best_scheme = obj, scheme
    point = theorem1_payoff(game, best_scheme, rate, b_knows_state)
    return best_scheme, point


@dataclass(frozen=True)
class LayeredPayoffResult:
    payoff: float
    alpha1: float
    alpha2: float
    no_benefit: bool = False
    alpha2_exceeds_block: bool = False


def _layered_functionals(game, joint, b_knows_state):
    """Payoff functionals as B successively learns U1 then U2 (axes s,u1,u2,a)."""
    base = (0,) if b_knows_state else ()
    m = joint.mass
    f0 = min_payoff_given_observation(m, game.payoff, a_axis=3, s_axis=0,
                                      observed_axes=base)
    f1 = min_payoff_given_observation(m, game.payoff, a_axis=3, s_axis=0,
                                      observed_axes=base + (1,))
    f2 = min_payoff_given_observation(m, game.payoff, a_axis=3, s_axis=0,
                                      observed_axes=base + (1, 2))
    return f0, f1, f2


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


def layered_payoff(game: Game, lscheme: LayeredScheme, rate: float,
                   b_knows_state: bool) -> LayeredPayoffResult:
    """Three-phase achievable payoff of the layered scheme.

    The thresholds alpha1, alpha2 split the block into a fully mixed phase,
    a U1-revealed phase, and a fully revealed phase.  The linear three-phase
    payoff combination is reported with both thresholds so it can be audited.
    A scheme with a degenerate layer reduces exactly to the single-auxiliary
    bound.  Rates below I(U1,U2;S) raise InfeasibleRateError, except that an
    ignorant-B scheme whose second layer would be decoded before its first
    reports no_benefit and claims no payoff.
    """
    if lscheme.p_u1_given_s.from_size != game.n_states:
        raise ContractViolationError("layered scheme state cardinality does not match game")
    if lscheme.p_a_given_u1_u2.to_size != game.n_actions_a:
        raise ContractViolationError("layered scheme action cardinality does not match game")
    joint = lscheme.joint(game.prior)  # (s, u1, u2, a)
    i_u1_s = mutual_information(JointDistribution(joint.marginal((0, 1))), (0,), (1,))
    i_u1_sa = mutual_information(JointDistribution(joint.marginal((0, 1, 3))),
                                 (1,), (0, 2))
    i_u2_sa_given_u1 = conditional_mutual_information(joint, (2,), (0, 3), (1,))
    i_u12_s = mutual_information(JointDistribution(joint.marginal((0, 1, 2))),
                                 (0,), (1, 2))
    i_u2_a_given_u1s = conditional_mutual_information(joint, (2,), (3,), (0, 1))

    # a degenerate layer reduces exactly to the single-auxiliary bound
    if i_u2_sa_given_u1 <= 1e-9:
        point = theorem1_payoff(game, _marginalized_scheme(lscheme, game.prior, 2),
                                rate, b_knows_state)
        return LayeredPayoffResult(point.payoff, point.alpha, point.alpha)
    if i_u1_sa <= 1e-9:
        point = theorem1_payoff(game, _marginalized_scheme(lscheme, game.prior, 1),
                                rate, b_knows_state)
        return LayeredPayoffResult(point.payoff, 0.0, point.alpha)

    if b_knows_state:
        alpha1 = 0.0
        raw_alpha2 = (max(rate - i_u12_s, 0.0) / i_u2_a_given_u1s
                      if i_u2_a_given_u1s > INFO_TOL else np.inf)
    else:
        _require_covering(rate, i_u1_s, "I(U1;S)")
        alpha1 = _clamped_ratio(i_u1_s, i_u1_sa)
        raw_alpha2 = ((rate - i_u1_s) / i_u2_sa_given_u1
                      if i_u2_sa_given_u1 > INFO_TOL else np.inf)
    alpha2 = min(max(raw_alpha2, 0.0), 1.0)
    exceeds = raw_alpha2 > 1.0
    if alpha1 > alpha2:  # no payoff is claimed, so covering is moot
        return LayeredPayoffResult(payoff=np.nan, alpha1=alpha1, alpha2=alpha2,
                                   no_benefit=True, alpha2_exceeds_block=exceeds)
    _require_covering(rate, i_u12_s, "I(U1,U2;S)")
    f0, f1, f2 = _layered_functionals(game, joint, b_knows_state)
    payoff = alpha1 * f0 + (alpha2 - alpha1) * f1 + (1 - alpha2) * f2
    return LayeredPayoffResult(payoff=float(payoff), alpha1=float(alpha1),
                               alpha2=float(alpha2), alpha2_exceeds_block=exceeds)


def degenerate_rd_rate(payoff: float) -> float:
    """Rate needed for a target payoff in the Hamming-distortion degenerate game."""
    if not -0.5 <= payoff <= 0.0:
        raise ContractViolationError(f"payoff {payoff} outside [-1/2, 0]")
    return 1.0 - binary_entropy(-payoff)


def degenerate_rd_payoff(rate: float) -> float:
    """Inverse of degenerate_rd_rate: best payoff at a given rate."""
    if rate >= 1.0:
        return 0.0
    if rate <= 0.0:
        return -0.5
    return -inverse_binary_entropy(1.0 - rate)
