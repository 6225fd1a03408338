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
    optimal_state_strategy,
    solve_matrix_game,
    validate_prob_vector,
)
from .info_measures import (
    JointDistribution,
    _entropy_bits,
    _pad_rows,
    _softmax,
    binary_entropy,
    inverse_binary_entropy,
)
# unused here; bench/spans.py wraps these names in this module
from .game_core import min_payoff_given_observation  # noqa: F401
from .info_measures import (  # noqa: F401
    conditional_mutual_information,
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
        return JointDistribution(_joint_mass(prior, self.p_u_given_s.rows,
                                             self.p_a_given_u.rows))

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


def _joint_mass(prior, p_u_s, p_a_u):
    """The (s, u, a) mass prior(s) p(u|s) p(a|u), not renormalized."""
    return prior[:, None, None] * p_u_s[:, :, None] * p_a_u[None, :, :]


def _stats_kernel(m, payoff) -> SchemeStats:
    """All Theorem-1 inputs from an (s, u, a) joint: the one copy of the formulas.

    m is a nonnegative tensor summing to 1 (layered_payoff passes U = U1 and
    U = (U1, U2) marginals); payoff is indexed [a, b, s].  Nothing is
    checked, so callers outside the optimizer and layered_payoff go through
    scheme_statistics.
    """
    p_su = m.sum(axis=2)
    p_sa = m.sum(axis=1)
    p_s = p_su.sum(axis=1)
    # one live state: H(S) is 0, not -x log x of a marginal x = 1 +- ulp, so
    # that I(U;S) = H(U) - H(S,U) is exactly 0
    h_s = _entropy_bits(p_s) if np.count_nonzero(p_s) > 1 else 0.0
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
    return _stats_kernel(_joint_mass(game.prior, scheme.p_u_given_s.rows,
                                     scheme.p_a_given_u.rows), game.payoff)


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
    return (_softmax(theta[:ns * nu].reshape(ns, nu)),
            _softmax(theta[ns * nu:].reshape(nu, na)))


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

    avg = solve_matrix_game(game.averaged_matrix())
    no_info_mix = avg.strategy_a.rows[0]
    per_state = optimal_state_strategy(game)
    # U constant, A plays the averaged-game minimax mix
    seeds.append((pad_cols(np.ones((ns, 1)), card_u),
                  _pad_rows(no_info_mix[None, :], card_u)))
    if card_u >= ns:  # U = S, A plays the per-state optimal mixes
        seeds.append((pad_cols(np.eye(ns), card_u), _pad_rows(per_state, card_u)))
    if card_u >= na:  # U = the optimal action channel, A repeats U
        seeds.append((pad_cols(per_state, card_u), _pad_rows(np.eye(na), card_u)))
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
            m = _joint_mass(game.prior, *_softmax_rows(theta, ns, card_u, na))
            stats = _stats_kernel(m, game.payoff)
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


def layered_payoff(game: Game, lscheme: LayeredScheme, rate: float,
                   b_knows_state: bool) -> LayeredPayoffResult:
    """Three-phase achievable payoff of the layered scheme.

    The thresholds alpha1, alpha2 split the block into a fully mixed phase,
    a U1-revealed phase, and a fully revealed phase.  The linear three-phase
    payoff combination is reported with both thresholds so it can be audited.
    Every quantity is Theorem 1's for U = U1 or U = (U1, U2), the second
    layer's by the chain rule.  Rates below I(U1,U2;S) raise
    InfeasibleRateError whether or not B knows the state.  A degenerate layer
    reduces exactly to the single-auxiliary bound: on U1 (covering I(U1;S))
    when U2 adds nothing, on (U1, U2) when U1 alone reveals nothing.  An
    ignorant-B scheme whose second layer would be decoded before its first
    reports no_benefit and claims no payoff.
    """
    if lscheme.p_u1_given_s.from_size != game.n_states:
        raise ContractViolationError("layered scheme state cardinality does not match game")
    if lscheme.p_a_given_u1_u2.to_size != game.n_actions_a:
        raise ContractViolationError("layered scheme action cardinality does not match game")
    m = lscheme.joint(game.prior).mass  # (s, u1, u2, a)
    ns, n1, n2, na = m.shape
    st1 = _stats_kernel(m.sum(axis=2), game.payoff)
    st12 = _stats_kernel(m.reshape(ns, n1 * n2, na), game.payoff)
    # chain rule: I(U2;S,A|U1) = I(U1,U2;S,A) - I(U1;S,A)
    i_u2_sa_given_u1 = max(st12.i_usa - st1.i_usa, 0.0)

    # a degenerate layer reduces exactly to the single-auxiliary bound
    if i_u2_sa_given_u1 <= 1e-9:
        _require_covering(rate, st1.i_us, "I(U1;S)")
        alpha, payoff = _bound_payoff(st1, rate, b_knows_state)
        return LayeredPayoffResult(float(payoff), float(alpha), float(alpha))
    _require_covering(rate, st12.i_us, "I(U1,U2;S)")
    if st1.i_usa <= 1e-9:
        alpha, payoff = _bound_payoff(st12, rate, b_knows_state)
        return LayeredPayoffResult(float(payoff), 0.0, float(alpha))

    if b_knows_state:
        alpha1 = 0.0
        # chain rule: I(U2;A|U1,S) = I(U1,U2;A|S) - I(U1;A|S)
        i_u2_a_given_u1s = max(st12.i_ua_given_s - st1.i_ua_given_s, 0.0)
        raw_alpha2 = ((rate - st12.i_us) / i_u2_a_given_u1s
                      if i_u2_a_given_u1s > INFO_TOL else np.inf)
        f0, f1, f2 = st1.pi_low_s, st1.pi_low_su, st12.pi_low_su
    else:
        alpha1 = _clamped_ratio(st1.i_us, st1.i_usa)
        raw_alpha2 = (rate - st1.i_us) / i_u2_sa_given_u1
        f0, f1, f2 = st1.pi_low, st1.pi_low_u, st12.pi_low_u
    alpha2 = min(max(raw_alpha2, 0.0), 1.0)
    exceeds = raw_alpha2 > 1.0
    if alpha1 > alpha2:
        return LayeredPayoffResult(payoff=np.nan, alpha1=alpha1, alpha2=alpha2,
                                   no_benefit=True, alpha2_exceeds_block=exceeds)
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
