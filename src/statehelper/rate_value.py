"""Achievable rate-value tradeoffs for a rate-limited state-describing helper.

A coding scheme is a pair (p(U|S), p(A|U)) forming the Markov chain S-U-A.
Above the transition threshold alpha the opponent has decoded the codeword,
so the block payoff is a two-phase (or, for layered schemes, three-phase)
time average of best-response payoff functionals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InfeasibleRateError
from .game_core import (
    ConditionalDistribution,
    Game,
    SignalFunction,
    game_value,
    payoff_against_pure,
    validate_prob_vector,
)
from .info_measures import (
    JointDistribution,
    _entropy_rows,
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
# the optimizer's objective loses this much payoff per bit of rate the
# encoder lacks to cover the state
INFEASIBILITY_PENALTY = 1e3


def __getattr__(name):
    # bench/spans.py wraps `minimize` in this module.  The name is resolved
    # on first access only, so importing the toolkit never loads scipy.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """Information quantities and payoff functionals entering the rate-value bound.

    Floats for one joint; arrays, one entry per joint, for a stack of joints.
    """

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
    """The (s, u, a) mass prior(s) p(u|s) p(a|u), not renormalized.

    p_u_s and p_a_u may carry the same leading batch axes.
    """
    return prior[:, None, None] * p_u_s[..., :, :, None] * p_a_u[..., None, :, :]


def _nonneg(x):
    """max(x, 0.0) elementwise, NaN and -0.0 passing through as in max()."""
    return np.where(x < 0.0, 0.0, x)[()]


def _stats_kernel(m, payoff) -> SchemeStats:
    """All Theorem-1 inputs from (s, u, a) joints: the one copy of the formulas.

    m has shape (..., s, u, a), each (s, u, a) block a nonnegative tensor
    summing to 1 (layered_payoff passes U = U1 and U = (U1, U2) marginals);
    payoff is indexed [a, b, s].  Each field has m's leading shape, and is a
    float for a single joint.  Every sum runs within one block, so a stack of
    joints gives each joint's statistics bit for bit.  Nothing is checked, so
    callers outside the optimizer and layered_payoff go through
    scheme_statistics.
    """
    p_su = m.sum(axis=-1)
    p_sa = m.sum(axis=-2)
    p_s = p_su.sum(axis=-1)
    # one live state: H(S) is 0, not -x log x of a marginal x = 1 +- ulp, and
    # I(U;S) is exactly 0 (H(U) and H(S,U) sum the same terms, but the zero
    # cells of the dead states can group those sums differently)
    several_states = (p_s != 0).sum(axis=-1) > 1
    h_s = np.where(several_states, _entropy_rows(p_s, 1), 0.0)
    h_u = _entropy_rows(p_su.sum(axis=-2), 1)
    h_su = _entropy_rows(p_su, 2)
    h_sa = _entropy_rows(p_sa, 2)
    h_sua = _entropy_rows(m, 3)
    # w[..., u, s, b]: A's payoff mass per (u, s) cell and pure b, summed
    # over s where B is blind to the state (as payoff_against_pure does, one
    # contraction serving all four) and over all cells in (s, u) order where
    # B sees neither: the bound optimizer's path follows pi_low's last bit
    w = payoff_against_pure(m.swapaxes(-3, -2), payoff, b_sees_state=True)
    w_su = np.ascontiguousarray(w.swapaxes(-3, -2))
    return SchemeStats(
        i_us=np.where(several_states, _nonneg(h_s + h_u - h_su), 0.0)[()],
        i_usa=_nonneg(h_u + h_sa - h_sua),
        i_ua_given_s=_nonneg(h_su + h_sa - h_s - h_sua),
        pi_low=w_su.sum(axis=(-3, -2)).min(axis=-1)[()],
        pi_low_s=w.sum(axis=-3).min(axis=-1).sum(axis=-1)[()],
        pi_low_u=w.sum(axis=-2).min(axis=-1).sum(axis=-1)[()],
        pi_low_su=w.min(axis=-1).sum(axis=(-2, -1))[()])


def scheme_statistics(game: Game, scheme: Scheme) -> SchemeStats:
    """All Theorem-1 inputs for a game/scheme pair: the checked _stats_kernel."""
    if scheme.p_u_given_s.from_size != game.n_states:
        raise ContractViolationError("scheme state cardinality does not match game")
    if scheme.p_a_given_u.to_size != game.n_actions_a:
        raise ContractViolationError("scheme action cardinality does not match game")
    scheme.joint(game.prior)  # validates the prior against the scheme
    return _stats_kernel(_joint_mass(game.prior, scheme.p_u_given_s.rows,
                                     scheme.p_a_given_u.rows), game.payoff)


def _covering_gap(rate, i_cover):
    """Rate the encoder lacks to find a codeword typical with the states.

    Covering needs rate >= I(U;S) (I(U1,U2;S) for a layered scheme) whoever
    observes the state, so one check serves an informed and an ignorant B.
    Like the helpers below, it takes floats or arrays of them elementwise.
    """
    return _nonneg(i_cover - rate)


def _require_rate(rate):
    if np.isnan(rate).any():  # NaN would pass every comparison with a threshold
        raise ContractViolationError("rate must not be NaN")


def _require_covering(rate: float, i_cover: float, what: str = "I(U;S)"):
    if _covering_gap(rate, i_cover) > RATE_TOL:
        raise InfeasibleRateError(
            f"rate {rate} is below {what}={i_cover}; the encoder cannot cover the state")


def _clamped_ratio(num, den):
    """num/den clamped to [0, 1]; a zero denominator means nothing left to learn."""
    small = den <= INFO_TOL
    ratio = _nonneg(np.true_divide(num, np.where(small, 1.0, den)))
    return np.where(small, 1.0, np.where(ratio > 1.0, 1.0, ratio))[()]


def threshold_alpha(stats: SchemeStats, rate, b_knows_state: bool):
    """Fraction of the block before the opponent decodes the codeword.

    stats and rate may hold arrays (as the optimizer's do); alpha is then
    computed elementwise.
    """
    if (np.asarray(rate) < 0).any():
        raise ContractViolationError("rate must be nonnegative")
    if b_knows_state:
        return _clamped_ratio(_nonneg(rate - stats.i_us), stats.i_ua_given_s)
    return _clamped_ratio(rate, stats.i_usa)


def _bound_payoff(stats: SchemeStats, rate, b_knows_state: bool):
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
    _require_rate(rate)
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


def _softmax(z):
    """Row-wise softmax over the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _pad_rows(rows, n_rows):
    """rows extended to n_rows with uniform rows."""
    out = np.full((n_rows, rows.shape[1]), 1.0 / rows.shape[1])
    out[:rows.shape[0]] = rows
    return out


def _softmax_rows(theta, ns, nu, na):
    """The rows p(u|s) and p(a|u) that the optimizer's logits theta encode.

    theta may carry leading batch axes, which the rows keep.
    """
    lead = theta.shape[:-1]
    return (_softmax(theta[..., :ns * nu].reshape(lead + (ns, nu))),
            _softmax(theta[..., ns * nu:].reshape(lead + (nu, na))))


def _scheme_from_logits(theta, ns, nu, na):
    p_u_s, p_a_u = _softmax_rows(theta, ns, nu, na)
    return Scheme(ConditionalDistribution(p_u_s), ConditionalDistribution(p_a_u))


def _penalized_payoff(stats, rate, b_knows_state):
    """Bound payoff, less a penalty on the rate the encoder lacks to cover."""
    _, p = _bound_payoff(stats, rate, b_knows_state)
    return p - INFEASIBILITY_PENALTY * _covering_gap(rate, stats.i_us)


def _optimizer_seeds(game: Game, card_u, rng, restarts, b_knows_state):
    """Start schemes (p(U|S), p(A|U)) of the bound search.

    A's structured starts are its LP strategies against B's information f_B
    (identity or constant map): blind for V0 at rate 0, informed for V_inf.
    No start depends on the rate, which is why one search can run every rate
    of a sweep from the same starts.
    """
    ns, na = game.n_states, game.n_actions_a
    seeds = []

    def pad_cols(rows, n_cols):
        out = np.full((rows.shape[0], n_cols), 1e-6)
        out[:, :rows.shape[1]] += rows
        return out / out.sum(axis=1, keepdims=True)

    f_b = (SignalFunction.identity if b_knows_state else SignalFunction.constant)(ns)
    blind = game_value(game, SignalFunction.constant(ns), f_b).strategy_a.rows
    informed = game_value(game, SignalFunction.identity(ns), f_b).strategy_a.rows
    # U constant, A plays its blind strategy
    seeds.append((pad_cols(np.ones((ns, 1)), card_u), _pad_rows(blind, card_u)))
    if card_u >= ns:  # U = S, A plays its informed strategy
        seeds.append((pad_cols(np.eye(ns), card_u), _pad_rows(informed, card_u)))
    if card_u >= na:  # U = A's informed action, A repeats U
        seeds.append((pad_cols(informed, card_u), _pad_rows(np.eye(na), card_u)))
    target = max(restarts, len(seeds))
    while len(seeds) < target:
        seeds.append((rng.dirichlet(np.ones(card_u), size=ns),
                      rng.dirichlet(np.ones(na), size=card_u)))
    return seeds


# scipy's non-adaptive Nelder-Mead: reflection, expansion, contraction and
# shrink coefficients, and the initial simplex steps
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1, 2, 0.5, 0.5
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025


def _sort_simplices(sim, fsim):
    rows, order = np.arange(len(fsim))[:, None], np.argsort(fsim, axis=1)
    return sim[rows, order], fsim[rows, order]


def _nelder_mead(fun, x0, maxiter, xatol, fatol):
    """scipy.optimize.minimize(method="Nelder-Mead") on many problems in lockstep.

    Problem r starts from row r of x0, shape (R, N).  fun(x, rows) returns
    the values at the points x, shape (K, N), point k belonging to problem
    rows[k].  Each iteration calls fun at most three times for all problems
    together: the reflections, then the expansions and contractions (one per
    problem that needs one), then the shrinks.  Per problem this is scipy's
    algorithm step for step (same coefficients, initial simplex, argsort
    order, xatol/fatol test and maxiter counted from 1; no maxfev), so when
    fun evaluates each point as it would alone, (x, fun, nit, nfev) equal
    scipy's row by row.  Problems that converge drop out of the batch.
    """
    n_rows, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + _NM_NONZDELT) * x0, _NM_ZDELT)
    rows = np.arange(n_rows)
    fsim = fun(sim.reshape(-1, n), np.repeat(rows, n + 1)).reshape(n_rows, n + 1)
    # scipy sorts the first simplex twice, which can reorder ties
    sim, fsim = _sort_simplices(*_sort_simplices(sim, fsim))
    x, fval = np.empty_like(x0), np.empty(n_rows)
    nit, nfev = np.empty(n_rows, dtype=int), np.full(n_rows, n + 1)
    active, iterations = rows, 1

    def retire(done):
        nonlocal active, sim, fsim
        x[active[done]] = sim[done, 0]
        fval[active[done]] = fsim[done].min(axis=1)
        nit[active[done]] = iterations
        active, sim, fsim = active[~done], sim[~done], fsim[~done]

    while active.size and iterations < maxiter:
        done = ((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol)
                & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol))
        if done.any():
            retire(done)
            if not active.size:
                break
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        worst = sim[:, -1]
        new_x = (1 + _NM_RHO) * xbar - _NM_RHO * worst  # the reflections
        new_f = fun(new_x, active)
        nfev[active] += 1
        # scipy's branches: a reflection below the best tries an expansion; one
        # not below the second worst an outside contraction if it is below the
        # worst, else an inside one; the rows that try one evaluate together
        expand = new_f < fsim[:, 0]
        contract = ~expand & ~(new_f < fsim[:, -2])
        outside = contract & (new_f < fsim[:, -1])
        second = np.flatnonzero(expand | contract)
        shrink = second[:0]
        if second.size:
            e, o = expand[second], outside[second]
            # scipy's three formulas, each as c_bar * xbar + c_worst * worst
            c_bar = np.where(e, 1 + _NM_RHO * _NM_CHI,
                             np.where(o, 1 + _NM_PSI * _NM_RHO, 1 - _NM_PSI))
            c_worst = np.where(e, -_NM_RHO * _NM_CHI,
                               np.where(o, -_NM_PSI * _NM_RHO, _NM_PSI))
            x2 = c_bar[:, None] * xbar[second] + c_worst[:, None] * worst[second]
            f2 = fun(x2, active[second])
            nfev[active[second]] += 1
            f_r = new_f[second]
            take = np.where(e, f2 < f_r,
                            np.where(o, f2 <= f_r, f2 < fsim[second, -1]))
            new_x[second[take]], new_f[second[take]] = x2[take], f2[take]
            # a failed contraction shrinks the simplex, worst vertex included
            shrink = second[~take & ~e]
            new_x[shrink], new_f[shrink] = worst[shrink], fsim[shrink, -1]
        sim[:, -1], fsim[:, -1] = new_x, new_f
        if shrink.size:
            best = sim[shrink, :1]
            points = best + _NM_SIGMA * (sim[shrink, 1:] - best)
            sim[shrink, 1:] = points
            fsim[shrink, 1:] = fun(points.reshape(-1, n),
                                   np.repeat(active[shrink], n)).reshape(-1, n)
            nfev[active[shrink]] += n
        iterations += 1
        sim, fsim = _sort_simplices(sim, fsim)
    retire(np.ones(active.size, dtype=bool))
    return x, fval, nit, nfev


def optimize_bound(game: Game, rate, b_knows_state: bool, card_u: int,
                   search: BoundSearch = BoundSearch()):
    """Best scheme found for the rate-value bound at a fixed rate.

    Seeded multistart local search; any feasible scheme certifies its payoff,
    so the result is achievable but not necessarily optimal.  Every start is
    one Nelder-Mead run on the penalized bound over softmax logits, and all
    runs advance together in one lockstep search (`_nelder_mead`) whose
    objective evaluates the Theorem-1 kernel on the batch of their points.
    The start and the end of each run are checked with scheme_statistics,
    and the best covered one wins.

    rate may also be a sequence of rates: the starts do not depend on the
    rate, so every (rate, start) pair runs in the same lockstep search, and
    the result is the list of (scheme, point) pairs, one per rate, that
    one-rate calls would return.
    """
    if card_u < 1:
        raise ContractViolationError("card_u must be >= 1")
    ns, na = game.n_states, game.n_actions_a
    rates = np.atleast_1d(np.asarray(rate, dtype=float))
    _require_rate(rates)
    rng = np.random.default_rng(search.seed)
    starts = np.array([
        np.concatenate([np.log(np.clip(pu0, 1e-9, None)).ravel(),
                        np.log(np.clip(pa0, 1e-9, None)).ravel()])
        for pu0, pa0 in _optimizer_seeds(game, card_u, rng, search.restarts,
                                         b_knows_state)])
    n_starts = len(starts)
    row_rates = np.repeat(rates, n_starts)  # row i: rate i // n_starts

    def neg_obj(theta, rows):
        m = _joint_mass(game.prior, *_softmax_rows(theta, ns, card_u, na))
        return -_penalized_payoff(_stats_kernel(m, game.payoff), row_rates[rows],
                                  b_knows_state)

    ends = _nelder_mead(neg_obj, np.tile(starts, (rates.size, 1)), search.iterations,
                        xatol=1e-8, fatol=1e-12)[0]
    results = []
    for i, r in enumerate(rates):
        best_scheme, best_obj = None, -np.inf
        for theta0, theta in zip(starts, ends[i * n_starts:(i + 1) * n_starts]):
            for candidate in (theta0, theta):
                scheme = _scheme_from_logits(candidate, ns, card_u, na)
                stats = scheme_statistics(game, scheme)
                obj = _penalized_payoff(stats, r, b_knows_state)
                # only a scheme the encoder can carry certifies its payoff;
                # the constant-U start always can
                if obj > best_obj and _covering_gap(r, stats.i_us) <= RATE_TOL:
                    best_obj, best_scheme = obj, scheme
        results.append((best_scheme,
                        theorem1_payoff(game, best_scheme, float(r), b_knows_state)))
    return results if np.ndim(rate) else results[0]


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
    _require_rate(rate)
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
