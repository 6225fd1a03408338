"""Finite zero-sum Bayesian games: exact values, optimal strategies, best-response payoffs.

Payoff tensors are stored with index order (a, b, s) and give the payoff to
Player A (the maximizer); Player B receives the negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

PROB_TOL = 1e-12
MARGINAL_TOL = 1e-9  # how far a scheme's state marginal may stray from the prior
# the simplex's sign tests allow this relative rounding error per operation
_ROUNDING = np.finfo(float).eps
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_EXACT_STEPS = 2  # refinement steps on exact residuals for the final basis

DEFAULT_NEG_INF = -1e6


def validate_prob_vector(p, tol=PROB_TOL, what="probability vector"):
    """Check finiteness, nonnegativity and normalization; renormalize drift
    below `tol`.

    Idempotent: a vector whose float sum is within p.size ulps of 1 comes
    back as it is.  Dividing by such a sum could move an entry by an ulp,
    and the quotient's own sum lies within that bound, so a vector this
    returns passes through again bit for bit.
    """
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ContractViolationError(f"{what} has non-finite entries: {p}")
    if np.any(p < -tol):
        raise ContractViolationError(f"{what} has negative entries: {p}")
    p = np.clip(p, 0.0, None)
    s = p.sum()
    if abs(s - 1.0) > tol * max(1.0, p.size):
        raise ContractViolationError(f"{what} sums to {s}, expected 1")
    return p if abs(s - 1.0) <= p.size * _ROUNDING else p / s


@dataclass(frozen=True)
class ConditionalDistribution:
    """Row-stochastic matrix: row i is the output distribution given input i."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        rows = np.stack([validate_prob_vector(r, what="conditional row") for r in rows])
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def from_size(self) -> int:
        return self.rows.shape[0]

    @property
    def to_size(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class SignalFunction:
    """Total map from state index to signal index (a deterministic information structure)."""

    map: tuple
    signal_count: int

    def __post_init__(self):
        m = tuple(int(x) for x in self.map)
        if any(x < 0 or x >= self.signal_count for x in m):
            raise ContractViolationError(
                f"signal map {m} has values outside [0, {self.signal_count})")
        object.__setattr__(self, "map", m)

    @staticmethod
    def identity(n_states):
        return SignalFunction(tuple(range(n_states)), n_states)

    @staticmethod
    def constant(n_states):
        return SignalFunction((0,) * n_states, 1)


@dataclass(frozen=True)
class Game:
    """Two-player zero-sum Bayesian game on finite sets.

    payoff[a, b, s] is the payoff to Player A.  Entries of -inf in the input
    are replaced by `neg_inf_value` so all linear programs stay finite.
    """

    states: tuple
    prior: np.ndarray
    actions_a: tuple
    actions_b: tuple
    payoff: np.ndarray
    neg_inf_value: float = DEFAULT_NEG_INF

    def __post_init__(self):
        states = tuple(str(s) for s in self.states)
        actions_a = tuple(str(a) for a in self.actions_a)
        actions_b = tuple(str(b) for b in self.actions_b)
        if not states or not actions_a or not actions_b:
            raise ContractViolationError("state and action sets must be nonempty")
        prior = validate_prob_vector(self.prior, what="state prior")
        if prior.shape != (len(states),):
            raise ContractViolationError("prior length does not match state count")
        payoff = np.asarray(self.payoff, dtype=float).copy()
        if payoff.shape != (len(actions_a), len(actions_b), len(states)):
            raise ContractViolationError(
                f"payoff shape {payoff.shape} != (|A|,|B|,|S|)="
                f"({len(actions_a)},{len(actions_b)},{len(states)})")
        payoff[np.isneginf(payoff)] = self.neg_inf_value
        if not np.all(np.isfinite(payoff)):
            raise ContractViolationError("payoff entries must be finite (or -inf)")
        if np.any(payoff < self.neg_inf_value):
            raise ContractViolationError("payoff entries must be >= neg_inf_value")
        prior.setflags(write=False)
        payoff.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions_a", actions_a)
        object.__setattr__(self, "actions_b", actions_b)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "payoff", payoff)

    @property
    def n_states(self):
        return len(self.states)

    @property
    def n_actions_a(self):
        return len(self.actions_a)

    @property
    def n_actions_b(self):
        return len(self.actions_b)

    def averaged_matrix(self):
        """Prior-averaged payoff matrix over (a, b)."""
        return self.payoff @ self.prior

    def state_matrix(self, s):
        return self.payoff[:, :, s]


@dataclass(frozen=True)
class GameValueResult:
    value: float
    strategy_a: ConditionalDistribution
    strategy_b: ConditionalDistribution
    lp_gap: float


def _normalized_rows(rows):
    rows = np.clip(rows, 0.0, None)
    return rows / rows.sum(axis=1, keepdims=True)


def _split(a):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _exact_residual(matrix, z, rhs):
    """rhs - matrix @ z, correctly rounded.  Each product is split into two
    doubles without error (Dekker 1971) and each row is summed exactly."""
    products = matrix * z
    m_hi, m_lo = _split(matrix)
    z_hi, z_lo = _split(z)
    errors = ((m_hi * z_hi - products) + m_hi * z_lo + m_lo * z_hi) + m_lo * z_lo
    terms = np.concatenate([rhs[:, None], -products, -errors], axis=1)
    return np.array([math.fsum(row) for row in terms.tolist()])


class _Basis:
    """One simplex basis of A z = b, solved afresh from the data.

    A's last columns from `n` on are the slacks, one unit column per
    inequality row.  A basic slack is eliminated: its row gets price 0 (or its
    cost) exactly, and its value is the row's residual.  The rest is one small
    square system over the rows whose slack is nonbasic, solved through its
    inverse with one step of iterative refinement, or, for the final answer,
    with refinement on exact residuals, which converges to the correctly
    rounded solution.  Every result comes with a bound on the rounding error
    of each entry: a first-order bound, and no less than one unit roundoff of
    the largest entry of the data it was solved from.
    """

    def __init__(self, A, abs_a, n, basis):
        self.A, self.abs_a, self.basis = A, abs_a, basis
        self.slack = basis >= n
        self.slack_rows = basis[self.slack] - n
        self.tight = np.ones(A.shape[0], dtype=bool)
        self.tight[self.slack_rows] = False
        structural = basis[~self.slack]
        self.kernel = A[self.tight][:, structural]
        self.inverse = np.linalg.inv(self.kernel)
        self.coupling = A[self.slack_rows][:, structural]
        self.abs_kernel, self.abs_inverse = np.abs(self.kernel), np.abs(self.inverse)
        self.abs_coupling = np.abs(self.coupling)

    def _solve(self, rhs, transposed=False, exact=False):
        kernel, inverse = self.kernel, self.inverse
        abs_kernel, abs_inverse = self.abs_kernel, self.abs_inverse
        if transposed:
            kernel, inverse = kernel.T, inverse.T
            abs_kernel, abs_inverse = abs_kernel.T, abs_inverse.T
        z = inverse @ rhs
        for _ in range(_EXACT_STEPS if exact else 1):
            z += inverse @ (_exact_residual(kernel, z, rhs) if exact else rhs - kernel @ z)
        return z, _ROUNDING * (abs_inverse @ (abs_kernel @ np.abs(z) + np.abs(rhs)))

    def column(self, rhs, exact=False):
        """B^-1 rhs, one entry per basis position, and its error bounds."""
        z, err = self._solve(rhs[self.tight], exact=exact)
        out, bound = np.empty(self.basis.size), np.empty(self.basis.size)
        out[~self.slack], bound[~self.slack] = z, err
        rest = rhs[self.slack_rows]
        out[self.slack] = rest - self.coupling @ z
        bound[self.slack] = (_ROUNDING * (np.abs(rest) + self.abs_coupling @ np.abs(z))
                             + self.abs_coupling @ err)
        return out, bound + _ROUNDING * np.abs(rhs).max()

    def row(self, cost, exact=False):
        """cost B^-1 A for a cost per basis position, its error bounds, and
        the prices cost B^-1."""
        prices, err = np.zeros(self.A.shape[0]), np.zeros(self.A.shape[0])
        prices[self.slack_rows] = cost[self.slack]
        prices[self.tight], err[self.tight] = self._solve(
            cost[~self.slack] - self.coupling.T @ cost[self.slack], transposed=True,
            exact=exact)
        bound = (_ROUNDING * np.abs(prices) + err) @ self.abs_a + _ROUNDING * np.abs(cost).max()
        return prices @ self.A, bound, prices


def linprog(c, A_ub, b_ub, A_eq, b_eq, basis, n_free):
    """Maximize c @ z subject to A_ub @ z <= b_ub, A_eq @ z = b_eq and
    z[n_free:] >= 0, by a dense revised simplex with Bland's rule (Bland 1977).

    Column n + i is the slack of inequality row i.  `basis` names one column
    per row, must be primal feasible and must hold every free column; free
    columns never leave it.  Returns z (without slacks) and the prices of
    all rows, inequality rows first.

    Each pivot solves its basis from the data.  A sign test counts a number as
    nonzero only beyond a first-order bound on its rounding error, so
    degenerate ties stay ties.  Once no reduced cost exceeds its bound, the
    basic variables are solved again on exact residuals; a basis with a basic
    variable below minus its bound is repaired by dual simplex steps, and the
    first one without is returned, with its prices solved the same way.
    """
    m_ub, n = A_ub.shape
    A = np.block([[A_ub, np.eye(m_ub)], [A_eq, np.zeros((len(b_eq), m_ub))]])
    abs_a, width = np.abs(A), A.shape[1]
    b = np.concatenate([b_ub, b_eq])
    c = np.concatenate([c, np.zeros(m_ub)])
    basis = np.array(basis)
    for _ in range(20 * width):
        B = _Basis(A, abs_a, n, basis)
        xb, x_tol = B.column(b)
        priced, d_tol, _ = B.row(c[basis])
        d = c - priced
        d_tol = d_tol + _ROUNDING * np.abs(c)
        candidate = np.arange(width) >= n_free
        candidate[basis] = False
        bounded = basis >= n_free
        enter = np.flatnonzero(candidate & (d > d_tol))
        if enter.size:
            # the first improving column enters; the lowest basic column among
            # the tied ratios leaves, a basic variable within its bound of 0
            # counting as 0
            j = enter[0]
            w, w_tol = B.column(A[:, j])
            rows = np.flatnonzero(bounded & (w > w_tol))
            if not rows.size:
                raise RuntimeError("LP is unbounded")
            ratio = np.where(xb[rows] > x_tol[rows], xb[rows], 0.0) / w[rows]
            ties = rows[ratio == ratio.min()]
            basis[ties[np.argmin(basis[ties])]] = j
            continue
        xb, x_tol = B.column(b, exact=True)
        short = np.flatnonzero(bounded & (xb < -x_tol))
        if not short.size:
            z = np.zeros(width)
            z[basis] = xb
            return z[:n], B.row(c[basis], exact=True)[2]
        # dual simplex step: the lowest short basic column leaves, and the
        # entering column keeps every reduced cost nonpositive
        r = short[np.argmin(basis[short])]
        alpha, alpha_tol, _ = B.row(np.eye(basis.size)[r])
        enter = np.flatnonzero(candidate & (alpha < -alpha_tol))
        if not enter.size:
            raise RuntimeError("LP is infeasible")
        basis[r] = enter[np.argmin(np.minimum(d[enter], 0.0) / alpha[enter])]
    raise RuntimeError(f"LP did not converge in {20 * width} pivots")


def _solve_behavioral_lp(prior, payoff, map_a, signals_a, map_b, signals_b):
    """Value and behavior strategies of a Bayesian game with deterministic signals.

    Player A sees map_a[s], Player B sees map_b[s].  One LP over a value v_h
    per B signal and A's behavior strategy x(a|g): maximize sum_h v_h subject
    to v_h <= sum_{s: map_b(s)=h} prior(s) sum_a x(a|map_a(s)) payoff(a,b,s)
    for every (h, b) and sum_a x(a|g) = 1 (Koller, Megiddo and von Stengel,
    STOC 1994).  B's behavior strategy y(b|h) is the price of the (h, b)
    rows in the final basis.  The value is what x guarantees; lp_gap is what
    y concedes minus that.

    The simplex starts from a feasible basis: A plays its first action on
    every signal, each v_h is basic in its worst (h, b) row and the slacks
    fill the other rows.  When the optimum is not unique, the strategies are
    those of the first optimal basis that Bland's rule reaches from there.
    """
    na, nb, _ = payoff.shape
    nx, rows = signals_a * na, signals_b * nb
    weighted = payoff * prior
    # columns: v_h, then x(a|g); rows: (h, b)
    a, b, s = np.indices(payoff.shape).reshape(3, -1)
    A_ub = np.zeros((rows, signals_b + nx))
    np.add.at(A_ub, (map_b[s] * nb + b, signals_b + map_a[s] * na + a), -weighted.ravel())
    A_ub[np.arange(rows), np.arange(rows) // nb] = 1.0
    A_eq = np.zeros((signals_a, signals_b + nx))
    A_eq[np.arange(nx) // na, signals_b + np.arange(nx)] = 1.0
    first = np.zeros((signals_b, nb))
    np.add.at(first, map_b, weighted[0].T)
    basis = signals_b + nx + np.arange(rows)
    basis[np.arange(signals_b) * nb + first.argmin(axis=1)] = np.arange(signals_b)
    basis = np.concatenate([basis, signals_b + na * np.arange(signals_a)])
    z, prices = linprog(np.repeat([1.0, 0.0], [signals_b, nx]), A_ub, np.zeros(rows),
                        A_eq, np.ones(signals_a), basis, signals_b)
    x = _normalized_rows(z[signals_b:].reshape(signals_a, na))
    y = _normalized_rows(prices[:rows].reshape(signals_b, nb))
    # each strategy's payoff in every (signal, pure action) cell of the opponent
    cells_x = np.zeros((signals_b, nb))
    np.add.at(cells_x, map_b, payoff_against_pure(x[map_a], weighted, b_sees_state=True))
    cells_y = np.zeros((signals_a, na))
    np.add.at(cells_y, map_a, np.einsum("sb,abs->sa", y[map_b], weighted))
    value_a = cells_x.min(axis=1).sum()
    value_b = cells_y.max(axis=1).sum()
    return GameValueResult(
        value=float(value_a),
        strategy_a=ConditionalDistribution(x),
        strategy_b=ConditionalDistribution(y),
        lp_gap=float(abs(value_b - value_a)),
    )


def solve_matrix_game(matrix) -> GameValueResult:
    """Value and optimal mixed strategies of a zero-sum matrix game.

    Rows are the maximizer's pure strategies, columns the minimizer's.  This
    is the one-state game in which neither player has anything to observe.
    When either player has several optimal mixes, the one returned is that of
    the first optimal basis the simplex reaches (see `game_value`).
    """
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    if M.size == 0 or not np.all(np.isfinite(M)):
        raise ContractViolationError("matrix must be nonempty with finite entries")
    zero = np.zeros(1, dtype=int)
    return _solve_behavioral_lp(np.ones(1), M[:, :, None], zero, 1, zero, 1)


def optimal_state_strategy(game: Game):
    """Per-state minimax mixes for Player A (the full-information strategy)."""
    return np.stack([solve_matrix_game(game.state_matrix(s)).strategy_a.rows[0]
                     for s in range(game.n_states)])


def _check_signal(game, f, side):
    n = game.n_states
    if len(f.map) != n:
        raise ContractViolationError(f"signal function for {side} covers {len(f.map)} states, game has {n}")


def expected_payoff(game: Game, strat_a: ConditionalDistribution,
                    strat_b: ConditionalDistribution,
                    f_a: SignalFunction, f_b: SignalFunction) -> float:
    """Average payoff sum_s prior(s) sum_ab strat_a(a|f_a(s)) strat_b(b|f_b(s)) payoff(a,b,s)."""
    _check_signal(game, f_a, "A")
    _check_signal(game, f_b, "B")
    if strat_a.from_size != f_a.signal_count or strat_a.to_size != game.n_actions_a:
        raise ContractViolationError("strategy A dimensions do not match signal/game")
    if strat_b.from_size != f_b.signal_count or strat_b.to_size != game.n_actions_b:
        raise ContractViolationError("strategy B dimensions do not match signal/game")
    total = 0.0
    for s in range(game.n_states):
        pa = strat_a.rows[f_a.map[s]]
        pb = strat_b.rows[f_b.map[s]]
        total += game.prior[s] * (pa @ game.payoff[:, :, s] @ pb)
    return float(total)


def game_value(game: Game, f_a: SignalFunction, f_b: SignalFunction) -> GameValueResult:
    """Value of the game where each player observes a deterministic signal of the state.

    Solved as one behavioral-strategy LP, whose size grows linearly with the
    payoff tensor.  A constant signal means the player does not know S; the
    identity signal means full knowledge.

    When the optimum is not unique, the strategies returned are those of the
    first optimal basis that the simplex (Bland's rule) reaches from its start,
    in which A plays its first action on every signal: a vertex of each
    player's optimal set, fixed by the input but not chosen by any further
    criterion.  In the erasure game with both players blind, for instance,
    every mix of B is optimal against A's middle action, and B's returned mix
    is [0, 1], the column that A's first action makes worst for A.
    """
    _check_signal(game, f_a, "A")
    _check_signal(game, f_b, "B")
    return _solve_behavioral_lp(game.prior, game.payoff,
                                np.asarray(f_a.map), f_a.signal_count,
                                np.asarray(f_b.map), f_b.signal_count)


def payoff_against_pure(mass, payoff, b_sees_state):
    """A's payoff mass against each pure action of B, per cell B observes.

    mass[..., s, a] is the (state, A's action) mass in each cell of what B
    observes besides the state; payoff is indexed [a, b, s].  Returns
    w[..., s, b] if B sees the state, else w[..., b]: each state is
    contracted over a first, and the states are summed after.  B's minimum
    in a cell is w.min(axis=-1); its best response is `best_response`.
    """
    w = np.einsum("...sa,abs->...sb", mass, payoff)
    return w if b_sees_state else w.sum(axis=-2)


def best_response(mass, payoff, b_sees_state):
    """B's best response per cell of `payoff_against_pure`: the lowest index within a
    rounding bound (a few eps of the same contraction on |mass| and |payoff|) of the min."""
    w = payoff_against_pure(mass, payoff, b_sees_state)
    bound = 4 * _ROUNDING * payoff_against_pure(np.abs(mass), np.abs(payoff), b_sees_state)
    return (w - bound <= (w + bound).min(axis=-1, keepdims=True)).argmax(axis=-1)


def min_payoff_given_observation(joint, payoff, a_axis, s_axis, observed_axes):
    """Minimum average payoff when B best-responds within each observation cell.

    joint: distribution over several variables including the state axis and
    Player A's action axis.  B observes the axes in `observed_axes` (which may
    not include the action axis) and plays a pure best response per cell; the
    minimum is attained there, so enumeration over pure actions suffices.
    """
    joint = np.asarray(joint, dtype=float)
    nd = joint.ndim
    if a_axis in observed_axes:
        raise ContractViolationError("B cannot observe the current action")
    # w[..., b] replaces the action axis with B's action
    moved = np.moveaxis(joint, (s_axis, a_axis), (nd - 2, nd - 1))
    w = np.einsum("...sa,abs->...sb", moved, payoff)
    # moved axes order: remaining axes..., s, b
    rest = [ax for ax in range(nd) if ax not in (s_axis, a_axis)]
    keep = []
    for pos, ax in enumerate(rest):
        if ax in observed_axes:
            keep.append(pos)
    if s_axis in observed_axes:
        keep.append(len(rest))  # the s position
    sum_axes = tuple(i for i in range(w.ndim - 1) if i not in keep)
    cells = w.sum(axis=sum_axes) if sum_axes else w
    cells = cells.reshape(-1, cells.shape[-1])
    return float(cells.min(axis=1).sum())


def best_response_payoff(game: Game, p_u, p_s_given_u: ConditionalDistribution,
                         p_a_given_u: ConditionalDistribution,
                         b_sees_s: bool, b_sees_u: bool) -> float:
    """Minimum average payoff to A when B best-responds given its knowledge.

    The triple (p_u, p_s|u, p_a|u) defines a joint over (U, S, A) with
    S - U - A Markov.  B observes S and/or U as flagged and plays the
    minimizing measurable strategy.
    """
    pu = validate_prob_vector(p_u, what="p_u")
    if p_s_given_u.from_size != pu.size or p_s_given_u.to_size != game.n_states:
        raise ContractViolationError("p_s_given_u dimensions do not match")
    if p_a_given_u.from_size != pu.size or p_a_given_u.to_size != game.n_actions_a:
        raise ContractViolationError("p_a_given_u dimensions do not match")
    marg_s = pu @ p_s_given_u.rows
    if np.max(np.abs(marg_s - game.prior)) > MARGINAL_TOL:
        raise ContractViolationError(
            f"state marginal {marg_s} does not match game prior {game.prior}")
    joint = pu[:, None, None] * p_s_given_u.rows[:, :, None] * p_a_given_u.rows[:, None, :]
    observed = []
    if b_sees_u:
        observed.append(0)
    if b_sees_s:
        observed.append(1)
    return min_payoff_given_observation(joint, game.payoff, a_axis=2, s_axis=1,
                                        observed_axes=tuple(observed))
