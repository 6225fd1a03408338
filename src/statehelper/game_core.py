"""Finite zero-sum Bayesian games: exact values, optimal strategies, best-response payoffs.

Payoff tensors are stored with index order (a, b, s) and give the payoff to
Player A (the maximizer); Player B receives the negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

from .errors import ContractViolationError

PROB_TOL = 1e-12
LP_TOL = 1e-9
# HiGHS stops at 1e-7 by default, which leaves gaps above LP_TOL on some games
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}

DEFAULT_NEG_INF = -1e6


def validate_prob_vector(p, tol=PROB_TOL, what="probability vector"):
    """Check finiteness, nonnegativity and normalization; renormalize drift
    below `tol`."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ContractViolationError(f"{what} has non-finite entries: {p}")
    if np.any(p < -tol):
        raise ContractViolationError(f"{what} has negative entries: {p}")
    p = np.clip(p, 0.0, None)
    s = p.sum()
    if abs(s - 1.0) > tol * max(1.0, p.size):
        raise ContractViolationError(f"{what} sums to {s}, expected 1")
    return p / s


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

    @staticmethod
    def deterministic(mapping, from_size, to_size):
        rows = np.zeros((from_size, to_size))
        for i in range(from_size):
            rows[i, mapping[i]] = 1.0
        return ConditionalDistribution(rows)

    @staticmethod
    def constant(dist, from_size):
        return ConditionalDistribution(np.tile(np.asarray(dist, dtype=float), (from_size, 1)))


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


def _solve_behavioral_lp(prior, payoff, map_a, signals_a, map_b, signals_b):
    """Value and behavior strategies of a Bayesian game with deterministic signals.

    Player A sees map_a[s], Player B sees map_b[s].  One LP over A's behavior
    strategy x(a|g) and a value v_h per B signal: maximize sum_h v_h subject
    to v_h <= sum_{s: map_b(s)=h} prior(s) sum_a x(a|map_a(s)) payoff(a,b,s)
    for every (h, b) and sum_a x(a|g) = 1 (Koller, Megiddo and von Stengel,
    STOC 1994).  B's behavior strategy y(b|h) is the dual of the (h, b) rows.
    The value is what x guarantees; lp_gap is what y concedes minus that.
    """
    na, nb, _ = payoff.shape
    nx = signals_a * na
    a, b, s = np.indices(payoff.shape).reshape(3, -1)
    h_b = np.arange(signals_b * nb)
    A_ub = coo_array(
        (np.concatenate([-prior[s] * payoff.ravel(), np.ones(h_b.size)]),
         (np.concatenate([map_b[s] * nb + b, h_b]),
          np.concatenate([map_a[s] * na + a, nx + h_b // nb]))),
        shape=(h_b.size, nx + signals_b))
    A_eq = coo_array((np.ones(nx), (np.arange(nx) // na, np.arange(nx))),
                     shape=(signals_a, nx + signals_b))
    c = np.concatenate([np.zeros(nx), -np.ones(signals_b)])
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(h_b.size), A_eq=A_eq,
                  b_eq=np.ones(signals_a),
                  bounds=[(0, None)] * nx + [(None, None)] * signals_b,
                  method="highs", options=HIGHS_OPTIONS)
    if not res.success:
        raise RuntimeError(f"behavioral-strategy LP failed: {res.message}")
    x = _normalized_rows(res.x[:nx].reshape(signals_a, na))
    y = _normalized_rows(-res.ineqlin.marginals.reshape(signals_b, nb))
    # each strategy's payoff in every (signal, pure action) cell of the opponent
    weighted = payoff * prior
    cells_x = np.zeros((signals_b, nb))
    np.add.at(cells_x, map_b, np.einsum("sa,abs->sb", x[map_a], weighted))
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
    """
    _check_signal(game, f_a, "A")
    _check_signal(game, f_b, "B")
    return _solve_behavioral_lp(game.prior, game.payoff,
                                np.asarray(f_a.map), f_a.signal_count,
                                np.asarray(f_b.map), f_b.signal_count)


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
                         b_sees_s: bool, b_sees_u: bool,
                         marginal_tol: float = 1e-9) -> float:
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
    if np.max(np.abs(marg_s - game.prior)) > marginal_tol:
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
