"""Discrete information-theoretic quantities, in bits.

Includes a seeded multistart numeric search for Wyner's common information:
the minimum of I(S,A;U) over auxiliary variables U making S and A
conditionally independent while reproducing the target joint.  All restarts
run as one array iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InfeasibleDecompositionError
from .game_core import ConditionalDistribution, validate_prob_vector

MASS_TOL = 1e-12
FEASIBILITY_TOL = 1e-10  # total variation between a reported decomposition and the target
_EPS = np.finfo(float).eps


def __getattr__(name):
    # bench/spans.py wraps `minimize` in this module.  The name is resolved
    # on first access only, so importing the toolkit never loads scipy.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _entropy_rows(p, n_axes):
    """-sum q log2 q over the last n_axes axes of p, for each leading index.

    A zero cell adds a zero term, so each entropy is one sum over all the
    cells of its block, whatever the other blocks hold.
    """
    lead, cells = p.shape[:p.ndim - n_axes], p.shape[p.ndim - n_axes:]
    terms = p * np.log2(np.where(p > 0, p, 1.0))
    return -terms.reshape(lead + (math.prod(cells),)).sum(axis=-1)


def entropy(p) -> float:
    """Shannon entropy -sum p log2 p with 0 log 0 = 0."""
    p = validate_prob_vector(np.ravel(np.asarray(p, dtype=float)), tol=1e-9, what="pmf")
    return float(_entropy_rows(p, 1))


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable."""
    if not 0.0 <= p <= 1.0:
        raise ContractViolationError(f"binary_entropy argument {p} outside [0, 1]")
    return entropy(np.array([p, 1.0 - p]))


def inverse_binary_entropy(h: float, tol: float = 1e-12) -> float:
    """The p in [0, 1/2] with binary_entropy(p) = h, by bisection."""
    if not 0.0 <= h <= 1.0:
        raise ContractViolationError(f"entropy value {h} outside [0, 1]")
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if binary_entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class JointDistribution:
    """Nonnegative mass tensor over several finite variables, summing to 1."""

    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        mass = validate_prob_vector(mass.ravel(), tol=MASS_TOL,
                                    what="joint mass").reshape(mass.shape)
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @property
    def shape(self):
        return self.mass.shape

    def marginal(self, axes):
        axes = tuple(axes)
        drop = tuple(i for i in range(self.mass.ndim) if i not in axes)
        m = self.mass.sum(axis=drop) if drop else self.mass
        # keep requested axis order
        order = tuple(sorted(range(len(axes)), key=lambda i: axes[i]))
        if order != tuple(range(len(axes))):
            inv = np.argsort(np.argsort(axes))
            m = np.moveaxis(m, range(len(axes)), inv)
        return m


def _check_grouping(joint, groups):
    all_axes = sorted(ax for g in groups for ax in g)
    if all_axes != list(range(joint.mass.ndim)):
        raise ContractViolationError(
            f"grouping {groups} is not a disjoint cover of axes 0..{joint.mass.ndim - 1}")


def _information(joint, plus, minus):
    """The entropies of the axis groups `plus` less those of `minus`, summed
    left to right and floored at 0.  A total within the entropies' rounding
    error (an ulp of their sum per cell) is 0 too, so an independent joint
    reads 0 whichever way its entropies round."""
    total = size = 0.0
    for sign, group in [(1.0, g) for g in plus] + [(-1.0, g) for g in minus]:
        h = float(_entropy_rows(joint.marginal(group), len(group)))
        total, size = total + sign * h, size + h
    return total if total > joint.mass.size * _EPS * size else 0.0


def mutual_information(joint: JointDistribution, group_x, group_y) -> float:
    """I(X;Y) between two disjoint groups of axes covering the joint."""
    group_x, group_y = tuple(group_x), tuple(group_y)
    _check_grouping(joint, (group_x, group_y))
    return _information(joint, (group_x, group_y), (tuple(range(joint.mass.ndim)),))


def conditional_mutual_information(joint: JointDistribution, group_x, group_y,
                                   group_z) -> float:
    """I(X;Y|Z) for three disjoint groups of axes covering the joint."""
    group_x, group_y, group_z = tuple(group_x), tuple(group_y), tuple(group_z)
    _check_grouping(joint, (group_x, group_y, group_z))
    return _information(joint, (group_x + group_z, group_y + group_z),
                        (group_z, tuple(range(joint.mass.ndim))))


@dataclass(frozen=True)
class CommonInfoSearch:
    """Search budget for the common-information minimization.

    restarts counts every start, the structured ones included, and must be
    at least 1; a count that leaves no random start answers from the
    structured starts alone, without a block step.  iterations caps the
    block steps at each penalty weight of the first continuation (the
    second allows twice as many): a weight ends sooner once both terms of
    every restart's objective have stalled, moving by at most 1e-12
    relative over one group of three steps.  Each expectation-maximization
    fit likewise ends once no candidate's value or total variation moves.
    The default restart count is the smallest that finds C(S;A) = H(1/4) of
    the reference erasure joint for every seed 0-999; harder joints can
    need more.
    """

    restarts: int = 8
    iterations: int = 21
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ContractViolationError(
                f"common-information restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class CommonInfoResult:
    """The best decomposition found, with counters that explain the search.

    restarts_feasible counts the restarts whose decomposition reproduces the
    target within FEASIBILITY_TOL, restarts_near_best those of them whose
    value is within 1e-9 of the best, and steps the block steps taken (the
    restarts step together, so each took that many).
    """

    value: float
    aux_cardinality: int
    p_u: np.ndarray
    p_s_given_u: ConditionalDistribution
    p_a_given_u: ConditionalDistribution
    achieved_joint_error: float
    restarts_run: int
    restarts_feasible: int
    restarts_near_best: int
    steps: int


# Penalty schedule of the Wyner search.  A continuation raises the weight
# gamma geometrically from its start to _GAMMA_MID and on to _GAMMA_END, in
# the two stage counts it is given.  The first continuation starts random
# restart k at its own weight, spread geometrically over _GAMMA_START; the
# second starts from every fitted decomposition at _GAMMA_REFINE, with a
# share _REOPEN of uniform W mixed in so that entries the fit cut can grow
# back, and allows twice the block steps at each weight.
_GAMMA_START = (4.0, 1e3)
_GAMMA_MID = 1e3
_GAMMA_END = 1e13
_SEARCH_STAGES = (30, 20)
_GAMMA_REFINE = 1e2
_REFINE_STAGES = (60, 20)
_REOPEN = 1e-6
_FLOOR = 1e-12  # uniform share mixed into a random restart's backward channel
_MAX_EXTRAPOLATION = 30.0
# factor entries below each of these are zero in one fit of every restart
_SUPPORT_TOLS = (1e-9, 1e-6, 1e-4)
_POLISH_STEPS = 400
_NEAR_BEST = 1e-9
# a weight of a continuation ends once both terms of every restart's
# objective moved by at most _STALL (1 + |term|) over one accelerated group
_STALL = 1e-12
# a fit ends once no candidate's value (in bits) or total variation moved by
# more than _FIT_STALL over _FIT_CHECK steps
_FIT_CHECK = 10
_FIT_STALL = 1e-13


def _w_starts(target, nu, rng, restarts):
    """(structured, random) backward channels W(u|s,a), each (R, nu, |S|, |A|).

    The structured starts are U = S, U = A, U = (S, A) when the cardinality
    allows, and constant U.  Each is a fixed point of the block steps, so
    they skip the continuation, and of the trivial upper bounds H(S), H(A)
    and H(S,A) none whose start is there is missed.
    """
    ns, na = target.shape
    s_idx, a_idx = np.indices((ns, na))
    labels = [s_idx] if nu >= ns else []
    if nu >= na:
        labels.append(a_idx)
    if nu >= ns * na:
        labels.append(s_idx * na + a_idx)
    labels.append(np.zeros_like(s_idx))
    structured = (np.arange(nu)[None, :, None, None]
                  == np.array(labels)[:, None]).astype(float)
    # a random start is the backward channel of a random decomposition
    n_random = max(restarts - len(labels), 0)
    pu = rng.dirichlet(np.ones(nu), size=n_random)
    qs = rng.dirichlet(np.ones(ns), size=(n_random, nu))
    qa = rng.dirichlet(np.ones(na), size=(n_random, nu))
    return structured, _backward_channel(pu, qs, qa)


def _backward_channel(pu, qs, qa):
    """W(u|s,a) proportional to p(u)Q(s|u)Q(a|u); 0 where every u has 0."""
    w = pu[:, :, None, None] * qs[..., None] * qa[:, :, None, :]
    return w / np.maximum(w.sum(axis=1, keepdims=True), 1e-300)


def _markov_factors(r):
    """p(u), Q(s|u), Q(a|u) of r(u,s,a); dead symbols get zero rows."""
    pu = r.sum(axis=(2, 3))
    scale = 1.0 / np.maximum(pu, 1e-300)[..., None]
    return pu, r.sum(axis=3) * scale, r.sum(axis=2) * scale


def _log(x):
    return np.log(np.maximum(x, 1e-300))


def _block_step(target, w, beta, floor, log_w=None):
    """One block step from W, and given log_w = log W also the two terms of
    the objective at W.

    p(u), Q(s|u), Q(a|u) are the marginals of r = target * W, and the new W
    is proportional to p(u) [Q(s|u) Q(a|u)]^beta, with a share floor of
    uniform W mixed in.  With beta = gamma / (1 + gamma) both halves are
    exact minimizations of I(S,A;U) + gamma I(S;A|U) over W.  The objective
    is that sum divided by 1 + gamma, up to a constant: i - beta c, where
    i = sum r [log W - log p(u)] is I(S,A;U) in nats and
    c = sum r log Q(s|u) Q(a|u).  At beta = 1 and floor 0 the step is
    expectation maximization, which raises
    sum target log(sum_u p(u)Q(s|u)Q(a|u)) and keeps zero entries zero.
    """
    r = target * w
    pu, qs, qa = _markov_factors(r)
    q = qs[..., None] * qa[:, :, None, :]
    w_next = pu[:, :, None, None] * q ** beta
    w_next *= (1.0 - floor) / np.maximum(w_next.sum(axis=1, keepdims=True), 1e-300)
    if floor:
        w_next += floor / w.shape[1]
    if log_w is None:
        return w_next
    return w_next, np.array([(r * (log_w - _log(pu)[:, :, None, None])).sum(axis=(1, 2, 3)),
                             (r * _log(q)).sum(axis=(1, 2, 3))])


def _accelerated_steps(target, w, beta):
    """Three block steps with one SQUAREM extrapolation in log W
    (Varadhan and Roland, Scand. J. Statist. 2008), and the objective's two
    terms (see _block_step) one step before the returned W.  The
    extrapolated point is kept only where its objective is no higher than
    after one plain step, so the objective never rises.  W carries a floor
    share, so its logs are finite.
    """
    lw = np.log(w)
    w1 = _block_step(target, w, beta, _FLOOR)
    lw1 = np.log(w1)
    w2, t1 = _block_step(target, w1, beta, _FLOOR, lw1)
    d1 = lw1 - lw
    d2 = np.log(w2) - lw1 - d1
    alpha = np.sqrt((d1 ** 2).sum(axis=(1, 2, 3))
                    / np.maximum((d2 ** 2).sum(axis=(1, 2, 3)), 1e-300))
    alpha = alpha.clip(1.0, _MAX_EXTRAPOLATION)[:, None, None, None]
    z = lw + 2.0 * alpha * d1 + alpha ** 2 * d2
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    w3, t3 = _block_step(target, e / total, beta, _FLOOR, z - np.log(total))
    b = beta[:, 0, 0, 0]
    keep = t3[0] - b * t3[1] <= t1[0] - b * t1[1]
    return np.where(keep[:, None, None, None], w3, w2), np.where(keep, t3, t1)


def _continuation(target, w, gamma0, gamma_start, stages, iterations):
    """Minimize I(S,A;U) + gamma I(S;A|U) over W while gamma rises; returns
    W and the block steps taken.

    Restart k starts at weight max(gamma0[k], gamma_start) and takes up to
    iterations block steps (in groups of three, see _accelerated_steps) at
    each weight.  A weight ends early once, for every restart, each of the
    objective's two terms moved by at most _STALL (1 + |term|) over one
    group, the last group of the previous weight included: the terms are
    functions of W alone.  They are tested apart because at a large weight
    the objective cannot resolve a change of I(S,A;U).  A
    share _FLOOR of uniform W keeps every symbol and entry alive, so none is
    lost for good before the penalty needs it.
    """
    gammas = np.concatenate([
        np.geomspace(gamma_start, _GAMMA_MID, stages[0]),
        np.geomspace(_GAMMA_MID, _GAMMA_END, stages[1] + 1)[1:]])
    groups = max(iterations // 3, 1)
    steps, last = 0, np.inf
    for gamma in gammas:
        g = np.maximum(gamma0, gamma)
        beta = (g / (1.0 + g))[:, None, None, None]
        for _ in range(groups):
            w, terms = _accelerated_steps(target, w, beta)
            steps += 3
            if np.all(np.abs(terms - last) <= _STALL * (1.0 + np.abs(terms))):
                break
            last = terms
    return w, steps


def _polish_candidates(target, pu, qs, qa):
    """(V, R) factor triples the final fit starts from.

    Every support cut of _SUPPORT_TOLS is one.  The penalty leaves its slack
    where it is cheapest, on small and zero cells of the target, and two
    more candidates undo that on the middle cut: one moves each restart's
    least-used symbol to a point mass on the smallest positive cell, which a
    symbol of its own fits exactly; the other gives every zero cell (s,a)
    an exact zero, dropping Q(s|u) or Q(a|u) of each symbol u that puts
    mass there, whichever carries the smaller share of its target marginal.
    """
    cuts = [tuple(np.where(x < tol, 0.0, x) for x in (pu, qs, qa))
            for tol in _SUPPORT_TOLS]
    pu, qs, qa = cuts[len(cuts) // 2]

    dedicated = [x.copy() for x in (pu, qs, qa)]
    s, a = np.unravel_index(np.argmin(np.where(target > 0, target, np.inf)),
                            target.shape)
    rows, least = np.arange(pu.shape[0]), np.argmin(pu, axis=1)
    dedicated[0][rows, least] = target[s, a]
    dedicated[1][rows, least] = np.eye(target.shape[0])[s]
    dedicated[2][rows, least] = np.eye(target.shape[1])[a]

    share_s = pu[..., None] * qs / np.maximum(target.sum(axis=1), 1e-300)
    share_a = pu[..., None] * qa / np.maximum(target.sum(axis=0), 1e-300)
    conflict = (target == 0) & (qs[..., None] > 0) & (qa[..., None, :] > 0)
    drop_s = conflict & (share_s[..., None] <= share_a[..., None, :])
    zeroed = (pu, np.where(drop_s.any(axis=3), 0.0, qs),
              np.where((conflict & ~drop_s).any(axis=2), 0.0, qa))
    return [np.stack(x) for x in zip(*cuts, dedicated, zeroed)]


def _fit(target, pu, qs, qa, steps):
    """Expectation-maximization block steps (beta = 1, no floor) from the
    decomposition p(u)Q(s|u)Q(a|u); returns the fitted factors, their
    I(S,A;U) and total variation, and the steps taken.

    The fit stops early once, over the last _FIT_CHECK steps, no
    candidate's value or total variation moved by more than _FIT_STALL: the
    feasible ones have converged, and the others are stuck on a support
    that cannot reproduce the target.
    """
    w = _backward_channel(pu, qs, qa)
    taken, last = 0, None
    while True:
        factors = _markov_factors(target * w)
        now = _decomposition_values(target, *factors)
        if taken == steps or last is not None and np.all(
                np.abs(np.subtract(now, last)) <= _FIT_STALL):
            return factors, *now, taken
        last = now
        for _ in range(min(_FIT_CHECK, steps - taken)):
            w = _block_step(target, w, 1.0, 0.0)
        taken = min(taken + _FIT_CHECK, steps)


def _fitted(target, w):
    """Each restart's best fit over its _polish_candidates.

    Returns p(u), Q(s|u), Q(a|u), I(S,A;U) and total variation, one entry per
    restart: the feasible candidate of least value, or the candidate of least
    total variation when none is feasible; and the fit's steps.
    """
    candidates = [x.reshape(-1, *x.shape[2:])
                  for x in _polish_candidates(target, *_markov_factors(target * w))]
    (pu, qs, qa), values, tv, steps = _fit(target, *candidates, _POLISH_STEPS)
    n = w.shape[0]
    # every feasible candidate ranks before every infeasible one
    key = np.where(tv <= FEASIBILITY_TOL, values, values.max() + 1.0 + tv)
    pick = np.argmin(key.reshape(-1, n), axis=0) * n + np.arange(n)
    return (pu[pick], qs[pick], qa[pick], values[pick], tv[pick]), steps


def _decomposition_values(target, pu, qs, qa):
    """(I(S,A;U) in bits, total variation to target) of each p(u)Q(s|u)Q(a|u)."""
    m = pu[..., None, None] * qs[..., None] * qa[..., None, :]
    tv = 0.5 * np.abs(m.sum(axis=-3) - target).sum(axis=(-2, -1))
    m = m / m.sum(axis=(-3, -2, -1), keepdims=True)
    value = (_entropy_rows(m.sum(axis=(-2, -1)), 1)
             + _entropy_rows(m.sum(axis=-3), 2)
             - _entropy_rows(m, 3))
    return np.maximum(value, 0.0), tv


def _random_passes(target, w, iterations):
    """Both continuations and fits from the random starts W: the first and
    the second pass's decompositions (see _fitted), and the block steps
    taken."""
    n_random, nu = w.shape[:2]
    w, steps = _continuation(target, w, np.geomspace(*_GAMMA_START, n_random),
                             _GAMMA_START[0], _SEARCH_STAGES, iterations)
    first, fit_steps = _fitted(target, w)
    # the second pass restarts from every fitted decomposition
    w = (1.0 - _REOPEN) * _backward_channel(*first[:3]) + _REOPEN / nu
    w, more = _continuation(target, w, np.zeros(n_random), _GAMMA_REFINE,
                            _REFINE_STAGES, 2 * iterations)
    second, more_fit = _fitted(target, w)
    return [first, second], steps + fit_steps + more + more_fit


def wyner_common_information(target: JointDistribution, max_card_u: int,
                             search: CommonInfoSearch = CommonInfoSearch()
                             ) -> CommonInfoResult:
    """Best-found Markov decomposition S - U - A minimizing I(S,A;U).

    All restarts run as one array iteration.  Each is parametrized by its
    backward channel W(u|s,a), so r = target * W reproduces the target
    exactly, and minimizes I(S,A;U) + gamma I(S;A|U) over W by exact
    alternating block steps (Blahut-Arimoto style): p(u), Q(s|u), Q(a|u)
    are the marginals of r, then W is proportional to
    p(u) [Q(s|u) Q(a|u)]^(gamma/(1+gamma)).  Neither step raises the
    objective, SQUAREM extrapolation (kept only where it does not raise the
    objective either) speeds them up, and gamma rises by continuation to
    1e13.  Expectation-maximization steps then fit each restart's
    decomposition to the target, from several candidates that differ in how
    they treat the slack the penalty leaves on small and zero cells (see
    _polish_candidates).  A second continuation starts from every fitted
    decomposition, with cut entries reopened, and is fitted the same way:
    the fit's cuts can close a support that a better decomposition needs,
    and the first continuation can stop short of its minimum.  Each weight
    ends once the objective has stalled for every restart, and each fit
    once nothing moves (see CommonInfoSearch), so result.steps counts the
    block steps actually taken.  When search.restarts leaves no random
    start, the answer is the best structured start and no step is taken.

    The reported value is I(S,A;U) of a decomposition p(u)Q(s|u)Q(a|u) that
    reproduces the target within total variation FEASIBILITY_TOL, so it is
    an upper bound on C(S;A) up to that tolerance; the problem is
    nonconvex, so the bound is "best found".  The starts include U = S,
    U = A and U = (S, A) whenever max_card_u is at least |S|, |A| and |S||A|
    respectively, and the trivial upper bound each gives is then never
    missed.  With max_card_u below |S|, no start guarantees H(S) (likewise
    for A).

    Raises InfeasibleDecompositionError if no restart reconstructs the target
    joint within FEASIBILITY_TOL.
    """
    if target.mass.ndim != 2:
        raise ContractViolationError("target must be a joint over exactly (S, A)")
    if max_card_u < 1:
        raise ContractViolationError("max_card_u must be >= 1")
    tgt = target.mass
    nu = max_card_u
    rng = np.random.default_rng(search.seed)
    structured, w = _w_starts(tgt, nu, rng, search.restarts)
    n_random = w.shape[0]
    # the structured starts are exact already
    exact = _markov_factors(tgt * structured)
    found, steps = [exact + _decomposition_values(tgt, *exact)], 0
    if n_random:
        passes, steps = _random_passes(tgt, w, search.iterations)
        found += passes
    pu, qs, qa, values, tv = (np.concatenate(x) for x in zip(*found))
    values = np.where(tv <= FEASIBILITY_TOL, values, np.inf)
    if not np.isfinite(values).any():
        raise InfeasibleDecompositionError(
            f"no decomposition with |U|={nu} reached total variation "
            f"{FEASIBILITY_TOL} of the target joint")
    k = int(np.argmin(values))
    n_structured = structured.shape[0]
    per_restart = np.concatenate([
        values[:n_structured],
        values[n_structured:].reshape(2, n_random).min(axis=0)])
    rows_s = np.where(pu[k, :, None] > 0, qs[k], 1.0 / tgt.shape[0])
    rows_a = np.where(pu[k, :, None] > 0, qa[k], 1.0 / tgt.shape[1])
    return CommonInfoResult(
        value=float(values[k]), aux_cardinality=nu, p_u=pu[k],
        p_s_given_u=ConditionalDistribution(rows_s),
        p_a_given_u=ConditionalDistribution(rows_a),
        achieved_joint_error=float(tv[k]),
        restarts_run=int(per_restart.size),
        restarts_feasible=int(np.isfinite(per_restart).sum()),
        restarts_near_best=int((per_restart <= values[k] + _NEAR_BEST).sum()),
        steps=steps)
