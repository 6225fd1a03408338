"""Discrete information-theoretic quantities, in bits.

Includes a seeded multistart numeric search for Wyner's common information:
the minimum of I(S,A;U) over auxiliary variables U making S and A
conditionally independent while reproducing the target joint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import ContractViolationError, InfeasibleDecompositionError
from .game_core import ConditionalDistribution, validate_prob_vector

MASS_TOL = 1e-12
FEASIBILITY_TOL = 1e-6  # total variation between reconstructed and target joint


def _entropy_bits(p) -> float:
    """-sum q log2 q over the positive entries q of the array p (0 log 0 = 0).

    Unchecked: p is taken to be a pmf of any shape.
    """
    q = p[p > 0]
    return float(-(q * np.log2(q)).sum())


def entropy(p) -> float:
    """Shannon entropy -sum p log2 p with 0 log 0 = 0."""
    p = validate_prob_vector(np.ravel(np.asarray(p, dtype=float)), tol=1e-9, what="pmf")
    return _entropy_bits(p)


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
        if np.any(mass < -MASS_TOL):
            raise ContractViolationError("joint mass has negative entries")
        mass = np.clip(mass, 0.0, None)
        total = mass.sum()
        if abs(total - 1.0) > MASS_TOL * max(1, mass.size):
            raise ContractViolationError(f"joint mass sums to {total}, expected 1")
        mass = mass / total
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


def _marginal_entropy(joint, axes):
    return _entropy_bits(joint.marginal(tuple(axes)))


def mutual_information(joint: JointDistribution, group_x, group_y) -> float:
    """I(X;Y) between two disjoint groups of axes covering the joint."""
    group_x, group_y = tuple(group_x), tuple(group_y)
    _check_grouping(joint, (group_x, group_y))
    hx = _marginal_entropy(joint, group_x)
    hy = _marginal_entropy(joint, group_y)
    hxy = _entropy_bits(joint.mass)
    return max(hx + hy - hxy, 0.0)


def conditional_mutual_information(joint: JointDistribution, group_x, group_y,
                                   group_z) -> float:
    """I(X;Y|Z) for three disjoint groups of axes covering the joint."""
    group_x, group_y, group_z = tuple(group_x), tuple(group_y), tuple(group_z)
    _check_grouping(joint, (group_x, group_y, group_z))
    hxz = _marginal_entropy(joint, group_x + group_z)
    hyz = _marginal_entropy(joint, group_y + group_z)
    hz = _marginal_entropy(joint, group_z)
    hxyz = _entropy_bits(joint.mass)
    return max(hxz + hyz - hz - hxyz, 0.0)


@dataclass(frozen=True)
class CommonInfoSearch:
    """Search budget for the common-information minimization."""

    restarts: int = 120
    iterations: int = 400
    seed: int = 0
    penalty: float = 1e4
    polish_penalty: float = 1e7


@dataclass(frozen=True)
class CommonInfoResult:
    value: float
    aux_cardinality: int
    p_u: np.ndarray
    p_s_given_u: ConditionalDistribution
    p_a_given_u: ConditionalDistribution
    achieved_joint_error: float


def _decomposition_joint(pu, ps, pa):
    return pu[:, None, None] * ps[:, :, None] * pa[:, None, :]


def _softmax(z, axis=-1):
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _pad_rows(rows, n_rows):
    """rows extended to n_rows with uniform rows."""
    out = np.full((n_rows, rows.shape[1]), 1.0 / rows.shape[1])
    out[:rows.shape[0]] = rows
    return out


def _unpack(theta, nu, ns, na):
    zu = theta[:nu]
    zs = theta[nu:nu + nu * ns].reshape(nu, ns)
    za = theta[nu + nu * ns:].reshape(nu, na)
    return _softmax(zu), _softmax(zs), _softmax(za)


def _logits(p, floor=1e-12):
    return np.log(np.clip(p, floor, None))


def _safe_log(x):
    return np.log(np.maximum(x, 1e-300))


def _ci_objective(theta, target, nu, ns, na, penalty):
    """Penalized I(S,A;U) in nats with its gradient w.r.t. softmax logits."""
    pu, ps, pa = _unpack(theta, nu, ns, na)
    r = _decomposition_joint(pu, ps, pa)
    rsa = r.sum(axis=0)
    log_ps, log_pa, log_rsa = _safe_log(ps), _safe_log(pa), _safe_log(rsa)
    # I(S,A;U) * ln 2 = sum r (ln ps + ln pa) - sum rsa ln rsa
    i_nats = float((r * (log_ps[:, :, None] + log_pa[:, None, :])).sum()
                   - (rsa * log_rsa).sum())
    diff = rsa - target
    f = i_nats + penalty * float(np.square(diff).sum())

    core = log_ps[:, :, None] + log_pa[:, None, :] - log_rsa[None, :, :] \
        + 2.0 * penalty * diff[None, :, :]
    w = ps[:, :, None] * pa[:, None, :]
    # constant offsets vanish under the softmax projection below
    g_pu = (w * core).sum(axis=(1, 2))
    g_ps = pu[:, None] * (pa[:, None, :] * core).sum(axis=2)
    g_pa = pu[:, None] * (ps[:, :, None] * core).sum(axis=1)

    def back(p, g):
        return p * (g - (p * g).sum(axis=-1, keepdims=True))

    grad = np.concatenate([back(pu, g_pu),
                           back(ps, g_ps).ravel(),
                           back(pa, g_pa).ravel()])
    return f, grad


def _seed_points(target, nu, rng, restarts):
    ns, na = target.shape
    ps_marg = target.sum(axis=1)
    pa_marg = target.sum(axis=0)
    seeds = []

    def pad_vec(v, n):
        out = np.full(n, 1e-9)
        out[:v.size] = v
        return out / out.sum()

    with np.errstate(divide="ignore", invalid="ignore"):
        a_given_s = np.where(ps_marg[:, None] > 0, target / ps_marg[:, None], 1.0 / na)
        s_given_a = np.where(pa_marg[None, :] > 0, target / pa_marg[None, :], 1.0 / ns).T
    if nu >= ns:  # U = S
        seeds.append((pad_vec(ps_marg, nu), _pad_rows(np.eye(ns), nu),
                      _pad_rows(a_given_s, nu)))
    if nu >= na:  # U = A
        seeds.append((pad_vec(pa_marg, nu), _pad_rows(s_given_a, nu),
                      _pad_rows(np.eye(na), nu)))
    if nu >= ns * na:  # U = (S, A)
        pu = pad_vec(target.ravel(), nu)
        ps = _pad_rows(np.repeat(np.eye(ns), na, axis=0), nu)
        pa = _pad_rows(np.tile(np.eye(na), (ns, 1)), nu)
        seeds.append((pu, ps, pa))
    # U constant (feasible only for product targets, filtered later)
    seeds.append((pad_vec(np.array([1.0]), nu),
                  _pad_rows(ps_marg[None, :], nu), _pad_rows(pa_marg[None, :], nu)))
    while len(seeds) < restarts:
        pu = rng.dirichlet(np.ones(nu))
        ps = rng.dirichlet(np.ones(ns), size=nu)
        pa = rng.dirichlet(np.ones(na), size=nu)
        seeds.append((pu, ps, pa))
    return seeds


def wyner_common_information(target: JointDistribution, max_card_u: int,
                             search: CommonInfoSearch = CommonInfoSearch()
                             ) -> CommonInfoResult:
    """Best-found Markov decomposition S - U - A minimizing I(S,A;U).

    The problem is nonconvex, so the result is an upper bound ("best found").
    Deterministic seeded restarts always include U=S, U=A and, when the
    cardinality allows, U=(S,A), so the trivial upper bounds are never missed.

    Raises InfeasibleDecompositionError if no restart reconstructs the target
    joint within total variation FEASIBILITY_TOL.
    """
    if target.mass.ndim != 2:
        raise ContractViolationError("target must be a joint over exactly (S, A)")
    if max_card_u < 1:
        raise ContractViolationError("max_card_u must be >= 1")
    tgt = target.mass
    ns, na = tgt.shape
    nu = max_card_u
    rng = np.random.default_rng(search.seed)
    best = None
    for pu0, ps0, pa0 in _seed_points(tgt, nu, rng, search.restarts):
        theta = np.concatenate([_logits(pu0), _logits(ps0).ravel(), _logits(pa0).ravel()])
        for penalty in (search.penalty, search.polish_penalty):
            res = minimize(_ci_objective, theta, jac=True,
                           args=(tgt, nu, ns, na, penalty),
                           method="L-BFGS-B",
                           options={"maxiter": search.iterations, "ftol": 1e-14,
                                    "gtol": 1e-12})
            theta = res.x
        pu, ps, pa = _unpack(theta, nu, ns, na)
        rsa = _decomposition_joint(pu, ps, pa).sum(axis=0)
        tv = 0.5 * np.abs(rsa - tgt).sum()
        if tv > FEASIBILITY_TOL:
            continue
        joint = JointDistribution(
            _decomposition_joint(pu, ps, pa) / _decomposition_joint(pu, ps, pa).sum())
        value = mutual_information(joint, (0,), (1, 2))
        if best is None or value < best.value:
            best = CommonInfoResult(
                value=float(value), aux_cardinality=nu, p_u=pu,
                p_s_given_u=ConditionalDistribution(ps),
                p_a_given_u=ConditionalDistribution(pa),
                achieved_joint_error=float(tv))
    if best is None:
        raise InfeasibleDecompositionError(
            f"no decomposition with |U|={nu} reached total variation "
            f"{FEASIBILITY_TOL} of the target joint")
    return best
