"""Output parsers and correctness checks, computed apart from the program.

Each checker returns a list of error strings; an empty list means the output
passed.  A parser raises `Malformed` when the text does not have the shape the
CLI promises, which the benchmark counts as a failed operation.

Statistical tolerances come from CLT intervals: a simulated per-position
payoff lies in [lo, hi], the range of the game's payoffs over the (s, a)
pairs the scheme plays, so its standard deviation is at most (hi - lo) / 2
(Popoviciu); a decode probability lies in [0, 1], so its standard deviation
is at most 1/2.  Means over T trials (and K positions, which are
conditionally independent given the trial's codeword) get Z standard errors
either side.  All information quantities are computed here with math.log2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from workloads import INFO_LEVELS, info_signal

Z = 5.0  # standard errors either side of a simulated mean
BLOCK_SLACK = 0.1  # finite-block allowance on the decode crossing, as a share of n
VALUE_TOL = 1e-9
SWEEP_OPTIMIZER_TOL = 0.01  # how far below the closed form the optimizer may land
COMMON_INFO_TOL = 1e-3


class Malformed(ValueError):
    """The CLI output does not have the promised format."""


# ---------------------------------------------------------------------------
# information quantities and reference values


def entropy(p):
    p = np.asarray(p, dtype=float).ravel()
    return -sum(float(x) * math.log2(float(x)) for x in p if x > 0)


def binary_entropy(p):
    return entropy([p, 1.0 - p])


def inverse_binary_entropy(h):
    """The p in [0, 1/2] with H(p) = h, by bisection."""
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scheme_joint(prior, p_u_given_s, p_a_given_u):
    """p(s, u, a) of a scheme."""
    return (np.asarray(prior)[:, None, None] * np.asarray(p_u_given_s)[:, :, None]
            * np.asarray(p_a_given_u)[None, :, :])


def match_reference(j, payoff):
    """Threshold inputs and payoff bounds of a scheme against an informed B.

    j is the scheme's p(s, u, a) and payoff is indexed [a, b, s].  Returns
    I(U;S), I(U;A|S), pi_low_s (B knows the state), pi_low_su (B knows state
    and codeword), the payoff range over the (s, a) pairs the scheme plays,
    and the mean payoff against B's every mixed play, which exists when each
    state leaves B indifferent among its actions (None otherwise).
    """
    h_s = entropy(j.sum(axis=(1, 2)))
    h_su = entropy(j.sum(axis=2))
    h_sa = entropy(j.sum(axis=1))
    i_us = h_s + entropy(j.sum(axis=(0, 2))) - h_su
    i_ua_s = h_su + h_sa - h_s - entropy(j)
    w = np.einsum("sua,abs->sub", j, payoff)  # B's payoff table per (s, u)
    per_state = w.sum(axis=1)  # (s, b)
    pi_low_s = float(per_state.min(axis=1).sum())
    indifferent = np.allclose(per_state, per_state[:, :1], rtol=0, atol=1e-12)
    pi_low_su = float(w.min(axis=2).sum())
    played = j.sum(axis=1) > 0  # (s, a)
    reachable = np.transpose(payoff, (2, 0, 1))[played]  # rows of b payoffs
    return {"i_us": i_us, "i_ua_given_s": i_ua_s, "pi_low_s": pi_low_s,
            "pi_low_su": pi_low_su, "payoff_lo": float(reachable.min()),
            "payoff_hi": float(reachable.max()),
            "oblivious_mean": pi_low_s if indifferent else None}


def behavioral_value(prior, payoff, signal_a, signal_b):
    """Game value by the polynomial-size behavioral-strategy LP.

    Variables x(a | g) for each signal g of A and one value v_h per signal h of
    B: maximize sum_h v_h subject to v_h <= sum_{s: f_B(s)=h} prior(s)
    sum_a x(a | f_A(s)) payoff(a, b, s) for every h and b.  Returns the payoff
    A's normalized strategy guarantees.
    """
    na, nb, ns = payoff.shape
    ga, gb = max(signal_a) + 1, max(signal_b) + 1
    nx = ga * na
    c = np.concatenate([np.zeros(nx), -np.ones(gb)])
    rows = []
    for h in range(gb):
        for b in range(nb):
            row = np.zeros(nx + gb)
            row[nx + h] = 1.0
            for s in range(ns):
                if signal_b[s] == h:
                    row[signal_a[s] * na:(signal_a[s] + 1) * na] -= \
                        prior[s] * payoff[:, b, s]
            rows.append(row)
    a_eq = np.zeros((ga, nx + gb))
    for g in range(ga):
        a_eq[g, g * na:(g + 1) * na] = 1.0
    res = linprog(c, A_ub=np.array(rows), b_ub=np.zeros(len(rows)), A_eq=a_eq,
                  b_eq=np.ones(ga),
                  bounds=[(0, None)] * nx + [(None, None)] * gb, method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    x = np.clip(res.x[:nx].reshape(ga, na), 0.0, None)
    x /= x.sum(axis=1, keepdims=True)
    cells = np.zeros((gb, nb))
    for s in range(ns):
        cells[signal_b[s]] += prior[s] * (x[signal_a[s]] @ payoff[:, :, s])
    return float(cells.min(axis=1).sum())


# ---------------------------------------------------------------------------
# parsers


def _float(text):
    try:
        x = float(text)
    except ValueError:
        raise Malformed(f"{text!r} is not a number") from None
    if not math.isfinite(x):
        raise Malformed(f"{text!r} is not finite")
    return x


def _csv_rows(text, header, width):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise Malformed(f"CSV header is not {header!r}")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != width:
            raise Malformed(f"CSV row {line!r} has {len(fields)} fields")
        rows.append([_float(x) for x in fields])
    return rows


def parse_match(text, n):
    """(per-k mean payoff, per-k decode success) from simulate's CSV."""
    rows = _csv_rows(text, "k,mean_payoff_at_k,decode_success_at_k", 3)
    if [r[0] for r in rows] != list(range(1, n + 1)):
        raise Malformed(f"simulate CSV does not list k = 1..{n}")
    return np.array([r[1] for r in rows]), np.array([r[2] for r in rows])


def parse_sweep(text):
    """[(rate, payoff, alpha)] from sweep's CSV."""
    return [tuple(r) for r in _csv_rows(text, "rate,payoff,alpha", 3)]


def _keyed(text, key):
    for line in text.splitlines():
        if line.startswith(key + ": "):
            return _float(line[len(key) + 2:])
    raise Malformed(f"output has no {key!r} line")


def parse_value(text):
    return {"value": _keyed(text, "value"), "lp_gap": _keyed(text, "lp_gap")}


def parse_common_info(text):
    return _keyed(text, "common_information")


# ---------------------------------------------------------------------------
# checkers


def check_match(pay, dec, trials, ref, rate=None):
    """Per-k and block-mean payoff bounds; with `rate`, also the decode
    crossing and phases."""
    errors = []
    n = pay.size
    sd = 0.5 * (ref["payoff_hi"] - ref["payoff_lo"])
    half = Z * sd / math.sqrt(trials)
    lo, hi = ref["pi_low_su"] - half, ref["pi_low_s"] + half
    bad = np.flatnonzero((pay < lo) | (pay > hi))
    if bad.size:
        errors.append(f"mean payoff at k={bad[0] + 1} is {pay[bad[0]]:.6g}, "
                      f"outside [{lo:.4g}, {hi:.4g}]")
    block_tol = Z * sd / math.sqrt(trials * n)
    if not (ref["pi_low_su"] - block_tol <= pay.mean()
            <= ref["pi_low_s"] + block_tol):
        errors.append(f"block mean payoff {pay.mean():.6g} is outside "
                      f"[{ref['pi_low_su'] - block_tol:.4g}, "
                      f"{ref['pi_low_s'] + block_tol:.4g}]")
    if np.any((dec < 0) | (dec > 1)):
        errors.append("decode success outside [0, 1]")
    if rate is None:
        return errors
    alpha = (rate - ref["i_us"]) / ref["i_ua_given_s"]
    band = Z * 0.5 / math.sqrt(trials)
    # crossing window: the first k whose decode band reaches 1/2, up to the
    # first k whose band lies wholly above 1/2
    reach = np.flatnonzero(dec + band >= 0.5)
    above = np.flatnonzero(dec - band >= 0.5)
    k_lo = reach[0] + 1 if reach.size else n + 1
    k_hi = above[0] + 1 if above.size else n + 1
    if k_hi / n < alpha - BLOCK_SLACK or k_lo / n > alpha + BLOCK_SLACK:
        errors.append(f"decode crosses 1/2 within k in [{k_lo}, {k_hi}], not "
                      f"near alpha*n = {alpha * n:.2f}")
    for name, window, target in (
            ("phase 1", pay[:int(0.3 * n)], ref["pi_low_s"]),
            ("phase 2", pay[int(0.85 * n) - 1:], ref["pi_low_su"])):
        tol = Z * sd / math.sqrt(trials * window.size)
        if abs(window.mean() - target) > tol:
            errors.append(f"{name} mean {window.mean():.6g} is not "
                          f"{target:.4g} within {tol:.4g}")
    return errors


def check_oblivious_mean(pay, trials, ref):
    """Block mean against an oblivious B, whose mix cannot move the mean."""
    target = ref["oblivious_mean"]
    if target is None:
        return ["the scheme leaves B's mix free to move the mean"]
    sd = 0.5 * (ref["payoff_hi"] - ref["payoff_lo"])
    tol = Z * sd / math.sqrt(trials * pay.size)
    if abs(pay.mean() - target) > tol:
        return [f"oblivious mean {pay.mean():.6g} is not {target:.4g} "
                f"within {tol:.4g}"]
    return []


def check_sweep(rows, rates):
    errors = []
    if len(rows) != len(rates):
        return [f"sweep printed {len(rows)} rows for {len(rates)} rates"]
    for (rate, payoff, _), expected in zip(rows, rates):
        if abs(rate - expected) > 1e-9:
            errors.append(f"sweep rate {rate} is not {expected}")
            continue
        best = -inverse_binary_entropy(1.0 - rate)
        if not best - SWEEP_OPTIMIZER_TOL <= payoff <= best + 1e-9:
            errors.append(f"payoff {payoff:.12g} at rate {rate} is outside "
                          f"[{best - SWEEP_OPTIMIZER_TOL:.6g}, {best:.12g}]")
    payoffs = [r[1] for r in rows]
    if any(b < a for a, b in zip(payoffs, payoffs[1:])):
        errors.append(f"sweep payoffs {payoffs} decrease in the rate")
    return errors


def check_values(results, games):
    """results[(game, level_a, level_b)] = parsed value output."""
    errors = []
    for name, (prior, payoff) in games.items():
        ns = prior.size
        grid = {}
        for la in INFO_LEVELS:
            for lb in INFO_LEVELS:
                out = results.get((name, la, lb))
                if out is None:
                    continue
                grid[la, lb] = out["value"]
                ref = behavioral_value(prior, payoff, info_signal(la, ns),
                                       info_signal(lb, ns))
                if abs(out["value"] - ref) > VALUE_TOL:
                    errors.append(f"{name} A:{la} B:{lb}: value "
                                  f"{out['value']!r} but the behavioral LP "
                                  f"gives {ref!r}")
                if out["lp_gap"] > VALUE_TOL:
                    errors.append(f"{name} A:{la} B:{lb}: lp_gap "
                                  f"{out['lp_gap']!r}")
        for coarse, fine in zip(INFO_LEVELS, INFO_LEVELS[1:]):
            for other in INFO_LEVELS:
                pair_a = grid.get((coarse, other)), grid.get((fine, other))
                if None not in pair_a and pair_a[1] < pair_a[0] - VALUE_TOL:
                    errors.append(f"{name}: more information for A lowers the "
                                  f"value ({coarse}->{fine}, B:{other})")
                pair_b = grid.get((other, coarse)), grid.get((other, fine))
                if None not in pair_b and pair_b[1] > pair_b[0] + VALUE_TOL:
                    errors.append(f"{name}: more information for B raises the "
                                  f"value ({coarse}->{fine}, A:{other})")
    return errors


def check_common_info(value, joint_sa):
    """C(S;A) = H(1/4) for the erasure action joint, inside its bounds."""
    h_s = entropy(joint_sa.sum(axis=1))
    h_a = entropy(joint_sa.sum(axis=0))
    i_sa = h_s + h_a - entropy(joint_sa)
    errors = []
    if abs(value - binary_entropy(0.25)) > COMMON_INFO_TOL:
        errors.append(f"C(S;A) = {value!r}, expected H(1/4) = "
                      f"{binary_entropy(0.25)!r} within {COMMON_INFO_TOL}")
    if not i_sa - 1e-9 <= value <= min(h_s, h_a) + 1e-9:
        errors.append(f"C(S;A) = {value!r} outside [I(S;A), min(H(S), H(A))]"
                      f" = [{i_sa:.6g}, {min(h_s, h_a):.6g}]")
    return errors
