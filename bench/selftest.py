"""Self-test of the benchmark's checkers: right outputs pass, wrong ones fail.

    python3 bench/selftest.py

Each case feeds a checker a synthetic output.  The right outputs follow the
theory of the reference games; each wrong one carries a single planted fault
(shifted payoffs, a decode crossing at the wrong place, a value off by 1e-6,
and so on) that the checker must reject.  Exits 1 if any case goes the wrong
way.  Needs numpy and scipy, not the program.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no caches beside the sources

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

N, TRIALS = workloads.VIRTUAL_N, workloads.VIRTUAL_TRIALS


def _reference():
    s = workloads.OPTIMAL_SCHEME
    joint = checks.scheme_joint([0.5, 0.5], s["p_u_given_s"], s["p_a_given_u"])
    return joint, checks.match_reference(joint, workloads.erasure_payoff())


JOINT, REF = _reference()


def _curves(centre):
    """Per-k payoff and decode success of a match that decodes near `centre`."""
    k = np.arange(1, N + 1)
    dec = 1.0 / (1.0 + np.exp(-(k - centre) / 6.0))
    before = np.concatenate([[0.0], dec[:-1]])
    pay = REF["pi_low_s"] - (REF["pi_low_s"] - REF["pi_low_su"]) * before
    return pay, dec


def _match(pay, dec):
    return checks.check_match(pay, dec, TRIALS, REF, rate=workloads.VIRTUAL_RATE)


def _sweep_rows(shift=0.0):
    return [(r, -checks.inverse_binary_entropy(1 - r) - 1e-6 + shift, 0.0)
            for r in workloads.SWEEP_RATES]


def _value_results(games, tweak=None):
    results = {}
    for name, (prior, payoff) in games.items():
        for la in workloads.INFO_LEVELS:
            for lb in workloads.INFO_LEVELS:
                v = checks.behavioral_value(
                    prior, payoff, workloads.info_signal(la, prior.size),
                    workloads.info_signal(lb, prior.size))
                results[name, la, lb] = {"value": v, "lp_gap": 0.0}
    if tweak:
        tweak(results)
    return results


def cases():
    alpha_n = (workloads.VIRTUAL_RATE - REF["i_us"]) / REF["i_ua_given_s"] * N
    games = dict(list(workloads.random_games(7).items())[:2])
    csv = "k,mean_payoff_at_k,decode_success_at_k\n" + "".join(
        f"{k},0.5,0.5\n" for k in range(1, N + 1))

    def off_by(key, delta, field="value"):
        def tweak(results):
            results[key][field] += delta
        return tweak

    def parse_fails(parse, text):
        try:
            parse(text)
        except checks.Malformed:
            return ["malformed"]
        return []

    # (description, errors from the checker, whether errors are expected)
    yield ("I(U;S) = 1/2", [] if abs(REF["i_us"] - 0.5) < 1e-12 else ["no"], False)
    yield ("I(U;A|S) = H(1/4) - 1/2",
           [] if abs(REF["i_ua_given_s"] - checks.binary_entropy(0.25) + 0.5)
           < 1e-12 else ["no"], False)
    yield ("alpha = 1/2", [] if abs(alpha_n / N - 0.5) < 1e-5 else ["no"], False)
    yield ("payoff bounds [1/4, 3/4], oblivious mean 3/4",
           [] if (REF["pi_low_su"], REF["pi_low_s"], REF["oblivious_mean"])
           == (0.25, 0.75, 0.75) else ["no"], False)
    yield ("right match passes", _match(*_curves(alpha_n)), False)
    pay, dec = _curves(alpha_n)
    yield ("payoffs shifted by +0.25 fail", _match(pay + 0.25, dec), True)
    yield ("payoffs shifted by -0.25 fail", _match(pay - 0.25, dec), True)
    for share in (0.2, 0.8):
        errors = [e for e in _match(*_curves(share * N)) if "crosses" in e]
        yield (f"decode crossing at {share} n fails", errors, True)
    forbidden = pay.copy()
    forbidden[90] += workloads.FORBIDDEN / TRIALS
    yield ("one forbidden play fails", _match(forbidden, dec), True)
    yield ("decode above 1 fails", _match(pay, dec + 0.01), True)
    flat = np.full(workloads.EXACT_N, 0.75)
    exact_dec = np.full(workloads.EXACT_N, 0.5)
    yield ("exact block mean 1/2 passes", checks.check_match(
        flat - 0.25, exact_dec, workloads.EXACT_TRIALS, REF), False)
    for shift in (0.35, -0.85):
        errors = checks.check_match(flat + shift, exact_dec,
                                    workloads.EXACT_TRIALS, REF)
        yield (f"exact block mean 3/4 {shift:+} fails",
               [e for e in errors if "block mean" in e], True)
    yield ("oblivious mean 3/4 passes",
           checks.check_oblivious_mean(flat, workloads.EXACT_TRIALS, REF), False)
    yield ("oblivious mean 3/4 - 0.3 fails",
           checks.check_oblivious_mean(flat - 0.3, workloads.EXACT_TRIALS, REF),
           True)
    yield ("right sweep passes",
           checks.check_sweep(_sweep_rows(), workloads.SWEEP_RATES), False)
    yield ("sweep above the closed form fails",
           checks.check_sweep(_sweep_rows(2e-6), workloads.SWEEP_RATES), True)
    yield ("sweep 0.02 below the closed form fails",
           checks.check_sweep(_sweep_rows(-0.02), workloads.SWEEP_RATES), True)
    rows = _sweep_rows()
    yield ("decreasing sweep fails",
           checks.check_sweep([rows[0], (rows[0][0] + 1e-3, rows[0][1] - 1e-3,
                                         0.0)], (rows[0][0], rows[0][0] + 1e-3)),
           True)
    yield ("missing sweep row fails",
           checks.check_sweep(rows[:1], workloads.SWEEP_RATES), True)
    yield ("right values pass",
           checks.check_values(_value_results(games), games), False)
    yield ("value off by 1e-6 fails", checks.check_values(
        _value_results(games, off_by(("game0", "partial", "state"), 1e-6)),
        games), True)
    yield ("lp_gap of 1e-8 fails", checks.check_values(
        _value_results(games, off_by(("game1", "none", "none"), 1e-8, "lp_gap")),
        games), True)

    def swap(results):
        results["game0", "state", "none"]["value"] = \
            results["game0", "none", "none"]["value"] - 0.1
    errors = checks.check_values(_value_results(games, swap), games)
    yield ("less value for more A information fails",
           [e for e in errors if "more information for A" in e], True)
    joint_sa = JOINT.sum(axis=1)
    yield ("C(S;A) = H(1/4) passes",
           checks.check_common_info(checks.binary_entropy(0.25), joint_sa), False)
    yield ("C(S;A) = H(1/4) + 0.01 fails",
           checks.check_common_info(checks.binary_entropy(0.25) + 0.01,
                                    joint_sa), True)
    yield ("C(S;A) below I(S;A) fails",
           checks.check_common_info(0.2, joint_sa), True)
    yield ("well-formed CSV parses",
           parse_fails(lambda t: checks.parse_match(t, N), csv), False)
    yield ("CSV with a wrong header is malformed",
           parse_fails(lambda t: checks.parse_match(t, N),
                       csv.replace("k,", "K,", 1)), True)
    yield ("CSV with a missing row is malformed",
           parse_fails(lambda t: checks.parse_match(t, N),
                       csv.rsplit("\n", 2)[0] + "\n"), True)
    yield ("CSV with a non-number is malformed",
           parse_fails(lambda t: checks.parse_match(t, N),
                       csv.replace("0.5,0.5", "0.5,nan", 1)), True)
    yield ("sweep CSV with a short row is malformed",
           parse_fails(checks.parse_sweep, "rate,payoff,alpha\n0.3,-0.1\n"), True)
    yield ("value output without a value line is malformed",
           parse_fails(checks.parse_value, "lp_gap: 0\n"), True)


def main():
    wrong = 0
    for name, errors, expect_errors in cases():
        ok = bool(errors) == expect_errors
        wrong += not ok
        detail = f" ({errors[0]})" if errors and not expect_errors else ""
        print(f"{'ok  ' if ok else 'FAIL'} {name}{detail}")
    print(f"{wrong} of the checker cases went the wrong way" if wrong
          else "all checker cases behave")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
