"""The analytic trial's saddlepoint tails against a scalar reference.

`scalar_log_tail` is the per-prefix Newton loop the simulator used before
its tails were solved for a whole block at once, kept here as the oracle:
one prefix per call, warm-started from the previous call's saddlepoint.
Its overflow regime needed theta to double past THETA_MAX while K'' was
below 1e-300, which K' < threshold < sup - 1e-9 all but rules out, so in
practice it followed Newton steps to saddlepoints beyond THETA_MAX.  The
array solve instead puts every row with K'(THETA_MAX) < threshold in the
overflow regime; on every other row the two must agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from statehelper import MatchConfig, game_core, run_match, simulator
from statehelper.simulator import (
    TAIL_BATCH_ROWS,
    TAIL_REGIMES,
    THETA_MAX,
    _analytic_payoffs,
    _AnalyticTrial,
    _codeword_source,
    _CompetitorTail,
    _run_trial,
    _SchemeTables,
    _trial_rng,
)

from conftest import make_erasure_game, make_optimal_erasure_scheme

SETTINGS = settings(max_examples=150, deadline=None)


def _scalar_cgf(tail, theta, counts):
    e = tail.weights * np.exp(theta * (tail.values - tail.vmax[:, None]))
    s0 = np.maximum(e.sum(axis=1), 1e-300)
    s1 = (e * tail.values).sum(axis=1) / s0
    s2 = (e * tail.values * tail.values).sum(axis=1) / s0
    k0 = float(counts @ (theta * tail.vmax + np.log(s0)))
    k1 = float(counts @ s1)
    k2 = float(counts @ np.maximum(s2 - s1 * s1, 0.0))
    return k0, k1, k2


def scalar_log_tail(tail, counts, threshold, theta0=1.0, rtol=1e-9):
    """(log tail, regime name, warm start for the next call) of one prefix.

    rtol is the Newton stopping rule, |K'(theta) - t| <= rtol (1 + |t|).
    """
    counts = np.asarray(counts, dtype=float)
    if np.any((counts > 0) & ~tail.reachable):
        return -np.inf, "unreachable", theta0
    if counts.sum() == 0:
        return (0.0 if threshold <= 0 else -np.inf), "empty", theta0
    sup = float(counts @ tail.vmax)
    log_survival = float(counts @ tail.log_wsum)
    if threshold > sup + 1e-9:
        return -np.inf, "above_sup", theta0
    if threshold >= sup - 1e-9:
        return float(counts @ tail.log_w_at_max), "at_sup", theta0
    if threshold <= float(counts @ tail.mean_cond):
        return log_survival, "bulk", theta0
    theta = min(max(theta0, 1e-6), 200.0)
    lo, hi = 0.0, np.inf
    k0 = k1 = k2 = 0.0
    for _ in range(60):
        k0, k1, k2 = _scalar_cgf(tail, theta, counts)
        if abs(k1 - threshold) <= rtol * (1.0 + abs(threshold)):
            break
        if k1 < threshold:
            lo = theta
        else:
            hi = theta
        step = theta + (threshold - k1) / k2 if k2 > 1e-300 else np.inf
        if lo < step < hi:
            theta = step
        elif np.isinf(hi):
            theta = max(2.0 * theta, 1e-3)
            if theta > THETA_MAX:
                return float(counts @ tail.log_w_at_max), "overflow", theta
        else:
            theta = 0.5 * (lo + hi)
    arg = 2.0 * (theta * threshold - k0)
    if arg <= 0 or k2 <= 0:
        return log_survival, "arg_nonpositive", theta
    w_lr = np.sqrt(arg)
    u_lr = theta * np.sqrt(k2)
    if u_lr < 1e-8 or w_lr < 1e-8:
        return min(log_survival, np.log(0.5)), "tiny_uw", theta
    tail_p = ndtr(-w_lr) + np.exp(-0.5 * w_lr * w_lr) / np.sqrt(2 * np.pi) \
        * (1.0 / u_lr - 1.0 / w_lr)
    tail_p = min(max(tail_p, 1e-300), 1.0)
    return min(np.log(tail_p), log_survival), "lugannani_rice", theta


def scalar_log_tails(tail, counts, thresholds):
    """The reference over a block's prefixes in order, sharing the warm start."""
    out, regimes, theta = [], [], 1.0
    for row, threshold in zip(np.asarray(counts, dtype=float), thresholds):
        value, regime, theta = scalar_log_tail(tail, row, threshold, theta)
        out.append(value)
        regimes.append(TAIL_REGIMES.index(regime))
    return np.array(out), np.array(regimes)


def _agree(a, b, tol):
    """Equal infinities, or finite values within tol."""
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(invalid="ignore"):
        return bool(np.all((a == b) | (np.abs(a - b) <= tol)))


# ---------------------------------------------------------------------------
# one hand-built case per regime

# Cell 0 has atoms 0 and 1 (weight 1/2 each); cell 1 has atoms -1 and 2
# (weights 0.3, 0.1: a draw survives with probability 0.4).  Cell 2 has no
# atom at all, so no competitor can ever occupy it.
TAIL = _CompetitorTail(np.array([[0.0, 1.0], [-1.0, 2.0], [-np.inf, -np.inf]]),
                       np.log([[0.5, 0.5], [0.3, 0.1], [1.0, 1.0]]))

CASES = [
    ("unreachable", [1, 0, 1], 0.0),
    ("empty", [0, 0, 0], -1.0),
    ("empty", [0, 0, 0], 1.0),
    ("above_sup", [3, 2, 0], 7.5),
    ("at_sup", [3, 2, 0], 7.0),
    ("bulk", [3, 2, 0], 0.0),
    ("lugannani_rice", [3, 2, 0], 4.0),
    ("lugannani_rice", [40, 30, 0], 60.0),
]


@pytest.mark.parametrize("regime, counts, threshold", CASES)
def test_each_regime_matches_the_scalar_reference(regime, counts, threshold):
    got, got_regime = TAIL.log_tails(np.array([counts]), np.array([threshold]))
    want, want_regime, _ = scalar_log_tail(TAIL, np.array(counts), threshold)
    assert TAIL_REGIMES[got_regime[0]] == want_regime == regime
    assert _agree(got, [want], 1e-9)


def test_empty_counts_give_certainty_or_nothing():
    got, _ = TAIL.log_tails(np.zeros((2, 3)), np.array([0.0, 1e-3]))
    assert got[0] == 0.0 and got[1] == -np.inf


def test_a_cell_whose_weights_all_underflow_is_unreachable():
    """A log weight of -800 is finite, but exp(-800) is 0: no competitor can
    occupy cell 1, so a prefix that does settles as unreachable, and no tail
    or moment of any row is NaN."""
    tail = _CompetitorTail(np.array([[0.0, 1.0], [0.5, 2.0]]),
                           np.array([np.log([0.5, 0.5]), [-800.0, -800.0]]))
    assert tail.reachable.tolist() == [True, False]
    counts = np.array([[3.0, 1.0], [3.0, 0.0], [3.0, 0.0]])
    got, regimes = tail.log_tails(counts, np.array([1.0, 2.0, 1.0]))
    assert [TAIL_REGIMES[r] for r in regimes] == ["unreachable", "lugannani_rice",
                                                 "bulk"]
    assert got[0] == -np.inf and not np.isnan(got).any()
    for moment in tail._cgf(np.array([0.0, 1.0, 5.0]), counts):
        assert not np.isnan(moment).any()


def test_at_sup_is_the_mass_at_the_largest_atoms():
    got, _ = TAIL.log_tails(np.array([[3.0, 2.0, 0.0]]), np.array([7.0]))
    assert abs(got[0] - np.log(0.5 ** 3 * 0.1 ** 2)) <= 1e-12


def test_overflow_is_the_fixed_theta_max_test():
    """A threshold just below the supremum of a steep cell: the saddlepoint
    lies past THETA_MAX, where the scalar loop still applied Lugannani-Rice.
    Every draw but those at the supremum falls short of the threshold, so
    the mass at the supremum is the exact tail."""
    tail = _CompetitorTail(np.array([[0.0, 1.0]]), np.log([1.0 - 1e-200, 1e-200]))
    counts = np.array([[1.0]])
    threshold = 1.0 - 1e-7  # below sup - 1e-9, far above the mean
    got, regime = tail.log_tails(counts, np.array([threshold]))
    assert TAIL_REGIMES[regime[0]] == "overflow"
    assert got[0] == pytest.approx(np.log(1e-200), abs=1e-9)
    for theta0 in (1e-6, 1.0, 200.0):
        assert scalar_log_tail(tail, counts[0], threshold, theta0)[2] > THETA_MAX


def test_steep_cell_newton_stays_inside_the_bracket():
    """From theta = 1 the first Newton step overshoots to about 1e100; the
    bracket [0, THETA_MAX] turns it into bisection, and the solve lands on
    the closed-form saddlepoint of one two-atom draw."""
    p, t = 1e-100, 1.0 - 1e-7
    tail = _CompetitorTail(np.array([[0.0, 1.0]]), np.log([1.0 - p, p]))
    got, regime = tail.log_tails(np.array([[1.0]]), np.array([t]))
    theta = np.log(t * (1.0 - p) / (p * (1.0 - t)))  # K'(theta) = t, about 246
    k0 = np.log1p(-p) + np.log1p(p / (1.0 - p) * np.exp(theta))
    w, u = np.sqrt(2.0 * (theta * t - k0)), theta * np.sqrt(t * (1.0 - t))
    want = np.log(ndtr(-w) + np.exp(-0.5 * w * w) / np.sqrt(2 * np.pi) * (1 / u - 1 / w))
    assert TAIL_REGIMES[regime[0]] == "lugannani_rice"
    # K'' is 1e-7 here, so a stop test on |K' - t| alone left theta 8.4e-8
    # short; the test on the Newton step |t - K'| / K'' does not
    assert abs(got[0] - want) <= 1e-12 * abs(want)


def test_arg_nonpositive_falls_back_to_survival():
    """A saddlepoint so close to 0 that 2 (theta t - K) rounds to <= 0."""
    tail = _CompetitorTail(np.array([[0.0, 1.0]]), np.log([0.5, 0.5]))
    counts = np.array([[1e6]])
    threshold = 5e5 + 1e-4  # barely past the mean 5e5
    got, regime = tail.log_tails(counts, np.array([threshold]))
    want, want_regime, _ = scalar_log_tail(tail, counts[0], threshold)
    assert TAIL_REGIMES[regime[0]] == want_regime == "arg_nonpositive"
    assert got[0] == want == 0.0  # the weights sum to 1: every draw survives


def test_tiny_u_or_w_caps_at_one_half():
    """Threshold a hair above the mean: w and u both vanish, so the tail is
    min(survival, 1/2) rather than the 0/0 Lugannani-Rice correction."""
    tail = _CompetitorTail(np.array([[0.0, 1.0]]), np.log([0.3, 0.3]))
    counts = np.array([[1.0]])
    threshold = 0.5 + 1e-12
    got, regime = tail.log_tails(counts, np.array([threshold]))
    want, want_regime, _ = scalar_log_tail(tail, counts[0], threshold)
    assert TAIL_REGIMES[regime[0]] == want_regime == "tiny_uw"
    assert got[0] == want == pytest.approx(np.log(0.5))


def test_normal_tail_and_log_factorials_match_scipy():
    """The simulator's math.erfc and math.lgamma replacements for scipy's
    ndtr and gammaln.  The two erfc's part by up to 6e-14 relative far in the
    tail (the tail is used through its log, and clipped at 1e-300)."""
    from scipy.special import gammaln

    w = np.linspace(0.0, 37.0, 2001)  # ndtr(-37) is still above 1e-300
    np.testing.assert_allclose(simulator._normal_tail(w), ndtr(-w), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(simulator._normal_tail(w[:300]), ndtr(-w[:300]),
                               rtol=4e-15, atol=0.0)
    assert simulator._normal_tail(np.array([np.inf]))[0] == 0.0
    k = np.arange(4097)
    np.testing.assert_allclose(simulator._log_factorials(4096), gammaln(k + 1.0),
                               rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# random cell tables


@st.composite
def tail_problems(draw):
    """Cell tables with absent atoms and unreachable cells, and rows of counts
    with thresholds spread over every regime."""
    n_cells, n_atoms = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    values = np.array(draw(st.lists(st.one_of(st.floats(-1.5, 1.5), st.just(-np.inf)),
                                    min_size=n_cells * n_atoms,
                                    max_size=n_cells * n_atoms)))
    logw = np.array(draw(st.lists(st.floats(-6.0, 0.0), min_size=n_cells * n_atoms,
                                  max_size=n_cells * n_atoms)))
    values, logw = values.reshape(n_cells, n_atoms), logw.reshape(n_cells, n_atoms)
    tail = _CompetitorTail(values, logw)
    rows = draw(st.integers(1, 6))
    counts = np.array([draw(st.lists(st.integers(0, 30), min_size=n_cells,
                                     max_size=n_cells)) for _ in range(rows)],
                      dtype=float)
    # a threshold anywhere from below the mean to past the supremum
    where = np.array(draw(st.lists(st.floats(-0.2, 1.2), min_size=rows,
                                   max_size=rows)))
    mean, sup = counts @ tail.mean_cond, counts @ tail.vmax
    return tail, counts, mean + where * (sup - mean)


@SETTINGS
@given(tail_problems())
def test_property_array_solve_matches_scalar_reference(problem):
    """Against the reference run to a tight stopping rule: at the old rule,
    1e-9, its log tails stray up to a few 1e-7 where K'' is small."""
    tail, counts, thresholds = problem
    got, regimes = tail.log_tails(counts, thresholds)
    # the two codes reduce a row in different orders, so a threshold within
    # rounding of a regime boundary may fall on either side of it
    edges = np.stack([counts @ tail.mean_cond, counts @ tail.vmax - 1e-9,
                      counts @ tail.vmax + 1e-9], axis=1)
    on_edge = (np.abs(edges - thresholds[:, None])
               <= 1e-12 * (1.0 + np.abs(thresholds[:, None]))).any(axis=1)
    theta = 1.0
    for row, threshold, value, regime, edge in zip(counts, thresholds, got,
                                                   regimes, on_edge):
        want, want_regime, theta = scalar_log_tail(tail, row, threshold, theta,
                                                   rtol=1e-13)
        if edge:
            continue
        if TAIL_REGIMES[regime] == "overflow":
            assert want_regime == "overflow" or theta > THETA_MAX
            continue
        assert TAIL_REGIMES[regime] == want_regime
        assert _agree([value], [want], 1e-7)


# ---------------------------------------------------------------------------
# the analytic trial with the reference patched in


def _analytic_runs(informed, trials, seed):
    """Criterion-7 style inputs: states, actions and the true codeword."""
    game, scheme = make_erasure_game(), make_optimal_erasure_scheme()
    tables = _SchemeTables(game, scheme)
    rng = np.random.default_rng(seed)
    n, rate = 128, 0.655639 if informed else 1.2
    log_n = int(np.ceil(n * rate)) * np.log(2.0)
    for _ in range(trials):
        s_seq = rng.choice(2, size=n, p=game.prior)
        u_true = np.array([rng.choice(3, p=scheme.p_u_given_s.rows[s]) for s in s_seq])
        a_seq = np.array([rng.choice(3, p=scheme.p_a_given_u.rows[u]) for u in u_true])
        yield tables, s_seq, a_seq, u_true, informed, log_n


def _loop_prefix_counts(tables, s_seq, a_seq, u_true, informed):
    """Counts and thresholds of every prefix, one step at a time."""
    ns, na = tables.joint_sa.shape
    offset = ns if informed else 0
    counts = np.zeros(offset + ns * na)
    if informed:
        counts[:ns] = np.bincount(s_seq, minlength=ns)
    weight = tables.log_tilt[u_true, s_seq].sum() if informed else 0.0
    rows, thresholds = [], []
    for k in range(len(s_seq)):
        counts[offset + s_seq[k] * na + a_seq[k]] += 1
        weight += tables.log_pa_u[u_true[k], a_seq[k]]
        if informed:
            counts[s_seq[k]] -= 1
        else:
            weight += tables.log_ps_u[u_true[k], s_seq[k]]
        rows.append(counts.copy())
        thresholds.append(weight)
    return np.array(rows), np.array(thresholds)


@pytest.mark.parametrize("informed", (True, False))
def test_prefix_counts_match_the_per_step_loop(monkeypatch, informed):
    seen = []

    def record(tail, counts, thresholds):
        seen.append((counts, thresholds))
        return np.zeros(len(thresholds)), np.zeros(len(thresholds), dtype=int)

    monkeypatch.setattr(simulator._CompetitorTail, "log_tails", record)
    for run in _analytic_runs(informed, trials=5, seed=3):
        _analytic_payoffs(*run)
        counts, thresholds = seen.pop()
        want_counts, want_thresholds = _loop_prefix_counts(*run[:5])
        assert np.array_equal(counts, want_counts)
        assert np.allclose(thresholds, want_thresholds, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("informed", (True, False))
def test_analytic_payoffs_match_scalar_reference(monkeypatch, informed):
    """Trial means within 1e-9, as a match reports them.  A single trial
    agrees only to the reference's own Newton tolerance: its log tails are
    within about 1e-8 of the exact saddlepoint's, which moves a decode
    probability exp(-e^x) by at most 1e-8 / e."""
    runs = list(_analytic_runs(informed, trials=40, seed=11))
    array_path = np.array([_analytic_payoffs(*run) for run in runs])
    monkeypatch.setattr(simulator._CompetitorTail, "log_tails", scalar_log_tails)
    reference = np.array([_analytic_payoffs(*run) for run in runs])
    # axis 1: payoff, decode probability
    assert np.max(np.abs(array_path[:, 1] - reference[:, 1])) <= 1e-8
    assert np.max(np.abs(array_path[:, 0] - reference[:, 0])) <= 3e-8
    assert np.max(np.abs(array_path.mean(axis=0) - reference.mean(axis=0))) <= 1e-9


def _trial_by_trial_match(game, scheme, rate, config):
    """The per-iteration payoff and decode sums of a match whose every trial
    builds its own tables (so no tail or box work is shared) and solves its
    own tails through `_analytic_payoffs`, in trial order."""
    pay_sum, dec_sum, failures = np.zeros(config.n), np.zeros(config.n), 0
    source = _codeword_source(config, rate)
    for trial in range(config.trials):
        pay, dec, failed = _run_trial(_SchemeTables(game, scheme), config, source,
                                      _trial_rng(config.seed, trial),
                                      config.adversary)
        if isinstance(pay, _AnalyticTrial):
            pay, dec = _analytic_payoffs(pay.tables, pay.s_seq, pay.a_seq,
                                         pay.u_true, pay.informed,
                                         pay.log_n_codewords)
        pay_sum += pay
        dec_sum += dec
        failures += int(failed)
    return pay_sum / config.trials, dec_sum / config.trials, failures / config.trials


@pytest.mark.parametrize("n, rate", [(128, 0.655639), (100, 0.7)])
def test_batched_match_is_the_trial_by_trial_match(monkeypatch, n, rate):
    """At the criterion-7 point (and at an n whose trials do not fill a batch
    evenly) a match that shares each saddlepoint solve among its trials and
    memoizes the box work equals, to the last bit, one that does neither."""
    game, scheme = make_erasure_game(), make_optimal_erasure_scheme()
    config = MatchConfig(n=n, trials=16, adversary="decoder_with_state", seed=0)
    solves = []
    log_tails = _CompetitorTail.log_tails

    def counted(tail, counts, thresholds):
        solves.append(len(thresholds))
        return log_tails(tail, counts, thresholds)

    monkeypatch.setattr(_CompetitorTail, "log_tails", counted)
    result = run_match(game, scheme, rate, config)
    group = TAIL_BATCH_ROWS // n
    assert solves == [n * min(group, 16 - i) for i in range(0, 16, group)]
    payoff, decode, failure_rate = _trial_by_trial_match(game, scheme, rate, config)
    assert np.array_equal(result.per_iteration_payoff, payoff)
    assert np.array_equal(result.decode_success, decode)
    assert result.encoder_failure_rate == failure_rate


# ---------------------------------------------------------------------------
# the atom-major moment kernel against the atom-last one it replaced


def atom_last_cgf(tail, theta, counts, need_k0=True):
    """The moment kernel on a (rows, cells, atoms) array, summing each cell's
    atoms on numpy's short last axis: the layout `_cgf` had before its
    atom-major copies.  Always returns all three moments."""
    e = tail.weights * np.exp(theta[:, None, None] * np.where(
        tail.weights > 0, tail.values - tail.vmax[:, None], 0.0))
    ev = e * tail.values
    s0 = np.maximum(e.sum(axis=2), 1e-300)
    s1 = ev.sum(axis=2) / s0
    s2 = (ev * tail.values).sum(axis=2) / s0
    k0 = (counts * (theta[:, None] * tail.vmax + np.log(s0))).sum(axis=1)
    k1 = (counts * s1).sum(axis=1)
    k2 = (counts * np.maximum(s2 - s1 * s1, 0.0)).sum(axis=1)
    return k0, k1, k2


@st.composite
def cgf_problems(draw):
    """Cell tables with absent atoms (a value or a log weight of -inf, so
    weight 0), count rows with zeros, and saddlepoints anywhere in
    [0, THETA_MAX].  Up to 12 atoms, so the sums past 8 atoms, where numpy
    switches to 8 interleaved partial sums, are drawn too."""
    n_cells, n_atoms = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    size = n_cells * n_atoms
    values = draw(st.lists(st.one_of(st.floats(-30.0, 30.0), st.just(-np.inf)),
                           min_size=size, max_size=size))
    logw = draw(st.lists(st.one_of(st.floats(-40.0, 0.0), st.just(-np.inf)),
                         min_size=size, max_size=size))
    tail = _CompetitorTail(np.reshape(values, (n_cells, n_atoms)),
                           np.reshape(logw, (n_cells, n_atoms)))
    rows = draw(st.integers(1, 4))
    counts = np.array(draw(st.lists(st.integers(0, 200), min_size=rows * n_cells,
                                    max_size=rows * n_cells)),
                      dtype=float).reshape(rows, n_cells)
    theta = np.array(draw(st.lists(st.floats(0.0, THETA_MAX), min_size=rows,
                                   max_size=rows)))
    return tail, theta, counts


@SETTINGS
@given(cgf_problems())
def test_property_atom_major_moments_are_the_atom_last_ones_bit_for_bit(problem):
    tail, theta, counts = problem
    want = atom_last_cgf(tail, theta, counts)
    assert all(np.array_equal(a, b) for a, b in zip(tail._cgf(theta, counts), want))
    k0, k1, k2 = tail._cgf(theta, counts, need_k0=False)
    assert k0 is None and np.array_equal(k1, want[1]) and np.array_equal(k2, want[2])


@pytest.mark.parametrize("n_atoms", [1, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 200, 300])
def test_atom_sum_adds_in_numpys_last_axis_order(n_atoms):
    """Past 128 atoms numpy halves the sum in blocks of 8; magnitudes spread
    over 60 orders of magnitude make any other order change the last bit."""
    rng = np.random.default_rng(n_atoms)
    x = rng.standard_normal((32, 8, n_atoms)) * np.exp(rng.uniform(-70, 70, (32, 8, n_atoms)))
    planes = np.ascontiguousarray(np.moveaxis(x, 2, 0))
    assert np.array_equal(game_core._atom_sum(planes), x.sum(axis=2))


def _criterion_7_batch(informed, trials, seed):
    """One saddlepoint batch of criterion-7 style trials: their prefix
    counts, stacked, and thresholds."""
    trials = [_AnalyticTrial(*run) for run in _analytic_runs(informed, trials, seed)]
    return (trials[0].tail, np.vstack([trial.counts for trial in trials]),
            np.concatenate([trial.thresholds for trial in trials]))


@pytest.mark.parametrize("informed", (True, False))
def test_log_tails_are_the_atom_last_kernels_bit_for_bit(monkeypatch, informed):
    tail, counts, thresholds = _criterion_7_batch(informed, trials=8, seed=5)
    got, got_regimes = tail.log_tails(counts, thresholds)
    monkeypatch.setattr(_CompetitorTail, "_cgf", atom_last_cgf)
    want, want_regimes = tail.log_tails(counts, thresholds)
    assert np.array_equal(got, want) and np.array_equal(got_regimes, want_regimes)
    # the uninformed decoder's true codeword holds the top atom of every
    # cell, so its rows all sit at the supremum
    assert (got_regimes == TAIL_REGIMES.index("lugannani_rice")).any() == informed


# ---------------------------------------------------------------------------
# the moments are computed on open rows only


def _recording_cgf(monkeypatch):
    """Patch `_cgf` to record (counts, need_k0) of every call."""
    calls, cgf = [], _CompetitorTail._cgf

    def record(tail, theta, counts, need_k0=True):
        calls.append((counts.copy(), need_k0))
        return cgf(tail, theta, counts, need_k0)

    monkeypatch.setattr(_CompetitorTail, "_cgf", record)
    return calls


def test_overflow_test_and_final_moments_see_only_open_rows(monkeypatch):
    tail, counts, thresholds = _criterion_7_batch(True, trials=8, seed=5)
    calls = _recording_cgf(monkeypatch)
    _, regimes = tail.log_tails(counts, thresholds)
    overflow = TAIL_REGIMES.index("overflow")
    assert (regimes < overflow).any() and (regimes > overflow).any()
    assert not calls[0][1] and np.array_equal(calls[0][0], counts[regimes >= overflow])
    assert calls[-1][1] and np.array_equal(calls[-1][0], counts[regimes > overflow])
    # a row past THETA_MAX and an empty row: no solve and no final moments
    calls.clear()
    steep = _CompetitorTail(np.array([[0.0, 1.0]]), np.log([1.0 - 1e-200, 1e-200]))
    steep_counts = np.array([[1.0], [0.0]])
    _, regimes = steep.log_tails(steep_counts, np.array([1.0 - 1e-7, 1.0]))
    assert [TAIL_REGIMES[r] for r in regimes] == ["overflow", "empty"]
    assert len(calls) == 1 and np.array_equal(calls[0][0], steep_counts[:1])


def test_rows_settled_before_the_solve_make_no_moment_call(monkeypatch):
    calls = _recording_cgf(monkeypatch)
    closed = [case for case in CASES if case[0] != "lugannani_rice"]
    _, regimes = TAIL.log_tails(np.array([case[1] for case in closed], dtype=float),
                                np.array([case[2] for case in closed]))
    assert [TAIL_REGIMES[r] for r in regimes] == [case[0] for case in closed]
    assert calls == []
