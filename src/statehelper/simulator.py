"""Monte Carlo validation of helper coding schemes at finite block length.

Random codebooks of auxiliary sequences, jointly-typical randomized encoding,
memoryless action synthesis, and a Bayesian decoding adversary that infers the
codeword from observed play.  Also the deterministic-coding baseline showing
why rate-distortion-style encoding collapses against a state-aware opponent.

Codebooks are nominally 2^ceil(n*rate) i.i.d. sequences.  Small codebooks are
materialized and enumerated exactly.  When the nominal codebook exceeds the
memory cap, trials run on a virtual codebook: the number of codewords jointly
typical with the realized state sequence is Poisson with a mean computed
exactly from multinomial box probabilities, and the sent codeword is sampled
from the conditional law of an i.i.d. codeword given typicality, so the
encoder side matches the materialized path in law.  The decoder side is
exact only while the typical set is small enough to enumerate; beyond that,
competitor codewords enter the adversary's play through their exact count
and a saddlepoint (Lugannani-Rice) approximation of the chance that any of
them outweighs the true codeword.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ContractViolationError, InfeasibleRateError
from .game_core import (
    ConditionalDistribution,
    Game,
    _atom_sum,
    best_response,
    optimal_state_strategy,
    solve_matrix_game,
    validate_prob_vector,
)
from .rate_value import Scheme, scheme_statistics

DEFAULT_CODEBOOK_CAP = 1 << 22  # total symbols: count * n
DEFAULT_EPSILON = 0.05
BOX_MATERIALIZE_CAP = 4096  # typical-set members materialized below this
ADVERSARIES = ("oblivious", "decoder", "decoder_with_state")
SELECTIONS = ("tilted", "first")

_LOG2 = np.log(2.0)
_NEG_INF = -np.inf
_CHOICE_ATOL = np.sqrt(np.finfo(float).eps)  # Generator.choice's slack on sum(p)


# ---------------------------------------------------------------------------
# codebooks and typicality


@dataclass(frozen=True)
class Codebook:
    """Materialized codebook of i.i.d. auxiliary sequences."""

    n: int
    rate: float
    sequences: np.ndarray  # (count, n) symbol indices
    seed: int
    p_u: np.ndarray  # the law every symbol was drawn from

    @property
    def count(self):
        return self.sequences.shape[0]


def _codeword_bits(n, rate):
    """ceil(n * rate): the codebook holds 2 to this power codewords."""
    return int(np.ceil(n * rate - 1e-12))


def codeword_count(n: int, rate: float) -> int:
    return 1 << _codeword_bits(n, rate)


def _codebook_fits(bits, n, cap):
    """Whether 2^bits codewords of n symbols fit the cap, decided on the
    exponent first so that a large rate never builds the count."""
    return bits < int(cap).bit_length() and int(n) << bits <= cap


def build_codebook(scheme: Scheme, n: int, rate: float, seed: int,
                   cap: int = DEFAULT_CODEBOOK_CAP, prior=None) -> Codebook:
    """i.i.d. p_U codebook of 2^ceil(n*rate) sequences, deterministic given seed.

    `prior` is the state distribution defining the marginal p_U; uniform
    states are assumed when omitted.  Each symbol is an inverse-cdf draw:
    the number of entries of the normalized cumulative p_U at or below one
    uniform of `default_rng(seed).random((count, n))`.  These are the
    uniforms and the inverse cdf of `Generator.choice(card_u, size=(count,
    n), p=p_U)`, so the codebook is that call's, symbol for symbol.
    """
    if n < 1 or not 0 <= rate < np.inf:
        raise ContractViolationError("need n >= 1 and a finite rate >= 0")
    bits = _codeword_bits(n, rate)
    if not _codebook_fits(bits, n, cap):
        raise CapacityError(f"codebook of 2^{bits} sequences x {n} symbols "
                            f"exceeds cap {cap}")
    count = 1 << bits
    if prior is None:
        prior = np.full(scheme.p_u_given_s.from_size,
                        1.0 / scheme.p_u_given_s.from_size)
    # checked only: its renormalized copy would move p_U, and so the stream
    validate_prob_vector(prior, what="state prior")
    p_u = scheme.p_u(prior)
    # Generator.choice's checks on p; a NaN fails both comparisons.  p_U is
    # not renormalized here: its cdf must round as choice's does.
    if not (np.all(p_u >= 0) and abs(p_u.sum() - 1.0) <= _CHOICE_ATOL):
        raise ContractViolationError(
            f"codeword law p_U = {p_u} is not a probability vector")
    cdf = np.cumsum(p_u)
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random((count, n))
    seqs = np.zeros((count, n), dtype=np.int16)
    for edge in cdf[:-1]:  # u < 1 = cdf[-1], so the last edge counts nothing
        seqs += u >= edge
    return Codebook(n=n, rate=float(rate), sequences=seqs, seed=seed, p_u=p_u)


def _typical_cells(counts, n, target, epsilon):
    """Per-cell strong typicality of (u, s) counts over a block of length n.

    A cell passes when its frequency is within epsilon of the target and it
    is empty wherever the target is 0 (the strong-typicality box of Csiszar
    and Koerner), so no pair of probability zero is ever typical.
    """
    return ((np.abs(counts / n - target) <= epsilon + 1e-12)
            & ((counts == 0) | (target > 0)))


def _count_intervals(n_s, n, target, epsilon):
    """Each cell's counts in 0..n_s that pass `_typical_cells`: lo <= k <= hi.

    `target` is one state's column of the joint target.  Float division and
    subtraction are monotone, so each passing set is an interval (empty when
    lo > hi).  The one place the typicality rule meets counts.
    """
    passing = _typical_cells(np.arange(n_s + 1)[:, None], n, target, epsilon)
    lo = np.where(passing.any(axis=0), passing.argmax(axis=0), n_s + 1)
    return lo, n_s - passing[::-1].argmax(axis=0)


def _typical_set(sequences, state_seq, target_joint, epsilon):
    """Joint (u, s) types of sequences against one state sequence, and typicality.

    The typical-set kernel.  Each state's positions form one column block,
    and a cell's counts are the matches of u in that block, per row.  A
    count of cell (u, s) passes when it lies in the cell's interval of
    `_count_intervals`.  Returns counts of shape (rows, |U|, |S|) and the
    mask of rows whose every cell passes.
    """
    seqs = np.atleast_2d(np.asarray(sequences))
    state_seq = np.asarray(state_seq)
    rows, n = seqs.shape
    card_u, ns = target_joint.shape
    counts = np.empty((card_u, ns, rows), dtype=np.int64)  # one row per cell
    typical = np.ones(rows, dtype=bool)
    for s in range(ns):
        block = seqs[:, state_seq == s]
        n_s = block.shape[1]
        lo, hi = _count_intervals(n_s, n, target_joint[:, s], epsilon)
        # the narrowest unsigned type holding n_s sums fastest, never wraps
        acc = np.min_scalar_type(n_s)
        for u in range(card_u):
            counts[u, s] = (block == u).sum(axis=1, dtype=acc)
            typical &= (lo[u] <= counts[u, s]) & (counts[u, s] <= hi[u])
    return counts.transpose(2, 0, 1), typical


def is_jointly_typical(u_seq, s_seq, target_joint, epsilon):
    """Whether the joint type of (u_seq, s_seq) is typical for the target joint."""
    return bool(_typical_set(u_seq, s_seq, target_joint, epsilon)[1][0])


class EncoderFailure(Exception):
    """No codeword jointly typical with the state sequence."""


def _target_joint_us(state_type, scheme):
    """Typicality target p_hat(s) p(u|s), indexed (u, s), at a state type.

    Centering on the realized (empirical) state type rather than the design
    prior keeps the per-state count boxes nonempty for every realized state
    sequence, so encoder failures reflect covering (rate vs I(U;S)) rather
    than ordinary binomial drift of the state frequencies.
    """
    return (scheme.p_u_given_s.rows * np.asarray(state_type)[:, None]).T


def _typical_codewords(sequences, state_seq, scheme, p_u, epsilon):
    """Indices of the typical codewords and every codeword's log tilt weight.

    Typicality is taken at the empirical state type, the tilt against p_u, the
    codewords' law; the weight is -inf off the typical set.
    """
    ns = scheme.p_u_given_s.from_size
    emp = np.bincount(state_seq, minlength=ns) / len(state_seq)
    _, typical = _typical_set(sequences, state_seq,
                              _target_joint_us(emp, scheme), epsilon)
    idx = np.flatnonzero(typical)
    log_w = np.full(len(typical), _NEG_INF)
    log_w[idx] = _log_tilt_table(p_u, scheme)[sequences[idx], state_seq].sum(axis=1)
    return idx, log_w


def _select_codeword(idx, log_w, selection, seed):
    """The encoder's choice among the typical codewords `idx` (see `encode`)."""
    if selection not in SELECTIONS:
        raise ContractViolationError(f"unknown selection rule {selection!r}")
    if idx.size == 0:
        raise EncoderFailure("no jointly typical codeword in the codebook")
    if selection == "first":
        return int(idx[0])
    # finite: a typical codeword pairs no symbol with a state it has p(u|s) = 0
    w = np.exp(log_w[idx] - log_w[idx].max())
    return int(np.random.default_rng(seed).choice(idx, p=w / w.sum()))


def encode(codebook: Codebook, state_seq, scheme: Scheme, epsilon: float,
           seed: int, selection: str = "tilted") -> int:
    """Choose a codeword jointly typical with the state sequence.

    Typicality is measured against the empirical state type.  Selection
    "tilted" weights typical codewords by prod_t p(u_t|s_t) / p_U(u_t), p_U
    the codebook's own law, so the chosen codeword behaves like an i.i.d.
    p(U|S) draw; "first" takes the lowest index (rate-distortion style).
    Raises EncoderFailure when no codeword qualifies.
    """
    state_seq = np.asarray(state_seq)
    if len(state_seq) != codebook.n:
        raise ContractViolationError("state sequence length must equal block length")
    idx, log_w = _typical_codewords(codebook.sequences, state_seq, scheme,
                                    codebook.p_u, epsilon)
    return _select_codeword(idx, log_w, selection, seed)


def _log_tilt_table(p_u, scheme):
    """log p(u|s) - log p_U(u), -inf where p(u|s) = 0, p_U the codewords' law."""
    with np.errstate(divide="ignore"):
        return (np.log(scheme.p_u_given_s.rows.T)
                - np.log(np.maximum(p_u, 1e-300))[:, None])


def decode_actions(codeword, scheme: Scheme, seed: int):
    """Synthesize the memoryless action channel p(A|U) along the codeword."""
    codeword = np.asarray(codeword)
    rng = np.random.default_rng(seed)
    rows = scheme.p_a_given_u.rows
    u = rng.random(len(codeword))
    cdf = np.cumsum(rows, axis=1)
    # the number of cdf entries <= u is the inverse-cdf draw
    return (cdf[codeword] <= u[:, None]).sum(axis=1).clip(0, rows.shape[1] - 1)


# ---------------------------------------------------------------------------
# exact multinomial box probabilities for the typical set


def _box_vectors(n_s, n, p_col, epsilon):
    """All count vectors c (sum n_s) whose cells pass `_typical_cells`, in
    lexicographic order."""
    lo, hi = _count_intervals(n_s, n, p_col, epsilon)
    span = np.maximum(hi[:-1] - lo[:-1] + 1, 0)
    # every head in lexicographic order, the last cell varying fastest
    heads = lo[:-1] + np.indices(span).reshape(p_col.size - 1, int(np.prod(span))).T
    last = n_s - heads.sum(axis=1)
    keep = (lo[-1] <= last) & (last <= hi[-1])
    return np.column_stack([heads[keep], last[keep]])


def _log_factorials(n):
    """ln k! for k = 0, ..., n."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def _normal_tail(w):
    """The standard normal upper tail erfc(w / sqrt 2) / 2 of each entry of
    a 1-d array."""
    return 0.5 * np.fromiter(map(math.erfc, (w * math.sqrt(0.5)).tolist()), float, w.size)


def _log_multinomial_pmf(vectors, n_s, p):
    with np.errstate(divide="ignore"):
        logp = np.where(p > 0, np.log(np.maximum(p, 1e-300)), 0.0)
    log_fact = _log_factorials(n_s)
    ll = (log_fact[n_s] - log_fact[vectors].sum(axis=1)
          + (vectors * logp[None, :]).sum(axis=1))
    ll[(vectors[:, p <= 0] > 0).any(axis=1)] = _NEG_INF
    return ll


def _state_boxes(state_counts, target_joint, epsilon):
    """Each state's typicality box: its `_box_vectors` at the state's count."""
    n = int(state_counts.sum())
    return [_box_vectors(int(n_s), n, target_joint[:, s], epsilon)
            for s, n_s in enumerate(state_counts)]


def _box_law(vectors, state_counts, symbol_dist_per_state):
    """The per-state boxes `vectors` under i.i.d. per-state symbol laws.

    Symbols in the positions of state s are i.i.d. symbol_dist_per_state[s],
    so the per-state count vectors are independent multinomials restricted
    to boxes.  Returns (boxes, log mass): boxes[s] is (count vectors, their
    conditional probabilities), and the log mass is ln P(every count vector
    lands in its box).  Boxes are None when some box is empty or has zero
    mass under its law.
    """
    boxes, total = [], 0.0
    for vecs, n_s, law in zip(vectors, state_counts, symbol_dist_per_state):
        ll = _log_multinomial_pmf(vecs, int(n_s), law)
        m = ll.max(initial=_NEG_INF)  # -inf for an empty box too
        if not np.isfinite(m):
            return None, _NEG_INF
        w = np.exp(ll - m)
        boxes.append((vecs, w / w.sum()))
        total += m + np.log(w.sum())
    return boxes, total


def typicality_log_prob(state_counts, target_joint, epsilon, p_u):
    """ln P(an i.i.d. p_U sequence is jointly typical with a given state sequence).

    Exact: the sum over every state's box of multinomial probabilities.
    """
    laws = np.tile(p_u, (len(state_counts), 1))
    return _box_law(_state_boxes(state_counts, target_joint, epsilon),
                    state_counts, laws)[1]


def _sample_box_codeword(rng, state_seq, boxes, m):
    """Sample m codewords from i.i.d. per-state symbol laws conditioned on the box.

    `boxes` comes from `_box_law`: per state, m box vectors are drawn at once
    and their symbols shuffled into that state's positions.  Returns (m, n),
    or None when the boxes are None (a box is empty or has zero mass).
    """
    if boxes is None:
        return None
    out = np.empty((m, len(state_seq)), dtype=np.int16)
    for s, (vecs, p) in enumerate(boxes):
        chosen = vecs[rng.choice(len(vecs), size=m, p=p)]
        symbols = np.repeat(np.tile(np.arange(vecs.shape[1]), m), chosen.ravel())
        out[:, state_seq == s] = rng.permuted(symbols.reshape(m, -1), axis=1)
    return out


# ---------------------------------------------------------------------------
# saddlepoint tail approximation for the analytic competitor ensemble


# Regimes of `_CompetitorTail.log_tails`, in the order a row is tested.
TAIL_REGIMES = ("unreachable", "empty", "above_sup", "at_sup", "bulk",
                "overflow", "lugannani_rice", "arg_nonpositive", "tiny_uw")
THETA_MAX = 400.0  # a saddlepoint beyond this counts as all mass at the supremum
THETA_RTOL = 1e-10  # saddlepoint solve: Newton step or bracket, relative to 1 + theta
# prefixes solved at once across a match's trials (8 trials at n = 128); a
# whole match at once would raise peak memory for no further gain.  A
# 200-trial criterion-7 match took 0.177, 0.153, 0.142, 0.156 and 0.157 s
# (median of 7, 2-vCPU guest) at 256, 512, 1024, 2048 and 4096 rows
TAIL_BATCH_ROWS = 1024


class _CompetitorTail:
    """Tail probabilities for sums of independent per-cell atoms.

    Row c of cell_values holds cell c's atom values, -inf marking an absent
    atom, and log_w (broadcast to the same shape) their log weights.  The
    weights need not sum to 1: the missing mass is a -inf atom that removes
    a draw from contention.  log_tails(counts, thresholds) approximates, for
    every row at once, ln P(sum of counts[c] draws from cell c >= threshold)
    with the Lugannani-Rice saddlepoint formula, capped by the survival
    probability.  Every row whose saddlepoint is needed shares one
    safeguarded Newton/bisection solve on an (atoms, rows, cells) array.
    """

    def __init__(self, cell_values, log_w):
        atom = np.isfinite(cell_values) & np.isfinite(log_w)
        self.values = np.where(atom, cell_values, 0.0)
        self.weights = np.where(atom, np.exp(log_w), 0.0)
        # a finite log weight can still underflow to weight 0
        self.reachable = (self.weights > 0).any(axis=1)
        self.vmax = self.values.max(axis=1, where=self.weights > 0,
                                    initial=-np.inf)
        self.vmax = np.where(self.reachable, self.vmax, 0.0)
        wsum = self.weights.sum(axis=1)
        self.log_wsum = np.log(np.maximum(wsum, 1e-300))
        at_max = self.weights * (self.values >= self.vmax[:, None] - 1e-12)
        self.log_w_at_max = np.log(np.maximum(at_max.sum(axis=1), 1e-300))
        self.mean_cond = (self.weights * self.values).sum(axis=1) \
            / np.maximum(wsum, 1e-300)
        # centered values keep exp(theta * v) bounded for large theta;
        # absent and weightless atoms sit at 0 so they never overflow
        centered = np.where(self.weights > 0, self.values - self.vmax[:, None], 0.0)
        # atom-major (atoms, 1, cells) copies: the moment sums over atoms are
        # then sums of whole (rows, cells) planes, not one short sum per cell
        self._weights_am, self._values_am, self._centered_am = (
            np.ascontiguousarray(x.T[:, None, :])
            for x in (self.weights, self.values, centered))

    def _cgf(self, theta, counts, need_k0=True):
        """K(theta) (None unless need_k0), K'(theta) and K''(theta) of each row of
        counts, shape (rows,)."""
        e = self._weights_am * np.exp(theta[:, None] * self._centered_am)
        ev = e * self._values_am
        s0 = np.maximum(_atom_sum(e), 1e-300)
        s1 = _atom_sum(ev) / s0
        s2 = _atom_sum(ev * self._values_am) / s0
        k1 = (counts * s1).sum(axis=1)
        k2 = (counts * np.maximum(s2 - s1 * s1, 0.0)).sum(axis=1)
        if not need_k0:
            return None, k1, k2
        return (counts * (theta[:, None] * self.vmax + np.log(s0))).sum(axis=1), k1, k2

    def log_tails(self, counts, thresholds):
        """Log tails of an (rows, cells) count matrix against (rows,) thresholds.

        Returns the log tails and each row's index into TAIL_REGIMES: a row
        takes the first regime whose test it passes.  The saddlepoint solve
        stops on a row once its Newton step |t - K'(theta)| / K''(theta) or
        its bracket is at most THETA_RTOL (1 + theta), after that one more
        Newton step.  The moments are only ever computed for rows still open.
        """
        counts = np.asarray(counts, dtype=float)
        t = np.asarray(thresholds, dtype=float)
        out = np.zeros(t.size)
        regime = np.full(t.size, -1)
        log_survival = counts @ self.log_wsum
        at_max = counts @ self.log_w_at_max  # mass exactly at the supremum

        def settle_at(rows, name, value):
            out[rows] = value
            regime[rows] = TAIL_REGIMES.index(name)

        def settle(rows, name, value):
            rows = rows & (regime < 0)
            settle_at(rows, name, value[rows] if np.ndim(value) else value)

        # an occupied cell no competitor can ever match
        settle(((counts > 0) & ~self.reachable).any(axis=1), "unreachable", _NEG_INF)
        settle(counts.sum(axis=1) == 0, "empty", np.where(t <= 0, 0.0, _NEG_INF))
        settle(t > counts @ self.vmax + 1e-9, "above_sup", _NEG_INF)
        settle(t >= counts @ self.vmax - 1e-9, "at_sup", at_max)
        settle(t <= counts @ self.mean_cond, "bulk", log_survival)
        live = np.flatnonzero(regime < 0)
        if live.size == 0:
            return out, regime
        hi = np.full(t.size, THETA_MAX)
        overflow = self._cgf(hi[live], counts[live], need_k0=False)[1] < t[live]
        settle_at(live[overflow], "overflow", at_max[live[overflow]])
        live = live[~overflow]
        # K' rises from below t at 0 to at least t at THETA_MAX, so [lo, hi]
        # brackets the saddlepoint of every row still unsettled
        lo, theta = np.zeros(t.size), np.ones(t.size)
        solve = live
        for _ in range(60):
            if solve.size == 0:
                break
            th, lo_l, hi_l, t_l = theta[solve], lo[solve], hi[solve], t[solve]
            _, k1, k2 = self._cgf(th, counts[solve], need_k0=False)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = th + (t_l - k1) / k2
            # a row is solved once its Newton step or its bracket is below
            # the tolerance (where K'' is small, a small |K' - t| is a long
            # step); it then takes that last step and leaves the loop
            tol = THETA_RTOL * (1.0 + th)
            miss = (hi_l - lo_l > tol) & ~((k2 > 1e-300) & (np.abs(step - th) <= tol))
            lo_l = np.where(miss & (k1 < t_l), th, lo_l)
            hi_l = np.where(miss & (k1 >= t_l), th, hi_l)
            newton = (k2 > 1e-300) & (lo_l < step) & (step < hi_l)
            theta[solve] = np.where(newton, step, np.where(miss, 0.5 * (lo_l + hi_l), th))
            lo[solve], hi[solve] = lo_l, hi_l
            solve = solve[miss]
        if live.size == 0:
            return out, regime
        th, t_l, survival = theta[live], t[live], log_survival[live]
        k0, _, k2 = self._cgf(th, counts[live])
        arg = 2.0 * (th * t_l - k0)
        w_lr, u_lr = np.sqrt(np.maximum(arg, 0.0)), th * np.sqrt(k2)
        flat = (arg <= 0) | (k2 <= 0)
        tiny = ~flat & ((u_lr < 1e-8) | (w_lr < 1e-8))
        lr = ~(flat | tiny)
        settle_at(live[flat], "arg_nonpositive", survival[flat])
        settle_at(live[tiny], "tiny_uw", np.minimum(survival[tiny], np.log(0.5)))
        w, u = w_lr[lr], u_lr[lr]
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = _normal_tail(w) + np.exp(-0.5 * w * w) / np.sqrt(2 * np.pi) \
                * (1.0 / u - 1.0 / w)
            settle_at(live[lr], "lugannani_rice",
                      np.minimum(np.log(np.clip(tail, 1e-300, 1.0)), survival[lr]))
        return out, regime


# ---------------------------------------------------------------------------
# adversaries


def _oblivious_play(mixes, rng, state_seq):
    """B's play of a fixed minimax mix at every position, one row of `mixes`
    per state; for an opponent blind to the state every row is the averaged
    game's mix."""
    cdf = np.cumsum(mixes, axis=1)
    cdf /= cdf[:, -1:]
    # the same uniforms and inverse cdf as Generator.choice per position
    u = rng.random(len(state_seq))
    return (cdf[np.asarray(state_seq)] <= u[:, None]).sum(axis=1)


class ExactDecoderAdversary:
    """Exact Bayesian posterior over an enumerated set of candidate codewords.

    prior_logw encodes what the adversary knows about the encoder's selection
    rule; likelihoods accumulate observed actions (and states when they are
    only revealed causally).  A candidate of prior log weight -inf can never
    regain weight, so only the others are kept (`kept`, in candidate order).
    Some candidate must keep a finite weight: in a trial the sent codeword
    does.  The scheme's laws come from the match's `_SchemeTables`.
    """

    def __init__(self, tables, candidates, prior_logw, sees_state_seq):
        self.tables = tables
        prior_logw = np.asarray(prior_logw, dtype=float)
        self.kept = np.flatnonzero(prior_logw > _NEG_INF)
        self.cands = np.asarray(candidates)[self.kept]  # (kept, n)
        self.logw = prior_logw[self.kept]
        self.sees_state_seq = sees_state_seq
        self.p_a_rows = tables.scheme.p_a_given_u.rows

    def _posterior(self):
        w = np.exp(self.logw - self.logw.max())
        return w / w.sum()

    def act(self, t, s_t):
        post, payoff = self._posterior(), self.tables.game.payoff
        u_t = self.cands[:, t]
        if self.sees_state_seq:
            # only state s_t's payoffs enter
            q = (post[:, None] * self.p_a_rows[u_t]).sum(axis=0)[None]
            payoff = payoff[:, :, s_t:s_t + 1]
        else:
            q = np.einsum("i,is,ia->sa", post, self.tables.p_s_given_u[u_t],
                          self.p_a_rows[u_t])
        return best_response(q, payoff, self.sees_state_seq).item()

    def observe(self, t, s_t, a_t):
        u_t = self.cands[:, t]
        self.logw = self.logw + self.tables.log_pa_u[u_t, a_t]
        if not self.sees_state_seq:
            self.logw = self.logw + self.tables.log_ps_u[u_t, s_t]

    def decoded_true(self, true_idx):
        """Whether the true candidate alone has the top weight (8 eps relative ties)."""
        pos = np.searchsorted(self.kept, true_idx)
        if pos == self.kept.size or self.kept[pos] != true_idx:
            return False  # dropped: its weight is -inf
        top = self.logw[pos]
        return bool(np.isfinite(top)) and np.count_nonzero(
            self.logw >= top - 8 * np.finfo(float).eps * abs(top)) == 1


# ---------------------------------------------------------------------------
# match configuration and results


@dataclass(frozen=True)
class MatchConfig:
    n: int
    trials: int
    epsilon: float = DEFAULT_EPSILON
    adversary: str = "decoder_with_state"
    b_knows_state: bool = True
    seed: int = 0
    codebook_cap: int = DEFAULT_CODEBOOK_CAP
    selection: str = "tilted"

    def __post_init__(self):
        if self.n < 1 or self.trials < 1 or not self.epsilon > 0:  # NaN fails too
            raise ContractViolationError("need n >= 1, trials >= 1, epsilon > 0")
        if self.adversary not in ADVERSARIES:
            raise ContractViolationError(f"unknown adversary {self.adversary!r}")
        if self.selection not in SELECTIONS:
            raise ContractViolationError(f"unknown selection rule {self.selection!r}")


@dataclass(frozen=True)
class MatchResult:
    per_iteration_payoff: np.ndarray
    decode_success: np.ndarray
    encoder_failure_rate: float
    mean_payoff: float

    def to_csv(self) -> str:
        rows = zip(self.per_iteration_payoff, self.decode_success)
        return "k,mean_payoff_at_k,decode_success_at_k\n" + "".join(
            f"{k},{p:.17g},{d:.17g}\n" for k, (p, d) in enumerate(rows, start=1))


# ---------------------------------------------------------------------------
# the match driver


class _SchemeTables:
    """Per-run values shared by every trial of a match."""

    def __init__(self, game: Game, scheme: Scheme):
        self.game = game
        self.scheme = scheme
        self.prior = game.prior
        self.joint_sa = scheme.joint(game.prior).mass.sum(axis=1)  # (s, a)
        self.p_u = scheme.p_u(game.prior)
        self.p_a_given_s = np.divide(
            self.joint_sa, np.maximum(self.joint_sa.sum(axis=1, keepdims=True), 1e-300))
        self.p_s_given_u = scheme.p_s_given_u(game.prior).rows  # (u, s)
        with np.errstate(divide="ignore"):
            self.log_pa_u = np.log(scheme.p_a_given_u.rows)  # (u, a)
            self.log_ps_u = np.log(self.p_s_given_u)  # (u, s)
            self.log_tilt = _log_tilt_table(self.p_u, scheme)  # (u, s)
        # B's best responses, indexed [informed, s] before decoding and
        # [informed, s, u] once the codeword symbol u is known
        ns, nu = self.prior.size, self.p_u.size
        pa = scheme.p_a_given_u.rows
        # (u, s, a) masses given the decoded u: the joint for a B blind to
        # the state, and A's law in every state for a B that sees it
        blind_sa = self.p_s_given_u[:, :, None] * pa[:, None, :]
        seen_sa = np.broadcast_to(pa[:, None, :], blind_sa.shape)
        self.marginal_br = np.stack([
            np.full(ns, best_response(self.joint_sa, game.payoff, False)),
            best_response(self.p_a_given_s, game.payoff, True)])
        self.decoded_br = np.stack([
            np.broadcast_to(best_response(blind_sa, game.payoff, False), (ns, nu)),
            best_response(seen_sa, game.payoff, True).T])
        self._tails = {}
        self._boxes = {}

    def competitor_tail(self, informed):
        """The `_CompetitorTail` of a competitor codeword's log weight.

        Cells by atom u, in a fixed order: suffix cells s (informed only),
        then prefix cells (s, a).  Built once per match and informedness.
        """
        if informed not in self._tails:
            ns, na = self.joint_sa.shape
            prefix = (self.log_tilt if informed else self.log_ps_u).T  # (s, u)
            cells = (prefix[:, None, :] + self.log_pa_u.T[None]).reshape(ns * na, -1)
            if informed:
                cells = np.vstack([self.log_tilt.T, cells])
            self._tails[informed] = _CompetitorTail(
                cells, np.log(np.maximum(self.p_u, 1e-300)))
        return self._tails[informed]

    def typical_boxes(self, state_counts, epsilon):
        """(ln P(a p_U codeword is typical), `_box_law`'s boxes under p_U, and
        under p(u|s)) at the empirical state type, each state's box enumerated
        once.  Memoized by the state counts: a match sees few distinct ones."""
        key = (tuple(state_counts), epsilon)
        if key not in self._boxes:
            target = _target_joint_us(state_counts / state_counts.sum(), self.scheme)
            vectors = _state_boxes(state_counts, target, epsilon)
            plain, log_mass = _box_law(vectors, state_counts,
                                       np.tile(self.p_u, (self.prior.size, 1)))
            tilted = _box_law(vectors, state_counts, self.scheme.p_u_given_s.rows)[0]
            self._boxes[key] = log_mass, plain, tilted
        return self._boxes[key]

    @cached_property
    def averaged_solution(self):
        """Minimax solution of the game averaged over the prior."""
        return solve_matrix_game(self.game.averaged_matrix())

    @cached_property
    def state_b_mixes(self):
        """B's minimax mix in each state's matrix game, one row per state."""
        return np.stack([solve_matrix_game(self.game.state_matrix(s)).strategy_b.rows[0]
                         for s in range(self.prior.size)])

    def oblivious_mixes(self, sees_state):
        if sees_state:
            return self.state_b_mixes
        return np.tile(self.averaged_solution.strategy_b.rows[0],
                       (self.prior.size, 1))


def _trial_rng(master_seed, trial):
    return np.random.default_rng([int(master_seed), int(trial)])


def _decoder_play(adv, s_seq, a_seq, true_idx):
    """B's actions and per-step decode indicators of an exact decoder."""
    n = len(s_seq)
    b_seq = np.empty(n, dtype=np.int64)
    decode = np.zeros(n)
    for t in range(n):
        b_seq[t] = adv.act(t, s_seq[t])
        adv.observe(t, s_seq[t], a_seq[t])
        decode[t] = adv.decoded_true(true_idx)
    return b_seq, decode


def _box_source(tables, cfg, log_n_codewords, rng, s_seq, informed):
    """Codewords of a codebook too large to materialize: (members, u_sent).

    The typical-set size is a Poisson draw.  Against an informed adversary,
    the tilted rule and at most BOX_MATERIALIZE_CAP members, the members
    are drawn (plain p_U codebook draws given the box) for the encoder to
    select from.  Otherwise members is None and u_sent is one codeword drawn
    from the selection rule's law given the box, or None if nothing is
    typical.
    """
    state_counts = np.bincount(s_seq, minlength=tables.prior.size)
    log_ptyp, plain, tilted = tables.typical_boxes(state_counts, cfg.epsilon)
    lam = np.exp(min(log_n_codewords + log_ptyp, 700))  # 0 when nothing is typical
    m = int(rng.poisson(min(lam, 1e9)))
    if m == 0:
        return None, None
    if informed and cfg.selection == "tilted" and m <= BOX_MATERIALIZE_CAP:
        return _sample_box_codeword(rng, s_seq, plain, m), None
    # the tilted rule's one codeword is a p(u|s) draw given the box
    return None, _sample_box_codeword(rng, s_seq,
                                      tilted if cfg.selection == "tilted" else plain, 1)[0]


class _CodewordSource(NamedTuple):
    """A match's codeword source: its rate, whether its 2^ceil(n*rate)
    codewords are materialized, and the log of that count."""

    rate: float
    materialized: bool
    log_n_codewords: float


def _codeword_source(cfg, rate):
    """The codeword source of a match, decided once from the exponent."""
    bits = _codeword_bits(cfg.n, rate)
    return _CodewordSource(rate, _codebook_fits(bits, cfg.n, cfg.codebook_cap),
                           bits * _LOG2)


def _run_trial(tables, cfg, source, rng, adversary):
    """One block of the coded game: states, a codeword, A's play, B's play.

    The codeword source is the one fork, decided once per match by
    `_codeword_source`: a materialized codebook when it fits
    `cfg.codebook_cap`, else `_box_source`.  Candidates from either source
    (the codebook, or enumerated typical-set members) go through the same
    typicality test and selection rule.  B's play is the first that
    applies of: the oblivious mix; after an encoder failure, the best
    response to the scheme marginal; against the deterministic "first" rule,
    informed, the best response to the reproduced codeword; the exact
    decoder over the candidates, whose informed prior is the tilt; else the
    saddlepoint blend of `_AnalyticTrial`, whose trial is returned in place
    of its payoffs until `_settle` solves its tails.
    """
    scheme, n, selection = tables.scheme, cfg.n, cfg.selection
    informed = adversary == "decoder_with_state"
    s_seq = rng.choice(tables.prior.size, size=n, p=tables.prior)
    u_sent = None
    if source.materialized:
        candidates = build_codebook(scheme, n, source.rate, int(rng.integers(1 << 62)),
                                    cap=cfg.codebook_cap, prior=tables.prior).sequences
    else:
        candidates, u_sent = _box_source(tables, cfg, source.log_n_codewords, rng,
                                         s_seq, informed)
    if candidates is not None:
        idx, log_w = _typical_codewords(candidates, s_seq, scheme, tables.p_u, cfg.epsilon)
        try:
            true_idx = _select_codeword(idx, log_w, selection,
                                        int(rng.integers(1 << 62)))
            u_sent = candidates[true_idx]
        except EncoderFailure:
            pass
    failed = u_sent is None
    if failed:
        # A is left blind to the states: the prior-averaged game's minimax mix
        mix = tables.averaged_solution.strategy_a.rows[0]
        a_seq = rng.choice(mix.size, size=n, p=mix)
    else:
        a_seq = decode_actions(u_sent, scheme, int(rng.integers(1 << 62)))
    decode = np.zeros(n)
    if adversary == "oblivious":
        b_seq = _oblivious_play(tables.oblivious_mixes(cfg.b_knows_state), rng, s_seq)
    elif failed:
        b_seq = tables.marginal_br[int(informed), s_seq]
    elif informed and selection == "first":
        # the deterministic encoder always sends the lowest-index typical
        # codeword, so a protocol-aware state-informed adversary reproduces
        # the choice and knows the codeword before play starts
        b_seq = tables.decoded_br[1, s_seq, u_sent]
        decode[:] = 1.0
    elif candidates is not None:
        adv = ExactDecoderAdversary(tables, candidates,
                                    log_w if informed else np.zeros(len(candidates)),
                                    sees_state_seq=informed)
        b_seq, decode = _decoder_play(adv, s_seq, a_seq, true_idx)
    else:
        # the payoffs wait for a saddlepoint solve shared with other trials
        return _AnalyticTrial(tables, s_seq, a_seq, u_sent, informed,
                              source.log_n_codewords), None, failed
    return tables.game.payoff[a_seq, b_seq, s_seq], decode, failed


class _AnalyticTrial:
    """An analytic trial's draws, waiting for the saddlepoint tails of its prefixes.

    A competitor codeword's log weight is a sum of independent per-position
    atoms: cells keyed by (s, a) over the observed prefix and, for an
    informed adversary, by s alone over the unobserved suffix.  The decode
    probability after k steps approximates P(no competitor outweighs the
    true codeword) through the saddlepoint tails of `_CompetitorTail`.
    `counts` and `thresholds` hold one row per prefix length; rows are
    independent, so the trials of a match can share one solve.
    """

    def __init__(self, tables, s_seq, a_seq, u_true, informed, log_n_codewords):
        self.tables, self.s_seq, self.a_seq = tables, s_seq, a_seq
        self.u_true, self.informed = u_true, informed
        self.log_n_codewords = log_n_codewords
        self.tail = tables.competitor_tail(informed)
        ns, na = tables.joint_sa.shape
        # competitor cell counts after each prefix length: step k adds a draw to
        # its prefix cell, which an informed adversary takes from suffix cell s_k
        eye = np.eye(len(self.tail.values))
        counts = np.cumsum(eye[(ns if informed else 0) + s_seq * na + a_seq], axis=0)
        if informed:
            counts += eye[s_seq].sum(axis=0) - np.cumsum(eye[s_seq], axis=0)
        self.counts = counts
        # the true codeword's log weight after each prefix length
        lik_steps = tables.log_pa_u[u_true, a_seq] if informed else \
            tables.log_ps_u[u_true, s_seq] + tables.log_pa_u[u_true, a_seq]
        tilt_total = tables.log_tilt[u_true, s_seq].sum() if informed else 0.0
        self.thresholds = tilt_total + np.cumsum(lik_steps)

    def payoffs(self, log_tails):
        """Per-step payoffs and decode probabilities given the prefixes' log tails."""
        tables, s_seq, a_seq, u_true = self.tables, self.s_seq, self.a_seq, self.u_true
        log_beats = self.log_n_codewords + log_tails
        decode = np.where(log_beats > 700, 0.0,
                          np.exp(-np.exp(np.minimum(log_beats, 700))))
        # A modelling step, not a derivation: until the adversary has decoded,
        # its posterior predictive is dominated by competitor codewords
        # uncorrelated with the truth, so it best-responds to the scheme
        # marginal; once decoded it exploits the codeword.  The two payoffs are
        # blended by the decode probability after the previous step.
        payoff, row = tables.game.payoff, int(self.informed)
        pay_marg = payoff[a_seq, tables.marginal_br[row, s_seq], s_seq]
        pay_dec = payoff[a_seq, tables.decoded_br[row, s_seq, u_true], s_seq]
        shift = np.concatenate([[0.0], decode[:-1]])
        return (1.0 - shift) * pay_marg + shift * pay_dec, decode


def _analytic_payoffs(tables, s_seq, a_seq, u_true, informed, log_n_codewords):
    """Per-step payoffs and decode probabilities of one analytic trial, solved alone."""
    trial = _AnalyticTrial(tables, s_seq, a_seq, u_true, informed, log_n_codewords)
    return trial.payoffs(trial.tail.log_tails(trial.counts, trial.thresholds)[0])


def _settle(outcomes):
    """Trial outcomes with each `_AnalyticTrial` replaced by its payoffs.

    The analytic trials' prefixes share one saddlepoint solve.
    """
    pending = [i for i, (pay, _, _) in enumerate(outcomes)
               if isinstance(pay, _AnalyticTrial)]
    if pending:
        trials = [outcomes[i][0] for i in pending]
        log_tails = trials[0].tail.log_tails(
            np.vstack([trial.counts for trial in trials]),
            np.concatenate([trial.thresholds for trial in trials]))[0]
        for i, trial, part in zip(pending, trials, np.split(log_tails, len(trials))):
            outcomes[i] = (*trial.payoffs(part), outcomes[i][2])
    return outcomes


def adversary_play(model: str, past_states, past_actions, codebook: Codebook,
                   scheme: Scheme, game: Game, iteration: int,
                   state_seq=None, epsilon: float = DEFAULT_EPSILON,
                   selection: str = "tilted", seed: int = 0):
    """One adversary action at `iteration` given the visible history.

    Stateless wrapper over B's play in a materialized trial (`_run_trial`):
    the posterior is recomputed from the full history each call.
    `state_seq` supplies the whole block for the state-aware model, whose
    prior is the encoder's tilt (against `codebook.p_u`) over its typical
    set; against "first" it reproduces the sent codeword and plays the
    trial's lookup.  The plain decoder sees only past states causally.  With
    no candidate left, B best-responds to the scheme marginal.
    """
    if model not in ADVERSARIES:
        raise ContractViolationError(f"unknown adversary {model!r}")
    if selection not in SELECTIONS:
        raise ContractViolationError(f"unknown selection rule {selection!r}")
    tables = _SchemeTables(game, scheme)
    s_t = int(state_seq[iteration]) if state_seq is not None else 0
    if model == "oblivious":
        return int(_oblivious_play(tables.oblivious_mixes(state_seq is not None),
                                   np.random.default_rng(seed), [s_t])[0])
    informed = model == "decoder_with_state"
    if informed and state_seq is None:
        raise ContractViolationError("decoder_with_state needs the full state sequence")
    prior_logw = np.zeros(codebook.count)
    if informed:
        idx, prior_logw = _typical_codewords(codebook.sequences, np.asarray(state_seq),
                                             scheme, codebook.p_u, epsilon)
        if selection == "first" and idx.size:
            return int(tables.decoded_br[1, s_t, codebook.sequences[idx[0], iteration]])
    adv = ExactDecoderAdversary(tables, codebook.sequences, prior_logw, informed)
    for t in range(iteration):
        adv.observe(t, int(past_states[t]), int(past_actions[t]))
    if not np.isfinite(adv.logw.max(initial=_NEG_INF)):
        return int(tables.marginal_br[int(informed), s_t])
    return adv.act(iteration, s_t)


def run_match(game: Game, scheme: Scheme, rate: float, config: MatchConfig
              ) -> MatchResult:
    """Simulate independent blocks of the coded game and aggregate statistics."""
    if not 0 <= rate < np.inf:
        raise ContractViolationError(f"need a finite rate >= 0, got {rate}")
    if scheme.p_u_given_s.from_size != game.n_states or \
            scheme.p_a_given_u.to_size != game.n_actions_a:
        raise ContractViolationError("scheme dimensions do not match game")
    tables = _SchemeTables(game, scheme)
    n, trials = config.n, config.trials
    adversary = config.adversary
    if adversary == "decoder" and config.b_knows_state:
        adversary = "decoder_with_state"
    source = _codeword_source(config, rate)
    pay_sum = np.zeros(n)
    dec_sum = np.zeros(n)
    failures = 0
    # trials run in groups whose analytic prefixes share a saddlepoint solve;
    # each trial draws from its own stream and sums add in trial order
    group = max(1, TAIL_BATCH_ROWS // n)
    for first in range(0, trials, group):
        outcomes = [_run_trial(tables, config, source, _trial_rng(config.seed, trial),
                               adversary)
                    for trial in range(first, min(first + group, trials))]
        for pay, dec, failed in _settle(outcomes):
            pay_sum += pay
            dec_sum += dec
            failures += int(failed)
    per_iter = pay_sum / trials
    return MatchResult(
        per_iteration_payoff=per_iter,
        decode_success=dec_sum / trials,
        encoder_failure_rate=failures / trials,
        mean_payoff=float(per_iter.mean()),
    )


def deterministic_baseline(game: Game, rate: float, n: int, trials: int,
                           seed: int, adversary: str = "decoder_with_state",
                           epsilon: float = DEFAULT_EPSILON) -> MatchResult:
    """Rate-distortion-style coding demo: actions a deterministic function of states.

    Codewords are action sequences (U = A) and the encoder deterministically
    picks the first jointly typical one, so a protocol-aware opponent who sees
    the states can reproduce the choice and anticipate every action.  The
    target p(A|S) is the per-state minimax strategy, which must fit the rate.
    """
    per_state = optimal_state_strategy(game)
    scheme = Scheme(ConditionalDistribution(per_state),
                    ConditionalDistribution(np.eye(game.n_actions_a)))
    i_sa = scheme_statistics(game, scheme).i_us  # U = A
    if rate < i_sa - 1e-9:
        raise InfeasibleRateError(
            f"rate {rate} below I(S;A)={i_sa:.4f} of the optimal strategy channel")
    cfg = MatchConfig(n=n, trials=trials, epsilon=epsilon, adversary=adversary,
                      b_knows_state=(adversary != "decoder"), seed=seed,
                      selection="first")
    return run_match(game, scheme, rate, cfg)
