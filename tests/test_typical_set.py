"""Property tests of the simulator's typical-set kernel and box sampling."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from statehelper.simulator import (
    _box_law,
    _box_vectors,
    _count_intervals,
    _sample_box_codeword,
    _state_boxes,
    _typical_cells,
    _typical_set,
    typicality_log_prob,
)

SETTINGS = settings(max_examples=100, deadline=None)


def _pmf(weights):
    weights = np.asarray(weights, dtype=float)
    return weights / weights.sum()


@st.composite
def blocks(draw, max_n):
    """A state sequence, an empirical target p_hat(s) p(u|s) with zero cells,
    p(u|s) itself and an i.i.d. symbol law p_U that may have zero entries."""
    n = draw(st.integers(1, max_n))
    card_u = draw(st.integers(1, 3))
    ns = draw(st.integers(1, 3))
    s_seq = np.array(draw(st.lists(st.integers(0, ns - 1), min_size=n, max_size=n)))
    row = st.lists(st.integers(0, 3), min_size=card_u, max_size=card_u).filter(any)
    p_u_given_s = np.stack([_pmf(draw(row)) for _ in range(ns)])
    p_u = _pmf(draw(row))
    target = (p_u_given_s * (np.bincount(s_seq, minlength=ns) / n)[:, None]).T
    return s_seq, target, p_u_given_s, p_u


def _naive_counts(seqs, s_seq, card_u, ns):
    counts = np.zeros((len(seqs), card_u, ns), dtype=int)
    for i, row in enumerate(seqs):
        for u, s in zip(row, s_seq):
            counts[i, u, s] += 1
    return counts


@SETTINGS
@given(st.integers(1, 12), st.integers(1, 20), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_kernel_counts_match_naive_count(rows, n, card_u, ns, seed):
    rng = np.random.default_rng(seed)
    seqs = rng.integers(0, card_u, size=(rows, n)).astype(np.int16)
    s_seq = rng.integers(0, ns, size=n)
    counts, _ = _typical_set(seqs, s_seq, np.zeros((card_u, ns)), 0.1)
    assert np.array_equal(counts, _naive_counts(seqs, s_seq, card_u, ns))


@SETTINGS
@given(blocks(max_n=7), st.floats(0.01, 0.6))
def test_typicality_log_prob_matches_enumeration(block, epsilon):
    s_seq, target, _, p_u = block
    card_u, ns = target.shape
    seqs = np.array(list(itertools.product(range(card_u), repeat=len(s_seq))))
    prob = np.prod(p_u[seqs], axis=1)
    _, typical = _typical_set(seqs, s_seq, target, epsilon)
    total = prob[typical].sum()
    got = typicality_log_prob(np.bincount(s_seq, minlength=ns), target,
                              epsilon, p_u)
    if total == 0:
        assert got == -np.inf
    else:
        assert abs(got - np.log(total)) <= 1e-9


@SETTINGS
@given(st.integers(1, 30), st.data(), st.lists(st.integers(0, 3), min_size=1,
                                               max_size=4).filter(any),
       st.floats(0.01, 0.6))
def test_box_vectors_match_enumeration(n, data, weights, epsilon):
    """A state's box is every count vector summing to n_s whose cells are
    typical, in lexicographic order."""
    n_s = data.draw(st.integers(0, n))
    p_col = _pmf(weights) * n_s / n  # a state's column of the joint target
    heads = itertools.product(range(n_s + 1), repeat=p_col.size - 1)
    vecs = np.array([head + (n_s - sum(head),) for head in heads
                     if sum(head) <= n_s], dtype=int)
    expected = vecs[_typical_cells(vecs, n, p_col, epsilon).all(axis=1)]
    got = _box_vectors(n_s, n, p_col, epsilon)
    assert got.shape == expected.shape and np.array_equal(got, expected)


@SETTINGS
@given(st.integers(1, 20000), st.data(), st.integers(1, 4), st.floats(0.001, 0.6),
       st.integers(0, 2**32 - 1))
def test_count_intervals_are_the_cell_test(n, data, card, epsilon, seed):
    """Each cell passes `_typical_cells` exactly on its interval of counts
    0..n_s, for a state's column p(u|s) n_s / n of the joint target."""
    n_s = data.draw(st.integers(0, n))
    p_col = np.random.default_rng(seed).dirichlet(np.ones(card)) * n_s / n
    p_col[data.draw(st.lists(st.booleans(), min_size=card, max_size=card))] = 0.0
    values = np.arange(n_s + 1)[:, None]
    lo, hi = _count_intervals(n_s, n, p_col, epsilon)
    assert np.array_equal((lo <= values) & (values <= hi),
                          _typical_cells(values, n, p_col, epsilon))


def test_box_holds_every_type_the_kernel_calls_typical():
    """At n = 16371 a bounds formula with a 1e-9 slack on (p - epsilon) n
    started this box at [9076, 7295], though the kernel calls a sequence
    of type [9075, 7296] typical.  The box and the log mass are the cell
    test's."""
    n, p = 16371, 0.6293338830867863
    p_col, epsilon = np.array([p, 1.0 - p]), 0.075
    seq = np.repeat([0, 1], [9075, 7296])
    assert _typical_set(seq, np.zeros(n, dtype=int), p_col[:, None], epsilon)[1][0]
    box = _box_vectors(n, n, p_col, epsilon)
    assert [9075, 7296] in box.tolist()
    ll = np.array([math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)
                   + k * math.log(p) + (n - k) * math.log(1.0 - p) for k in box[:, 0]])
    want = ll.max() + math.log(np.exp(ll - ll.max()).sum())
    got = typicality_log_prob(np.array([n]), p_col[:, None], epsilon, p_col)
    assert abs(got - want) <= 1e-9


@SETTINGS
@given(blocks(max_n=12), st.floats(0.01, 0.3), st.floats(0.01, 1.0),
       st.integers(0, 2**32 - 1))
def test_empty_box_is_impossible(block, epsilon, excess, seed):
    """A column whose mass exceeds the state's share by more than the box
    slack admits no count vector."""
    s_seq, target, p_u_given_s, p_u = block
    card_u, ns = target.shape
    state_counts = np.bincount(s_seq, minlength=ns)
    s0 = int(s_seq[0])
    target = target.copy()
    target[:, s0] = _pmf(np.ones(card_u)) * (
        state_counts[s0] / len(s_seq) + card_u * epsilon + excess)
    assert typicality_log_prob(state_counts, target, epsilon, p_u) == -np.inf
    boxes, log_mass = _box_law(_state_boxes(state_counts, target, epsilon),
                               state_counts, p_u_given_s)
    assert log_mass == -np.inf
    assert _sample_box_codeword(np.random.default_rng(seed), s_seq, boxes) is None


@SETTINGS
@given(blocks(max_n=40), st.floats(0.05, 0.5), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_box_members_pass_the_kernel(block, epsilon, tilted, seed):
    s_seq, target, p_u_given_s, p_u = block
    ns = target.shape[1]
    laws = p_u_given_s if tilted else np.tile(p_u, (ns, 1))
    state_counts = np.bincount(s_seq, minlength=ns)
    boxes, _ = _box_law(_state_boxes(state_counts, target, epsilon), state_counts,
                        laws)
    codeword = _sample_box_codeword(np.random.default_rng(seed), s_seq, boxes)
    if codeword is not None:
        assert _typical_set(codeword, s_seq, target, epsilon)[1][0]


@st.composite
def edge_boxes(draw):
    """Codewords, a state sequence in which some states never occur, and a
    target with zero cells whose box edges target * n +- epsilon * n land on
    the counts of the first codeword, exactly or 1e-10 / n to either side."""
    n = draw(st.integers(1, 10))
    card_u = draw(st.integers(1, 3))
    ns = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s_seq = rng.integers(0, draw(st.integers(1, ns)), size=n)
    seqs = rng.integers(0, card_u, size=(draw(st.integers(1, 40)), n))
    counts = _naive_counts(seqs[:1], s_seq, card_u, ns)[0]
    j = draw(st.integers(0, 2))
    shift = rng.choice([-j, 0, j], size=counts.shape)
    nudge = draw(st.sampled_from([0.0, 1e-10, -1e-10]))
    target = np.maximum((counts + shift + nudge) / n, 0.0)
    target[rng.random(target.shape) < 0.2] = 0.0
    return seqs.astype(np.int16), s_seq, target, j / n


@SETTINGS
@given(edge_boxes())
def test_kernel_mask_is_the_cell_test_on_its_counts(box):
    seqs, s_seq, target, epsilon = box
    counts, typical = _typical_set(seqs, s_seq, target, epsilon)
    want = _typical_cells(counts, seqs.shape[1], target, epsilon).all(axis=(1, 2))
    assert np.array_equal(typical, want)
