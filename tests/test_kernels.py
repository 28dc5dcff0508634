"""The pair-cost grid against per-element and left-to-right references,
and the SGD epoch (jitted or stepped a row at a time) against its
interpreted reference loop."""

import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qga import kernels


def random_inputs(seed, items=40, dim=12, pairs=30, preds=7):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=(items, dim))
    v1 = rng.integers(0, items, size=pairs).astype(np.int64)
    v2 = rng.integers(0, items, size=pairs).astype(np.int64)
    p = rng.integers(0, items, size=preds).astype(np.int64)
    return vec, v1, v2, p


def test_pair_costs_grid_matches_per_element_norms():
    vec, v1, v2, p = random_inputs(3)
    costs, dirs = kernels.pair_costs(vec, v1, v2, p)
    assert costs.shape == dirs.shape == (len(v1), len(p))
    for r in range(len(v1)):
        for k in range(len(p)):
            cf = np.linalg.norm(vec[v1[r]] + vec[p[k]] - vec[v2[r]])
            cr = np.linalg.norm(vec[v2[r]] + vec[p[k]] - vec[v1[r]])
            np.testing.assert_allclose(costs[r, k], min(cf, cr), rtol=1e-12, atol=0)
            assert dirs[r, k] == (1 if cr < cf else 0)


def left_to_right_pair_costs(vec, v1, v2, preds):
    """The reference the kernel must equal bit for bit: per cell, each
    element's ``(x - y) + q`` forward and ``(x - y) - q`` reverse, the
    squares added left to right to 0.0 (the order of ``_sgd_epoch_impl``),
    then ``sqrt``; ties keep the forward direction."""
    rows = vec.tolist()

    def residual(x, y, q, sign):
        sq = 0.0
        for xi, yi, qi in zip(x, y, q):
            r = (xi - yi) + sign * qi
            sq += r * r
        return math.sqrt(sq)

    costs = np.empty((len(v1), len(preds)))
    dirs = np.empty((len(v1), len(preds)), dtype=np.int8)
    for r, (i, j) in enumerate(zip(v1, v2)):
        for k, p in enumerate(preds):
            cf = residual(rows[i], rows[j], rows[p], 1.0)
            cr = residual(rows[i], rows[j], rows[p], -1.0)
            costs[r, k] = cr if cr < cf else cf
            dirs[r, k] = 1 if cr < cf else 0
    return costs, dirs


ITEMS = 5  # few items, so ids repeat and some cells have v1 == v2 (cf == cr)
item_ids = st.integers(0, ITEMS - 1)
id_runs = st.lists(item_ids, min_size=1, max_size=4)


def product_pairs(blocks):
    """Concatenated outer products a x b, in row-major order."""
    v1 = [x for a, b in blocks for x in a for _ in b]
    v2 = [y for a, b in blocks for _ in a for y in b]
    return v1, v2


pair_lists = st.one_of(
    st.lists(st.tuples(id_runs, id_runs), max_size=4).map(product_pairs),
    st.lists(st.tuples(item_ids, item_ids), max_size=12).map(lambda p: ([i for i, _ in p], [j for _, j in p])),
)


@settings(max_examples=150, deadline=None)
@given(
    dim=st.sampled_from([1, 3, 32, 257]),
    pairs=pair_lists,
    preds=st.lists(item_ids, max_size=6),
    cells=st.sampled_from([1, 5, kernels.PAIR_COST_CELLS]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=3, pairs=([], []), preds=[0, 1], cells=5, seed=0)  # R = 0
@example(dim=32, pairs=product_pairs([([0, 1], [2, 3]), ([1, 4], [2, 3])]), preds=[0, 2, 4], cells=5, seed=1)
@example(dim=257, pairs=product_pairs([([0, 0], [1]), ([0], [1, 1, 2])]), preds=[3], cells=1, seed=2)
def test_pair_costs_equal_left_to_right_reference_bitwise(dim, pairs, preds, cells, seed):
    # the last two @example lists hold adjacent products that share a v1
    # value: [0, 1] x [2, 3] then [1, 4] x [2, 3], and [0, 0] x [1] then
    # [0] x [1, 1, 2].  Column scales from 1e-8 to 1e6 put squares of every
    # size in one sum, and small PAIR_COST_CELLS split the predicates over
    # several cdist calls
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=(ITEMS, dim)) * 10.0 ** rng.uniform(-8, 6, size=dim)
    v1, v2 = pairs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "PAIR_COST_CELLS", cells)
        costs, dirs = kernels.pair_costs(vec, v1, v2, preds)
    ref_costs, ref_dirs = left_to_right_pair_costs(vec, v1, v2, preds)
    assert costs.dtype == ref_costs.dtype and dirs.dtype == ref_dirs.dtype
    assert costs.shape == dirs.shape == (len(v1), len(preds))
    assert costs.tobytes() == ref_costs.tobytes()
    assert dirs.tobytes() == ref_dirs.tobytes()


def exact_pair_cost(x, y, q):
    """min(|x + q - y|, |y + q - x|) of the given floats, as an exact
    rational square root to 60 digits."""
    fx, fy, fq = ([Fraction(t) for t in v] for v in (x, y, q))
    forward = sum(((a + c - b) ** 2 for a, b, c in zip(fx, fy, fq)), Fraction(0))
    reverse = sum(((b + c - a) ** 2 for a, b, c in zip(fx, fy, fq)), Fraction(0))
    sq = min(forward, reverse)
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(sq.numerator) / Decimal(sq.denominator)).sqrt()


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 3, 32, 257]),
    eps=st.sampled_from([1e-2, 1e-4, 1e-8, 1e-12, 1e-14, 0.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=32, eps=1e-12, seed=0)
def test_pair_costs_near_zero_stay_within_rounding_of_the_exact_cost(dim, eps, seed):
    # v2 = v1 + p + eps * r puts the forward cost near zero, where a Gram
    # form |d|^2 + |q|^2 + 2 d.q cancels to noise; the difference form keeps
    # the error within a few roundings of the largest input element
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-8, 6, size=dim)
    v1, p, r = (rng.normal(size=(4, dim)) * scale for _ in range(3))
    v2 = v1 + p + eps * r
    vec = np.concatenate((v1, v2, p))
    costs, _ = kernels.pair_costs(vec, np.arange(4), np.arange(4, 8), np.arange(8, 12))
    for i in range(4):
        top = max(np.abs(v1[i]).max(), np.abs(v2[i]).max(), np.abs(p[i]).max())
        bound = Decimal(2 * dim * np.finfo(float).eps * top)
        assert abs(Decimal(costs[i, i]) - exact_pair_cost(v1[i], v2[i], p[i])) <= bound


def test_pair_costs_working_memory_does_not_grow_with_the_grid():
    # each (R, P, d) residual of a one-shot broadcast takes 100 MB here
    rng = np.random.default_rng(5)
    vec = rng.normal(size=(2000, 32))
    v1 = rng.integers(0, 2000, size=400)
    v2 = rng.integers(0, 2000, size=400)
    p = rng.integers(0, 2000, size=1000)
    tracemalloc.start()
    try:
        costs, dirs = kernels.pair_costs(vec, v1, v2, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = costs.nbytes + dirs.nbytes
    assert peak < 2 * out_bytes + 8 * 2**20


def test_pair_costs_working_memory_stays_flat_on_a_large_predicate_catalog():
    # one 4 x 4 product against 200 000 predicates: gathering them at once
    # would take 51 MB, and one [-Q; Q] cdist input over them 102 MB
    rng = np.random.default_rng(6)
    vec = rng.normal(size=(200_008, 32))
    a, b = np.arange(4), np.arange(4, 8)
    v1, v2 = np.repeat(a, 4), np.tile(b, 4)
    p = np.arange(8, 200_008)
    tracemalloc.start()
    try:
        costs, dirs = kernels.pair_costs(vec, v1, v2, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = costs.nbytes + dirs.nbytes
    assert peak < 2 * out_bytes + 8 * 2**20
    # spot-check one row against the reference
    ref_costs, ref_dirs = left_to_right_pair_costs(vec, v1[5:6], v2[5:6], p[:50])
    assert costs[5, :50].tobytes() == ref_costs.tobytes()
    assert dirs[5, :50].tobytes() == ref_dirs.tobytes()


@pytest.mark.parametrize("dim", [1, 3, 12, 100])
def test_pair_costs_grid_rows_equal_pairs_computed_alone(dim):
    # the batched condensed-graph build is bitwise equal to the per-cell
    # build only because a grid row does not depend on the other rows
    vec, v1, v2, p = random_inputs(dim, dim=dim)
    costs, dirs = kernels.pair_costs(vec, v1, v2, p)
    for r in range(len(v1)):
        alone_c, alone_d = kernels.pair_costs(vec, v1[r : r + 1], v2[r : r + 1], p)
        assert np.array_equal(costs[r], alone_c[0])
        assert np.array_equal(dirs[r], alone_d[0])


def test_sgd_epoch_active_matches_interpreted_bitwise():
    # numba's dispatcher and the row epoch are both distinct from the
    # reference, so this compares two code paths on every host
    assert kernels.sgd_epoch is not kernels._sgd_epoch_impl
    rng = np.random.default_rng(9)
    vec_a = rng.normal(size=(30, 8))
    vec_b = vec_a.copy()
    pos = rng.integers(0, 30, size=(120, 3)).astype(np.int64)
    neg = pos.copy()
    neg[:, 2] = rng.integers(0, 30, size=120)
    loss_a = kernels.sgd_epoch(vec_a, pos, neg, 0.01, 1.0)
    loss_b = kernels._sgd_epoch_impl(vec_b, pos, neg, 0.01, 1.0)
    assert loss_a == loss_b
    assert np.array_equal(vec_a, vec_b)


@settings(max_examples=80, deadline=None)
@given(
    items=st.integers(1, 8),
    zero_rows=st.integers(0, 8),
    dim=st.sampled_from([1, 2, 5, 32]),
    n=st.integers(0, 40),
    lr=st.sampled_from([0.01, 0.3]),
    margin=st.sampled_from([0.5, 1.0, 4.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(items=1, zero_rows=1, dim=3, n=2, lr=0.3, margin=1.0, seed=0)  # all residuals 0
@example(items=5, zero_rows=0, dim=1, n=0, lr=0.3, margin=1.0, seed=0)  # n = 0
@example(items=8, zero_rows=0, dim=32, n=40, lr=0.01, margin=4.0, seed=1)
def test_row_epoch_equals_reference_bitwise(items, zero_rows, dim, n, lr, margin, seed):
    # few items, so ids alias (s == o, cs == s, p == o, ...); zeroed rows
    # make zero residuals, the d <= 1e-12 branch
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=(items, dim))
    vec[:zero_rows] = 0.0
    pos = rng.integers(0, items, size=(n, 3))
    neg = pos.copy()
    neg[:, 0] = rng.integers(0, items, size=n)
    neg[:, 2] = rng.integers(0, items, size=n)
    ref = vec.copy()
    loss = kernels._sgd_epoch_rows(vec, pos, neg, lr, margin)
    ref_loss = kernels._sgd_epoch_impl(ref, pos, neg, lr, margin)
    assert type(loss) is float
    assert loss == ref_loss
    assert vec.tobytes() == ref.tobytes()


def test_row_epoch_sums_squares_left_to_right():
    # the positive residual is [1e8, 1, ..., 1]: its squares sum to 1e16 left
    # to right (each 1.0 is half an ulp and rounds away) but to 1e16 + 28
    # pairwise, as np.sum does; the negative residual is 0
    vec = np.zeros((3, 32))
    vec[0] = [1e8] + [1.0] * 31
    pos = np.array([[0, 1, 2]])
    neg = np.array([[2, 1, 2]])
    ref = vec.copy()
    loss = kernels._sgd_epoch_rows(vec, pos, neg, 0.01, 1.0)
    ref_loss = kernels._sgd_epoch_impl(ref, pos, neg, 0.01, 1.0)
    assert ref_loss == 1.0 + 1e8
    assert loss == ref_loss
    assert vec.tobytes() == ref.tobytes()


def _row_epoch_peak(items, n=1024, dim=8):
    rng = np.random.default_rng(4)
    vec = rng.normal(size=(items, dim))
    pos = rng.integers(0, items, size=(n, 3))
    neg = pos.copy()
    neg[:, 2] = rng.integers(0, items, size=n)
    tracemalloc.start()
    try:
        kernels._sgd_epoch_rows(vec, pos, neg, 0.01, 1.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_row_epoch_working_memory_does_not_grow_with_the_items():
    # 100x the items leaves the peak flat: the epoch holds row views and
    # O(d) temporaries, never a copy of the table
    assert _row_epoch_peak(200_000) < 2 * _row_epoch_peak(2_000)


def test_sgd_epoch_no_violations_no_updates():
    # negatives already far beyond the margin: hinge stays inactive
    vec = np.zeros((4, 4))
    vec[0] = [1, 0, 0, 0]
    vec[1] = [1, 0, 0, 0]  # predicate: 0 + p = o exactly
    vec[2] = [2, 0, 0, 0]
    vec[3] = [100, 0, 0, 0]
    pos = np.array([[0, 1, 2]], dtype=np.int64)
    neg = np.array([[0, 1, 3]], dtype=np.int64)
    before = vec.copy()
    loss = kernels.sgd_epoch(vec, pos, neg, 0.1, 1.0)
    assert loss == 0.0
    assert np.array_equal(vec, before)


def test_pair_costs_direction_flag():
    vec = np.zeros((3, 2))
    vec[0] = [0.0, 0.0]  # v1
    vec[1] = [1.0, 0.0]  # v2
    vec[2] = [1.0, 0.0]  # p: v1 + p == v2 exactly
    costs, dirs = kernels.pair_costs(
        vec, np.array([0]), np.array([1]), np.array([2])
    )
    assert costs[0, 0] == 0.0 and dirs[0, 0] == 0
    costs, dirs = kernels.pair_costs(
        vec, np.array([1]), np.array([0]), np.array([2])
    )
    assert costs[0, 0] == 0.0 and dirs[0, 0] == 1


def condensed_costs(vec, v1, v2, pred_sets):
    """The (m, R) condensed costs: per pair, the min of its ``pair_costs`` row."""
    return np.array([kernels.pair_costs(vec, v1, v2, preds)[0].min(axis=1) for preds in pred_sets])


def assert_within_bounds(vec, v1, v2, pred_sets):
    lower, upper = kernels.pair_cost_bounds(vec, v1, v2, pred_sets)
    costs = condensed_costs(vec, v1, v2, pred_sets)
    assert lower.shape == upper.shape == costs.shape
    assert (lower <= costs).all() and (costs <= upper).all()
    return lower, upper, costs


@settings(max_examples=80, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 3, 32, 257]),
    eps=st.sampled_from([1e-2, 1e-8, 1e-14, 1e-300, 0.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=32, eps=0.0, seed=0)
def test_pair_cost_bounds_hold_the_direct_form_cost_near_zero(dim, eps, seed):
    # v2 = v1 + p + eps * r puts the forward cost near zero, where the Gram
    # estimate cancels to noise: the margin must still cover both forms
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-8, 6, size=dim)
    v1, p, r = (rng.normal(size=(4, dim)) * scale for _ in range(3))
    vec = np.concatenate((v1, v1 + p + eps * r, p, -p, np.nextafter(p, np.inf)))
    pairs = np.arange(4)
    pred_sets = [np.arange(8, 12), np.array([12]), np.arange(13, 20, 2)]
    assert_within_bounds(vec, pairs, pairs + 4, pred_sets)
    assert_within_bounds(vec, pairs + 4, pairs, pred_sets)
    assert_within_bounds(vec, pairs, pairs, pred_sets)  # v1 == v2: the cost is |p|


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e-155])
def test_pair_cost_bounds_hold_where_squares_underflow(scale):
    vec, v1, v2, p = random_inputs(5, dim=32)
    vec = vec * scale
    lower, upper, costs = assert_within_bounds(vec, v1, v2, [p[:3], p[3:]])
    assert (upper > 0).all()


def test_pair_cost_bounds_give_up_where_the_estimate_overflows():
    vec, v1, v2, p = random_inputs(6, dim=8)
    big = v1[0]
    vec[p[0]] = vec[big] * 1e154  # |q|^2 and delta . q overflow, the direct form may not
    vec[big] *= 1e154
    with np.errstate(over="ignore", invalid="ignore"):
        lower, upper, _ = assert_within_bounds(vec, v1, v2, [p[:1], p[1:]])
    assert lower[0, 0] == 0.0 and upper[0, 0] == math.inf
    # the other set's rows that touch no large vector stay proven
    small = ~np.isin(v1, (big, p[0])) & ~np.isin(v2, (big, p[0]))
    assert not np.isin(p[1:], (big, p[0])).any() and small.any()
    assert np.isfinite(upper[1, small]).all()


def test_pair_cost_bounds_separate_random_costs_with_few_rounding_units():
    vec, v1, v2, p = random_inputs(7, items=60, dim=32, pairs=500, preds=20)
    lower, upper, costs = assert_within_bounds(vec, v1, v2, [p[:10], p[10:]])
    assert ((upper - lower) <= 1e-12 * costs).all()


def test_pair_cost_bounds_working_memory_stays_within_the_chunk(monkeypatch):
    monkeypatch.setattr(kernels, "PAIR_COST_CELLS", 64)
    vec, v1, v2, p = random_inputs(8, pairs=101)
    lower, upper = kernels.pair_cost_bounds(vec, v1, v2, [p[:4], p[4:]])
    monkeypatch.setattr(kernels, "PAIR_COST_CELLS", 1 << 16)
    whole = kernels.pair_cost_bounds(vec, v1, v2, [p[:4], p[4:]])
    assert lower.tobytes() == whole[0].tobytes() and upper.tobytes() == whole[1].tobytes()
