"""The pair-cost grid against per-element references and the one-shot
broadcast, and the jitted SGD epoch against its interpreted loop."""

import tracemalloc

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


def _norms(r):
    return np.sqrt(np.einsum("ijk,ijk->ij", r, r))


def one_shot_pair_costs(vec, v1, v2, preds):
    """The unblocked broadcast formula: the reference the blocks must equal."""
    a, b, q = vec[v1][:, None, :], vec[v2][:, None, :], vec[preds][None, :, :]
    cf = _norms(a + q - b)
    cr = _norms(b + q - a)
    rev = cr < cf
    return np.where(rev, cr, cf), rev.astype(np.int8)


CELLS = kernels.PAIR_COST_CELLS


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 3, 32]),
    preds=st.sampled_from([1, 3, 10, 30, CELLS + 1]),
    blocks=st.integers(0, 3),
    offset=st.sampled_from([-1, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=3, preds=10, blocks=0, offset=0, seed=0)  # R = 0
@example(dim=32, preds=CELLS + 1, blocks=3, offset=1, seed=1)  # step 1
def test_blocked_pair_costs_equal_one_shot_formula_bitwise(dim, preds, blocks, offset, seed):
    # R one below, at and one above a multiple of the block step; a few
    # items only, so some pairs repeat and some have v1 == v2 (cf == cr)
    step = max(1, CELLS // preds)
    rows = max(0, blocks * step + offset)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=(6, dim))
    v1 = rng.integers(0, 6, size=rows)
    v2 = rng.integers(0, 6, size=rows)
    p = rng.integers(0, 6, size=preds)
    costs, dirs = kernels.pair_costs(vec, v1, v2, p)
    ref_costs, ref_dirs = one_shot_pair_costs(vec, v1, v2, p)
    assert costs.dtype == ref_costs.dtype and dirs.dtype == ref_dirs.dtype
    assert costs.shape == dirs.shape == (rows, preds)
    assert costs.tobytes() == ref_costs.tobytes()
    assert dirs.tobytes() == ref_dirs.tobytes()


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
