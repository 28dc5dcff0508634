"""Numeric hot kernels.

Two kernels carry essentially all the floating-point work:

* ``sgd_epoch`` — one margin-ranking SGD epoch over pre-sampled
  positive/negative triple pairs (sequential, order-dependent).  It is
  ``_sgd_epoch_impl`` compiled with ``numba.njit`` when numba imports (the
  optional ``fast`` extra).  Otherwise it runs the same epoch over Python
  float lists: the triples are taken ``SGD_CHUNK_TRIPLES`` at a time, the
  rows a chunk touches are gathered into one list per item id (so aliased
  ids share a list exactly as numpy rows alias), stepped with the same
  float ops in the same order, and written back before the next chunk.
  Working memory is O(chunk * d), not O(items * d), and the results are
  bitwise identical to ``_sgd_epoch_impl``, which stays as the reference.
* ``pair_costs`` — two-direction translation residuals
  ``min(|v1 + p - v2|, |v2 + p - v1|)`` over a grid of R vertex pairs by
  P predicates.  It is plain numpy on every host.  The grid is evaluated
  in blocks of about ``PAIR_COST_CELLS`` (pair, predicate) cells through
  one residual buffer, so working memory is O(block * d), not O(R * P * d).
  Each cell goes through the same float ops whatever R, P and the block
  size are, so its result does not depend on them.
"""

from __future__ import annotations

import math
from operator import add, sub

import numpy as np

try:
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False


def _sgd_epoch_impl(vec, pos, neg, lr, margin):
    """Sequential margin-SGD over one epoch; returns the mean hinge loss.

    vec: (items, dim) float64, updated in place.
    pos/neg: (n, 3) int64 id triples (s, p, o); neg shares the predicate.
    """
    n = pos.shape[0]
    d = vec.shape[1]
    rp = np.empty(d)
    rn = np.empty(d)
    total = 0.0
    for t in range(n):
        s = pos[t, 0]
        p = pos[t, 1]
        o = pos[t, 2]
        cs = neg[t, 0]
        co = neg[t, 2]
        sq_p = 0.0
        sq_n = 0.0
        for i in range(d):
            rp[i] = vec[s, i] + vec[p, i] - vec[o, i]
            sq_p += rp[i] * rp[i]
            rn[i] = vec[cs, i] + vec[p, i] - vec[co, i]
            sq_n += rn[i] * rn[i]
        d_pos = math.sqrt(sq_p)
        d_neg = math.sqrt(sq_n)
        loss = margin + d_pos - d_neg
        if loss > 0.0:
            total += loss
            inv_p = 1.0 / d_pos if d_pos > 1e-12 else 0.0
            inv_n = 1.0 / d_neg if d_neg > 1e-12 else 0.0
            for i in range(d):
                gp = rp[i] * inv_p
                gn = rn[i] * inv_n
                vec[s, i] -= lr * gp
                vec[o, i] += lr * gp
                vec[p, i] -= lr * (gp - gn)
                vec[cs, i] += lr * gn
                vec[co, i] -= lr * gn
    return total / n if n else 0.0


# Triples per chunk of the list epoch: a chunk gathers at most five rows
# per triple as Python floats, about 10 MB at d = 32 (tracemalloc peak).
SGD_CHUNK_TRIPLES = 1024


def _sgd_epoch_lists(vec, pos, neg, lr, margin):
    """``_sgd_epoch_impl`` over Python float lists, bitwise equal to it.

    Per element, every op is the reference's in the same order:
    ``(vs + vp) - vo``, squares added one by one to 0.0 (not ``sum``, which
    Python >= 3.12 compensates), ``sqrt``, the ``1e-12`` guards, then the
    s, o, p, cs, co updates.  Each update covers a whole row at once.  That
    equals the reference's per-element interleave: the gradients are fixed
    before the first update, and each element still receives its updates in
    s, o, p, cs, co order.
    """
    n = pos.shape[0]
    total = 0.0
    for lo in range(0, n, SGD_CHUNK_TRIPLES):
        pc = pos[lo : lo + SGD_CHUNK_TRIPLES]
        nc = neg[lo : lo + SGD_CHUNK_TRIPLES]
        ids = np.unique(np.concatenate((pc, nc), axis=None))
        keys = ids.tolist()
        # one list per id: aliased ids (s == o, cs == s, ...) share a row
        rows = dict(zip(keys, vec[ids].tolist()))
        for (s, p, o), (cs, _, co) in zip(pc.tolist(), nc.tolist()):
            vs, vp, vo, vcs, vco = rows[s], rows[p], rows[o], rows[cs], rows[co]
            rp = [a + b - c for a, b, c in zip(vs, vp, vo)]
            rn = [a + b - c for a, b, c in zip(vcs, vp, vco)]
            sq_p = 0.0
            for r in rp:
                sq_p += r * r
            sq_n = 0.0
            for r in rn:
                sq_n += r * r
            d_pos = math.sqrt(sq_p)
            d_neg = math.sqrt(sq_n)
            loss = margin + d_pos - d_neg
            if loss > 0.0:
                total += loss
                inv_p = 1.0 / d_pos if d_pos > 1e-12 else 0.0
                inv_n = 1.0 / d_neg if d_neg > 1e-12 else 0.0
                gp = [r * inv_p for r in rp]
                gn = [r * inv_n for r in rn]
                step_p = [lr * g for g in gp]
                step_n = [lr * g for g in gn]
                step_pn = [lr * (a - b) for a, b in zip(gp, gn)]
                # slice assignment keeps each list, so aliases see the update
                vs[:] = map(sub, vs, step_p)
                vo[:] = map(add, vo, step_p)
                vp[:] = map(sub, vp, step_pn)
                vcs[:] = map(add, vcs, step_n)
                vco[:] = map(sub, vco, step_n)
        vec[ids] = [rows[k] for k in keys]
    return total / n if n else 0.0


sgd_epoch = njit(cache=True)(_sgd_epoch_impl) if NUMBA_ENABLED else _sgd_epoch_lists


# (pair, predicate) cells per block: the residual buffer holds
# PAIR_COST_CELLS * d float64s, small enough to stay in cache, while a
# block is still large enough that the per-block numpy calls are cheap.
PAIR_COST_CELLS = 2048


def pair_costs(vec: np.ndarray, v1, v2, preds):
    """Triple assembly costs of every vertex pair with every predicate.

    v1/v2 hold R vertex ids, preds P predicate ids.  Returns (costs, dirs),
    both (R, P): dirs[r, k] = 0 when |v1 + p - v2| <= |v2 + p - v1| (the
    triple reads v1 -> v2), 1 otherwise.

    The pairs are taken ``max(1, PAIR_COST_CELLS // P)`` at a time, and
    every block reuses one (block, P, d) residual buffer, so working memory
    is O(block * d) beside the (R, P) outputs.  Each cell is computed as
    ``sqrt(sum(((a + q) - b) ** 2))`` with the same float ops whatever R, P
    and the block size are, so a grid row equals its pair computed alone.
    """
    a = vec[np.asarray(v1, dtype=np.int64)][:, None, :]
    b = vec[np.asarray(v2, dtype=np.int64)][:, None, :]
    q = vec[np.asarray(preds, dtype=np.int64)][None, :, :]
    n, k, d = len(a), q.shape[1], vec.shape[1]
    costs = np.empty((n, k))
    dirs = np.empty((n, k), dtype=np.int8)
    # the comparison writes its 0/1 bytes straight into dirs
    reverse = dirs.view(np.bool_)
    step = max(1, PAIR_COST_CELLS // max(k, 1))
    res = np.empty((min(step, n), k, d))
    back = np.empty((min(step, n), k))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        ab, bb, r = a[lo:hi], b[lo:hi], res[: hi - lo]
        cf, cr, rev = costs[lo:hi], back[: hi - lo], reverse[lo:hi]
        np.add(ab, q, out=r)
        np.subtract(r, bb, out=r)
        np.einsum("ijk,ijk->ij", r, r, out=cf)
        np.sqrt(cf, out=cf)
        np.add(bb, q, out=r)
        np.subtract(r, ab, out=r)
        np.einsum("ijk,ijk->ij", r, r, out=cr)
        np.sqrt(cr, out=cr)
        np.less(cr, cf, out=rev)
        np.copyto(cf, cr, where=rev)
    return costs, dirs
