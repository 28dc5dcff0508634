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
  P predicates, read off the pair differences ``delta = v1 - v2``: the
  forward residual is ``delta + q`` and the reverse one ``-(delta - q)``.
  One ``scipy.spatial.distance.cdist(delta, [-Q; Q])`` call per predicate
  chunk scores both directions of every pair.  A cell is ``sqrt`` of its
  squares summed left to right, the order ``_sgd_epoch_impl`` uses, so its
  result does not depend on R or P.  Predicates are taken in chunks of
  ``PAIR_COST_CELLS // R``, which bounds the cells of each ``cdist`` output.
"""

from __future__ import annotations

import math
from operator import add, sub

import numpy as np
from scipy.spatial.distance import cdist

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


# Cells per direction of one cdist output: predicates are scored
# max(1, PAIR_COST_CELLS // R) at a time, so a call's (R, 2 * chunk) output
# holds at most 2 * PAIR_COST_CELLS float64s (1 MiB) unless R alone is
# larger.
PAIR_COST_CELLS = 1 << 16


def pair_costs(vec: np.ndarray, v1, v2, preds):
    """Triple assembly costs of every vertex pair with every predicate.

    v1/v2 hold R vertex ids, preds P predicate ids.  Returns (costs, dirs),
    both (R, P): dirs[r, k] = 0 when |v1 + p - v2| <= |v2 + p - v1| (the
    triple reads v1 -> v2), 1 otherwise.

    Both residuals are read off the pair difference ``delta = v1 - v2``:
    forward ``delta + q`` and reverse ``delta - q``, whose square equals that
    of ``(v2 + q) - v1``.  One ``cdist(delta, [-Q; Q])`` per predicate chunk
    scores both; ``delta - (-q)`` is ``delta + q`` exactly.  A cell is
    ``sqrt`` of its d squares summed left to right, whatever R and P are, so
    a grid row equals its pair computed alone, and swapping v1 and v2 negates
    ``delta`` exactly and swaps the two residuals.  Beside the outputs,
    working memory is the R gathered differences, one chunk's ``[-Q; Q]``
    rows and its ``cdist`` output of at most ``2 * PAIR_COST_CELLS`` cells
    (when R <= PAIR_COST_CELLS).
    """
    v1 = np.asarray(v1, dtype=np.int64)
    v2 = np.asarray(v2, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    n, k = len(v1), len(preds)
    costs = np.empty((n, k))
    dirs = np.empty((n, k), dtype=np.int8)
    if not n:
        return costs, dirs
    # the comparison writes its 0/1 bytes straight into dirs
    reverse = dirs.view(np.bool_)
    delta = vec.take(v1, axis=0) - vec.take(v2, axis=0)
    step = max(1, PAIR_COST_CELLS // n)
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        q = vec.take(preds[lo:hi], axis=0)
        # cdist sums (delta - y) ** 2 left to right over y in [-Q; Q]
        c = cdist(delta, np.concatenate((-q, q)), "euclidean")
        cf, cr = c[:, : hi - lo], c[:, hi - lo :]
        np.less(cr, cf, out=reverse[:, lo:hi])
        np.minimum(cf, cr, out=costs[:, lo:hi])
    return costs, dirs
