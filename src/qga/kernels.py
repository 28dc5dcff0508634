"""Numeric hot kernels.

Three kernels carry essentially all the floating-point work:

* ``sgd_epoch`` — one margin-ranking SGD epoch over pre-sampled
  positive/negative triple pairs (sequential, order-dependent).  It is
  ``_sgd_epoch_impl`` compiled with ``numba.njit`` when numba imports (the
  optional ``fast`` extra).  Otherwise it is ``_sgd_epoch_rows``, the same
  epoch stepping whole rows with numpy ufuncs: each triple works on views
  of its five rows (so aliased ids share a row), with the same float ops
  in the same order, the squares summed left to right by
  ``np.add.accumulate``.  Working memory is O(d), and the results are
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
  It is the only kernel whose numbers are reported as costs.
* ``pair_cost_bounds`` — for R vertex pairs and several predicate sets, an
  interval ``[lower, upper]`` proven to hold the condensed cost that
  ``pair_costs`` would report (the min of a grid row).  It reads the
  squared residuals off a Gram form, ``|delta|^2 + |q|^2 - 2|delta . q|``,
  with one BLAS product for all the sets, and widens them by a margin that
  covers the rounding of both forms.  Its numbers only order and skip
  work; they are never reported.
"""

from __future__ import annotations

import itertools
import math

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


def _sgd_epoch_rows(vec, pos, neg, lr, margin):
    """``_sgd_epoch_impl`` stepped a whole row at a time, bitwise equal to it.

    Each triple takes views of its five rows, so aliased ids (s == o,
    cs == s, ...) share a row exactly as in the reference.  Per element,
    every float op is the reference's in the same order: ``(vs + vp) - vo``,
    the squares summed left to right (``np.add.accumulate`` is that
    sequential loop; ``np.sum`` and ``np.dot`` sum pairwise or blocked), the
    ``1e-12`` guards, then the s, o, p, cs, co updates.  That equals the
    reference's per-element interleave: the gradients are fixed before the
    first update, and each element still receives its updates in s, o, p,
    cs, co order.  ``lr * g`` and ``g * lr`` round alike.  Working memory is
    O(d).
    """
    n = pos.shape[0]
    total = 0.0
    for (s, p, o), (cs, _, co) in zip(pos.tolist(), neg.tolist()):
        vs, vp, vo, vcs, vco = vec[s], vec[p], vec[o], vec[cs], vec[co]
        rp = vs + vp
        rp -= vo
        rn = vcs + vp
        rn -= vco
        d_pos = math.sqrt(np.add.accumulate(rp * rp)[-1])
        d_neg = math.sqrt(np.add.accumulate(rn * rn)[-1])
        loss = margin + d_pos - d_neg
        if loss > 0.0:
            total += loss
            rp *= 1.0 / d_pos if d_pos > 1e-12 else 0.0
            rn *= 1.0 / d_neg if d_neg > 1e-12 else 0.0
            step_pn = (rp - rn) * lr
            rp *= lr
            rn *= lr
            vs -= rp
            vo += rp
            vp -= step_pn
            vcs += rn
            vco -= rn
    return total / n if n else 0.0


sgd_epoch = njit(cache=True)(_sgd_epoch_impl) if NUMBA_ENABLED else _sgd_epoch_rows


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


# Margin of pair_cost_bounds, in the squared domain, for d-dimensional
# vectors; u = eps / 2 is the unit roundoff and gamma_k = k u / (1 - k u).
# Both forms start from the same rounded differences delta.  Write
# S = |delta|^2 + max |q|^2 over the set, and s = |delta|^2 + |q|^2 -
# 2 |delta . q|, the exact squared cost of predicate q in its cheaper
# direction.
#
# * Gram form (any summation order, blocked BLAS or FMA: Higham, "Accuracy
#   and Stability of Numerical Algorithms", 2002, ch. 3): |delta|^2 and
#   |q|^2 are within gamma_d of themselves, delta . q within gamma_d
#   |delta| |q| <= gamma_d S / 2, so 2 |delta . q| within gamma_d S.  The
#   sums |q|^2 - 2 |g| and then + |delta|^2 add u (|delta|^2 + 2 |q|^2)
#   <= 2 u S and u S.  In all, |est - s| <= (2d + 5) u S for every q,
#   hence for the min over the set (rounding is monotone).
# * Direct form (pair_costs): each square (delta_i -+ q_i)^2 is within
#   gamma_3, the d-term sum of non-negative terms within gamma_(d+2) in any
#   order, and the min over directions and predicates of a correctly
#   rounded sqrt is the sqrt of the min.  So its squared cost is within
#   (d + 2) u w^2 <= (d + 2) u S of the true min w^2.
# * Rounding est -+ M adds u (est + M) <= 2 u S.
#
# That needs M >= (3d + 9) u S up to O(d^2 u^2); M = (4d + 12) u S' =
# 2 (d + 3) eps S', with S' the computed S (within gamma_(d+1) of S), leaves
# d + 3 units of slack for every second-order term.  Below 2^-1022 the
# bounds above hold only up to an absolute error of 2^-1075 per rounding;
# fewer than 10 (d + 1) roundings reach one cost, so M also adds 16 (d + 1)
# times the smallest subnormal.
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)


def pair_cost_bounds(vec: np.ndarray, v1, v2, pred_sets):
    """Intervals around the condensed costs of R vertex pairs.

    ``pred_sets`` holds m non-empty sequences of predicate ids.  Returns
    ``(lower, upper)``, both (m, R): for every pair r and set j, the cost
    ``pair_costs(vec, v1[r], v2[r], pred_sets[j]).min()`` lies in
    ``[lower[j, r], upper[j, r]]`` (see the margin derivation above).  An
    estimate that overflows gives ``[0, inf]``.  The predicates of all
    sets share one ``q @ delta.T`` product per chunk of at most
    ``PAIR_COST_CELLS`` cells.
    """
    v1 = np.asarray(v1, dtype=np.int64)
    v2 = np.asarray(v2, dtype=np.int64)
    sizes = [len(p) for p in pred_sets]
    q = vec.take(np.concatenate(pred_sets), axis=0)
    nq = np.einsum("ij,ij->i", q, q)[:, None]
    # times 2 is exact, so the product below is 2 (delta . q); BLAS reads
    # a column-major q faster for this (predicates, pairs) shape
    q = np.asfortranarray(q * 2.0)
    scale = 2 * (vec.shape[1] + 3) * _EPS
    # M = scale * (|delta|^2 + max |q|^2) + tiny: a term per set plus one per pair
    per_set = np.array([nq[end - k : end].max() for end, k in zip(itertools.accumulate(sizes), sizes)])
    per_set *= scale
    per_set += 16 * (vec.shape[1] + 1) * _TINY
    n, m = len(v1), len(sizes)
    lower = np.empty((m, n))
    upper = np.empty((m, n))
    step = max(1, PAIR_COST_CELLS // len(q))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        delta = vec.take(v1[lo:hi], axis=0)
        delta -= vec.take(v2[lo:hi], axis=0)
        nd = np.einsum("ij,ij->i", delta, delta)
        g = q @ delta.T  # (predicates, pairs)
        np.abs(g, out=g)
        np.subtract(nq, g, out=g)
        est = upper[:, lo:hi]
        end = 0
        for j, k in enumerate(sizes):
            np.minimum.reduce(g[end : end + k], axis=0, out=est[j])
            end += k
        est += nd
        nd *= scale
        margin = np.add.outer(per_set, nd)
        np.subtract(est, margin, out=lower[:, lo:hi])
        est += margin
    # an overflowed estimate (inf or nan) proves nothing
    unproven = ~np.isfinite(upper)
    if unproven.any():
        lower[unproven] = 0.0
        upper[unproven] = np.inf
    np.maximum(lower, 0.0, out=lower)
    np.sqrt(lower, out=lower)
    np.sqrt(upper, out=upper)
    return lower, upper
