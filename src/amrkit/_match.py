"""Variable-mapping score kernels for the Smatch matcher.

The matching problem is encoded as integer arrays once per graph pair:

- ``unary[i, j]``: triples matched by mapping pred variable i to gold
  variable j alone (instance concept equality plus multiset-min over
  attribute (label, value) pairs, TOP included);
- pred relation buckets ``rsrc/rtgt/rlab/rcnt``: distinct
  (src, tgt, label) relation patterns with their multiplicities;
- ``grel[j, l, lab]``: gold multiplicity of relation pattern (j, label, l).

A mapping's score is the exact multiset overlap of the two triple sets.
``score_mapping`` scores one mapping or every row of an array of mappings
and ``hill_climb`` is the vectorized NumPy local search.  ``exact_mapping``
finds the optimum of any size as a small integer linear program (scipy's
``milp``, imported on first use) and rescores its answer with
``score_mapping``, so the climber can never report more than it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "score_mapping", "hill_climb", "exact_mapping"]

BACKEND = "numpy"


def _bucket_overlap(mapping, rsrc, rtgt, rlab, rcnt, grel):
    """Matched relation triples of each pred bucket under ``mapping``: shape
    (nb,) for one mapping, (rows, nb) for a 2-D array of mapping rows."""
    j = mapping[..., rsrc]
    l = mapping[..., rtgt]
    ok = (j >= 0) & (l >= 0)
    g = grel[np.where(ok, j, 0), np.where(ok, l, 0), rlab]
    return np.where(ok, np.minimum(g, rcnt), 0)


def score_mapping(mapping, unary, rsrc, rtgt, rlab, rcnt, grel):
    """The score of one mapping, or of each row of a 2-D array of mappings."""
    ok = mapping >= 0
    node = unary[np.arange(unary.shape[0]), np.where(ok, mapping, 0)]
    overlap = _bucket_overlap(mapping, rsrc, rtgt, rlab, rcnt, grel)
    return np.where(ok, node, 0).sum(axis=-1) + overlap.sum(axis=-1)


def hill_climb(mapping, unary, rsrc, rtgt, rlab, rcnt, grel):
    """Steepest-ascent local search over single remaps and pairwise swaps.

    Mutates ``mapping`` in place and returns its final score.  Each step
    scores every move at once from two gain tables: ``remap[i, j]`` for
    mapping pred variable i to gold variable j (column n2: unmapped) and
    ``swap[i, k]`` for exchanging the targets of i < k.  The move taken is
    the first strictly best one in a scan of remaps (by i, then j) followed
    by swaps (by i, then k), so the result is deterministic given the
    starting mapping.
    """
    n1, n2 = unary.shape
    if n1 == 0 or n2 == 0:
        return 0
    cur = int(score_mapping(mapping, unary, rsrc, rtgt, rlab, rcnt, grel))

    # Column n2 of the gain tables stands for "unmapped".  A self-loop bucket
    # depends on one variable only, so it scores like a unary term.
    loop = rsrc == rtgt
    static = np.zeros((n1, n2 + 1), np.int64)
    static[:, :n2] = unary
    diag = np.arange(n2)
    loop_gain = np.minimum(grel[diag, diag][:, rlab[loop]].T, rcnt[loop][:, None])
    np.add.at(static[:, :n2], rsrc[loop], loop_gain)
    src, tgt, lab, cnt = rsrc[~loop], rtgt[~loop], rlab[~loop], rcnt[~loop]
    pair = (np.minimum(src, tgt), np.maximum(src, tgt))
    rows = np.arange(n1)
    upper_i, upper_k = np.triu_indices(n1, 1)
    used = np.zeros(n2, bool)
    used[mapping[mapping >= 0]] = True

    while True:
        col = np.where(mapping >= 0, mapping, n2)
        ms, mt = mapping[src], mapping[tgt]
        ms0, mt0 = np.maximum(ms, 0), np.maximum(mt, 0)

        # held[i, j]: triples matched through i when i alone maps to j, the
        # other variables fixed; remap is its change from i's current column.
        held = static.copy()
        as_src = np.minimum(grel[:, mt0, lab].T, cnt[:, None])
        as_tgt = np.minimum(grel[ms0, :, lab], cnt[:, None])
        np.add.at(held[:, :n2], src, np.where(mt[:, None] >= 0, as_src, 0))
        np.add.at(held[:, :n2], tgt, np.where(ms[:, None] >= 0, as_tgt, 0))
        remap = held - held[rows, col][:, None]

        # swap[i, k] = remap[i, col[k]] + remap[k, col[i]], corrected for each
        # bucket joining i and k: both remap terms took off its old value and
        # scored it with the other end unmoved (seen_s, seen_t), where the
        # swap moves both ends (moved).
        swap = remap[:, col]
        swap = swap + swap.T
        old = _bucket_overlap(mapping, src, tgt, lab, cnt, grel)
        moved = np.where((ms >= 0) & (mt >= 0), np.minimum(grel[mt0, ms0, lab], cnt), 0)
        seen_s = np.where(mt >= 0, np.minimum(grel[mt0, mt0, lab], cnt), 0)
        seen_t = np.where(ms >= 0, np.minimum(grel[ms0, ms0, lab], cnt), 0)
        np.add.at(swap, pair, moved + old - seen_s - seen_t)

        best_gain, best_i, best_j, best_k = 0, -1, -1, -1
        free = np.flatnonzero(~used)
        if free.size:
            cand = remap[:, free]
            p = int(np.argmax(cand))
            if cand.flat[p] > best_gain:
                best_i, q = divmod(p, free.size)
                best_gain, best_j = int(cand.flat[p]), free[q]
        if upper_i.size:
            cand = np.where(mapping[upper_i] != mapping[upper_k], swap[upper_i, upper_k], 0)
            p = int(np.argmax(cand))
            if cand[p] > best_gain:
                best_gain, best_i, best_k = int(cand[p]), upper_i[p], upper_k[p]
        if best_gain <= 0:
            return cur
        if best_k < 0:
            if mapping[best_i] >= 0:
                used[mapping[best_i]] = False
            mapping[best_i] = best_j
            used[best_j] = True
        else:
            mapping[best_i], mapping[best_k] = mapping[best_k], mapping[best_i]
        cur += best_gain


def exact_mapping(unary, rsrc, rtgt, rlab, rcnt, grel):
    """An optimal injective mapping and its score, by integer linear program.

    Binary ``x[i, j]`` maps pred variable i to gold variable j, each row and
    column summing to at most one.  Each pred bucket b and gold pair (j, l)
    that can hold it (gold count above zero, a self-loop exactly when b is
    one) gets a continuous ``y <= x[rsrc[b], j], x[rtgt[b], l]`` weighted by
    the smaller count; the objective is ``unary . x + w . y``.  The LP
    relaxation goes first: a rounded mapping that scores its bound is optimal.
    HiGHS runs without presolve: with it, the solver has declared a mapping
    of 17 optimal where one of 19 exists (a kernel with repeated buckets,
    pinned in the tests).  Needs scipy; raises RuntimeError unless the
    solver proves optimality.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    n1, n2 = unary.shape
    if n1 == 0 or n2 == 0:
        return np.full(n1, -1, np.int64), 0
    b, j, l = np.nonzero(np.moveaxis(grel[:, :, rlab], 2, 0))
    keep = (rsrc[b] == rtgt[b]) == (j == l)
    b, j, l = b[keep], j[keep], l[keep]
    nx, ny = n1 * n2, b.size
    x, y = np.arange(nx), nx + np.arange(ny)
    y_rows = n1 + n2 + np.arange(2 * ny)
    rows = np.concatenate([x // n2, n1 + x % n2, y_rows, y_rows])
    cols = np.concatenate([x, x, y, y, rsrc[b] * n2 + j, rtgt[b] * n2 + l])
    vals = np.concatenate([np.ones(2 * nx + 2 * ny), -np.ones(2 * ny)])
    a = coo_matrix((vals, (rows, cols)), shape=(n1 + n2 + 2 * ny, nx + ny))
    upper = np.concatenate([np.ones(n1 + n2), np.zeros(2 * ny)])
    weight = np.concatenate([unary.ravel(), np.minimum(grel[j, l, rlab[b]], rcnt[b])])
    for integrality in (None, np.concatenate([np.ones(nx), np.zeros(ny)])):
        res = milp(-weight.astype(float), integrality=integrality, bounds=Bounds(0, 1),
                   constraints=LinearConstraint(a, -np.inf, upper),
                   options={"mip_rel_gap": 0, "presolve": False})
        if res.status != 0:
            raise RuntimeError(f"Smatch ILP not solved to optimality: {res.message}")
        # Above 0.9, at most one entry per row and column even in a
        # fractional relaxation.
        i, k = np.nonzero(res.x[:nx].reshape(n1, n2) > 0.9)
        mapping = np.full(n1, -1, np.int64)
        mapping[i] = k
        score = int(score_mapping(mapping, unary, rsrc, rtgt, rlab, rcnt, grel))
        if score > -res.fun - 0.5:
            return mapping, score
    raise RuntimeError(f"Smatch ILP mapping scores {score}, below its objective {-res.fun}")
