"""Variable-mapping score kernels for the Smatch matcher.

The matching problem is encoded as integer arrays once per graph pair:

- ``unary[i, j]``: triples matched by mapping pred variable i to gold
  variable j alone (instance concept equality plus multiset-min over
  attribute (label, value) pairs, TOP included);
- pred relation buckets ``rsrc/rtgt/rlab/rcnt``: distinct
  (src, tgt, label) relation patterns with their multiplicities;
- ``grel[j, l, lab]``: gold multiplicity of relation pattern (j, label, l).

A mapping's score is the exact multiset overlap of the two triple sets, so
the hill climber can never report more than the exhaustive matcher.  Every
kernel is vectorized NumPy: ``score_mapping`` scores one mapping or every
row of an array of mappings, ``hill_climb`` is the local search and
``best_mapping`` the exhaustive matcher's arg-max.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "score_mapping", "hill_climb", "best_mapping"]

BACKEND = "numpy"

# Rows of candidate mappings scored at once by the exhaustive matcher; bounds
# its temporaries to a few MB however many mappings it enumerates.
_ROWS_PER_CHUNK = 1 << 15


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


def best_mapping(mappings, unary, rsrc, rtgt, rlab, rcnt, grel):
    """Score every candidate mapping row; return (best_row, best_score).
    Ties keep the first row scanned."""
    scores = np.concatenate([
        score_mapping(mappings[r:r + _ROWS_PER_CHUNK], unary, rsrc, rtgt, rlab, rcnt, grel)
        for r in range(0, mappings.shape[0], _ROWS_PER_CHUNK)
    ])
    r = int(np.argmax(scores))
    return r, int(scores[r])
