"""Variable-mapping score kernels for the Smatch matcher.

The matching problem is encoded as integer arrays once per graph pair:

- ``unary[i, j]``: the triples that depend on one variable (concepts,
  attributes with TOP, self-loops) matched by mapping pred variable i to
  gold variable j;
- pred relation buckets ``rsrc/rtgt/rlab/rcnt``: distinct
  (src, tgt, label) edge patterns with their multiplicities, each joining
  two distinct variables (``rsrc != rtgt``);
- ``grel[j, l, lab]``: gold multiplicity of edge pattern (j, label, l).

A mapping's score is the exact multiset overlap of the two triple sets.
A ``Pair`` adds the tables every kernel reads, built once; their column n2
stands for "unmapped" and holds 0, so no kernel masks unmapped ends.
``score_mapping`` scores one mapping or every row of an array of mappings
and ``hill_climb`` is the vectorized NumPy local search.
``exact_mapping`` finds the optimum of any size as a small integer linear
program (scipy's ``milp``, imported on first use) and rescores its answer
with ``score_mapping``, so the climber can never report more than it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "Pair", "score_mapping", "hill_climb", "exact_mapping"]

BACKEND = "numpy"


class Pair:
    """One graph pair's kernel arrays and the tables every kernel reads."""

    def __init__(self, unary, rsrc, rtgt, rlab, rcnt, grel):
        self.unary, self.rsrc, self.rtgt = unary, rsrc, rtgt
        self.rlab, self.rcnt, self.grel = rlab, rcnt, grel
        n1, n2 = unary.shape
        self.static = np.hstack([unary, np.zeros((n1, 1), np.int64)])

        # gain[key[b], a, c] = min(grel[a, c, rlab[b]], rcnt[b]), a key being a
        # distinct (label, count); slice nk + k is the transpose of slice k.  Its
        # entries are triple counts, so int32 holds them, at half the memory.
        keys: dict[tuple[int, int], int] = {}
        lab_cnt = zip(rlab.tolist(), rcnt.tolist())
        key = self.key = np.array([keys.setdefault(k, len(keys)) for k in lab_cnt], np.int64)
        nk = len(keys)
        labs, cnts = np.array(list(keys), np.int64).reshape(nk, 2).T
        gain = self.gain = np.zeros((2 * nk, n2 + 1, n2 + 1), np.int32)
        np.minimum(np.moveaxis(grel[..., labs], 2, 0), cnts[:, None, None], out=gain[:nk, :n2, :n2])
        gain[nk:] = gain[:nk].transpose(0, 2, 1)

        # One gathered row per bucket end, grouped by variable: what the bucket
        # matches with that end at each column, the other end's column fixed.
        ends = np.concatenate([rsrc, rtgt])
        order = np.argsort(ends)
        ends, self.other = ends[order], np.concatenate([rtgt, rsrc])[order]
        self.end_key = np.concatenate([key + nk, key])[order]
        self.first = np.flatnonzero(np.diff(ends, prepend=-1))
        self.hit = ends[self.first]


def score_mapping(mapping, pair):
    """The score of one mapping, or of each row of a 2-D array of mappings."""
    n1, n2 = pair.unary.shape
    col = np.where(mapping >= 0, mapping, n2)
    edge = pair.gain[pair.key, col[..., pair.rsrc], col[..., pair.rtgt]]
    return pair.static[np.arange(n1), col].sum(axis=-1) + edge.sum(axis=-1)


def hill_climb(mapping, pair):
    """Steepest-ascent local search over single remaps and pairwise swaps.

    Mutates ``mapping`` in place and returns its final score.  Each step
    scores every move at once from two gain tables: ``remap[i, j]`` for
    mapping pred variable i to gold variable j (column n2: unmapped) and
    ``swap[i, k]`` for exchanging the targets of i and k.  The move taken is
    the first strictly best one in a scan of remaps (by i, then j) followed
    by swaps (by i, then k > i), so the result is deterministic given the
    starting mapping.

    Both tables are lookups into the pair's ``gain``: ``remap`` sums one
    gathered row of it per bucket end, and each bucket's correction to
    ``swap`` is four entries of it.  Buckets must join distinct variables.
    """
    n1, n2 = pair.unary.shape
    if n1 == 0 or n2 == 0:
        return 0
    static, gain, key, rsrc, rtgt = pair.static, pair.gain, pair.key, pair.rsrc, pair.rtgt
    other, end_key, first, hit = pair.other, pair.end_key, pair.first, pair.hit

    # The loop moves columns, n2 for "unmapped"; used[n2] is never read.
    rows = np.arange(n1)
    col = np.where(mapping >= 0, mapping, n2)
    used = np.zeros(n2 + 1, bool)
    used[col] = True
    cur = int(score_mapping(mapping, pair))

    while True:
        cs, ct = col[rsrc], col[rtgt]

        # held[i, j]: triples matched through i when i alone maps to j, the
        # other variables fixed; remap is its change from i's current column.
        held = static.copy()
        held[hit] += np.add.reduceat(gain[end_key, col[other]], first, axis=0)
        remap = held - held[rows, col][:, None]

        # swap[i, k] = remap[i, col[k]] + remap[k, col[i]], corrected for each
        # bucket joining i and k: both remap terms took off its old value and
        # scored it with the other end unmoved (seen_s, seen_t), where the
        # swap moves both ends (moved).  swap is symmetric with a zero
        # diagonal, so its first maximum in row-major order has i < k, and
        # two unmapped variables swap for 0.
        swap = remap[:, col]
        moved, old = gain[key, ct, cs], gain[key, cs, ct]
        seen_s, seen_t = gain[key, ct, ct], gain[key, cs, cs]
        np.add.at(swap, (rsrc, rtgt), moved + old - seen_s - seen_t)
        swap = swap + swap.T

        best_gain, best_i, best_j, best_k = 0, -1, -1, -1
        free = np.flatnonzero(~used[:n2])
        if free.size:
            cand = remap[:, free]
            p = int(np.argmax(cand))
            if cand.flat[p] > best_gain:
                best_i, q = divmod(p, free.size)
                best_gain, best_j = int(cand.flat[p]), free[q]
        p = int(np.argmax(swap))
        if swap.flat[p] > best_gain:
            best_gain = int(swap.flat[p])
            best_i, best_k = divmod(p, n1)
        if best_gain <= 0:
            mapping[:] = np.where(col < n2, col, -1)
            return cur
        if best_k < 0:
            used[col[best_i]] = False
            col[best_i] = best_j
            used[best_j] = True
        else:
            col[[best_i, best_k]] = col[[best_k, best_i]]
        cur += best_gain


def exact_mapping(pair):
    """An optimal injective mapping and its score, by integer linear program.

    Binary ``x[i, j]`` maps pred variable i to gold variable j, each row and
    column summing to at most one.  Each pred bucket b and gold pair (j, l)
    with a gold count above zero, so with ``w = gain[key[b], j, l] > 0``,
    gets a continuous ``y <= x[rsrc[b], j], x[rtgt[b], l]``; the
    objective is ``unary . x + w . y``.  The LP relaxation goes first: a
    rounded mapping that scores its bound is optimal.  HiGHS runs without
    presolve: with it, the solver has declared a mapping of 17 optimal where
    one of 19 exists (a kernel with repeated buckets, pinned in the tests).
    Needs scipy; raises RuntimeError unless the solver proves optimality.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    n1, n2 = pair.unary.shape
    if n1 == 0 or n2 == 0:
        return np.full(n1, -1, np.int64), 0
    b, j, l = np.nonzero(pair.gain[pair.key, :n2, :n2])
    nx, ny = n1 * n2, b.size
    x, y = np.arange(nx), nx + np.arange(ny)
    y_rows = n1 + n2 + np.arange(2 * ny)
    rows = np.concatenate([x // n2, n1 + x % n2, y_rows, y_rows])
    cols = np.concatenate([x, x, y, y, pair.rsrc[b] * n2 + j, pair.rtgt[b] * n2 + l])
    vals = np.concatenate([np.ones(2 * nx + 2 * ny), -np.ones(2 * ny)])
    a = coo_matrix((vals, (rows, cols)), shape=(n1 + n2 + 2 * ny, nx + ny))
    upper = np.concatenate([np.ones(n1 + n2), np.zeros(2 * ny)])
    weight = np.concatenate([pair.unary.ravel(), pair.gain[pair.key[b], j, l]])
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
        score = int(score_mapping(mapping, pair))
        if score > -res.fun - 0.5:
            return mapping, score
    raise RuntimeError(f"Smatch ILP mapping scores {score}, below its objective {-res.fun}")
