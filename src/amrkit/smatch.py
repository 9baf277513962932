"""Smatch: best-mapping triple overlap between two AMR graphs.

Scores are computed over the instance/attribute/relation triple
decomposition: the matcher searches for an injective mapping from predicted
variables to gold variables maximizing the multiset overlap of triples,
then reports precision = matched/|pred|, recall = matched/|gold|, and F1.
Relation and attribute labels are case-folded before comparison; constants
are compared with surrounding quotes stripped; concepts compare exactly.

``smatch_hill_climb`` is the restartable local search used in practice.
``smatch_exact`` is the optimum, found by a small integer linear program
with no size bound (it needs scipy); it is the testing oracle.  Both score
their mapping with the NumPy kernels of ``_match``, which count the exact
multiset overlap of triples, so the climber can never exceed the oracle.
Each result also carries ``upper_matched``, a bound on ``matched`` built
with numpy alone from triple counts per class and per variable pair (see
``_Problem``); the climber stops its restarts once it meets it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from . import _match
from .errors import AmrkitError
from .graph import AmrGraph, read_amr_file, to_triples

__all__ = [
    "SmatchResult",
    "CorpusReport",
    "CountMismatch",
    "smatch_hill_climb",
    "smatch_exact",
    "corpus_smatch",
    "align_records",
]

class CountMismatch(AmrkitError):
    """Prediction and gold corpora do not align record for record."""


@dataclass(frozen=True)
class SmatchResult:
    precision: float
    recall: float
    f1: float
    matched: int
    n_pred_triples: int
    n_gold_triples: int
    mapping: dict[str, str]
    upper_matched: int


@dataclass(frozen=True)
class CorpusReport:
    """Micro-averaged corpus scores: sums of matched/total triple counts
    across records, then one division.  ``upper_matched`` sums the
    records' bounds on ``matched``."""

    precision: float
    recall: float
    f1: float
    n_records: int
    matched: int
    pred_triples: int
    gold_triples: int
    per_record: tuple[SmatchResult, ...] = field(repr=False)
    upper_matched: int


def _prf(matched: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    p = matched / n_pred if n_pred else 0.0
    r = matched / n_gold if n_gold else 0.0
    return p, r, 2 * p * r / (p + r) if p + r > 0 else 0.0


def _norm_const(value: str) -> str:
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


def _pair_upper(unary: np.ndarray, p_deg: np.ndarray, g_deg: np.ndarray) -> int:
    """The pair bound of ``_Problem``, from ``unary`` and each side's
    ``deg[2 * label + block, variable]``; 0 when a side has no variables."""
    w2 = 2 * unary + np.minimum(p_deg[:, :, None], g_deg[:, None]).sum(0)
    return int(min(w2.max(1, initial=0).sum(), w2.max(0, initial=0).sum())) // 2


def _encode(triples, names, keys, labels):
    """One side's (variable, key) cells as a (2, m) array, its edge buckets
    (source, target, label, count), and the cell ``(2 * label + block) * n
    + variable`` of each edge end, block 0 for sources and 1 for targets.
    New keys and labels join ``keys`` and ``labels``.  A concept key is a
    str, an attribute key a (label, constant), a self-loop key a (label,)."""
    idx = {v: i for i, v in enumerate(names)}
    n = len(names)
    cells: list[int] = []
    edges: dict[tuple[int, int, int], int] = {}
    ends: list[int] = []
    for t in triples:
        if t.kind == "instance":
            key = t.tgt
        elif t.kind == "attribute":
            key = t.label.casefold(), _norm_const(t.tgt)
        elif t.src == t.tgt:
            key = (t.label.casefold(),)
        else:
            i, k = idx[t.src], idx[t.tgt]
            lab = labels.setdefault(t.label.casefold(), len(labels))
            edges[i, k, lab] = edges.get((i, k, lab), 0) + 1
            ends += 2 * lab * n + i, (2 * lab + 1) * n + k
            continue
        cells += idx[t.src], keys.setdefault(key, len(keys))
    buckets = np.fromiter(chain.from_iterable(edges), np.int64, 3 * len(edges)).reshape(-1, 3)
    return (np.array(cells, np.int64).reshape(-1, 2).T,
            (*buckets.T.copy(), np.fromiter(edges.values(), np.int64, len(edges))), ends)


class _Problem(_match.Pair):
    """One graph pair as a ``_match.Pair``, with ``upper``, a bound on
    ``matched`` under any injective mapping: the smaller of two numpy bounds.

    A triple is a key at one variable (a concept, an attribute with TOP,
    or a self-loop's label) or an edge between two distinct variables.
    ``unary[i, j]`` sums over keys the smaller of the two variables'
    counts; only edges make the buckets and ``grel``.

    The class bound: each matched pred triple pairs with a distinct gold
    triple of its class, so it sums, per key and per edge label, the
    smaller of the two sides' counts.

    The pair bound: sending pred variable i to gold variable j matches at
    most ``w[i, j]`` triples there, where ``2 * w`` is twice ``unary`` plus,
    per edge label, the smaller out-degree and the smaller in-degree.  Each
    matched edge counts half at its source pair and half at its target
    pair, and ``w >= 0``, so an injective mapping scores at most the sum of
    the row maxima of ``w``, and at most the sum of its column maxima.
    """

    def __init__(self, pred: AmrGraph, gold: AmrGraph):
        pt, gt = to_triples(pred), to_triples(gold)
        self.n_pred_triples = len(pt)
        self.n_gold_triples = len(gt)
        self.pred_vars = [t.src for t in pt if t.kind == "instance"]
        self.gold_vars = [t.src for t in gt if t.kind == "instance"]
        n1, n2 = len(self.pred_vars), len(self.gold_vars)
        keys: dict[str | tuple[str, ...], int] = {}
        labels: dict[str, int] = {}
        p_cells, p_buckets, p_ends = _encode(pt, self.pred_vars, keys, labels)
        g_cells, g_buckets, g_ends = _encode(gt, self.gold_vars, keys, labels)
        # to_triples lists the instance triples first, in variable order
        self.pred_concepts, self.gold_concepts = p_cells[1, :n1], g_cells[1, :n2]

        # cnt[variable, key]; min(a, b) counts the thresholds t >= 1 that a
        # and b both reach, so unary sums, per t, products of cnt >= t
        n_key = len(keys)
        p_cnt, g_cnt = (
            np.bincount(cells[0] * n_key + cells[1], minlength=n * n_key).reshape(n, n_key)
            for cells, n in ((p_cells, n1), (g_cells, n2))
        )
        unary = np.zeros((n1, n2))
        for t in range(1, min(p_cnt.max(initial=0), g_cnt.max(initial=0)) + 1):
            unary += (p_cnt >= t).astype(float) @ (g_cnt >= t).T

        n_lab = max(len(labels), 1)
        grel = np.zeros((n2, n2, n_lab), np.int64)
        grel[g_buckets[:3]] = g_buckets[3]
        super().__init__(unary.astype(np.int64), *p_buckets, grel)
        # deg[2 * label + block, variable]: the edge ends in each cell
        p_deg, g_deg = (
            np.bincount(np.array(ends, np.int64), minlength=2 * n_lab * n).reshape(2 * n_lab, n)
            for ends, n in ((p_ends, n1), (g_ends, n2))
        )

        # Summed over variables, a label's in-degrees equal its out-degrees,
        # so half the sum of the row-wise minima is the edge part of the
        # class bound.
        class_upper = (
            int(np.minimum(p_cnt.sum(0), g_cnt.sum(0)).sum())
            + int(np.minimum(p_deg.sum(1), g_deg.sum(1)).sum()) // 2
        )
        self.upper = min(class_upper, _pair_upper(self.unary, p_deg, g_deg))

    def result(self, mapping: np.ndarray, matched: int) -> SmatchResult:
        assign = {
            self.pred_vars[i]: self.gold_vars[j]
            for i, j in enumerate(mapping)
            if j >= 0
        }
        return SmatchResult(
            *_prf(matched, self.n_pred_triples, self.n_gold_triples),
            int(matched), self.n_pred_triples, self.n_gold_triples, assign, self.upper,
        )


def smatch_exact(pred: AmrGraph, gold: AmrGraph) -> SmatchResult:
    """Globally optimal score, by the integer linear program of
    ``_match.exact_mapping``.  Any graph size; needs scipy."""
    prob = _Problem(pred, gold)
    return prob.result(*_match.exact_mapping(prob))


def _smart_init(prob: _Problem, rng: np.random.RandomState) -> np.ndarray:
    """Restart 0's start: each pred variable in order takes the first gold
    variable of its concept that no earlier one took; the variables left
    over are paired at random."""
    n2 = prob.unary.shape[1]
    # per concept, its gold variables last to first, so pop() gives the next
    gold_of: dict[int, list[int]] = {}
    concepts = prob.gold_concepts.tolist()
    for j in range(n2 - 1, -1, -1):
        gold_of.setdefault(concepts[j], []).append(j)
    mapping = np.array([gold_of[c].pop() if gold_of.get(c) else -1
                        for c in prob.pred_concepts.tolist()], np.int64)
    used = np.zeros(n2, bool)
    used[mapping[mapping >= 0]] = True
    free = np.flatnonzero(~used)
    open_pred = np.flatnonzero(mapping < 0)
    k = min(len(free), len(open_pred))
    if k:
        mapping[open_pred[:k]] = rng.permutation(free)[:k]
    return mapping


def _random_init(prob: _Problem, rng: np.random.RandomState) -> np.ndarray:
    n1, n2 = prob.unary.shape
    mapping = np.full(n1, -1, np.int64)
    k = min(n1, n2)
    mapping[rng.permutation(n1)[:k]] = rng.permutation(n2)[:k]
    return mapping


# One generator per thread, reseeded per call: building a RandomState costs
# far more than reseeding one, and a reseeded one yields the same stream.
_rng = threading.local()


def _seeded_rng(seed: int) -> np.random.RandomState:
    rng = getattr(_rng, "state", None)
    if rng is None:
        rng = _rng.state = np.random.RandomState()
    rng.seed(seed)
    return rng


def smatch_hill_climb(
    pred: AmrGraph, gold: AmrGraph, restarts: int = 4, seed: int = 0
) -> SmatchResult:
    """Best score over ``restarts`` hill-climbing runs: one concept-greedy
    initialization plus restarts-1 seeded random ones.  Deterministic given
    the seed; ties keep the first mapping found.

    The restarts stop once the best score reaches ``upper_matched``: no
    later run could beat it, and a tie would not replace it, so the result
    is the one all ``restarts`` runs give."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    prob = _Problem(pred, gold)
    rng = _seeded_rng(seed)
    best_mapping = None
    best = -1
    for r in range(restarts):
        mapping = _smart_init(prob, rng) if r == 0 else _random_init(prob, rng)
        matched = _match.hill_climb(mapping, prob)
        if matched > best:
            best = int(matched)
            best_mapping = mapping
        if best >= prob.upper:
            break
    return prob.result(best_mapping, best)


def align_records(
    preds: Sequence[AmrGraph], golds: Sequence[AmrGraph]
) -> list[tuple[AmrGraph, AmrGraph]]:
    """Pair up two graph lists positionally, or by ``::id`` metadata when
    every record on both sides carries one."""
    pred_ids = [g.metadata.get("id") for g in preds]
    gold_ids = [g.metadata.get("id") for g in golds]
    if preds and all(pred_ids) and all(gold_ids):
        by_id = {}
        for i, g in zip(gold_ids, golds):
            if i in by_id:
                raise CountMismatch(f"duplicate gold id {i!r}")
            by_id[i] = g
        if len(set(pred_ids)) != len(pred_ids):
            raise CountMismatch("duplicate prediction ids")
        if set(pred_ids) != set(by_id):
            raise CountMismatch("prediction and gold id sets differ")
        return [(p, by_id[i]) for i, p in zip(pred_ids, preds)]
    if len(preds) != len(golds):
        raise CountMismatch(f"{len(preds)} predictions vs {len(golds)} gold records")
    return list(zip(preds, golds))


def corpus_smatch(
    pred: str | Sequence[AmrGraph],
    gold: str | Sequence[AmrGraph],
    restarts: int = 4,
    seed: int = 0,
    jobs: int = 1,
) -> CorpusReport:
    """Micro-averaged Smatch over a corpus (file paths or graph lists).

    Records are scored one after another, record ``i`` by a hill climb
    seeded with ``seed + i`` in [0, 2**32), checked with ``restarts``
    before any record is scored.  ``jobs`` must be 1; it remains for
    callers written when records could be scored on several threads.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs!r}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    preds = read_amr_file(pred) if isinstance(pred, str) else list(pred)
    golds = read_amr_file(gold) if isinstance(gold, str) else list(gold)
    pairs = align_records(preds, golds)
    if not 0 <= seed <= 2**32 - max(len(pairs), 1):
        raise ValueError(f"seed {seed} out of range for {len(pairs)} records: record i is "
                         "seeded with seed + i, which must lie in [0, 2**32)")
    results = [
        smatch_hill_climb(p, g, restarts=restarts, seed=seed + i)
        for i, (p, g) in enumerate(pairs)
    ]
    matched = sum(r.matched for r in results)
    tp = sum(r.n_pred_triples for r in results)
    tg = sum(r.n_gold_triples for r in results)
    upper = sum(r.upper_matched for r in results)
    return CorpusReport(*_prf(matched, tp, tg), len(results), matched, tp, tg, tuple(results), upper)
