"""Beam search and exhaustive decoding oracles over SeqModel.

Sequence space and probabilities follow one convention everywhere: a
complete sequence ends with EOS; choosing EOS contributes its model
probability; a hypothesis whose content reaches ``max_len`` is
forced-finished with EOS at probability one (deterministic truncation).
Under this convention the complete sequences up to ``max_len`` form a
proper probability space, so beam search, ``exact_mode``, and the
sequence-level KL in ``distill`` all agree about what is being ranked.
Both exhaustive oracles walk it through one enumerator,
``complete_sequences``, which requires ``max_len >= 1`` as beam search does.

Ties are broken by vocabulary order token by token, which also prefers the
shorter sequence when one is a prefix of the other.

``beam_search_batch`` decodes several sources in lock step, one beam per
source: a step gets the rows of the live prefixes of every unfinished
source from one ``next_dist_batch(prefixes, srcs)`` call, one source per
row (``ToyCondModel`` builds them in one array op), and ranks each source
on its own.  ``beam_search`` is a batch of one.  Candidates are scored with
``math.log``, which can differ from ``np.log`` in the last bit.  Each
source's candidates are ranked by ``np.log`` first, and ``math.log`` is
taken only for those within a proven margin of that source's cut, and of
exact ties within a row only as many as the source has free slots; the
hypotheses are the same, bit for bit, as ranking every candidate by
``math.log`` (the bound is stated in ``_near_cut``), and the same in any
batch.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import TooLarge
from .seqmodel import BOS, EOS, SeqModel

__all__ = [
    "BeamHypothesis",
    "beam_search",
    "beam_search_batch",
    "complete_sequences",
    "exact_mode",
    "strip_sentinels",
]

_ENUMERATION_BOUND = 1_000_000


@dataclass(frozen=True)
class BeamHypothesis:
    """A finished decode: tokens end with EOS; log_prob is the sum of the
    per-step log probabilities under the generating model."""

    tokens: tuple[str, ...]
    log_prob: float


def strip_sentinels(tokens: Sequence[str]) -> list[str]:
    return [t for t in tokens if t not in (BOS, EOS)]


def beam_search(
    model: SeqModel, src: Sequence[str], beam_size: int, max_len: int
) -> list[BeamHypothesis]:
    """Beam search for one source: ``beam_search_batch(model, [src],
    beam_size, max_len)[0]``."""
    return beam_search_batch(model, [src], beam_size, max_len)[0]


def beam_search_batch(
    model: SeqModel, srcs: Sequence[Sequence[str]], beam_size: int, max_len: int
) -> list[list[BeamHypothesis]]:
    """Length-unnormalized beam search without early-stop heuristics, for
    each source in lock step.

    Each source keeps its own beam.  Each step ranks all expansions of a
    source's live beam together; finished expansions (chosen EOS, or forced
    at max_len) retire and permanently reserve a slot, shrinking the live
    width.  One ``next_dist_batch`` call per step answers the live prefixes
    of every unfinished source, and each source is ranked on its own, so its
    hypotheses are those it gets in a batch of one.  Returns, per source, up
    to ``beam_size`` finished hypotheses, best first.  With ``beam_size >=
    |vocab|^max_len`` no live candidate is ever pruned, so the top hypothesis
    is the exact mode; with ``beam_size == 1`` this is greedy decoding.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    eos = model.index(EOS)
    vocab, v = model.vocab, len(model.vocab)

    # Per source, live entries: (log_prob, token-id tuple, token tuple);
    # retired entries: (log_prob, token-id tuple ending in EOS).  A source's
    # live entries all have the same length and are kept in ids order, and
    # the rows of one source are adjacent in a step's array, so the
    # row-major order of a source's live × vocabulary candidates is their
    # ids order and a stable sort on log_prob, best first, ranks them by
    # (-log_prob, ids).
    lives: list[list[tuple[float, tuple[int, ...], tuple[str, ...]]]]
    lives = [[(0.0, (), ())] for _ in srcs]
    retireds: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in srcs]
    todo = list(range(len(srcs)))
    while todo:
        rows = [entry for s in todo for entry in lives[s]]
        dists = model.next_dist_batch([words for _, _, words in rows],
                                      [srcs[s] for s in todo for _ in lives[s]])
        counts = [len(lives[s]) for s in todo]
        widths = [beam_size - len(retireds[s]) for s in todo]
        near = _near_cut(dists, [lp for lp, _, _ in rows], counts, widths)
        near_l = near.tolist()
        ps = dists.ravel()[near].tolist()
        scores = [rows[c // v][0] + math.log(p) for c, p in zip(near_l, ps)]
        lo = end = 0
        for s, width, count in zip(todo, widths, counts):
            end += count * v
            hi = bisect_left(near_l, end, lo)
            retired, children = retireds[s], []
            for k in sorted(range(lo, hi), key=scores.__getitem__, reverse=True)[:width]:
                c = near_l[k]
                _, ids, words = rows[c // v]
                idx = c % v
                nlp, ids = scores[k], ids + (idx,)
                if idx == eos:
                    retired.append((nlp, ids))
                elif len(ids) == max_len:
                    retired.append((nlp, ids + (eos,)))
                else:
                    children.append((c, nlp, ids, words + (vocab[idx],)))
            children.sort()  # candidate order is ids order
            lives[s] = [(nlp, ids, words) for _, nlp, ids, words in children]
            lo = hi
        todo = [s for s in todo if lives[s] and len(retireds[s]) < beam_size]

    out = []
    for retired in retireds:
        retired.sort(key=lambda c: (-c[0], c[1]))
        out.append([BeamHypothesis(tuple(vocab[i] for i in ids), lp)
                    for lp, ids in retired[:beam_size]])
    return out


def _near_cut(
    dists: np.ndarray, base: list[float], counts: list[int], widths: list[int]
) -> np.ndarray:
    """Ascending flat indices into ``dists`` (the live rows of several
    sources, ``counts[s]`` adjacent rows for source s, each with its log
    probability in ``base``) of the positive candidates that can still take
    one of the ``widths[s]`` free slots of their source.

    Candidates are ranked by ``np.log`` first, and ``math.log`` (the two can
    differ in the last bit) is left to the caller, for these alone.  For
    positive finite p, |log p| < 745 and either log is within a few ulp of
    the true value, so they differ by under 1e-12; with the rounding of the
    addition, a candidate's approximate score a and exact score s differ by
    eps < 1e-12 + 2**-51 * (|a| + |s|).  A source's width candidates with a
    >= cut (its width-th best a) have s >= cut - eps, so its exact top width
    and every tie with the last of them have s >= cut - eps and a >= cut - 2
    * eps, inside the margin 1e-9 * (1 + |cut|).  Every dropped candidate
    scores below all of those, so the stable sort of the kept ones, in
    candidate order, picks the same entries in the same order.  A source
    with at most width positive candidates has cut -inf or its smallest
    candidate, and keeps them all.
    """
    n, v = len(counts), dists.shape[1]
    with np.errstate(divide="ignore"):  # a zero candidate scores -inf
        approx = np.log(dists)
    approx += np.array(base)[:, None]
    # A source's width-th best candidate is among the k best of each of its
    # rows: gather those into one sorted row per source, -inf where it has
    # fewer live rows than the most.
    k, m = min(max(widths), v), max(counts)
    if k == 1:
        top = approx.max(axis=1, keepdims=True)
    else:
        top = np.partition(approx, v - k, axis=1)[:, v - k:]
    if n * m != len(base):
        pool = np.full((n, m, k), -math.inf)
        sources = [s for s, c in enumerate(counts) for _ in range(c)]
        pool[sources, [j for c in counts for j in range(c)]] = top
        top = pool
    top = top.reshape(n, m * k)
    if m * k > 1:
        top = np.sort(top, axis=1)
    floors = []
    for row, c, w in zip(top.tolist(), counts, widths):
        cut = row[max(m * k - w, 0)]
        # never below the lowest float, so a zero candidate (-inf) stays out
        floors += [max(cut - 1e-9 * (1 + abs(cut)), -sys.float_info.max)] * c
    near = (approx >= np.array(floors)[:, None]).ravel().nonzero()[0]
    if len(near) > 4 * sum(widths):
        # a cut on a smoothed row's floor brings in the whole floor, whose
        # exact ties mostly cannot be picked
        near = _cap_exact_ties(near, dists.ravel()[near], v, np.repeat(widths, counts))
    return near


def _cap_exact_ties(near: np.ndarray, ps: np.ndarray, v: int, row_width: np.ndarray) -> np.ndarray:
    """The candidates of ``near`` (ascending flat indices into a live ×
    vocabulary array, with probabilities ``ps``) that are among the first
    ``row_width[row]`` of their row with their probability.  The entries of
    one row with one probability score exactly alike, so the stable sort
    ranks them in candidate order and, with at most that many slots free for
    the row's source, none after the first ``row_width[row]`` can be
    picked."""
    rows = near // v
    order = np.lexsort((ps, rows))  # stable: by row, probability, then index
    r, p, pos = rows[order], ps[order], np.arange(len(order))
    first = np.ones(len(order), bool)
    first[1:] = (r[1:] != r[:-1]) | (p[1:] != p[:-1])
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
    keep = np.empty(len(order), bool)
    keep[order] = rank < row_width[r]
    return near[keep]


def complete_sequences(
    pairs: Sequence[tuple[SeqModel, Sequence[str]]], max_len: int
) -> Iterator[tuple[tuple[int, ...], tuple[float, ...]]]:
    """Every complete sequence in the support of the first ``(model,
    source)`` pair, as vocabulary ids ending in EOS, with one log probability
    per pair (``-inf`` where a later model gives a step zero), depth first in
    a fixed order.  Raises ValueError unless ``max_len >= 1``, and TooLarge
    when ``|vocab| ** max_len`` exceeds one million sequences."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    vocab = pairs[0][0].vocab
    if len(vocab) ** max_len > _ENUMERATION_BOUND:
        raise TooLarge(f"|vocab|^max_len = {len(vocab)}^{max_len} exceeds {_ENUMERATION_BOUND}")
    eos = pairs[0][0].index(EOS)
    stack: list[tuple[tuple[int, ...], tuple[float, ...]]] = [((), (0.0,) * len(pairs))]
    while stack:
        ids, lps = stack.pop()
        if len(ids) == max_len:
            yield ids + (eos,), lps
            continue
        prefix = [vocab[i] for i in ids]
        dists = [model.next_dist(prefix, src) for model, src in pairs]
        for idx in np.flatnonzero(dists[0] > 0).tolist():
            nlps = tuple(-math.inf if d[idx] <= 0 else lp + math.log(d[idx])
                         for lp, d in zip(lps, dists))
            if idx == eos:
                yield ids + (idx,), nlps
            else:
                stack.append((ids + (idx,), nlps))


def exact_mode(model: SeqModel, src: Sequence[str], max_len: int) -> list[str]:
    """The most probable complete sequence, by exhaustive enumeration; ties
    go to the smaller id tuple.  Raises as ``complete_sequences`` does."""
    ids, _ = min(complete_sequences([(model, src)], max_len), key=lambda e: (-e[1][0], e[0]))
    return [model.vocab[i] for i in ids]
