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

A beam step gets the rows of all live prefixes from one
``next_dist_batch`` call (``ToyCondModel`` builds them in one array op) and
scores candidates with ``math.log``, which can differ from ``np.log`` in the
last bit.  When there are more candidates than free slots it ranks them by
``np.log`` first and takes ``math.log`` only for those within a proven
margin of the cut, and of exact ties within a row only as many as there are
free slots; the hypotheses are the same, bit for bit (the bound is stated in
``beam_search``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import TooLarge
from .seqmodel import BOS, EOS, SeqModel

__all__ = ["BeamHypothesis", "beam_search", "complete_sequences", "exact_mode", "strip_sentinels"]

_ENUMERATION_BOUND = 1_000_000


@dataclass(frozen=True)
class BeamHypothesis:
    """A finished decode: tokens end with EOS; log_prob is the sum of the
    per-step log probabilities under the generating model."""

    tokens: tuple[str, ...]
    log_prob: float
    finished: bool = True


def strip_sentinels(tokens: Sequence[str]) -> list[str]:
    return [t for t in tokens if t not in (BOS, EOS)]


def beam_search(
    model: SeqModel, src: Sequence[str], beam_size: int, max_len: int
) -> list[BeamHypothesis]:
    """Length-unnormalized beam search without early-stop heuristics.

    Each step ranks all expansions of the live beam together; finished
    expansions (chosen EOS, or forced at max_len) retire and permanently
    reserve a slot, shrinking the live width.  Returns up to ``beam_size``
    finished hypotheses, best first.  With ``beam_size >= |vocab|^max_len``
    no live candidate is ever pruned, so the top hypothesis is the exact
    mode; with ``beam_size == 1`` this is greedy decoding.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    eos = model.index(EOS)
    vocab, v = model.vocab, len(model.vocab)

    # live entries: (log_prob, token-id tuple, token tuple); retired entries:
    # (log_prob, token-id tuple ending in EOS).  Live entries all have the
    # same length and are kept in ids order, so the row-major order of the
    # live × vocabulary candidates is their ids order and a stable sort on
    # log_prob, best first, ranks them by (-log_prob, ids).
    live: list[tuple[float, tuple[int, ...], tuple[str, ...]]] = [(0.0, (), ())]
    retired: list[tuple[float, tuple[int, ...]]] = []
    while live and len(retired) < beam_size:
        width = beam_size - len(retired)
        dists = model.next_dist_batch([words for _, _, words in live], src)
        flat, positive = dists.ravel(), dists > 0
        near = None
        if width < dists.size:
            # Rank by np.log first and take math.log (the two can differ in
            # the last bit) only where a candidate can still enter the beam.
            # For positive finite p, |log p| < 745 and either log is within a
            # few ulp of the true value, so they differ by under 1e-12; with
            # the rounding of the addition, a candidate's approximate score
            # a and exact score s differ by eps < 1e-12 + 2**-51 * (|a| + |s|).
            # The width candidates with a >= cut (the width-th best a) have
            # s >= cut - eps, so the exact top width and every tie with the
            # last of them have s >= cut - eps and a >= cut - 2 * eps, inside
            # the margin 1e-9 * (1 + |cut|).  Every dropped candidate scores
            # below all of those, so the stable sort of the kept ones, in
            # candidate order, picks the same entries in the same order.  A
            # cut that is not finite (at most width candidates) keeps all.
            approx = np.log(dists, out=np.full(dists.shape, -math.inf), where=positive)
            base = np.array([lp for lp, _, _ in live])[:, None]
            approx = np.add(approx, base, out=approx, where=positive).ravel()
            cut = float(np.partition(approx, approx.size - width)[approx.size - width])
            if math.isfinite(cut):
                near = (approx >= cut - 1e-9 * (1 + abs(cut))).nonzero()[0]
                if len(near) > 4 * width:
                    # a cut on a smoothed row's floor brings in the whole
                    # floor, whose exact ties mostly cannot be picked
                    near = _cap_exact_ties(near, flat[near], v, width)
        if near is None:
            near = np.flatnonzero(positive)
        cands = [(live[c // v], c % v, p) for c, p in zip(near.tolist(), flat[near].tolist())]
        scores = [entry[0] + math.log(p) for entry, _, p in cands]
        children = []
        for c in sorted(range(len(cands)), key=scores.__getitem__, reverse=True)[:width]:
            (_, ids, words), idx, _ = cands[c]
            nlp, ids = scores[c], ids + (idx,)
            if idx == eos:
                retired.append((nlp, ids))
            elif len(ids) == max_len:
                retired.append((nlp, ids + (eos,)))
            else:
                children.append((c, nlp, ids, words + (vocab[idx],)))
        children.sort()  # candidate order is ids order
        live = [(nlp, ids, words) for _, nlp, ids, words in children]

    retired.sort(key=lambda c: (-c[0], c[1]))
    return [
        BeamHypothesis(tuple(model.vocab[i] for i in ids), lp)
        for lp, ids in retired[:beam_size]
    ]


def _cap_exact_ties(near: np.ndarray, ps: np.ndarray, v: int, width: int) -> np.ndarray:
    """The candidates of ``near`` (ascending flat indices into a live ×
    vocabulary array, with probabilities ``ps``) that are among the first
    ``width`` of their row with their probability.  The entries of one row
    with one probability score exactly alike, so the stable sort ranks them
    in candidate order and none after the first ``width`` can be picked."""
    rows = near // v
    order = np.lexsort((ps, rows))  # stable: by row, probability, then index
    r, p, pos = rows[order], ps[order], np.arange(len(order))
    first = np.ones(len(order), bool)
    first[1:] = (r[1:] != r[:-1]) | (p[1:] != p[:-1])
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
    keep = np.empty(len(order), bool)
    keep[order] = rank < width
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
