"""Beam search and exhaustive decoding oracles over SeqModel.

Sequence space and probabilities follow one convention everywhere: a
complete sequence ends with EOS; choosing EOS contributes its model
probability; a hypothesis whose content reaches ``max_len`` is
forced-finished with EOS at probability one (deterministic truncation).
Under this convention the complete sequences up to ``max_len`` form a
proper probability space, so beam search, ``exact_mode``, and the
sequence-level KL in ``distill`` all agree about what is being ranked.

Ties are broken by vocabulary order token by token, which also prefers the
shorter sequence when one is a prefix of the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TooLarge
from .seqmodel import BOS, EOS, SeqModel

__all__ = ["BeamHypothesis", "beam_search", "exact_mode", "strip_sentinels"]

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

    # entries: (log_prob, token-id tuple); ids of retired entries end in EOS.
    # Live entries all have the same length and are kept in ids order, so the
    # row-major order of the live × vocabulary candidates is their ids order
    # and a stable sort on -log_prob ranks them by (-log_prob, ids).
    live: list[tuple[float, tuple[int, ...]]] = [(0.0, ())]
    retired: list[tuple[float, tuple[int, ...]]] = []
    while live and len(retired) < beam_size:
        dists = model.next_dist_batch([[model.vocab[i] for i in ids] for _, ids in live], src)
        rows, toks = np.nonzero(dists > 0)
        # math.log, not np.log: the two differ in the last bit on some inputs
        logs = np.fromiter(map(math.log, dists[rows, toks].tolist()), float, len(rows))
        scores = np.array([lp for lp, _ in live])[rows] + logs
        keep = np.argsort(-scores, kind="stable")[: beam_size - len(retired)]
        children = []
        for c, nlp in zip(keep.tolist(), scores[keep].tolist()):
            idx = int(toks[c])
            ids = live[rows[c]][1] + (idx,)
            if idx == eos:
                retired.append((nlp, ids))
            elif len(ids) == max_len:
                retired.append((nlp, ids + (eos,)))
            else:
                children.append((c, nlp, ids))
        children.sort()  # candidate order is ids order
        live = [(nlp, ids) for _, nlp, ids in children]

    retired.sort(key=lambda c: (-c[0], c[1]))
    return [
        BeamHypothesis(tuple(model.vocab[i] for i in ids), lp)
        for lp, ids in retired[:beam_size]
    ]


def check_enumerable(model: SeqModel, max_len: int) -> None:
    """Raise TooLarge when ``|vocab| ** max_len`` exceeds the one million
    sequences an exhaustive oracle may enumerate."""
    if len(model.vocab) ** max_len > _ENUMERATION_BOUND:
        raise TooLarge(
            f"|vocab|^max_len = {len(model.vocab)}^{max_len} exceeds {_ENUMERATION_BOUND}"
        )


def exact_mode(model: SeqModel, src: Sequence[str], max_len: int) -> list[str]:
    """The most probable complete sequence, by exhaustive enumeration.

    Raises TooLarge when ``|vocab| ** max_len`` exceeds one million states.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    check_enumerable(model, max_len)
    eos = model.index(EOS)
    best_lp = -math.inf
    best_ids: tuple[int, ...] | None = None

    def consider(lp: float, ids: tuple[int, ...]) -> None:
        nonlocal best_lp, best_ids
        if lp > best_lp or (lp == best_lp and (best_ids is None or ids < best_ids)):
            best_lp = lp
            best_ids = ids

    stack: list[tuple[float, tuple[int, ...]]] = [(0.0, ())]
    while stack:
        lp, ids = stack.pop()
        if len(ids) == max_len:
            consider(lp, ids + (eos,))
            continue
        prefix = [model.vocab[i] for i in ids]
        dist = model.next_dist(prefix, src)
        for idx in np.flatnonzero(dist > 0):
            idx = int(idx)
            nlp = lp + math.log(dist[idx])
            if idx == eos:
                consider(nlp, ids + (idx,))
            else:
                stack.append((nlp, ids + (idx,)))

    assert best_ids is not None  # EOS carries mass or truncation forces it
    return [model.vocab[i] for i in best_ids]
