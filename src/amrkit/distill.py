"""Distillation objectives over SeqModel, plus the KD corpus builder.

Three objectives are supported, all verifiable exactly at toy scale:

- ``mle``: negative log-likelihood of a hard target under teacher forcing;
- ``token_kd``: per-step KL(student || teacher), the student conditioning
  on its own input x and the teacher on x*;
- ``seq_kd``: hard-target training on the teacher's most probable output,
  approximated by beam search; ``tok_plus_seq`` trains on those same
  teacher outputs while also accumulating the teacher's per-step
  distributions as soft counts.

``exact_seq_kl`` walks the full (truncated) sequence space through
``decode.complete_sequences`` and is used in tests to show seq-KD training
actually pulls the student's sequence distribution toward the teacher's.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .decode import beam_search_batch, complete_sequences, strip_sentinels
from .decode import beam_search  # perfbench's tracer wraps distill.beam_search; its check calls it
from .errors import AmrkitError
from .pipeline import AdapterError, CorpusRecord, NoiseSpec, noise_each
from .repair import repair
from .seqmodel import EOS, SeqModel, ToyCondModel, check_ends_with_eos

__all__ = [
    "ZeroProbability",
    "SupportMismatch",
    "KdRecord",
    "KdBatch",
    "OBJECTIVES",
    "mle_loss",
    "token_kd_loss",
    "exact_seq_kl",
    "seq_kd_build",
    "kd_batches_from_corpus",
    "train",
]

log = logging.getLogger(__name__)

OBJECTIVES = ("mle", "token_kd", "seq_kd", "tok_plus_seq")
# Sentences seq_kd_build decodes in lock step: enough to share each step's
# model call, few enough that the live rows of a chunk stay small.
DECODE_CHUNK = 64


class ZeroProbability(AmrkitError):
    """A target token has probability zero: an unsmoothed model or a
    vocabulary mismatch."""


class SupportMismatch(AmrkitError):
    """The teacher assigns zero probability where the student does not, so
    the KL divergence is infinite.  Reported rather than clipped."""


@dataclass(frozen=True)
class KdRecord:
    """One distillation example: the student reads ``x``, the teacher reads
    ``x_star`` (the same content in another language), ``y`` is the hard
    target (ending in EOS) where the objective needs one."""

    x: tuple[str, ...]
    x_star: tuple[str, ...]
    y: tuple[str, ...] | None = None


@dataclass(frozen=True)
class KdBatch:
    records: tuple[KdRecord, ...]


def _check_target(model: SeqModel, target: Sequence[str]) -> None:
    check_ends_with_eos(target)
    for tok in target:
        model.index(tok)


def mle_loss(model: SeqModel, src: Sequence[str], target: Sequence[str]) -> float:
    """Negative log-likelihood of the target under teacher forcing."""
    check_ends_with_eos(target)
    total = 0.0
    for t, token in enumerate(target):
        try:
            idx = model.index(token)
        except ValueError as exc:
            raise ZeroProbability(str(exc)) from exc
        p = model.next_dist(target[:t], src)[idx]
        if p <= 0.0:
            raise ZeroProbability(f"p({token!r} | step {t}) = 0")
        total -= math.log(p)
    return total


def token_kd_loss(
    student: SeqModel,
    teacher: SeqModel,
    x: Sequence[str],
    x_star: Sequence[str],
    y: Sequence[str],
) -> float:
    """Sum over target positions of KL(student_t || teacher_t), prefixes
    teacher-forced from y.  Zero iff the step distributions coincide."""
    _check_target(student, y)
    total = 0.0
    for t in range(len(y)):
        ps = student.next_dist(y[:t], x)
        pt = teacher.next_dist(y[:t], x_star)
        live = ps > 0
        if np.any(pt[live] <= 0):
            bad = int(np.flatnonzero(live & (pt <= 0))[0])
            raise SupportMismatch(
                f"teacher gives zero probability to {student.vocab[bad]!r} at step {t}"
            )
        total += float(np.sum(ps[live] * (np.log(ps[live]) - np.log(pt[live]))))
    return max(total, 0.0)


def exact_seq_kl(
    student: SeqModel,
    teacher: SeqModel,
    x: Sequence[str],
    x_star: Sequence[str],
    max_len: int,
) -> float:
    """KL between the two full sequence distributions by enumeration.

    Sequences are those of ``decode.complete_sequences`` (which raises for
    ``max_len < 1`` or past one million sequences): EOS-terminated, content
    truncated at max_len with probability one, which makes both sides proper
    distributions over the same space.  Returns inf on support mismatch.
    """
    total = 0.0
    for _, (lps, lpt) in complete_sequences([(student, x), (teacher, x_star)], max_len):
        if lpt == -math.inf:
            return math.inf
        total += math.exp(lps) * (lps - lpt)
    return max(total, 0.0)


# ---------------------------------------------------------------------------
# Sequence-level KD data construction

def seq_kd_build(
    teacher: SeqModel,
    english_inputs: Sequence[str],
    noise: NoiseSpec,
    beam_size: int = 5,
    max_len: int = 64,
    translator=None,
    jobs: int = 1,
) -> list[CorpusRecord]:
    """Build a KD corpus: for each English sentence, the target is the
    teacher's beam-search mode (sentinels stripped, then repaired so it
    always delinearizes) and the student input is the noised sentence.

    All inputs are noised before decoding, by one ``noise_each`` call, so a
    command adapter sees one process per chunk of inputs.  An input whose
    adapter call failed is skipped with a log line and is not decoded; the
    batch never aborts.  The other inputs are decoded ``DECODE_CHUNK`` at a
    time by ``beam_search_batch``, so one model call per step serves a whole
    chunk, and each target is the one ``beam_search`` gives its sentence
    alone.  Output order equals input order.  ``jobs`` must be 1; it remains
    for callers written when inputs could be decoded on several threads.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs!r}")
    sentences = list(english_inputs)
    noised = noise_each(noise, sentences, translator)
    lang = noise.target_lang if noise.kind == "mt_adapter" else "EN"

    todo = []
    for i, (sentence, student_src) in enumerate(zip(sentences, noised)):
        if isinstance(student_src, AdapterError):
            log.warning("kd input %d: %s; skipped", i, student_src)
        else:
            todo.append((i, sentence, student_src))
    records = []
    for start in range(0, len(todo), DECODE_CHUNK):
        chunk = todo[start : start + DECODE_CHUNK]
        beams = beam_search_batch(teacher, [s.split() for _, s, _ in chunk], beam_size, max_len)
        for (i, sentence, student_src), hyps in zip(chunk, beams):
            records.append(
                CorpusRecord(
                    id=f"kd-{i:06d}",
                    lang=lang,
                    split="train",
                    src=student_src,
                    tgt=tuple(repair(strip_sentinels(hyps[0].tokens))),
                    provenance="seq-kd",
                    meta={"src_en": sentence, "noise": noise.kind},
                )
            )
    return records


def kd_batches_from_corpus(
    records: Iterable[CorpusRecord], batch_size: int = 32
) -> list[KdBatch]:
    """Convert corpus records (as built by seq_kd_build) into KD batches:
    x from the record source, x* from the retained English sentence (the
    source itself when ``meta['src_en']`` is absent or None), and the target
    with EOS appended."""
    out: list[KdRecord] = []
    for rec in records:
        x_star = rec.meta.get("src_en")
        if x_star is None:
            x_star = rec.src
        y = tuple(rec.tgt) + (EOS,) if rec.tgt is not None else None
        out.append(KdRecord(tuple(rec.src.split()), tuple(x_star.split()), y))
    return [
        KdBatch(tuple(out[i : i + batch_size])) for i in range(0, len(out), batch_size)
    ]


# ---------------------------------------------------------------------------
# Training

def train(
    model: ToyCondModel,
    batches: Iterable[KdBatch],
    objective: str,
    teacher: SeqModel | None = None,
) -> ToyCondModel:
    """One pass over the batches under the chosen objective; returns the
    updated model (counts are mutated in place).

    mle and seq_kd count the record's hard target (for seq_kd that target is
    teacher-generated upstream); token_kd adds the teacher's per-step
    distributions as fractional counts along the target prefixes;
    tok_plus_seq does both on the teacher-generated target.  The teacher
    answers all prefixes of a record's target in one ``next_dist_batch``
    call.  Student inputs are used exactly as recorded.  A record whose
    target holds a token outside the model's vocabulary (a repair
    placeholder such as ``amr-empty``, say) is skipped with a log line,
    before it changes any count.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    needs_teacher = objective in ("token_kd", "tok_plus_seq")
    if needs_teacher and teacher is None:
        raise ValueError(f"objective {objective!r} requires a teacher model")

    vocab = set(model.vocab)
    for batch in batches:
        for rec in batch.records:
            if rec.y is None:
                raise ValueError(f"objective {objective!r} requires a target on every record")
            unknown = [tok for tok in rec.y if tok not in vocab]
            if unknown:
                log.warning("training record skipped: token %r not in vocabulary", unknown[0])
                continue
            if objective != "token_kd":
                model.observe(rec.x, rec.y)
            if needs_teacher:
                prefixes = [rec.y[:t] for t in range(len(rec.y))]
                dists = teacher.next_dist_batch(prefixes, [rec.x_star] * len(prefixes))
                for prefix, dist in zip(prefixes, dists):
                    model.add_dist_counts(prefix, rec.x, dist)
    return model
