"""Next-token sequence models: the abstract interface plus a tractable
trainable count-table model used as teacher/student stand-in.

Conventions shared by every model here: the vocabulary is an ordered token
tuple containing the sentinels ``<s>`` (BOS) and ``</s>`` (EOS); prefixes
passed to ``next_dist`` never include BOS (models pad internally); returned
vectors are nonnegative, sum to one within 1e-9, and depend only on
(prefix, source).  Shipped models assign probability exactly zero to BOS so
decoders never have to special-case it.  ``next_dist_batch(prefixes, srcs)``
answers several (prefix, source) rows at once, one source per row, row for
row equal to ``next_dist``, so one call serves the live prefixes of many
sentences; ``ToyCondModel.next_dist`` is row 0 of its own
``next_dist_batch``, so there the two agree by construction.
"""

from __future__ import annotations

import json
import zlib
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

__all__ = ["BOS", "EOS", "MAX_ORDER", "SeqModel", "ToyCondModel", "stable_hash"]

BOS = "<s>"
EOS = "</s>"

_FORMAT = "amrkit-toy-model"
_FORMAT_VERSION = 1
# Bound on a loaded count or alpha: a table row of any realistic vocabulary
# over such numbers sums to a finite float, so next_dist never divides by inf.
_MAX_COUNT = 1e300
# Bound on ToyCondModel.order: the context key holds order - 1 token ids, so
# a model file's order alone would otherwise set the cost of every query.
MAX_ORDER = 1024
# Sources whose hash ToyCondModel keeps: more than the sentences of one
# decode chunk (distill's DECODE_CHUNK), so a lock-step decode never misses.
_SOURCE_CACHE = 256


def stable_hash(text: str) -> int:
    """Process-independent 32-bit hash (unlike builtin ``hash``)."""
    return zlib.crc32(text.encode("utf-8"))


class SeqModel(ABC):
    """Conditional next-token distribution p(token | prefix, source)."""

    def __init__(self, vocab: Iterable[str]):
        vocab = tuple(vocab)
        if BOS not in vocab or EOS not in vocab:
            raise ValueError(f"vocabulary must contain {BOS!r} and {EOS!r}")
        if len(set(vocab)) != len(vocab):
            raise ValueError("vocabulary contains duplicates")
        self.vocab = vocab
        self._index = {tok: i for i, tok in enumerate(vocab)}

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ValueError(f"token {token!r} not in vocabulary") from None

    @abstractmethod
    def next_dist(self, prefix: Sequence[str], src: Sequence[str]) -> np.ndarray:
        """Distribution over the full vocabulary for the next position."""

    def next_dist_batch(
        self, prefixes: Sequence[Sequence[str]], srcs: Sequence[Sequence[str]]
    ) -> np.ndarray:
        """``next_dist`` for each (prefix, source) pair, as the rows of a
        ``len(prefixes) × |vocab|`` array.  Row i equals
        ``next_dist(prefixes[i], srcs[i])`` bit for bit; raises ValueError
        unless there is one source per prefix.  Subclasses override this only
        to share work between the rows."""
        return np.array([self.next_dist(p, src) for p, src in zip(prefixes, srcs, strict=True)])


class ToyCondModel(SeqModel):
    """Additively smoothed conditional count table.

    The conditioning key is (hashed bag of source tokens, last ``order - 1``
    prefix tokens, BOS-padded); ``order`` is at most ``MAX_ORDER``.  Only
    those last tokens are looked up, so a token outside the vocabulary
    earlier in the prefix is never seen.  ``alpha`` smoothing mass is spread
    over every vocabulary entry except BOS.  Training only ever adds to counts,
    so repeated observation of one pair converges to that pair's empirical
    distribution with an alpha-dependent floor.  The model keeps the hashes
    of the last few hundred distinct sources it was asked about, so a decode
    of a chunk of sentences, whose steps switch sources row by row, hashes
    each source once.  ``alpha`` is read-only: the smoothing row is built
    from it once, and ``save`` writes it.
    """

    def __init__(
        self,
        vocab: Iterable[str],
        order: int = 2,
        alpha: float = 0.1,
        buckets: int = 64,
    ):
        super().__init__(vocab)
        if type(order) is not int or not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be an integer in [1, {MAX_ORDER}]")
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        if type(buckets) is not int or buckets < 1:
            raise ValueError("buckets must be an integer >= 1")
        self.order = order
        self._alpha = alpha
        self.buckets = buckets
        self.counts: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        v = len(self.vocab)
        self._smooth = np.full(v, alpha)
        self._smooth[self.index(BOS)] = 0.0
        self._zero = np.zeros(v)
        self._bos = self.index(BOS)
        # tuple(src) -> its hash, oldest first; bounded so a long run over
        # many sentences keeps only the recent ones
        self._src_hash: dict[tuple[str, ...], int] = {}

    @property
    def alpha(self) -> float:
        return self._alpha

    # -- conditioning ------------------------------------------------------

    def bucket(self, src: Sequence[str]) -> int:
        tokens = tuple(src)
        cache = self._src_hash
        h = cache.get(tokens)
        if h is None:
            if len(cache) >= _SOURCE_CACHE:
                del cache[next(iter(cache))]
            h = cache[tokens] = stable_hash(" ".join(sorted(tokens)))
        return h % self.buckets

    def context(self, prefix: Sequence[str]) -> tuple[int, ...]:
        n = self.order - 1
        if n == 0:
            return ()
        try:
            ids = tuple(map(self._index.__getitem__, prefix[-n:]))
        except KeyError as exc:
            raise ValueError(f"token {exc.args[0]!r} not in vocabulary") from None
        return (self._bos,) * (n - len(ids)) + ids

    def key(self, prefix: Sequence[str], src: Sequence[str]):
        return (self.bucket(src), self.context(prefix))

    # -- queries and updates ------------------------------------------------

    def next_dist(self, prefix: Sequence[str], src: Sequence[str]) -> np.ndarray:
        return self.next_dist_batch((prefix,), (src,))[0]

    def next_dist_batch(
        self, prefixes: Sequence[Sequence[str]], srcs: Sequence[Sequence[str]]
    ) -> np.ndarray:
        bucket, context, counts, zero = self.bucket, self.context, self.counts, self._zero
        rows = [counts.get((bucket(src), context(p)), zero)
                for p, src in zip(prefixes, srcs, strict=True)]
        num = np.array(rows).reshape(len(rows), len(self.vocab)) + self._smooth
        return num / num.sum(axis=1, keepdims=True)

    def _row(self, prefix: Sequence[str], src: Sequence[str]) -> np.ndarray:
        """The count row of (prefix, source), created empty if missing."""
        key = self.key(prefix, src)
        row = self.counts.get(key)
        if row is None:
            row = self.counts[key] = np.zeros(len(self.vocab))
        return row

    def add_dist_counts(self, prefix: Sequence[str], src: Sequence[str], dist: np.ndarray) -> None:
        """Add fractional counts (e.g. a teacher distribution). Any BOS mass
        is discarded: BOS is never a legal continuation."""
        row = self._row(prefix, src)
        row += dist
        row[self._bos] = 0.0

    def observe(self, src: Sequence[str], target: Sequence[str]) -> None:
        """Count one teacher-forced pass over a target ending in EOS."""
        if not target or target[-1] != EOS:
            raise ValueError("target sequence must end with EOS")
        for t, token in enumerate(target):
            if token == BOS:
                raise ValueError("target sequence may not contain BOS")
            idx = self.index(token)
            self._row(target[:t], src)[idx] += 1.0

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        payload = {
            "format": _FORMAT,
            "version": _FORMAT_VERSION,
            "vocab": list(self.vocab),
            "order": self.order,
            "alpha": self.alpha,
            "buckets": self.buckets,
            "counts": [
                {"bucket": b, "context": list(ctx), "counts": cell.tolist()}
                for (b, ctx), cell in self.counts.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path: str) -> "ToyCondModel":
        """Read a model written by ``save``.  Raises ValueError naming the
        file on anything else, before a malformed table can reach decoding."""
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)

        def need(ok: bool, what: str) -> None:
            if not ok:
                raise ValueError(f"{path}: {what}")

        need(isinstance(payload, dict) and payload.get("format") == _FORMAT,
             f"not a {_FORMAT} file")
        need(payload.get("version") == _FORMAT_VERSION,
             f"unsupported format version {payload.get('version')}")
        vocab, counts = payload.get("vocab"), payload.get("counts")
        need(isinstance(vocab, list) and all(isinstance(t, str) for t in vocab),
             '"vocab" is not a list of strings')
        alpha = payload.get("alpha")
        need(isinstance(alpha, (int, float)) and 0 <= alpha < _MAX_COUNT,
             f'"alpha" is not a number in [0, {_MAX_COUNT:g})')
        need(isinstance(counts, list), '"counts" is not a list')
        try:
            model = cls(vocab, payload.get("order"), alpha, payload.get("buckets"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        try:
            keys = [(entry["bucket"], tuple(entry["context"])) for entry in counts]
            table = np.array([entry["counts"] for entry in counts], dtype=float)
            table = table.reshape(len(keys), len(vocab))
            model.counts.update(zip(keys, table))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: malformed counts table ({exc!r})") from exc
        need(not table.size or 0 <= table.min() <= table.max() < _MAX_COUNT,
             f"counts are not numbers in [0, {_MAX_COUNT:g})")
        need(not table[:, model._bos].any(), f"counts give {BOS!r} a nonzero entry")
        return model

