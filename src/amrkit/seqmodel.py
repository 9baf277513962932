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

import functools
import json
import zlib
from abc import ABC, abstractmethod
from itertools import chain
from typing import Iterable, NoReturn, Sequence

import numpy as np

__all__ = ["BOS", "EOS", "MAX_ORDER", "SeqModel", "ToyCondModel", "check_ends_with_eos", "stable_hash"]

BOS = "<s>"
EOS = "</s>"

_FORMAT = "amrkit-toy-model"
_FORMAT_VERSION = 2
# Bound on alpha and on a loaded count: a table row of any realistic vocabulary
# over such numbers sums to a finite float, so next_dist never divides by inf.
_MAX_COUNT = 1e300
# Bound on ToyCondModel.order: the context key holds order - 1 token ids, so
# a model file's order alone would otherwise set the cost of every query.
MAX_ORDER = 1024
# Sources whose hash is kept: more than the sentences of one decode chunk
# (distill's DECODE_CHUNK), so a lock-step decode never misses.
_SOURCE_CACHE = 256


def stable_hash(text: str) -> int:
    """Process-independent 32-bit hash (unlike builtin ``hash``)."""
    return zlib.crc32(text.encode("utf-8"))


@functools.lru_cache(maxsize=_SOURCE_CACHE)
def _source_hash(tokens: tuple[str, ...]) -> int:
    """The hash of a source's bag of tokens, kept for the last
    ``_SOURCE_CACHE`` distinct sources of every model and thread."""
    return stable_hash(" ".join(sorted(tokens)))


def _token_error(exc: KeyError, what: str) -> ValueError:
    """The ValueError for the token that a lookup of ``what``'s tokens in
    the vocabulary less BOS missed: BOS itself, or a token outside it."""
    token = exc.args[0]
    if token == BOS:
        return ValueError(f"{what} may not contain BOS")
    return ValueError(f"token {token!r} not in vocabulary")


def check_ends_with_eos(target: Sequence[str]) -> None:
    """Raise ValueError unless ``target`` is a non-empty sequence ending in EOS."""
    if not target or target[-1] != EOS:
        raise ValueError("target sequence must end with EOS")


class SeqModel(ABC):
    """Conditional next-token distribution p(token | prefix, source).  The
    constructor refuses a vocabulary that is not distinct strings with BOS
    and EOS among them."""

    def __init__(self, vocab: Iterable[str]):
        vocab = tuple(vocab)
        for tok in vocab:
            if not isinstance(tok, str):
                raise ValueError(f"vocabulary token {tok!r} is not a string")
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
    earlier in the prefix is never seen; BOS or a token outside the
    vocabulary among them raises ValueError.  ``alpha`` smoothing mass is
    spread over every vocabulary entry except BOS.  Training only ever adds
    to counts, so repeated observation of one pair converges to that pair's
    empirical distribution with an alpha-dependent floor.  The hashes of
    the last few hundred distinct sources are kept in one cache that every
    model and thread shares, so a decode of a chunk of sentences, whose
    steps switch sources row by row, hashes each source once.  The
    constructor refuses an ``alpha`` that is not an int or float (never a
    bool) in ``(0, 1e300)``, so every model it builds reads back through
    ``save`` and ``load``.  ``alpha`` is read-only: the smoothing row is
    built from it once, and ``save`` writes it.
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
        if not (isinstance(alpha, (int, float)) and not isinstance(alpha, bool)
                and 0 < alpha < _MAX_COUNT):
            raise ValueError(f"alpha must be an int or float in (0, {_MAX_COUNT:g})")
        if type(buckets) is not int or buckets < 1:
            raise ValueError("buckets must be an integer >= 1")
        self.order = order
        self._alpha = alpha
        self.buckets = buckets
        self.counts: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        v = len(self.vocab)
        self._smooth = np.full(v, float(alpha))
        self._smooth[self.index(BOS)] = 0.0
        self._zero = np.zeros(v)
        self._bos = self.index(BOS)
        # the ids of every token but BOS, which no prefix or target holds
        self._ids = {tok: i for tok, i in self._index.items() if i != self._bos}

    @property
    def alpha(self) -> float:
        return self._alpha

    # -- conditioning ------------------------------------------------------

    def bucket(self, src: Sequence[str]) -> int:
        return _source_hash(tuple(src)) % self.buckets

    def context(self, prefix: Sequence[str]) -> tuple[int, ...]:
        n = self.order - 1
        if n == 0:
            return ()
        try:
            ids = tuple(map(self._ids.__getitem__, prefix[-n:]))
        except KeyError as exc:
            raise _token_error(exc, "prefix") from None
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
        """Count one teacher-forced pass over a target ending in EOS.  The
        whole target is checked (no BOS, every token in the vocabulary)
        before any count changes."""
        check_ends_with_eos(target)
        try:
            ids = list(map(self._ids.__getitem__, target))
        except KeyError as exc:
            raise _token_error(exc, "target sequence") from None
        for t, idx in enumerate(ids):
            self._row(target[:t], src)[idx] += 1.0

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the model as JSON, format version 2.  Each count row is
        ``{"bucket", "context", "ids", "counts"}``: ``ids`` are the
        ascending vocabulary ids of the row's nonzero entries and ``counts``
        their values, so an all-zero row keeps its key with empty lists.
        Rows keep table order, and ``load`` gives back the same keys in the
        same order with bit-identical rows."""
        rows = []
        for (b, ctx), cell in self.counts.items():
            ids = np.flatnonzero(cell)
            rows.append({"bucket": b, "context": list(ctx), "ids": ids.tolist(),
                         "counts": cell[ids].tolist()})
        payload = {
            "format": _FORMAT,
            "version": _FORMAT_VERSION,
            "vocab": list(self.vocab),
            "order": self.order,
            "alpha": self.alpha,
            "buckets": self.buckets,
            "counts": rows,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path: str) -> "ToyCondModel":
        """Read a model written by ``save`` (format version 2 only).  Raises
        ValueError naming the file on anything else, before a malformed
        table can reach decoding.  The model's parameters get the
        constructor's rules and messages; this checks only the file's
        structure and its rows: a count that is not a JSON number (int or
        float, never bool) in ``[0, 1e300)``; a row whose ``ids`` are not
        ints in ``[0, |vocab|)``, strictly ascending, one per count; a
        nonzero BOS entry; a count row whose key no query can reach (a bucket
        or token id that is not an int in range, a context of another length
        than ``order - 1``, BOS after a real token), or a key given twice."""
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)

        def fail(what: str) -> NoReturn:
            raise ValueError(f"{path}: {what}")

        def need(ok: bool, what: str) -> None:
            if not ok:
                fail(what)

        need(isinstance(payload, dict) and payload.get("format") == _FORMAT,
             f"not a {_FORMAT} file")
        need(payload.get("version") == _FORMAT_VERSION,
             f"unsupported format version {payload.get('version')}")
        vocab, counts = payload.get("vocab"), payload.get("counts")
        need(isinstance(vocab, list), '"vocab" is not a list')
        need(isinstance(counts, list), '"counts" is not a list')
        try:
            model = cls(vocab, payload.get("order"), payload.get("alpha"), payload.get("buckets"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        try:
            keys = [(entry["bucket"], tuple(entry["context"])) for entry in counts]
            ids = [entry["ids"] for entry in counts]
            values = [entry["counts"] for entry in counts]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed counts table ({exc!r})") from exc
        need(set(map(type, chain(ids, values))) <= {list},
             'malformed counts table (an "ids" or "counts" that is not a list)')
        v = len(vocab)
        lengths = np.array([len(x) for x in ids], dtype=np.intp)
        uneven = lengths != np.array([len(x) for x in values], dtype=np.intp)
        if uneven.any():
            k = uneven.argmax()
            fail(f'counts[{k}] gives {len(ids[k])} "ids" for {len(values[k])} "counts"')
        # the row of each stored entry, so a rule broken by one entry names its row
        row_of = np.repeat(np.arange(len(ids)), lengths)
        flat_ids = list(chain.from_iterable(ids))
        if not (set(map(type, flat_ids)) <= {int} and 0 <= min(flat_ids, default=0)
                and max(flat_ids, default=0) < v):
            j = next(j for j, i in enumerate(flat_ids) if type(i) is not int or not 0 <= i < v)
            fail(f'counts[{row_of[j]}] has the id {flat_ids[j]!r}, not an int in [0, {v})')
        col = np.array(flat_ids, dtype=np.intp)
        # row-major positions: strictly ascending over the whole table exactly
        # when each row's ids are, since every id is below v
        pos = row_of * v + col
        rising = np.diff(pos) > 0
        if not rising.all():
            fail(f'counts[{row_of[rising.argmin() + 1]}] has "ids" that are not strictly ascending')
        flat_counts = list(chain.from_iterable(values))
        counts_rule = f"counts are not numbers in [0, {_MAX_COUNT:g})"
        need(set(map(type, flat_counts)) <= {int, float}, counts_rule)
        try:
            cells = np.array(flat_counts, dtype=float)
        except OverflowError:
            fail(counts_rule)
        need(not cells.size or 0 <= cells.min() <= cells.max() < _MAX_COUNT, counts_rule)
        need(not cells[col == model._bos].any(), f"counts give {BOS!r} a nonzero entry")
        try:
            table = np.zeros((len(keys), v))
        except MemoryError:
            # a few bytes of file per row and per token can declare any table
            fail(f"a {len(keys)} x {v} counts table does not fit in memory")
        table[row_of, col] = cells
        # each a key that ``key`` can return: an int bucket below ``buckets``,
        # then order - 1 int token ids, where BOS is only leading padding;
        # checked before the keys are hashed, since a list in one is not hashable
        buckets, token_ids, bos = range(model.buckets), set(range(v)), model._bos
        int_context = (int,) * (model.order - 1)
        for k, (bucket, context) in enumerate(keys):
            if not (type(bucket) is int and bucket in buckets
                    and tuple(map(type, context)) == int_context and token_ids.issuperset(context)
                    and (bos not in context or bos not in context[context.count(bos):])):
                raise ValueError(f"{path}: counts[{k}] is a row no query reaches "
                                 f"(bucket {bucket!r}, context {list(context)!r})")
        model.counts.update(zip(keys, table))
        need(len(model.counts) == len(keys), "counts give one key twice")
        return model
