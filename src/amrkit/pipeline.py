"""Silver-data construction and quality control.

Covers the corpus record model and its JSONL form, student-input noise
(``noise_each``, the one function that applies a ``NoiseSpec``),
machine-translation adapters (an external command hook plus a deterministic
hash-based stub so the whole pipeline runs hermetically), back-translation
consistency filtering with embedding cosine similarity, vocabulary
augmentation from linearized targets, and per-language/split bookkeeping.
"""

from __future__ import annotations

import json
import locale
import logging
import math
import os
import random
import shlex
import subprocess
from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Protocol, Sequence

import numpy as np

from .errors import AmrkitError
from .graph import split_lines
from .linearize import from_line, to_line
from .seqmodel import stable_hash

__all__ = [
    "LANGS",
    "MASK",
    "CorpusRecord",
    "NoiseSpec",
    "AdapterError",
    "Translator",
    "StubTranslator",
    "CommandTranslator",
    "EmbeddingProvider",
    "HashEmbedding",
    "word_delete",
    "noise_each",
    "translate_each",
    "bt_filter",
    "cosine",
    "augment_vocab",
    "corpus_stats",
    "CorpusStats",
    "read_corpus_jsonl",
    "write_corpus_jsonl",
    "ADAPTER_CMD_ENV",
    "MAX_META_DEPTH",
]

log = logging.getLogger(__name__)

LANGS = ("EN", "DE", "ES", "IT", "ZH")
_SPLITS = ("train", "dev", "test")
PROVENANCES = ("gold", "silver-mt", "seq-kd")
MASK = "<mask>"
ADAPTER_CMD_ENV = "AMRKIT_ADAPTER_CMD"
# Texts sent to one adapter process by CommandTranslator.translate_batch.
ADAPTER_CHUNK = 256
# Length of a HashEmbedding vector.
_EMBED_DIM = 64
# Most lists and dicts on one path through a record's meta, meta itself
# included.  Python's json writes and reads about 990 nested lists from a
# shallow stack; this bound leaves room for the caller's own frames.
MAX_META_DEPTH = 100


class AdapterError(AmrkitError):
    """An external translation/embedding adapter failed for one record."""


# The type of each CorpusRecord field, in field order.
_FIELD_TYPES = {
    "id": str, "lang": str, "split": str, "src": str, "tgt": (tuple, type(None)),
    "provenance": str, "quality": (int, float, type(None)), "meta": dict,
}


def _check_json_data(value: list | dict, ancestors: tuple[int, ...] = ()) -> None:
    """Raise ValueError at the first fault, depth first, unless ``value`` (a
    record's meta) is data that JSON writes and reads back equal: string
    keys, checked before the values; str, int, finite float, bool, None,
    list and dict values, at most ``MAX_META_DEPTH`` lists and dicts deep,
    ``value`` included, checked before each descent; none inside itself.
    ``ancestors`` are the ids of the lists and dicts that hold ``value``."""
    ancestors += (id(value),)
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise ValueError(f"record field 'meta' has a key of type {type(key).__name__}")
        value = value.values()
    for item in value:
        if isinstance(item, (str, int, type(None))):
            continue
        if isinstance(item, float):
            if not math.isfinite(item):
                raise ValueError(f"record field 'meta' holds the non-finite number {item!r}")
        elif isinstance(item, (list, dict)):
            if id(item) in ancestors:
                raise ValueError("record field 'meta' holds itself")
            if len(ancestors) == MAX_META_DEPTH:
                raise ValueError(f"record field 'meta' is nested more than {MAX_META_DEPTH} deep")
            _check_json_data(item, ancestors)
        else:
            raise ValueError(f"record field 'meta' holds a value of type {type(item).__name__}")


@dataclass(frozen=True)
class CorpusRecord:
    """One training-corpus row, and the one statement of its rules.

    ``id``, ``src`` and ``provenance`` are strings; ``lang`` is one of
    ``LANGS`` and ``split`` one of train, dev and test; ``tgt`` is a
    linearized-graph token tuple (or None for unlabeled rows) that survives
    its line form, ``from_line(to_line(tgt)) == list(tgt)``; ``quality`` is a
    number in [-1, 1] or None and is set only by the consistency filter;
    ``meta`` is a dict of JSON data (see ``_check_json_data``) whose
    ``src_en``, when present and not None, is a string.  A bool is never a
    number or a string.  Gold provenance needs a target, and in the train
    split is English-only: foreign-language training data is always
    constructed, never annotated.  Raises ValueError on the first broken
    rule: the types in field order, then ``meta``'s contents and its
    ``src_en``, then the values.
    """

    id: str
    lang: str
    split: str
    src: str
    tgt: tuple[str, ...] | None = None
    provenance: str = "gold"
    quality: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, types in _FIELD_TYPES.items():
            value = getattr(self, key)
            if not isinstance(value, types) or isinstance(value, bool):
                raise ValueError(f"record field {key!r} has type {type(value).__name__}")
        tgt = list(self.tgt or ())
        try:
            line = to_line(tgt)
        except TypeError:
            raise ValueError("record field 'tgt' holds a token that is not a string") from None
        _check_json_data(self.meta)
        if not isinstance(self.meta.get("src_en"), (str, type(None))):
            raise ValueError("record field 'meta.src_en' is not a string")
        if self.lang not in LANGS:
            raise ValueError(f"unknown language {self.lang!r} (expected one of {LANGS})")
        if self.split not in _SPLITS:
            raise ValueError(f"unknown split {self.split!r} (expected one of {_SPLITS})")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.quality is not None and not -1.0 <= self.quality <= 1.0:
            raise ValueError(f"quality {self.quality} outside [-1, 1]")
        if from_line(line) != tgt:
            raise ValueError("record field 'tgt' does not read back from its line form")
        if self.provenance == "gold":
            if self.tgt is None:
                raise ValueError("gold records need a target")
            if self.split == "train" and self.lang != "EN":
                raise ValueError("gold training records exist only for EN")


# ---------------------------------------------------------------------------
# Noise

@dataclass(frozen=True)
class NoiseSpec:
    """Student-input noise configuration.

    kind: ``none`` (identity), ``word_delete`` (mask a fraction of words),
    or ``mt_adapter`` (route through a Translator).  The seed is mandatory
    for word deletion.  Noise is fixed per sentence: the same sentence under
    the same spec always yields the same output.
    """

    kind: str
    rate: float = 0.0
    seed: int | None = None
    adapter: "Translator | str | None" = None
    target_lang: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "word_delete", "mt_adapter"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside [0, 1]")
        if self.kind == "word_delete" and self.seed is None:
            raise ValueError("word_delete noise requires a seed")
        if self.kind == "mt_adapter" and self.target_lang not in LANGS:
            raise ValueError(f"mt_adapter target_lang {self.target_lang!r} is not one of {LANGS}")


def _round_half_up(x: Decimal) -> int:
    return int(x.quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def word_delete(sentence: str, rate: float, seed: int) -> str:
    """Mask exactly round(rate * n) words (half away from zero), positions
    uniform without replacement under the seed.  Word count is preserved;
    masking is substitution, not removal."""
    words = sentence.split()
    k = _round_half_up(Decimal(str(rate)) * len(words))
    if k == 0:
        return sentence
    positions = random.Random(seed).sample(range(len(words)), k)
    for p in positions:
        words[p] = MASK
    return " ".join(words)


def noise_each(
    spec: NoiseSpec, sentences: Sequence[str], translator: "Translator | None" = None
) -> list[str | AdapterError]:
    """Each sentence under ``spec``, deterministically, in input order.

    word_delete derives its per-sentence seed from (spec.seed, sentence) so
    repeated sentences noise identically across calls and epochs.
    mt_adapter goes through ``translate_each`` with ``translator`` (else the
    spec's adapter), so a failed sentence gives its AdapterError in place.
    """
    if spec.kind == "none":
        return list(sentences)
    if spec.kind == "word_delete":
        return [word_delete(s, spec.rate, spec.seed + stable_hash(s)) for s in sentences]
    tr = translator or resolve_translator(spec.adapter)
    return translate_each(tr, sentences, "EN", spec.target_lang)


# ---------------------------------------------------------------------------
# Translation adapters

class Translator(Protocol):
    def translate(self, text: str, src_lang: str, tgt_lang: str) -> str: ...


class StubTranslator:
    """Deterministic pseudo-translator for hermetic runs.

    Forward translation tags each word with the target language; back
    translation strips the tag.  A per-word hash marks ``corrupt_pct`` per
    cent of words as lossy, so back-translations differ from the original
    in a reproducible way and the consistency filter has a real signal.
    """

    def __init__(self, corrupt_pct: int = 10):
        if not 0 <= corrupt_pct <= 100:
            raise ValueError("corrupt_pct must be in [0, 100]")
        self.corrupt_pct = corrupt_pct

    def translate(self, text: str, src_lang: str, tgt_lang: str) -> str:
        out = []
        for word in text.split():
            if src_lang != "EN" and word.endswith(f"~{src_lang.lower()}"):
                word = word[: -(len(src_lang) + 1)]
            if stable_hash(f"{word}|{src_lang}|{tgt_lang}") % 100 < self.corrupt_pct:
                word = word + "'"
            if tgt_lang != "EN":
                word = f"{word}~{tgt_lang.lower()}"
            out.append(word)
        return " ".join(out)


class CommandTranslator:
    """External adapter: runs ``cmd SRC TGT``, which translates each stdin
    line on its own into one stdout line.  Configure via the
    AMRKIT_ADAPTER_CMD environment variable or a NoiseSpec adapter string.

    ``translate`` starts one process per text.  ``translate_batch`` sends up
    to ``ADAPTER_CHUNK`` texts to one process and retries a chunk text by
    text through ``translate`` when its process fails, times out or answers
    with another number of lines or with a carriage return, or when a text
    of the chunk holds a line break, so its results always equal per-text
    ``translate``.
    """

    def __init__(self, cmd: str):
        self.cmd = cmd

    def _run(self, texts: Sequence[str], src_lang: str, tgt_lang: str) -> list[str]:
        """The adapter's stdout lines for ``texts``, split at ``\\n`` (and
        ``\\r\\n``) only: unlike a text-mode pipe, a lone ``\\r`` stays in
        its line, so ``translate_batch`` can tell it from a line break."""
        argv = shlex.split(self.cmd) + [src_lang, tgt_lang]
        enc = locale.getpreferredencoding(False)  # what a text-mode pipe uses
        try:
            proc = subprocess.run(
                argv, input="".join(t + "\n" for t in texts).encode(enc), capture_output=True,
                timeout=60 * len(texts),
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise AdapterError(f"adapter {self.cmd!r} failed: {exc}") from exc
        if proc.returncode != 0:
            raise AdapterError(
                f"adapter {self.cmd!r} exited {proc.returncode}: {proc.stderr.decode(enc).strip()}"
            )
        return split_lines(proc.stdout.decode(enc))

    def translate(self, text: str, src_lang: str, tgt_lang: str) -> str:
        """The adapter's first output line for ``text``, stripped.  The line
        ends at its first carriage return, as a text-mode pipe would have
        split it there: ``head\\rtail`` gives ``head``, and a warning names
        the number of characters dropped.  A text holding a line break
        reaches the adapter as several lines; only the first output line is
        kept, and a warning names the number of output lines dropped."""
        out = self._run([text], src_lang, tgt_lang)
        if not out:
            raise AdapterError(f"adapter {self.cmd!r} produced no output")
        if len(out) > 1:
            log.warning("adapter %r: dropped %d output line(s) after the first",
                        self.cmd, len(out) - 1)
        line = out[0].split("\r")[0]
        if len(line) < len(out[0]):
            log.warning("adapter %r: dropped %d characters from the first carriage return on",
                        self.cmd, len(out[0]) - len(line))
        return line.strip()

    def translate_batch(
        self, texts: Sequence[str], src_lang: str, tgt_lang: str
    ) -> list[str | AdapterError]:
        """Each text's translation, or the AdapterError its own ``translate``
        call raised."""
        results: list[str | AdapterError] = []
        for start in range(0, len(texts), ADAPTER_CHUNK):
            chunk = texts[start : start + ADAPTER_CHUNK]
            out: list[str] = []
            if not any("\n" in t or "\r" in t for t in chunk):
                try:
                    out = self._run(chunk, src_lang, tgt_lang)
                except AdapterError:
                    pass
            if len(out) == len(chunk) and not any("\r" in line for line in out):
                results.extend(line.strip() for line in out)
            else:
                results.extend(_translate_or_error(self, t, src_lang, tgt_lang) for t in chunk)
        return results


def _translate_or_error(
    tr: Translator, text: str, src_lang: str, tgt_lang: str
) -> str | AdapterError:
    try:
        return tr.translate(text, src_lang, tgt_lang)
    except AdapterError as exc:
        return exc


def translate_each(
    tr: Translator, texts: Sequence[str], src_lang: str, tgt_lang: str
) -> list[str | AdapterError]:
    """Each text's translation, or the AdapterError that translating it
    raised: through ``tr.translate_batch`` when the translator has one,
    else one ``tr.translate`` call per text."""
    batch = getattr(tr, "translate_batch", None)
    if batch is not None:
        return batch(texts, src_lang, tgt_lang)
    return [_translate_or_error(tr, t, src_lang, tgt_lang) for t in texts]


def resolve_translator(adapter: "Translator | str | None" = None) -> Translator:
    """Pick the configured adapter: an explicit object or command string, the
    AMRKIT_ADAPTER_CMD environment command, else the hermetic stub."""
    if adapter is not None and not isinstance(adapter, str):
        return adapter
    cmd = adapter or os.environ.get(ADAPTER_CMD_ENV)
    if cmd:
        return CommandTranslator(cmd)
    return StubTranslator()


# ---------------------------------------------------------------------------
# Embeddings and the back-translation consistency filter

class EmbeddingProvider(Protocol):
    def embed(self, sentence: str, lang: str) -> np.ndarray: ...


class HashEmbedding:
    """Deterministic sentence embeddings: the normalized sum of per-word
    pseudo-random unit vectors, language-agnostic so that a perfect back
    translation embeds identically to its source."""

    def __init__(self):
        self._cache: dict[str, np.ndarray] = {}
        # One generator reseeded per new word: building a RandomState costs
        # far more than seeding one.
        self._rng = np.random.RandomState(0)

    def _word_vec(self, word: str) -> np.ndarray:
        vec = self._cache.get(word)
        if vec is None:
            self._rng.seed(stable_hash(word) & 0x7FFFFFFF)
            vec = self._rng.standard_normal(_EMBED_DIM)
            vec /= np.linalg.norm(vec)
            self._cache[word] = vec
        return vec

    def embed(self, sentence: str, lang: str) -> np.ndarray:
        words = sentence.split()
        if not words:
            return np.zeros(_EMBED_DIM)
        return np.sum([self._word_vec(w) for w in words], axis=0)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def bt_filter(
    records: Sequence[CorpusRecord],
    provider: EmbeddingProvider,
    translator: Translator | None = None,
    threshold: float = 0.85,
    jobs: int = 1,
) -> tuple[list[CorpusRecord], list[CorpusRecord]]:
    """Back-translation consistency check.

    Each record's foreign source is translated back to English and compared
    with the retained original (``meta['src_en']``) by embedding cosine;
    records scoring >= threshold are kept.  The sources of each language go
    to the translator together, through ``translate_each``.  Kept and
    dropped partition the input in order; adapter failures drop the record
    with the reason logged, never abort the batch.  ``jobs`` must be 1; it
    remains for callers written when records could be filtered on several
    threads.  The shipped default threshold (0.85) is a configuration
    default, not a calibrated value.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs!r}")
    tr = translator or resolve_translator()
    by_lang: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        if rec.meta.get("src_en") is not None:
            by_lang.setdefault(rec.lang, []).append(i)
    back: dict[int, str | AdapterError] = {}
    for lang, idx in by_lang.items():
        back.update(zip(idx, translate_each(tr, [records[i].src for i in idx], lang, "EN")))

    kept: list[CorpusRecord] = []
    dropped: list[CorpusRecord] = []
    for i, rec in enumerate(records):
        src_en = rec.meta.get("src_en")
        if src_en is None:
            log.warning("record %s: no src_en metadata; dropped", rec.id)
            dropped.append(rec)
        elif isinstance(back[i], AdapterError):
            log.warning("record %s: %s; dropped", rec.id, back[i])
            dropped.append(rec)
        else:
            quality = cosine(provider.embed(src_en, "EN"), provider.embed(back[i], "EN"))
            rec = replace(rec, quality=quality)
            (kept if quality >= threshold else dropped).append(rec)
    return kept, dropped


# ---------------------------------------------------------------------------
# Vocabulary augmentation

def _is_frame(token: str) -> bool:
    # frame names look like want-01: a two-digit sense suffix
    return (
        len(token) > 3
        and token[-3] == "-"
        and token[-2:].isdigit()
        and not token.startswith(":")
        and not token.startswith('"')
    )


def augment_vocab(records: Iterable[CorpusRecord], min_count: int = 5) -> list[str]:
    """Relation labels and frame names occurring at least ``min_count`` times
    in the given records' targets, most frequent first, ties lexicographic."""
    freq: dict[str, int] = {}
    for rec in records:
        for tok in rec.tgt or ():
            if (tok.startswith(":") and len(tok) > 1) or _is_frame(tok):
                freq[tok] = freq.get(tok, 0) + 1
    chosen = [t for t, c in freq.items() if c >= min_count]
    chosen.sort(key=lambda t: (-freq[t], t))
    return chosen


# ---------------------------------------------------------------------------
# Corpus bookkeeping

_LANG_NAMES = {
    "EN": "English(EN)",
    "DE": "German(DE)",
    "ES": "Spanish(ES)",
    "IT": "Italian(IT)",
    "ZH": "Chinese(ZH)",
}


@dataclass(frozen=True)
class CorpusStats:
    counts: dict[tuple[str, str], int]

    def count(self, lang: str, split: str) -> int:
        return self.counts.get((lang, split), 0)

    def to_dict(self) -> dict:
        return {
            lang: {split: self.count(lang, split) for split in _SPLITS}
            for lang in LANGS
        }

    def cell(self, lang: str, split: str) -> str:
        """Formatted count with the gold-quality marker ``*`` on EN rows and
        on every test column."""
        mark = "*" if lang == "EN" or split == "test" else ""
        return f"{self.count(lang, split):,}{mark}"

    def render(self) -> str:
        header = f"{'Language':<14}{'Train':>10}{'Dev':>9}{'Test':>9}"
        lines = [header]
        for lang in LANGS:
            cells = [self.cell(lang, s) for s in _SPLITS]
            lines.append(
                f"{_LANG_NAMES[lang]:<14}{cells[0]:>10}{cells[1]:>9}{cells[2]:>9}"
            )
        return "\n".join(lines)


def corpus_stats(records: Iterable[CorpusRecord]) -> CorpusStats:
    counts: dict[tuple[str, str], int] = {}
    for rec in records:
        key = (rec.lang, rec.split)
        counts[key] = counts.get(key, 0) + 1
    return CorpusStats(counts)


# ---------------------------------------------------------------------------
# JSONL corpus format

def record_to_json(rec: CorpusRecord) -> dict:
    return {
        "id": rec.id,
        "lang": rec.lang,
        "split": rec.split,
        "src": rec.src,
        "tgt": to_line(list(rec.tgt)) if rec.tgt is not None else None,
        "provenance": rec.provenance,
        "quality": rec.quality,
        "meta": rec.meta,
    }


def record_from_json(obj: dict) -> CorpusRecord:
    """Inverse of ``record_to_json``: the record an object with ``id``,
    ``lang`` and ``src`` (``split`` defaults to train, ``provenance`` to
    gold) describes, its ``tgt`` string read by ``from_line`` and a null
    ``meta`` taken as ``{}``.  Raises ValueError on anything but an object
    with those three keys, and on whatever ``CorpusRecord`` rejects."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for key in ("id", "lang", "src"):
        if key not in obj:
            raise ValueError(f"record has no {key!r} field")
    tgt, meta = obj.get("tgt"), obj.get("meta")
    return CorpusRecord(
        id=obj["id"],
        lang=obj["lang"],
        split=obj.get("split", "train"),
        src=obj["src"],
        tgt=tuple(from_line(tgt)) if isinstance(tgt, str) else tgt,
        provenance=obj.get("provenance", "gold"),
        quality=obj.get("quality"),
        meta={} if meta is None else meta,
    )


def write_corpus_jsonl(path: str, records: Iterable[CorpusRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_json(rec), ensure_ascii=False) + "\n")


def read_corpus_jsonl(path: str) -> list[CorpusRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    records.append(record_from_json(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return records
