import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amrkit.linearize import from_line
from amrkit.pipeline import (
    LANGS,
    AdapterError,
    CorpusRecord,
    HashEmbedding,
    MASK,
    MAX_META_DEPTH,
    NoiseSpec,
    StubTranslator,
    augment_vocab,
    bt_filter,
    corpus_stats,
    cosine,
    noise_each,
    read_corpus_jsonl,
    word_delete,
    write_corpus_jsonl,
)
from amrkit.seqmodel import stable_hash

from .helpers import adapter_runs, counting_adapter


def expected_mask_count(rate: float, n: int) -> int:
    # independent oracle: exact rational arithmetic, half away from zero
    x = Fraction(str(rate)) * n
    return int(x + Fraction(1, 2)) if x >= 0 else -int(-x + Fraction(1, 2))


class TestWordDelete:
    def test_rate_zero_identity(self):
        assert word_delete("the boy wants to go", 0.0, 7) == "the boy wants to go"

    def test_exact_count_ten_words_twenty_percent(self):
        sent = " ".join(f"w{i}" for i in range(10))
        out = word_delete(sent, 0.2, 3)
        assert out.split().count(MASK) == 2

    def test_deterministic_under_seed(self):
        sent = "a b c d e f g h"
        assert word_delete(sent, 0.25, 11) == word_delete(sent, 0.25, 11)

    def test_word_count_preserved(self):
        sent = " ".join(f"w{i}" for i in range(17))
        for rate in (0.1, 0.3, 0.9, 1.0):
            assert len(word_delete(sent, rate, 5).split()) == 17

    def test_rounding_half_away_from_zero(self):
        # 0.15 * 10 = 1.5 rounds to 2, despite float representation
        sent = " ".join(f"w{i}" for i in range(10))
        assert word_delete(sent, 0.15, 1).split().count(MASK) == 2
        # 0.25 * 6 = 1.5 rounds to 2
        sent6 = " ".join(f"w{i}" for i in range(6))
        assert word_delete(sent6, 0.25, 1).split().count(MASK) == 2

    @pytest.mark.parametrize("rate", [0.10, 0.15, 0.20, 0.25, 0.30])
    @pytest.mark.parametrize("n", [1, 3, 7, 10, 23])
    def test_mask_count_matches_rational_oracle(self, rate, n):
        sent = " ".join(f"w{i}" for i in range(n))
        out = word_delete(sent, rate, 42)
        assert out.split().count(MASK) == expected_mask_count(rate, n)

    def test_tiny_rate_identity(self):
        assert word_delete("one two three", 0.01, 0) == "one two three"


class TestNoiseSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("bogus")
        with pytest.raises(ValueError):
            NoiseSpec("word_delete", rate=1.5, seed=0)
        with pytest.raises(ValueError):
            NoiseSpec("word_delete", rate=0.2)  # seed mandatory
        with pytest.raises(ValueError):
            NoiseSpec("mt_adapter")  # target lang mandatory
        with pytest.raises(ValueError):
            NoiseSpec("mt_adapter", target_lang="FR")  # not one of LANGS

    def test_apply_none_is_identity(self):
        assert noise_each(NoiseSpec("none"), ["hello world", " a  b "]) == ["hello world", " a  b "]

    def test_apply_word_delete_fixed_per_sentence(self):
        spec = NoiseSpec("word_delete", rate=0.5, seed=9)
        s = "a b c d e f"
        out = noise_each(spec, [s, "g h", s])
        assert out[0] == out[2] == noise_each(spec, [s])[0]
        assert out[0] == word_delete(s, 0.5, 9 + stable_hash(s)) and MASK in out[0]

    def test_apply_mt_uses_translator(self, tmp_path):
        spec = NoiseSpec("mt_adapter", target_lang="IT")
        out = noise_each(spec, ["good day"], translator=StubTranslator(corrupt_pct=0))
        assert out == ["good~it day~it"]
        # a command adapter named by the spec: one process for all lines,
        # and a failing line gives its AdapterError in place
        cmd, log = counting_adapter(tmp_path)
        spec = NoiseSpec("mt_adapter", target_lang="IT", adapter=cmd)
        assert noise_each(spec, ["one", "two", "three"]) == ["one", "two", "three"]
        assert adapter_runs(log) == 1
        out = noise_each(spec, ["one", "bad two", "three"])
        assert out[0] == "one" and out[2] == "three"
        assert isinstance(out[1], AdapterError)


class TestCommandTranslator:
    def test_output_line_keeps_separator_characters(self):
        from amrkit.pipeline import CommandTranslator

        # \x0c and \x1c end a line for str.splitlines, not for the adapter
        tr = CommandTranslator("python3 -c \"print(input())\"")
        assert tr.translate("a\x0cb\x1cc", "EN", "DE") == "a\x0cb\x1cc"
        # a one-line adapter answers a chunk with one line: retried per text
        assert tr.translate_batch(["a\x0cb", "c\x1cd"], "EN", "DE") == ["a\x0cb", "c\x1cd"]

    def test_external_command_adapter(self):
        from amrkit.pipeline import CommandTranslator

        # echo-style adapter: uppercases stdin and appends the language pair
        cmd = (
            "python3 -c \"import sys; langs = sys.argv[1:]; "
            "print(sys.stdin.readline().strip().upper() + ' ' + '-'.join(langs))\""
        )
        tr = CommandTranslator(cmd)
        assert tr.translate("hello", "EN", "DE") == "HELLO EN-DE"
        assert tr.translate_batch(["hello", "bye"], "EN", "DE") == ["HELLO EN-DE", "BYE EN-DE"]

    def test_failing_command_raises_adapter_error(self):
        from amrkit.pipeline import CommandTranslator

        tr = CommandTranslator("python3 -c \"import sys; sys.exit(3)\"")
        with pytest.raises(AdapterError):
            tr.translate("x", "EN", "DE")
        out = tr.translate_batch(["x", "y"], "EN", "DE")
        assert all(isinstance(o, AdapterError) for o in out)

    def test_batch_starts_one_process_per_chunk(self, tmp_path):
        from amrkit.pipeline import ADAPTER_CHUNK, CommandTranslator

        cmd, log = counting_adapter(tmp_path)
        tr = CommandTranslator(cmd)
        texts = [f"text {i}" for i in range(300)]
        out = tr.translate_batch(texts, "EN", "DE")
        assert adapter_runs(log) == math.ceil(300 / ADAPTER_CHUNK)
        assert out == [tr.translate(t, "EN", "DE") for t in texts]

    @pytest.mark.parametrize(
        "case, second, expected",
        [
            pytest.param("line break", "two\nlines", "two", id="line break"),
            pytest.param("dropped line", "two", "two", id="dropped line"),
            pytest.param("carriage return", "carriage two", "carriage two", id="carriage return"),
            pytest.param("failing line", "bad two", AdapterError, id="failing line"),
        ],
    )
    def test_batch_falls_back_text_by_text(self, tmp_path, caplog, case, second, expected):
        from amrkit.pipeline import CommandTranslator

        cmd, log = counting_adapter(tmp_path, drop_second=case == "dropped line")
        tr = CommandTranslator(cmd)
        out = tr.translate_batch(["one", second, "three"], "EN", "DE")
        # one process per text, after the chunk's own unless a text breaks the line
        assert adapter_runs(log) == (3 if case == "line break" else 4)
        assert out[0] == "one" and out[2] == "three"
        if expected is AdapterError:
            assert isinstance(out[1], AdapterError)
        else:
            assert out[1] == expected == tr.translate(second, "EN", "DE")
        # the adapter answers "carriage two\rtail": the five characters "\rtail" go
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        if case == "carriage return":
            assert warnings == [f"adapter {cmd!r}: dropped 5 characters from the first "
                                "carriage return on"] * 2
        elif case == "line break":
            # "two\nlines" reaches the adapter as two lines: "lines" goes
            assert warnings == [f"adapter {cmd!r}: dropped 1 output line(s) after the first"] * 2
        else:
            assert warnings == []

    def test_env_variable_selects_command(self, monkeypatch):
        from amrkit.pipeline import ADAPTER_CMD_ENV, CommandTranslator, resolve_translator

        monkeypatch.setenv(ADAPTER_CMD_ENV, "python3 -c \"print(input())\"")
        tr = resolve_translator()
        assert isinstance(tr, CommandTranslator)
        assert tr.translate("pass through", "EN", "IT") == "pass through"

    def test_stub_is_default(self, monkeypatch):
        from amrkit.pipeline import ADAPTER_CMD_ENV, resolve_translator

        monkeypatch.delenv(ADAPTER_CMD_ENV, raising=False)
        assert isinstance(resolve_translator(), StubTranslator)


class TestStubTranslator:
    def test_deterministic(self):
        tr = StubTranslator()
        assert tr.translate("hello there", "EN", "DE") == tr.translate("hello there", "EN", "DE")

    def test_clean_round_trip_without_corruption(self):
        tr = StubTranslator(corrupt_pct=0)
        fwd = tr.translate("the boy wants", "EN", "ES")
        assert tr.translate(fwd, "ES", "EN") == "the boy wants"

    def test_corruption_changes_some_words(self):
        tr = StubTranslator(corrupt_pct=100)
        fwd = tr.translate("alpha beta", "EN", "DE")
        back = tr.translate(fwd, "DE", "EN")
        assert back != "alpha beta"


class TestEmbeddings:
    def test_pure(self):
        emb = HashEmbedding()
        a = emb.embed("the boy", "EN")
        b = emb.embed("the boy", "EN")
        assert np.array_equal(a, b)

    def test_cosine_bounds_and_self(self):
        emb = HashEmbedding()
        v = emb.embed("a b c", "EN")
        assert cosine(v, v) == pytest.approx(1.0)
        rng = np.random.RandomState(0)
        for _ in range(50):
            x, y = rng.standard_normal(8), rng.standard_normal(8)
            assert -1.0 <= cosine(x, y) <= 1.0

    def test_zero_vector_cosine(self):
        assert cosine(np.zeros(4), np.ones(4)) == 0.0


def _foreign_record(i: int, src: str, src_en: str) -> CorpusRecord:
    return CorpusRecord(
        id=f"r{i}",
        lang="DE",
        split="train",
        src=src,
        tgt=("(", "<V0>", "thing", ")"),
        provenance="silver-mt",
        meta={"src_en": src_en},
    )


class TestBtFilter:
    def test_perfect_round_trip_kept_with_quality_one(self):
        tr = StubTranslator(corrupt_pct=0)
        records = [
            _foreign_record(i, tr.translate(f"sentence {i} here", "EN", "DE"), f"sentence {i} here")
            for i in range(5)
        ]
        kept, dropped = bt_filter(records, HashEmbedding(), tr, threshold=0.99)
        assert len(kept) == 5 and not dropped
        assert all(r.quality == pytest.approx(1.0) for r in kept)

    def test_partition_and_threshold(self):
        class FixedProvider:
            def __init__(self):
                self.calls = 0

            def embed(self, sentence, lang):
                # original and back-translation get orthogonal vectors
                v = np.zeros(2)
                v[hash_mod(sentence)] = 1.0
                return v

        def hash_mod(s):
            return 0 if s.startswith("orig") else 1

        records = [_foreign_record(0, "src~de", "orig text")]
        kept, dropped = bt_filter(records, FixedProvider(), StubTranslator(0), threshold=0.5)
        assert not kept and len(dropped) == 1
        assert dropped[0].quality == pytest.approx(0.0)

    def test_threshold_monotonicity_on_random_vectors(self):
        rng = np.random.RandomState(5)

        class RandomProvider:
            def embed(self, sentence, lang):
                return np.random.RandomState(abs(hash(sentence)) % 2**31).standard_normal(6)

        tr = StubTranslator(corrupt_pct=30)
        records = [
            _foreign_record(i, tr.translate(f"text number {i} ok", "EN", "DE"), f"text number {i} ok")
            for i in range(40)
        ]
        provider = RandomProvider()
        kept_low, _ = bt_filter(records, provider, tr, threshold=0.2)
        kept_high, _ = bt_filter(records, provider, tr, threshold=0.6)
        ids_low = {r.id for r in kept_low}
        ids_high = {r.id for r in kept_high}
        assert ids_high <= ids_low

    def test_missing_src_en_dropped(self):
        rec = CorpusRecord("x", "DE", "train", "etwas", provenance="silver-mt")
        kept, dropped = bt_filter([rec], HashEmbedding(), StubTranslator(0))
        assert not kept and dropped == [rec]

    def test_adapter_failure_drops_record_not_batch(self, tmp_path):
        from amrkit.pipeline import CommandTranslator

        class Failing:
            def translate(self, text, src_lang, tgt_lang):
                if "bad" in text:
                    raise AdapterError("boom")
                return text

        records = [
            _foreign_record(0, "eins", "eins"),
            replace(_foreign_record(1, "bad zwei", "bad zwei"), lang="IT"),
            replace(_foreign_record(2, "drei", "drei"), lang="IT"),
            _foreign_record(3, "vier", "vier"),
            _foreign_record(4, "fuenf", "fuenf"),
        ]
        cmd, log = counting_adapter(tmp_path)
        for tr in (Failing(), CommandTranslator(cmd)):
            kept, dropped = bt_filter(records, HashEmbedding(), tr, threshold=0.5)
            assert [r.id for r in kept] == ["r0", "r2", "r3", "r4"]
            assert [r.id for r in dropped] == ["r1"]
        # DE's three records in one process; IT's failed chunk, then each of its two
        assert adapter_runs(log) == 4

    def test_jobs_other_than_one_rejected(self):
        with pytest.raises(ValueError):
            bt_filter([], HashEmbedding(), StubTranslator(), jobs=2)


def _gold_record(i: int, tokens) -> CorpusRecord:
    return CorpusRecord(
        id=f"g{i}", lang="EN", split="train", src=f"sentence {i}", tgt=tuple(tokens)
    )


class TestAugmentVocab:
    def test_frequency_threshold(self):
        records = [_gold_record(i, [":ARG0", "want-01"]) for i in range(7)]
        records += [_gold_record(100 + i, [":ARG9"]) for i in range(2)]
        out = augment_vocab(records, min_count=5)
        assert ":ARG0" in out and "want-01" in out
        assert ":ARG9" not in out

    def test_empty_corpus(self):
        assert augment_vocab([]) == []

    def test_boundary_is_inclusive(self):
        at5 = [_gold_record(i, ["want-01"]) for i in range(5)]
        at4 = [_gold_record(10 + i, ["go-02"]) for i in range(4)]
        out = augment_vocab(at5 + at4, min_count=5)
        assert out == ["want-01"]

    def test_plain_concepts_and_junk_excluded(self):
        records = [_gold_record(i, ["boy", "(", ")", "<V0>", '"x-01"']) for i in range(9)]
        assert augment_vocab(records, min_count=5) == []

    def test_ordering_frequency_then_lexicographic(self):
        records = [_gold_record(i, [":b", ":a"]) for i in range(6)]
        records += [_gold_record(50 + i, [":c"]) for i in range(8)]
        assert augment_vocab(records, min_count=5) == [":c", ":a", ":b"]

    def test_no_duplicates(self):
        records = [_gold_record(i, [":op1", ":op1", ":op1"]) for i in range(3)]
        out = augment_vocab(records, min_count=5)
        assert out == [":op1"] and len(set(out)) == len(out)


class TestCorpusRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorpusRecord("x", "FR", "train", "le chat")
        with pytest.raises(ValueError):
            CorpusRecord("x", "EN", "train", "hi", tgt=("a",), provenance="bronze")
        with pytest.raises(ValueError):
            CorpusRecord("x", "EN", "train", "hi", tgt=("a",), quality=2.0)
        with pytest.raises(ValueError):
            CorpusRecord("x", "EN", "train", "hi")  # gold needs a target
        with pytest.raises(ValueError):
            CorpusRecord("x", "DE", "train", "hallo", tgt=("a",), provenance="gold")
        with pytest.raises(ValueError, match="unknown split 'valid'"):
            CorpusRecord("x", "EN", "valid", "hi", tgt=("a",))

    @pytest.mark.parametrize("field, message", [
        ({"quality": True}, "record field 'quality' has type bool"),
        ({"id": 5}, "record field 'id' has type int"),
        ({"meta": {"src_en": 5}}, "record field 'meta.src_en' is not a string"),
        ({"meta": None}, "record field 'meta' has type NoneType"),
        # JSON writes an int key as a string and a tuple as a list, refuses a
        # set part-way through a file, and writes NaN, which is not JSON
        ({"meta": {1: "x"}}, "record field 'meta' has a key of type int"),
        ({"meta": {"k": (1, 2)}}, "record field 'meta' holds a value of type tuple"),
        ({"meta": {"k": {1, 2}}}, "record field 'meta' holds a value of type set"),
        ({"meta": {"q": math.nan}}, "record field 'meta' holds the non-finite number nan"),
        ({"meta": {"k": [1, {"q": -math.inf}]}},
         "record field 'meta' holds the non-finite number -inf"),
        ({"tgt": ["a"]}, "record field 'tgt' has type list"),
        ({"tgt": ("a", 1)}, "record field 'tgt' holds a token that is not a string"),
        ({"tgt": ("a b", "")}, "record field 'tgt' does not read back from its line form"),
        ({"tgt": ('"a', "b")}, "record field 'tgt' does not read back from its line form"),
    ], ids=repr)
    def test_rejects_what_would_not_read_back(self, field, message):
        # the writer would write each of these, and the reader refuse it or
        # read it back changed
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CorpusRecord(**{"id": "x", "lang": "EN", "split": "train", "src": "hi",
                            "tgt": ("a",), **field})

    def test_meta_holding_itself_is_rejected(self):
        meta = {"k": []}
        meta["k"].append(meta)
        with pytest.raises(ValueError, match="^record field 'meta' holds itself$"):
            CorpusRecord("x", "EN", "train", "hi", tgt=("a",), meta=meta)
        # a value held twice, not inside itself, is JSON data
        shared = [1]
        CorpusRecord("x", "EN", "train", "hi", tgt=("a",), meta={"a": shared, "b": [shared]})

    @staticmethod
    def _nested(depth: int) -> dict:
        """A meta of ``depth`` lists and dicts on its one path: itself, then lists."""
        inner: list = []
        for _ in range(depth - 2):
            inner = [inner]
        return {"k": inner}

    def test_meta_depth_is_bounded(self, tmp_path):
        # json.dumps raises RecursionError part-way through a file on a meta
        # nested about 1,000 deep, and json.loads could not read it back
        at_bound = CorpusRecord("x", "EN", "train", "hi", tgt=("a",), meta=self._nested(MAX_META_DEPTH))
        path = str(tmp_path / "deep.jsonl")
        write_corpus_jsonl(path, [at_bound])
        assert read_corpus_jsonl(path) == [at_bound]
        message = f"^record field 'meta' is nested more than {MAX_META_DEPTH} deep$"
        for depth in (MAX_META_DEPTH + 1, 100_000):
            with pytest.raises(ValueError, match=message):
                CorpusRecord("x", "EN", "train", "hi", tgt=("a",), meta=self._nested(depth))
        with pytest.raises(ValueError, match=message):
            CorpusRecord("x", "EN", "train", "hi", tgt=("a",),
                         meta={"a": [1, 2], "b": self._nested(MAX_META_DEPTH)})
        # the reader names the file and line of a record nested too deep
        line = {"id": "x", "lang": "EN", "src": "hi", "tgt": "a", "meta": self._nested(MAX_META_DEPTH + 1)}
        with open(path, "w") as fh:
            fh.write(json.dumps(line) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:1: {message[1:]}"):
            read_corpus_jsonl(path)

    @staticmethod
    def _holding_itself_at_the_bound() -> dict:
        """A meta whose innermost list, ``MAX_META_DEPTH`` deep, holds meta."""
        meta = TestCorpusRecord._nested(MAX_META_DEPTH)
        inner = meta["k"]
        while inner:
            inner = inner[0]
        inner.append(meta)
        return meta

    @staticmethod
    def _holding_itself_then_nan() -> dict:
        meta = {"a": [], "b": math.nan}
        meta["a"].append(meta)
        return meta

    @pytest.mark.parametrize("build, message", [
        (lambda: {"a": [math.nan], "b": (1,)}, "holds the non-finite number nan"),
        (lambda: {"a": (1,), 1: "x"}, "has a key of type int"),
        (lambda: {"a": {"x": math.inf, 2: "y"}, "b": {3}}, "has a key of type int"),
        (lambda: {"a": [math.inf, {1: 2}]}, "holds the non-finite number inf"),
        (lambda: {"a": [[[{1: 0}]]], "b": {2: 0}}, "has a key of type int"),
        (lambda: {"a": [1, [2, [b"x"]]], "b": math.nan}, "holds a value of type bytes"),
        (lambda: {"a": TestCorpusRecord._nested(MAX_META_DEPTH + 1), "b": math.nan},
         f"is nested more than {MAX_META_DEPTH} deep"),
        (lambda: {"a": math.nan, "b": TestCorpusRecord._nested(MAX_META_DEPTH + 1)},
         "holds the non-finite number nan"),
        (_holding_itself_then_nan, "holds itself"),
        # the containers on the path are checked before the depth bound
        (_holding_itself_at_the_bound, "holds itself"),
    ], ids=["nan-before-tuple", "key-before-value", "inner-key-before-inner-value",
            "value-before-later-key", "deep-key-first", "deep-type-first", "depth-first",
            "nan-before-depth", "itself-before-nan", "itself-before-depth"])
    def test_meta_names_its_first_fault_depth_first(self, build, message):
        # a dict's keys, then each value whole before the next
        with pytest.raises(ValueError, match=f"^record field 'meta' {re.escape(message)}$"):
            CorpusRecord("x", "EN", "train", "hi", tgt=("a",), meta=build())

    def test_types_are_checked_before_values(self):
        # in field order, then meta's contents and meta.src_en, then the values
        with pytest.raises(ValueError, match="'id' has type int"):
            CorpusRecord(5, "FR", "train", "hi", quality=True)
        with pytest.raises(ValueError, match="'quality' has type bool"):
            CorpusRecord("x", "FR", "train", "hi", quality=True, meta={"src_en": 5})
        with pytest.raises(ValueError, match="'meta' holds a value of type tuple"):
            CorpusRecord("x", "FR", "train", "hi", tgt=("a b",), meta={"src_en": (5,)})
        with pytest.raises(ValueError, match="'meta.src_en' is not a string"):
            CorpusRecord("x", "FR", "train", "hi", tgt=("a b",), meta={"src_en": 5})

    def test_foreign_gold_test_records_allowed(self):
        rec = CorpusRecord("x", "DE", "test", "hallo", tgt=("a",), provenance="gold")
        assert rec.lang == "DE"


class TestCorpusStats:
    def test_empty(self):
        stats = corpus_stats([])
        assert all(v == 0 for row in stats.to_dict().values() for v in row.values())

    def test_small_counts(self):
        records = [
            CorpusRecord("1", "EN", "train", "a", tgt=("x",)),
            CorpusRecord("2", "EN", "train", "b", tgt=("x",)),
            CorpusRecord("3", "DE", "dev", "c", provenance="silver-mt"),
        ]
        stats = corpus_stats(records)
        assert stats.count("EN", "train") == 2
        assert stats.count("DE", "dev") == 1
        assert stats.count("ZH", "test") == 0

    def test_gold_markers_on_en_rows_and_test_columns(self):
        records = [
            CorpusRecord("1", "EN", "train", "a", tgt=("x",)),
            CorpusRecord("2", "DE", "train", "b", provenance="silver-mt"),
            CorpusRecord("3", "DE", "test", "c", tgt=("x",), provenance="gold"),
        ]
        stats = corpus_stats(records)
        assert stats.cell("EN", "train") == "1*"
        assert stats.cell("DE", "train") == "1"
        assert stats.cell("DE", "test") == "1*"

    def test_render_layout(self):
        stats = corpus_stats([CorpusRecord("1", "EN", "train", "a", tgt=("x",))])
        table = stats.render()
        assert table.splitlines()[0].split() == ["Language", "Train", "Dev", "Test"]
        assert "English(EN)" in table and "Chinese(ZH)" in table


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
# values JSON writes changed, or not at all, inside a JSON value
_NOT_JSON = st.recursive(
    st.floats() | st.tuples(st.integers()) | st.frozensets(st.integers(), max_size=2),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(), inner, max_size=2),
    max_leaves=3,
)
# the characters that decide a line form: whitespace, quotes and backslashes
_LINE_CHARS = st.sampled_from('ab()" \\\t\n\u3000\x85:é')
_RECORD_FIELDS = st.fixed_dictionaries({
    "id": st.text(),
    "lang": st.sampled_from(LANGS),
    "split": st.sampled_from(("train", "dev", "test")),
    "src": st.text(),
    # most tuples of random tokens do not survive the line form; every line
    # read by from_line does
    "tgt": st.none() | st.lists(st.text(_LINE_CHARS, max_size=5), max_size=6).map(tuple)
           | st.text(_LINE_CHARS).map(lambda line: tuple(from_line(line))),
    "provenance": st.sampled_from(("gold", "silver-mt", "seq-kd")),
    "quality": st.none() | st.floats(-1, 1) | st.sampled_from((True, -1, 0, 1, 2)),
    "meta": st.dictionaries(st.text(), _JSON_VALUES, max_size=3)
            | st.dictionaries(st.text() | st.integers(), _JSON_VALUES | _NOT_JSON, max_size=3)
            | st.fixed_dictionaries({"src_en": st.none() | st.text() | st.integers()}),
})


# the fewest fields of a record that reads
_OBJ = {"id": "x", "lang": "EN", "src": "hi", "tgt": "a"}


class TestJsonl:
    def test_round_trip(self, tmp_path):
        records = [
            CorpusRecord(
                "a1",
                "EN",
                "train",
                "the city of New York",
                tgt=("(", "<V0>", "city", ":name", '"New York"', ")"),
                meta={"note": "x"},
            ),
            CorpusRecord("a2", "ZH", "dev", "mao", provenance="silver-mt", quality=0.5),
        ]
        path = str(tmp_path / "corpus.jsonl")
        write_corpus_jsonl(path, records)
        back = read_corpus_jsonl(path)
        assert back == records

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=_RECORD_FIELDS)
    def test_every_record_the_constructor_accepts_reads_back_equal(self, tmp_path, fields):
        try:
            rec = CorpusRecord(**fields)
        except ValueError:
            return
        path = str(tmp_path / "one.jsonl")
        write_corpus_jsonl(path, [rec])
        assert read_corpus_jsonl(path) == [rec]

    @pytest.mark.parametrize("obj, message", [
        ({**_OBJ, "meta": []}, "record field 'meta' has type list"),
        ({**_OBJ, "meta": 0}, "record field 'meta' has type int"),
        ({**_OBJ, "tgt": ["a"]}, "record field 'tgt' has type list"),
        ({**_OBJ, "split": None}, "record field 'split' has type NoneType"),
        ({**_OBJ, "meta": {"src_en": [1]}}, "record field 'meta.src_en' is not a string"),
        ({**_OBJ, "meta": {"q": math.nan}}, "record field 'meta' holds the non-finite number nan"),
        ({**_OBJ, "tgt": None}, "gold records need a target"),
        (["x"], "expected a JSON object, got list"),
        ({"lang": "EN", "src": "hi"}, "record has no 'id' field"),
    ], ids=repr)
    def test_reader_messages(self, tmp_path, obj, message):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:1: {message}')}$"):
            read_corpus_jsonl(str(path))

    def test_null_meta_reads_as_empty(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({**_OBJ, "meta": None}) + "\n")
        assert read_corpus_jsonl(str(path)) == [CorpusRecord("x", "EN", "train", "hi", tgt=("a",))]
