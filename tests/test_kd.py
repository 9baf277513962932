import json
import logging
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from amrkit.decode import (
    beam_search,
    beam_search_batch,
    complete_sequences,
    exact_mode,
    strip_sentinels,
)
from amrkit.distill import (
    DECODE_CHUNK,
    KdBatch,
    KdRecord,
    SupportMismatch,
    ZeroProbability,
    exact_seq_kl,
    kd_batches_from_corpus,
    mle_loss,
    seq_kd_build,
    token_kd_loss,
    train,
)
from amrkit.errors import TooLarge
from amrkit.linearize import validate_linear
from amrkit.pipeline import MASK, AdapterError, CorpusRecord, NoiseSpec
from amrkit.repair import repair
from amrkit.seqmodel import (
    _SOURCE_CACHE,
    BOS,
    EOS,
    MAX_ORDER,
    SeqModel,
    ToyCondModel,
    _source_hash,
    stable_hash,
)

from .helpers import (
    TOY_VOCAB,
    ScriptedModel,
    counting_adapter,
    deterministic_model,
    random_toy_model,
    reference_beam_search,
    reference_train,
)

V4 = (BOS, EOS, "a", "b")
ALPHA_RULE = r"alpha must be an int or float in \(0, 1e\+300\)"
LINEAR_VOCAB = (BOS, EOS, "(", ")", "<V0>", "<V1>", ":ARG0", "want-01", "boy")


def greedy_rollout(model, src, max_len):
    """Independent oracle for beam_size=1: argmax token per step."""
    out = []
    while True:
        dist = model.next_dist(out, src)
        tok = model.vocab[int(np.argmax(dist))]
        out.append(tok)
        if tok == EOS or len([t for t in out if t != EOS]) == max_len:
            if out[-1] != EOS:
                out.append(EOS)
            return out


class TestToyCondModel:
    def test_distribution_sums_to_one_and_masks_bos(self):
        m = ToyCondModel(V4)
        for prefix in ([], ["a"], ["a", "b"]):
            d = m.next_dist(prefix, ["x"])
            assert d.sum() == pytest.approx(1.0, abs=1e-9)
            assert d[m.index(BOS)] == 0.0
            assert (d >= 0).all()

    def test_depends_only_on_context_window_and_source_bag(self):
        m = ToyCondModel(V4, order=2)
        m.observe(["s"], ["a", EOS])
        assert np.array_equal(m.next_dist(["b", "a"], ["s"]), m.next_dist(["a", "a"], ["s"]))
        # bag of source tokens: order does not matter
        assert np.array_equal(m.next_dist([], ["p", "q"]), m.next_dist([], ["q", "p"]))

    def test_training_only_updates_counts(self):
        m = ToyCondModel(V4, order=2, alpha=0.5)
        before = (m.order, m.alpha, m.buckets, m.vocab)
        m.observe(["s"], ["a", "b", EOS])
        assert (m.order, m.alpha, m.buckets, m.vocab) == before

    def test_save_load_round_trip(self, tmp_path):
        m = ToyCondModel(V4, order=2, alpha=0.25, buckets=16)
        m.observe(["s"], ["a", "b", EOS])
        path = str(tmp_path / "model.json")
        m.save(path)
        back = ToyCondModel.load(path)
        assert back.vocab == m.vocab and back.alpha == m.alpha and back.order == m.order
        for prefix in ([], ["a"]):
            assert np.allclose(back.next_dist(prefix, ["s"]), m.next_dist(prefix, ["s"]))

    def test_alpha_is_read_only(self, tmp_path):
        # the smoothing row is built from alpha once; a settable alpha would
        # let the live model and its saved file disagree
        m = ToyCondModel((BOS, EOS, "a"), alpha=0.25)
        m.observe(["s"], ["a", EOS])
        with pytest.raises(AttributeError):
            m.alpha = 0.5
        assert m.alpha == 0.25
        path = str(tmp_path / "model.json")
        m.save(path)
        back = ToyCondModel.load(path)
        for prefix in ([], ["a"], ["a", "a"]):
            assert back.next_dist(prefix, ["s"]).tobytes() == m.next_dist(prefix, ["s"]).tobytes()

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            ToyCondModel.load(str(path))

    def test_load_rejects_nonzero_bos_counts(self, tmp_path):
        # such a table would give BOS mass, and beam search would decode it
        m = ToyCondModel((BOS, EOS, "a"))
        m.observe(["s"], ["a", EOS])
        path = tmp_path / "model.json"
        m.save(str(path))
        payload = json.loads(path.read_text())
        payload["counts"][0]["ids"].insert(0, m.index(BOS))
        payload["counts"][0]["counts"].insert(0, 50.0)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: counts give '<s>' a nonzero"):
            ToyCondModel.load(str(path))

    @pytest.mark.parametrize("order, keys, message", [
        (2, [(99, [0])], r"counts\[0\] is a row no query reaches \(bucket 99, context \[0\]\)"),
        (3, [(0, [0])], r"counts\[0\] is a row no query reaches \(bucket 0, context \[0\]\)"),
        (3, [(0, "ab")], r"counts\[0\] is a row no query reaches \(bucket 0, context \['a', 'b'\]\)"),
        (3, [(0, [0, 77])], r"counts\[0\] is a row no query reaches \(bucket 0, context \[0, 77\]\)"),
        (3, [(0, [0, 2]), (0, [2, 0])],
         r"counts\[1\] is a row no query reaches \(bucket 0, context \[2, 0\]\)"),
        (2, [(1.0, [2])], r"counts\[0\] is a row no query reaches \(bucket 1.0, context \[2\]\)"),
        (2, [(True, [2])], r"counts\[0\] is a row no query reaches \(bucket True, context \[2\]\)"),
        (2, [(0, [2.0])], r"counts\[0\] is a row no query reaches \(bucket 0, context \[2.0\]\)"),
        (2, [(0, [True])], r"counts\[0\] is a row no query reaches \(bucket 0, context \[True\]\)"),
        (2, [(0, [2]), (1, [2]), (0, [2])], "counts give one key twice"),  # 3 rows would load as 2
        # a list is not hashable, so these must be refused before the table is keyed
        (2, [([0], [2])], r"counts\[0\] is a row no query reaches \(bucket \[0\], context \[2\]\)"),
        (2, [(0, [[2]])], r"counts\[0\] is a row no query reaches \(bucket 0, context \[\[2\]\]\)"),
    ], ids=["bucket-past-buckets", "context-too-short", "context-a-string", "token-id-past-vocab",
            "bos-after-a-token", "float-bucket", "bool-bucket", "float-token-id", "bool-token-id",
            "key-given-twice", "list-bucket", "list-token-id"])
    def test_load_rejects_rows_no_query_reaches(self, tmp_path, order, keys, message):
        # save would write such a table back, and no next_dist would read it
        path = tmp_path / "model.json"
        ToyCondModel(V4, order=order, buckets=4).save(str(path))
        payload = json.loads(path.read_text())
        payload["counts"] = [{"bucket": b, "context": c, "ids": [1, 2], "counts": [1.0, 2.0]}
                             for b, c in keys]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
            ToyCondModel.load(str(path))

    @staticmethod
    def _write_rows(path, rows, **fields):
        """A V4 model file of order 2 and 4 buckets with the given count rows
        and top-level fields."""
        ToyCondModel(V4, order=2, buckets=4).save(str(path))
        payload = json.loads(path.read_text())
        payload.update(fields, counts=rows)
        path.write_text(json.dumps(payload))

    def test_save_writes_only_nonzero_counts(self, tmp_path):
        m = ToyCondModel(V4, order=2, buckets=4)
        m.observe(["s"], ["b", "a", EOS])
        m.add_dist_counts(["b"], ["t"], np.zeros(4))
        path = tmp_path / "model.json"
        m.save(str(path))
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        rows = payload["counts"]
        assert [(r["bucket"], tuple(r["context"])) for r in rows] == list(m.counts)
        # all-zero rows keep their key, in table order
        assert rows[-1]["ids"] == rows[-1]["counts"] == []
        for r, row in zip(rows, m.counts.values()):
            assert r["ids"] == np.flatnonzero(row).tolist()
            assert r["counts"] == row[r["ids"]].tolist()

    def test_load_reads_ids_per_row(self, tmp_path):
        # ids restart in each row; int counts are numbers too
        path = tmp_path / "model.json"
        self._write_rows(path, [{"bucket": 0, "context": [2], "ids": [3], "counts": [2]},
                                {"bucket": 0, "context": [3], "ids": [1, 2], "counts": [0.5, 1e299]},
                                {"bucket": 1, "context": [2], "ids": [], "counts": []}])
        back = ToyCondModel.load(str(path))
        assert list(back.counts) == [(0, (2,)), (0, (3,)), (1, (2,))]
        assert np.array_equal(np.array(list(back.counts.values())),
                              [[0, 0, 0, 2.0], [0, 0.5, 1e299, 0], [0, 0, 0, 0]])

    @pytest.mark.parametrize("ids, counts, message", [
        ([1, 2], [1.0], r'counts\[1\] gives 2 "ids" for 1 "counts"'),
        ([1], [], r'counts\[1\] gives 1 "ids" for 0 "counts"'),
        ([1.0, 2], [1.0, 2.0], r"counts\[1\] has the id 1.0, not an int in \[0, 4\)"),
        ([1, True], [1.0, 2.0], r"counts\[1\] has the id True, not an int in \[0, 4\)"),
        (["1", 2], [1.0, 2.0], r"counts\[1\] has the id '1', not an int in \[0, 4\)"),
        ([-1, 2], [1.0, 2.0], r"counts\[1\] has the id -1, not an int in \[0, 4\)"),
        ([1, 4], [1.0, 2.0], r"counts\[1\] has the id 4, not an int in \[0, 4\)"),
        ([1, 2**70], [1.0, 2.0], rf"counts\[1\] has the id {2**70}, not an int in \[0, 4\)"),
        ([2, 1], [1.0, 2.0], r'counts\[1\] has "ids" that are not strictly ascending'),
        ([1, 2, 2], [1.0, 2.0, 3.0], r'counts\[1\] has "ids" that are not strictly ascending'),
        ("12", [1.0, 2.0], r'malformed counts table \(an "ids" or "counts" that is not a list\)'),
        ([1, 2], {"a": 1.0, "b": 2.0},
         r'malformed counts table \(an "ids" or "counts" that is not a list\)'),
    ], ids=["fewer-counts", "no-counts", "float-id", "bool-id", "string-id", "negative-id",
            "id-past-vocab", "huge-id", "descending-ids", "repeated-id", "ids-a-string",
            "counts-a-dict"])
    def test_load_rejects_bad_ids(self, tmp_path, ids, counts, message):
        # a table load would fill wrongly, or that save would not write back the same
        path = tmp_path / "model.json"
        self._write_rows(path, [{"bucket": 0, "context": [2], "ids": [3], "counts": [1.0]},
                                {"bucket": 0, "context": [3], "ids": ids, "counts": counts}])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
            ToyCondModel.load(str(path))

    @pytest.mark.parametrize("count", [True, False, "2.5", " 3 ", None, [1.0], -1.0, 1e300,
                                       10**400, float("nan"), float("inf")])
    def test_load_accepts_only_json_numbers_as_counts(self, tmp_path, count):
        # numpy would read true, "2.5" and " 3 " as floats, and save write them back changed
        path = tmp_path / "model.json"
        self._write_rows(path, [{"bucket": 0, "context": [2], "ids": [1, 2], "counts": [1.0, count]}])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: counts are not numbers "
                                             r"in \[0, 1e\+300\)$"):
            ToyCondModel.load(str(path))

    @pytest.mark.parametrize("alpha", [True, "0.1", None, 0.0, -1.0, 1e300, float("nan")])
    def test_load_accepts_only_json_numbers_as_alpha(self, tmp_path, alpha):
        path = tmp_path / "model.json"
        self._write_rows(path, [], alpha=alpha)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {ALPHA_RULE}$"):
            ToyCondModel.load(str(path))

    @pytest.mark.parametrize("vocab, alpha, message", [
        ((BOS, EOS, 7), 0.1, "vocabulary token 7 is not a string"),
        (V4, True, ALPHA_RULE),
        (V4, math.inf, ALPHA_RULE),
        (V4, math.nan, ALPHA_RULE),
        (V4, 1e301, ALPHA_RULE),
        (V4, np.int64(1), ALPHA_RULE),  # json cannot write it
    ], ids=["int-token", "bool-alpha", "inf-alpha", "nan-alpha", "huge-alpha", "int64-alpha"])
    def test_constructor_refuses_what_load_would(self, vocab, alpha, message):
        # save would write each of these, and load refuse the file
        with pytest.raises(ValueError, match=f"^{message}$"):
            ToyCondModel(vocab, alpha=alpha)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_constructed_model_saves_and_loads_back(self, tmp_path, data):
        tokens = data.draw(st.lists(st.text().filter(lambda t: t not in (BOS, EOS)),
                                    unique=True, max_size=4))
        vocab = tuple(data.draw(st.permutations([BOS, EOS, *tokens])))
        alpha = data.draw(st.one_of(
            st.integers(1, 10**299),
            st.floats(0, 1e300, exclude_min=True, exclude_max=True),
            st.floats(0, 1e300, exclude_min=True, exclude_max=True).map(np.float64)))
        m = ToyCondModel(vocab, order=data.draw(st.integers(1, MAX_ORDER)), alpha=alpha,
                         buckets=data.draw(st.integers(1, 2**70)))
        sources = st.lists(st.text(max_size=3), max_size=3)
        content = st.lists(st.sampled_from([t for t in vocab if t != BOS]), max_size=3)
        for _ in range(data.draw(st.integers(0, 4))):
            if data.draw(st.booleans()):
                m.observe(data.draw(sources), data.draw(content) + [EOS])
            else:
                weights = np.array(data.draw(st.lists(st.floats(0, 1), min_size=len(vocab),
                                                      max_size=len(vocab))))
                dist = weights / weights.sum() if weights.sum() else weights
                m.add_dist_counts(data.draw(content), data.draw(sources), dist)
        path = str(tmp_path / "model.json")
        m.save(path)
        back = ToyCondModel.load(path)
        assert (back.vocab, back.order, back.alpha, back.buckets) == (m.vocab, m.order, m.alpha, m.buckets)
        assert list(back.counts) == list(m.counts)
        assert all(back.counts[key].tobytes() == row.tobytes() for key, row in m.counts.items())

    def test_load_refuses_version_1(self, tmp_path):
        # the dense rows of the first format: one count per vocabulary entry
        path = tmp_path / "model.json"
        self._write_rows(path, [{"bucket": 0, "context": [2], "counts": [0.0, 1.0, 2.0, 0.0]}],
                         version=1)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unsupported format version 1$"):
            ToyCondModel.load(str(path))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(order=st.integers(1, 3), buckets=st.integers(1, 4), steps=st.lists(
        st.tuples(st.booleans(), st.lists(st.sampled_from(("x", "y", "z")), max_size=3),
                  st.lists(st.sampled_from(("a", "b", EOS)), max_size=4),
                  st.lists(st.floats(0, 10), min_size=4, max_size=4)),
        max_size=6))
    def test_trained_counts_save_and_load_back(self, tmp_path, order, buckets, steps):
        # every row that observe and add_dist_counts make is one a query reaches
        m = ToyCondModel(V4, order=order, alpha=0.5, buckets=buckets)
        for observe, src, tokens, dist in steps:
            if observe:
                m.observe(src, tokens + [EOS])
            else:
                m.add_dist_counts(tokens, src, np.array(dist))
        path = str(tmp_path / "model.json")
        m.save(path)
        back = ToyCondModel.load(path)
        assert list(back.counts) == list(m.counts)
        assert all(type(i) is int for b, ctx in back.counts for i in (b, *ctx))
        assert all(back.counts[key].tobytes() == row.tobytes() for key, row in m.counts.items())

    def test_prefix_may_not_hold_bos(self):
        m = ToyCondModel(V4, order=3)
        for prefix in (["a", BOS], [BOS], ["b", BOS, "a"]):
            with pytest.raises(ValueError, match="^prefix may not contain BOS$"):
                m.next_dist(prefix, ["s"])
        # BOS before the window is never read
        m.next_dist([BOS, "a", "b"], ["s"])

    @pytest.mark.parametrize("target, message", [
        (["a", BOS, EOS], "target sequence may not contain BOS"),
        (["a", "zzz", EOS], "token 'zzz' not in vocabulary"),
        (["a", "b"], "target sequence must end with EOS"),
    ])
    def test_observe_checks_the_whole_target_first(self, target, message):
        m = ToyCondModel(V4, order=2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            m.observe(["s"], target)
        assert not m.counts

    def test_vocab_needs_sentinels(self):
        with pytest.raises(ValueError):
            ToyCondModel(("a", "b"))

    def test_order_one_ignores_prefix(self):
        m = ToyCondModel(V4, order=1)
        m.observe(["s"], ["a", EOS])
        assert np.array_equal(m.next_dist([], ["s"]), m.next_dist(["b", "a"], ["s"]))

    def test_context_reads_only_the_window(self):
        m = ToyCondModel(V4, order=3)
        m.observe(["s"], ["a", "b", EOS])
        # a token outside the vocabulary before the window is never looked up
        assert m.context(["zzz", "a", "b"]) == (m.index("a"), m.index("b"))
        assert np.array_equal(m.next_dist(["zzz", "a", "b"], ["s"]), m.next_dist(["a", "b"], ["s"]))
        assert m.context(["a"]) == (m.index(BOS), m.index("a"))
        with pytest.raises(ValueError, match="'zzz'"):
            m.context(["a", "zzz"])

    def test_parameter_validation(self):
        ToyCondModel(V4, order=MAX_ORDER)
        with pytest.raises(ValueError):
            ToyCondModel(V4, order=MAX_ORDER + 1)
        with pytest.raises(ValueError):
            ToyCondModel(V4, order=0)
        with pytest.raises(ValueError):
            ToyCondModel(V4, alpha=0.0)
        with pytest.raises(ValueError):
            ToyCondModel(V4, buckets=0)
        for bad in (2.5, True, 2.0, "2"):
            with pytest.raises(ValueError):
                ToyCondModel(V4, order=bad)
            with pytest.raises(ValueError):
                ToyCondModel(V4, buckets=bad)


class TestMleLoss:
    def test_uniform_model(self):
        uniform = ScriptedModel(V4, [np.full(4, 0.25)])
        loss = mle_loss(uniform, ["x"], ["a", "b", EOS])
        assert loss == pytest.approx(3 * math.log(4), abs=1e-9)

    def test_certain_model_zero_loss(self):
        m = deterministic_model(V4, ["a", "b"])
        assert mle_loss(m, ["x"], ["a", "b", EOS]) == pytest.approx(0.0, abs=1e-12)

    def test_converged_count_model_hits_smoothing_floor(self):
        m = ToyCondModel(V4, order=2, alpha=0.1)
        n = 400
        for _ in range(n):
            m.observe(["s"], ["a", "b", EOS])
        # each step's context is distinct, so each has n counts on its target
        expected_step = -math.log((n + m.alpha) / (n + m.alpha * (len(V4) - 1)))
        loss = mle_loss(m, ["s"], ["a", "b", EOS])
        assert loss == pytest.approx(3 * expected_step, rel=1e-9)

    def test_zero_probability_reported(self):
        m = deterministic_model(V4, ["a"])
        with pytest.raises(ZeroProbability):
            mle_loss(m, ["x"], ["b", EOS])

    def test_out_of_vocab_target_reported(self):
        m = ToyCondModel(V4)
        with pytest.raises(ZeroProbability):
            mle_loss(m, ["x"], ["zzz", EOS])

    def test_target_must_end_with_eos(self):
        with pytest.raises(ValueError):
            mle_loss(ToyCondModel(V4), ["x"], ["a"])

    @pytest.mark.parametrize("target", [[], ["a"], [EOS, "a"]])
    @pytest.mark.parametrize("call", [
        lambda y: mle_loss(ToyCondModel(V4), ["x"], y),
        lambda y: token_kd_loss(ToyCondModel(V4), ToyCondModel(V4), ["x"], ["x"], y),
        lambda y: ToyCondModel(V4).observe(["x"], y),
    ], ids=["mle_loss", "token_kd_loss", "observe"])
    def test_one_eos_rule(self, call, target):
        with pytest.raises(ValueError) as info:
            call(target)
        assert type(info.value) is ValueError
        assert str(info.value) == "target sequence must end with EOS"

    def test_equals_sum_of_independent_step_scores(self):
        m = random_toy_model(5, ["s"])
        y = ["a", "c", "b", EOS]
        per_step = -sum(
            math.log(m.next_dist(y[:t], ["s"])[m.index(y[t])]) for t in range(len(y))
        )
        assert mle_loss(m, ["s"], y) == pytest.approx(per_step, rel=1e-12)


class TestTokenKdLoss:
    def test_student_equals_teacher_is_zero(self):
        m = random_toy_model(1, ["s"])
        assert token_kd_loss(m, m, ["s"], ["s"], ["a", "b", EOS]) == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_single_step(self):
        vocab = (BOS, EOS, "t")
        student = ScriptedModel(vocab, [np.array([0.0, 0.5, 0.5])])
        teacher = ScriptedModel(vocab, [np.array([0.0, 0.25, 0.75])])
        loss = token_kd_loss(student, teacher, ["x"], ["x*"], [EOS])
        expected = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert loss == pytest.approx(expected, abs=1e-5)
        assert loss == pytest.approx(0.14384, abs=1e-5)

    def test_sum_of_per_step_kls_direct_summation(self):
        student = random_toy_model(2, ["x"])
        teacher = random_toy_model(3, ["y"])
        y = ["b", EOS]
        direct = 0.0
        for t in range(len(y)):
            ps = student.next_dist(y[:t], ["x"])
            pt = teacher.next_dist(y[:t], ["y"])
            direct += sum(
                p * math.log(p / q) for p, q in zip(ps, pt) if p > 0
            )
        got = token_kd_loss(student, teacher, ["x"], ["y"], y)
        assert got == pytest.approx(direct, rel=1e-12)
        assert got >= 0

    def test_support_mismatch_reported(self):
        vocab = (BOS, EOS, "t")
        student = ScriptedModel(vocab, [np.array([0.0, 0.5, 0.5])])
        teacher = ScriptedModel(vocab, [np.array([0.0, 1.0, 0.0])])
        with pytest.raises(SupportMismatch):
            token_kd_loss(student, teacher, ["x"], ["x*"], [EOS])


class TestBeamSearch:
    def test_deterministic_model_single_hypothesis_any_beam(self):
        m = deterministic_model(TOY_VOCAB, ["a", "b", "c"])
        expected = ("a", "b", "c", EOS)
        for beam in (1, 2, 5, 81):
            hyps = beam_search(m, ["x"], beam, 10)
            assert len(hyps) == 1
            assert hyps[0].tokens == expected
            assert hyps[0].log_prob == pytest.approx(0.0, abs=1e-12)

    def test_beam_one_is_greedy(self):
        for seed in range(100):
            m = random_toy_model(seed, ["s"])
            top = beam_search(m, ["s"], 1, 4)[0]
            assert list(top.tokens) == greedy_rollout(m, ["s"], 4)

    def test_saturated_beam_equals_exact_mode(self):
        for seed in range(50):
            m = random_toy_model(seed, ["s"])
            top = beam_search(m, ["s"], 3**4, 4)[0]
            assert list(top.tokens) == exact_mode(m, ["s"], 4)

    def test_results_sorted_descending(self):
        m = random_toy_model(7, ["s"])
        hyps = beam_search(m, ["s"], 5, 4)
        lps = [h.log_prob for h in hyps]
        assert lps == sorted(lps, reverse=True)
        assert all(h.tokens[-1] == EOS for h in hyps)

    def test_log_prob_matches_chain(self):
        m = random_toy_model(9, ["s"])
        for h in beam_search(m, ["s"], 4, 3):
            lp = 0.0
            content = h.tokens[:-1]
            for t, tok in enumerate(h.tokens):
                if t == len(content) and len(content) == 3:
                    break  # forced EOS carries probability one
                lp += math.log(m.next_dist(list(h.tokens[:t]), ["s"])[m.index(tok)])
            assert h.log_prob == pytest.approx(lp, rel=1e-12)

    def test_invalid_args(self):
        m = random_toy_model(0, ["s"])
        with pytest.raises(ValueError):
            beam_search(m, ["s"], 0, 4)
        with pytest.raises(ValueError):
            beam_search(m, ["s"], 1, 0)


def _dist_rows(vocab, draw_weights):
    """A distribution over ``vocab`` with BOS at zero, from the weights."""
    weights = np.array([0 if t == BOS else w for t, w in zip(vocab, draw_weights)], dtype=float)
    if not weights.any():
        weights[vocab.index(EOS)] = 1.0
    return weights / weights.sum()


@st.composite
def _beam_cases(draw):
    vocab = tuple(draw(st.permutations((BOS, EOS) + ("a", "b", "c")[: draw(st.integers(1, 3))])))
    max_len = draw(st.integers(1, 5))
    # small integers give zero entries and exact ties (uniform rows); floats
    # give log values where np.log and math.log can differ in the last bit
    weights = st.lists(st.integers(0, 3) | st.floats(0, 3), min_size=len(vocab), max_size=len(vocab))
    if draw(st.booleans()):
        model = ToyCondModel(vocab, order=draw(st.integers(1, 3)),
                             alpha=draw(st.sampled_from([1e-4, 0.5, 1.0])), buckets=1)
        content = [t for t in vocab if t not in (BOS, EOS)]
        for prefix in draw(st.lists(st.lists(st.sampled_from(content), max_size=3), max_size=8)):
            model.add_dist_counts(prefix, ["s"], np.array(draw(weights), dtype=float))
    else:
        model = ScriptedModel(vocab, [_dist_rows(vocab, draw(weights))
                                      for _ in range(draw(st.integers(1, max_len + 1)))])
    beam = draw(st.integers(1, len(vocab) ** max_len))
    return model, beam, max_len


def _bits(hyps):
    return [(h.tokens, h.log_prob.hex()) for h in hyps]


@st.composite
def _near_cut_cases(draw):
    """Scripted rows over 4-10 tokens whose entries are one of a few values
    p, the float just below p or the float just above p: candidates tie with
    the cut or sit an ulp or two from it.  Rows are left unnormalized (beam
    search ranks any positive entries), and every entry but BOS is positive,
    so with beam < |vocab| - 1 each step ranks by np.log first."""
    vocab = (BOS, EOS) + tuple(f"t{i}" for i in range(draw(st.integers(2, 8))))
    ps = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=3))
    pool = [float(q) for p in ps for q in (p, np.nextafter(p, 0), np.nextafter(p, 1))]
    max_len = draw(st.integers(1, 4))
    rows = [[0.0 if t == BOS else draw(st.sampled_from(pool)) for t in vocab]
            for _ in range(draw(st.integers(1, max_len + 1)))]
    return ScriptedModel(vocab, rows), draw(st.integers(1, len(vocab) - 2)), max_len


class TestBeamParity:
    @given(_beam_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bit_for_bit(self, case):
        model, beam, max_len = case
        assert _bits(beam_search(model, ["s"], beam, max_len)) == _bits(
            reference_beam_search(model, ["s"], beam, max_len)
        )

    def test_matches_reference_on_random_toy_models(self):
        # arbitrary float counts over a wider vocabulary: thousands of log
        # values, so a last-bit difference in any of them is likely to show
        vocab = (BOS, EOS) + tuple(f"t{i}" for i in range(30))
        for seed in range(60):
            m = random_toy_model(seed, ["s"], vocab=vocab, order=1 + seed % 2)
            for beam, max_len in ((1, 8), (8, 6)):
                assert _bits(beam_search(m, ["s"], beam, max_len)) == _bits(
                    reference_beam_search(m, ["s"], beam, max_len)
                )

    @given(_near_cut_cases())
    @settings(max_examples=300, deadline=None)
    # numpy 2.4's AVX-512 log puts 0.3119985928721877 an ulp below the next
    # float up, where math.log gives both one value: EOS, first in candidate
    # order, ties with "a" and must win, so a cut without margin fails here
    @example((ScriptedModel((BOS, EOS, "a"), [[0.0, 0.3119985928721877, 0.31199859287218773]]), 1, 1))
    def test_matches_reference_near_the_cut(self, case):
        model, beam, max_len = case
        assert _bits(beam_search(model, ["s"], beam, max_len)) == _bits(
            reference_beam_search(model, ["s"], beam, max_len)
        )

    def test_matches_reference_on_dense_rows(self):
        # alpha=1e-4 makes every row dense, as in a smoothed teacher: each
        # step has far more candidates than free slots.  Random counts give
        # distinct values; a few observed targets leave most entries tied at
        # the smoothing floor.
        vocab = (BOS, EOS) + tuple(f"t{i}" for i in range(118))
        for seed in range(3):
            dense = random_toy_model(seed, ["s"], vocab=vocab, alpha=1e-4)
            tied = ToyCondModel(vocab, order=3, alpha=1e-4, buckets=1)
            rng = np.random.RandomState(seed)
            for _ in range(6):
                ids = rng.randint(2, len(vocab), rng.randint(0, 10))
                tied.observe(["s"], [vocab[i] for i in ids] + [EOS])
            for model in (dense, tied):
                for beam in (1, 2, 5, 8):
                    assert _bits(beam_search(model, ["s"], beam, 12)) == _bits(
                        reference_beam_search(model, ["s"], beam, 12)
                    )

    def test_exact_ties_are_capped_per_row(self):
        # two live rows whose scores differ by far less than the margin, then
        # a step with one value in every entry but BOS and EOS: all 40
        # candidates are near the cut, each row's ties are capped on their
        # own, and the slightly better row "b" takes every slot
        vocab = (BOS, EOS, "a", "b") + tuple(f"t{i}" for i in range(18))
        first = [0.0, 0.0, 0.3, 0.3 * (1 + 1e-12)] + [0.0] * 18
        model = ScriptedModel(vocab, [first, [0.0, 0.0] + [0.05] * 20])
        for beam in (2, 5):
            hyps = beam_search(model, ["s"], beam, 2)
            assert [h.tokens[0] for h in hyps] == ["b"] * beam
            assert _bits(hyps) == _bits(reference_beam_search(model, ["s"], beam, 2))

    SOURCES = (["s"], ["t", "u"], ["u"])

    def _models(self):
        scripted = ScriptedModel(TOY_VOCAB, [np.full(5, 0.25) * (np.arange(5) > 0), [0, 0.5, 0, 0.5, 0]])
        toy = ToyCondModel(TOY_VOCAB, order=3, alpha=0.1)
        for seed, src in enumerate(self.SOURCES):
            toy.counts.update(random_toy_model(seed, src, order=3).counts)
        assert len({toy.bucket(src) for src in self.SOURCES}) == len(self.SOURCES)
        return scripted, toy

    def _assert_rows_equal_next_dist(self, prefixes, srcs):
        for model in self._models():
            stacked = np.stack([model.next_dist(p, src) for p, src in zip(prefixes, srcs)])
            for batch in (SeqModel.next_dist_batch(model, prefixes, srcs),
                          model.next_dist_batch(prefixes, srcs)):
                assert batch.shape == stacked.shape
                assert batch.tobytes() == stacked.tobytes()

    def test_next_dist_batch_equals_stacked_next_dist(self):
        prefixes = [[], ["a"], ["a", "b"], ["c", "a", "b", "b"], ["a"]]
        self._assert_rows_equal_next_dist(prefixes, [["s"]] * len(prefixes))

    def test_next_dist_batch_interleaves_sources(self):
        # a lock-step decode sends each source's rows together; any order
        # of sources must answer row for row
        prefixes = [[], ["a"], ["a", "b"], ["c", "a", "b", "b"], ["a"], ["b"], [], ["c"]]
        srcs = [self.SOURCES[k] for k in (0, 1, 2, 0, 2, 1, 1, 0)]
        self._assert_rows_equal_next_dist(prefixes, srcs)
        self._assert_rows_equal_next_dist(prefixes, sorted(srcs))

    def test_next_dist_batch_needs_one_source_per_prefix(self):
        for model in self._models():
            for batch in (SeqModel.next_dist_batch, type(model).next_dist_batch):
                with pytest.raises(ValueError):
                    batch(model, [[], ["a"]], [["s"]])
                with pytest.raises(ValueError):
                    batch(model, [[]], [["s"], ["t", "u"]])


@st.composite
def _batch_cases(draw):
    """A model, 0-6 sources (repeats allowed; the toy model's counts put
    some sources in buckets of their own and leave others unseen), a beam
    size up to |vocab| + 2 and a max_len up to 8."""
    pool = (["s"], ["t"], ["s", "t"], [], ["u", "v", "w"], ["v"])
    vocab = draw(st.sampled_from([TOY_VOCAB, (BOS, EOS) + tuple(f"t{i}" for i in range(10))]))
    if draw(st.booleans()):
        model = ToyCondModel(vocab, order=draw(st.integers(1, 3)),
                             alpha=draw(st.sampled_from([1e-4, 0.1, 1.0])))
        for src in draw(st.lists(st.sampled_from(pool), max_size=4)):
            counts = random_toy_model(draw(st.integers(0, 2**16)), src, vocab=vocab,
                                      order=model.order, alpha=model.alpha).counts
            model.counts.update(counts)
    else:
        weights = st.lists(st.integers(0, 3) | st.floats(0, 3),
                           min_size=len(vocab), max_size=len(vocab))
        model = ScriptedModel(vocab, [_dist_rows(vocab, draw(weights))
                                      for _ in range(draw(st.integers(1, 9)))])
    srcs = draw(st.lists(st.sampled_from(pool), max_size=6))
    return model, srcs, draw(st.integers(1, len(vocab) + 2)), draw(st.integers(1, 8))


class TestBeamSearchBatch:
    @given(_batch_cases())
    @settings(max_examples=200, deadline=None)
    def test_each_source_matches_reference(self, case):
        model, srcs, beam, max_len = case
        beams = beam_search_batch(model, srcs, beam, max_len)
        assert len(beams) == len(srcs)
        for src, hyps in zip(srcs, beams):
            assert _bits(hyps) == _bits(reference_beam_search(model, src, beam, max_len))

    def test_exact_ties_capped_per_source(self):
        # an unseen source's uniform rows retire one hypothesis a step while
        # the trained source keeps its five slots over five tied tokens a
        # row; each source's ties are capped by its own free slots
        vocab = (BOS, EOS) + tuple(f"t{i}" for i in range(10))
        model = ToyCondModel(vocab, order=1, alpha=0.1)
        trained, unseen = ["s"], ["u", "v", "w"]
        assert model.bucket(trained) != model.bucket(unseen)
        model.counts[model.key([], trained)] = np.array([0, 0] + [5.0] * 5 + [0] * 5)
        for srcs in ([trained, unseen], [unseen, trained], [unseen, trained, unseen]):
            beams = beam_search_batch(model, srcs, 5, 3)
            for src, hyps in zip(srcs, beams):
                assert _bits(hyps) == _bits(reference_beam_search(model, src, 5, 3))

    def test_invalid_args_with_no_sources(self):
        m = deterministic_model(TOY_VOCAB, ["a"])
        assert beam_search_batch(m, [], 1, 1) == []
        with pytest.raises(ValueError):
            beam_search_batch(m, [], 0, 4)
        with pytest.raises(ValueError):
            beam_search_batch(m, [], 1, 0)

    def test_seq_kd_build_matches_per_sentence_loop(self, caplog):
        # three chunks of decoded inputs, with failed ones spread among them
        class Failing:
            def translate(self, text, src_lang, tgt_lang):
                if "bad" in text:
                    raise AdapterError(f"boom on {text!r}")
                return text + " ~de"

        words = ("(", ")", "<V0>", "<V1>", ":ARG0", "want-01", "boy", "the", "a", "wants")
        teacher = ToyCondModel(LINEAR_VOCAB, order=2, alpha=0.05, buckets=16)
        rng = np.random.RandomState(5)
        sents = []
        for i in range(2 * DECODE_CHUNK + 7):
            sent = " ".join(rng.choice(words[7:], rng.randint(0, 4)))
            sents.append(f"bad {i}" if i in (3, 40, DECODE_CHUNK, DECODE_CHUNK + 1, 100) else sent)
            if i % 3 == 0:
                target = list(rng.choice(words[:7], rng.randint(0, 6))) + [EOS]
                teacher.observe(sent.split(), target)
        noise = NoiseSpec("mt_adapter", target_lang="DE")
        with caplog.at_level(logging.WARNING, logger="amrkit.distill"):
            records = seq_kd_build(teacher, sents, noise, beam_size=3, max_len=10,
                                   translator=Failing())
        skips = [r.getMessage() for r in caplog.records]

        expected, expected_skips = [], []
        for i, sent in enumerate(sents):
            try:
                src = Failing().translate(sent, "EN", "DE")
            except AdapterError as exc:
                expected_skips.append(f"kd input {i}: {exc}; skipped")
                continue
            top = reference_beam_search(teacher, sent.split(), 3, 10)[0]
            expected.append(CorpusRecord(
                id=f"kd-{i:06d}", lang="DE", split="train", src=src,
                tgt=tuple(repair(strip_sentinels(top.tokens))), provenance="seq-kd",
                meta={"src_en": sent, "noise": "mt_adapter"},
            ))
        assert len(expected_skips) == 5
        assert skips == expected_skips
        assert records == expected


class TestSourceHashedOnce:
    """``ToyCondModel`` keeps the hashes of the sources it saw last; a query
    must answer as a fresh model would, whatever the sources were before."""

    SOURCES = (["p", "q"], ["r"], ["q", "r", "p"])

    def _model(self):
        m = ToyCondModel(V4, order=2, alpha=0.1, buckets=64)
        for src, target in zip(self.SOURCES, (["a", EOS], ["b", "b", EOS], [EOS])):
            m.observe(src, target)
        return m

    def _assert_as_fresh(self, m, src):
        fresh = ToyCondModel(m.vocab, m.order, m.alpha, m.buckets)
        fresh.counts = m.counts
        prefixes = [[], ["a"], ["b", "a"]]
        assert m.bucket(src) == fresh.bucket(src)
        for p in prefixes:
            assert m.next_dist(p, src).tobytes() == fresh.next_dist(p, src).tobytes()
        srcs = [src] * len(prefixes)
        assert (m.next_dist_batch(prefixes, srcs).tobytes()
                == fresh.next_dist_batch(prefixes, srcs).tobytes())

    def test_sources_land_in_distinct_buckets(self):
        m = self._model()
        assert len({m.bucket(s) for s in self.SOURCES}) == len(self.SOURCES)

    def test_list_mutated_between_calls(self):
        m = self._model()
        src = list(self.SOURCES[0])
        self._assert_as_fresh(m, src)
        src[:] = self.SOURCES[1]
        self._assert_as_fresh(m, src)
        src.extend(["q", "p"])
        self._assert_as_fresh(m, src)
        # training follows the mutated source too
        trained, expected = self._model(), self._model()
        src = list(self.SOURCES[0])
        trained.observe(src, ["a", EOS])
        src[:] = self.SOURCES[1]
        trained.observe(src, ["b", EOS])
        expected.observe(tuple(self.SOURCES[0]), ["a", EOS])
        expected.observe(tuple(self.SOURCES[1]), ["b", EOS])
        assert trained.counts.keys() == expected.counts.keys()
        assert all(trained.counts[k].tobytes() == expected.counts[k].tobytes() for k in expected.counts)

    def test_two_sources_alternate(self):
        m = self._model()
        for _ in range(3):
            for src in self.SOURCES[:2]:
                self._assert_as_fresh(m, src)

    def test_list_and_tuple_of_the_same_tokens(self):
        m = self._model()
        for src in (self.SOURCES[2], tuple(self.SOURCES[2]), self.SOURCES[2]):
            self._assert_as_fresh(m, src)

    def test_evicted_sources_answer_as_before(self):
        # more sources than the cache keeps: the first ones are evicted and
        # hashed again when they come back
        m = self._model()
        before = [m.next_dist([], src).tobytes() for src in self.SOURCES]
        for k in range(_SOURCE_CACHE + 10):
            m.bucket([f"w{k}"])
        info = _source_hash.cache_info()
        assert info.currsize == _SOURCE_CACHE
        for src, dist in zip(self.SOURCES, before):
            assert m.next_dist([], src).tobytes() == dist
            self._assert_as_fresh(m, src)
        # each of the first sources missed the cache once, when it came back
        assert _source_hash.cache_info().misses == info.misses + len(self.SOURCES)

    def test_threads_share_the_cache(self):
        # sources hashed by several threads at once, each thread through more
        # sources than the cache keeps, 50 times over, so the threads evict
        # one another's sources all the time
        m = self._model()
        sources = [[[f"t{t}", f"w{k}"] for k in range(_SOURCE_CACHE + 44)] for t in range(4)]
        expected = [[stable_hash(" ".join(sorted(src))) % m.buckets for src in mine] * 50
                    for mine in sources]
        got, errors = [None] * 4, []

        def work(t):
            try:
                got[t] = [m.bucket(src) for src in sources[t] * 50]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and got == expected


class TestExactMode:
    def test_deterministic_model_greedy(self):
        m = deterministic_model(TOY_VOCAB, ["b", "a"])
        assert exact_mode(m, ["x"], 5) == ["b", "a", EOS]

    def test_uniform_ties_break_by_vocabulary_order(self):
        # all length<=1 completions tie at 1/3; EOS is earliest in the vocabulary
        vocab = (BOS, EOS, "a", "b")
        uniform = ScriptedModel(vocab, [np.array([0.0, 1 / 3, 1 / 3, 1 / 3])])
        assert exact_mode(uniform, ["x"], 1) == [EOS]

    def test_too_large(self):
        m = random_toy_model(0, ["s"])
        with pytest.raises(TooLarge):
            exact_mode(m, ["s"], 10)

    def test_matches_saturated_beam_on_random_models(self):
        for seed in range(100, 150):
            m = random_toy_model(seed, ["s"])
            assert exact_mode(m, ["s"], 4) == list(beam_search(m, ["s"], 81, 4)[0].tokens)


class TestExactSeqKl:
    def test_student_equals_teacher(self):
        m = random_toy_model(4, ["s"])
        assert exact_seq_kl(m, m, ["s"], ["s"], 4) == pytest.approx(0.0, abs=1e-12)

    def test_independent_steps_sum_like_chain_rule(self):
        vocab = (BOS, EOS, "a", "b")
        p = ScriptedModel(vocab, [np.array([0.0, 0.0, 0.5, 0.5])])
        q = ScriptedModel(vocab, [np.array([0.0, 0.0, 0.25, 0.75])])
        step_kl = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        got = exact_seq_kl(p, q, ["x"], ["y"], 3)
        assert got == pytest.approx(3 * step_kl, rel=1e-9)

    def test_nonnegative_on_random_pairs(self):
        for seed in range(40):
            s = random_toy_model(seed, ["s"])
            t = random_toy_model(seed + 1000, ["s"])
            assert exact_seq_kl(s, t, ["s"], ["s"], 3) >= 0.0

    def test_support_mismatch_is_infinite(self):
        vocab = (BOS, EOS, "a")
        s = ScriptedModel(vocab, [np.array([0.0, 0.5, 0.5])])
        teachers = (
            [[0.0, 1.0, 0.0]],  # zero on "a" at the first step
            [[0.0, 0.5, 0.5], [0.0, 1.0, 0.0]],  # zero on "a" at step 2 only
            [[0.0, 0.0, 1.0]],  # zero on EOS only
        )
        for rows in teachers:
            t = ScriptedModel(vocab, [np.array(r) for r in rows])
            assert exact_seq_kl(s, t, ["x"], ["y"], 2) == math.inf

    def test_too_large(self):
        m = random_toy_model(0, ["s"])
        with pytest.raises(TooLarge):
            exact_seq_kl(m, m, ["s"], ["s"], 12)

    def test_max_len_below_one_is_rejected(self):
        m = random_toy_model(0, ["s"])
        for max_len in (0, -1):
            with pytest.raises(ValueError, match="max_len"):
                exact_seq_kl(m, m, ["s"], ["s"], max_len)
            with pytest.raises(ValueError, match="max_len"):
                exact_mode(m, ["s"], max_len)


class TestCompleteSequences:
    def test_each_model_sums_to_one(self):
        # the truncated sequence space is a proper probability space: under
        # each model of a pair, the complete sequences carry all the mass
        vocab = (BOS, EOS, "a", "b", "c")
        for seed in range(12):
            order = 1 + seed % 3
            first = random_toy_model(seed, ["s"], vocab=vocab, order=order)
            second = random_toy_model(seed + 100, ["t"], vocab=vocab, order=order, alpha=1e-3)
            for max_len in (1, 2, 3, 4):
                seqs = list(complete_sequences([(first, ["s"]), (second, ["t"])], max_len))
                # every content string of length 0..max_len, each ending in EOS
                assert len(seqs) == sum(3 ** k for k in range(max_len + 1))
                assert all(ids[-1] == first.index(EOS) for ids, _ in seqs)
                for k in range(2):
                    total = math.fsum(math.exp(lps[k]) for _, lps in seqs)
                    assert total == pytest.approx(1.0, abs=1e-9)


class TestSeqKdBuild:
    def test_deterministic_teacher_targets_equal_greedy(self):
        teacher = deterministic_model(LINEAR_VOCAB, ["(", "<V0>", "want-01", ")"])
        inputs = ["the boy wants", "he wants", "wanting happens"]
        records = seq_kd_build(teacher, inputs, NoiseSpec("none"), beam_size=5, max_len=10)
        assert len(records) == 3
        for rec, sent in zip(records, inputs):
            assert rec.src == sent  # identity noise
            assert rec.meta["src_en"] == sent
            assert rec.provenance == "seq-kd"
            assert list(rec.tgt) == ["(", "<V0>", "want-01", ")"]

    def test_targets_always_repair_valid(self):
        # an untrained teacher emits near-arbitrary tokens; targets must
        # still delinearize after repair
        teacher = ToyCondModel(LINEAR_VOCAB, order=2, alpha=0.5)
        records = seq_kd_build(
            teacher, [f"sentence {i}" for i in range(20)], NoiseSpec("none"), beam_size=3, max_len=8
        )
        assert len(records) == 20
        assert all(validate_linear(list(r.tgt)) for r in records)

    def test_word_delete_noise_applied_and_fixed_per_sentence(self):
        teacher = deterministic_model(LINEAR_VOCAB, ["(", "<V0>", "boy", ")"])
        noise = NoiseSpec("word_delete", rate=0.5, seed=3)
        sents = ["one two three four", "five six seven eight"]
        a = seq_kd_build(teacher, sents, noise, beam_size=1, max_len=8)
        b = seq_kd_build(teacher, sents, noise, beam_size=1, max_len=8)
        assert [r.src for r in a] == [r.src for r in b]
        assert all(MASK in r.src for r in a)
        assert all(r.meta["noise"] == "word_delete" for r in a)

    def test_mt_noise_tags_language(self):
        teacher = deterministic_model(LINEAR_VOCAB, ["(", "<V0>", "boy", ")"])
        noise = NoiseSpec("mt_adapter", target_lang="DE")
        records = seq_kd_build(teacher, ["good morning"], noise, beam_size=1, max_len=8)
        assert records[0].lang == "DE"
        assert records[0].src != "good morning"

    def test_adapter_failure_skips_record(self, tmp_path):
        from amrkit.pipeline import AdapterError, CommandTranslator

        class Failing:
            def translate(self, text, src_lang, tgt_lang):
                if "bad" in text:
                    raise AdapterError("boom")
                return text + "~de"

        teacher = deterministic_model(LINEAR_VOCAB, ["(", "<V0>", "boy", ")"])
        decoded = set()
        scripted = teacher.next_dist
        teacher.next_dist = lambda prefix, src: decoded.add(" ".join(src)) or scripted(prefix, src)
        noise = NoiseSpec("mt_adapter", target_lang="DE")
        cmd, _ = counting_adapter(tmp_path)
        for tr in (Failing(), CommandTranslator(cmd)):
            records = seq_kd_build(teacher, ["ok one", "bad two", "ok three"], noise,
                                   translator=tr, beam_size=1, max_len=8)
            assert [r.meta["src_en"] for r in records] == ["ok one", "ok three"]
            assert [r.id for r in records] == ["kd-000000", "kd-000002"]
        assert decoded == {"ok one", "ok three"}  # the failed input is never decoded

    def test_jobs_other_than_one_rejected(self):
        teacher = deterministic_model(LINEAR_VOCAB, ["(", "<V0>", "boy", ")"])
        with pytest.raises(ValueError):
            seq_kd_build(teacher, ["one"], NoiseSpec("none"), jobs=2)


class TestTrain:
    def from_pairs(self, pairs):
        return [
            KdBatch(tuple(KdRecord(tuple(x), tuple(x), tuple(y)) for x, y in pairs))
        ]

    def test_empty_batches_leave_model_unchanged(self):
        m = ToyCondModel(V4)
        out = train(m, [], "mle")
        assert out is m and not m.counts

    def test_mle_loss_nonincreasing_over_epochs(self):
        m = ToyCondModel(V4, order=2, alpha=0.1)
        pair = (["s"], ["a", "b", EOS])
        batches = self.from_pairs([pair])
        losses = []
        for _ in range(6):
            losses.append(mle_loss(m, *pair))
            train(m, batches, "mle")
        losses.append(mle_loss(m, *pair))
        assert all(losses[i + 1] <= losses[i] + 1e-12 for i in range(len(losses) - 1))

    def test_token_kd_pulls_student_toward_teacher(self):
        teacher = random_toy_model(11, ["s"])
        student = ToyCondModel(TOY_VOCAB, order=2, alpha=0.1)
        y = ["a", "b", "c", EOS]
        batches = [KdBatch((KdRecord(("s",), ("s",), tuple(y)),))]
        before = token_kd_loss(student, teacher, ["s"], ["s"], y)
        for _ in range(50):
            train(student, batches, "token_kd", teacher=teacher)
        after = token_kd_loss(student, teacher, ["s"], ["s"], y)
        assert after < before

    def test_seq_kd_reduces_sequence_kl(self):
        # the mode approximation transfers knowledge when the teacher is
        # concentrated, so use a trained teacher rather than a diffuse one
        teacher = ToyCondModel(TOY_VOCAB, order=2, alpha=0.1)
        for _ in range(8):
            teacher.observe(["s"], ["a", "b", EOS])
        student = ToyCondModel(TOY_VOCAB, order=2, alpha=0.1)
        mode = beam_search(teacher, ["s"], 5, 3)[0].tokens
        batches = [KdBatch((KdRecord(("s",), ("s",), tuple(mode)),))]
        before = exact_seq_kl(student, teacher, ["s"], ["s"], 3)
        for _ in range(4):
            train(student, batches, "seq_kd")
        after = exact_seq_kl(student, teacher, ["s"], ["s"], 3)
        assert after < before

    def test_tok_plus_seq_accumulates_both(self):
        teacher = random_toy_model(31, ["s"])
        student = ToyCondModel(TOY_VOCAB, order=2, alpha=0.1)
        y = ("a", EOS)
        batches = [KdBatch((KdRecord(("s",), ("s",), y),))]
        train(student, batches, "tok_plus_seq", teacher=teacher)
        cell = student.counts[student.key((), ("s",))]
        # one hard count on 'a' plus the teacher's soft distribution
        assert cell.sum() == pytest.approx(1.0 + 1.0, rel=1e-9)
        assert cell[student.index("a")] > 1.0

    @pytest.mark.parametrize("objective", ["token_kd", "tok_plus_seq"])
    def test_teacher_counts_match_per_token_loop(self, objective):
        vocab = (BOS, EOS) + tuple(f"t{i}" for i in range(8))
        sources = (("s",), ("t", "u"), ("u",), ())
        teacher = ToyCondModel(vocab, order=3, alpha=1e-3, buckets=64)
        for seed, src in enumerate(sources):
            teacher.counts.update(random_toy_model(seed, list(src), vocab=vocab, order=3).counts)
        rng = np.random.RandomState(9)
        batches = [
            KdBatch(tuple(
                KdRecord(sources[rng.randint(4)], sources[rng.randint(4)],
                         tuple(vocab[i] for i in rng.randint(2, len(vocab), rng.randint(0, 7)))
                         + (EOS,))
                for _ in range(5)
            ))
            for _ in range(4)
        ]
        student = train(ToyCondModel(vocab, order=2), batches, objective, teacher=teacher)
        expected = reference_train(ToyCondModel(vocab, order=2), batches, objective, teacher)
        assert student.counts.keys() == expected.counts.keys()
        assert all(student.counts[k].tobytes() == expected.counts[k].tobytes()
                   for k in expected.counts)

    def test_objective_validation(self):
        m = ToyCondModel(V4)
        with pytest.raises(ValueError):
            train(m, [], "nonsense")
        with pytest.raises(ValueError):
            train(m, [KdBatch((KdRecord(("s",), ("s",), ("a", EOS)),))], "token_kd")

    def test_missing_target_rejected(self):
        m = ToyCondModel(V4)
        with pytest.raises(ValueError):
            train(m, [KdBatch((KdRecord(("s",), ("s",), None),))], "mle")

    def test_seq_kd_target_outside_vocabulary_skipped(self, caplog):
        # an untrained teacher's output repairs to the fallback, whose
        # placeholder concept this vocabulary lacks
        vocab = (BOS, EOS, "(", ")", "<V0>", "boy", ":ARG0")
        teacher = ToyCondModel(vocab)
        records = seq_kd_build(teacher, ["the boy", "a boy"], NoiseSpec("none"), beam_size=2, max_len=8)
        assert [r.tgt for r in records] == [("(", "<V0>", "amr-empty", ")")] * 2
        student = ToyCondModel(vocab)
        with caplog.at_level("WARNING", logger="amrkit.distill"):
            train(student, kd_batches_from_corpus(records), "seq_kd")
        assert not student.counts
        assert caplog.text.count("'amr-empty' not in vocabulary") == 2


class TestKdBatchesFromCorpus:
    def test_null_src_en_counts_as_absent(self):
        # as in bt_filter: the teacher then reads the record's own source
        rec = CorpusRecord("r", "DE", "train", "ein satz", tgt=("a",), provenance="seq-kd",
                           meta={"src_en": None})
        (batch,) = kd_batches_from_corpus([rec])
        assert batch.records == (KdRecord(("ein", "satz"), ("ein", "satz"), ("a", EOS)),)

    def test_round_trip_fields(self):
        teacher = deterministic_model(LINEAR_VOCAB, ["(", "<V0>", "boy", ")"])
        records = seq_kd_build(
            teacher, ["one two", "three four"], NoiseSpec("word_delete", rate=0.5, seed=1)
        )
        batches = kd_batches_from_corpus(records, batch_size=1)
        assert len(batches) == 2
        rec = batches[0].records[0]
        assert rec.x_star == ("one", "two")
        assert rec.y[-1] == EOS
        assert MASK in rec.x
